#pragma once

#include <utility>
#include <vector>

#include "geometry/kdtree.hpp"
#include "geometry/point_cloud.hpp"

/// \file cluster_tree.hpp
/// The cluster tree I (paper §II-A, Fig. 1): a perfect binary hierarchy of
/// index clusters, each a contiguous range of the KD-permuted point order.
/// All construction, matvec and entry-generation code operates in permuted
/// index space; `perm()` maps back to the caller's original point indices.

namespace h2sketch::tree {

using geo::BoundingBox;
using geo::PointCloud;

class ClusterTree {
 public:
  /// Build from a point cloud via median-split KD clustering. Throws
  /// InvalidArgumentError if a coordinate is not finite.
  static ClusterTree build(PointCloud points, index_t leaf_size);

  /// Reassemble from previously built parts (deserialization): the
  /// clustering must describe exactly the given points.
  static ClusterTree from_parts(PointCloud points, geo::KdClustering clustering);

  /// The raw clustering (serialization).
  const geo::KdClustering& clustering() const { return clustering_; }

  index_t num_points() const { return static_cast<index_t>(clustering_.perm.size()); }
  index_t dim() const { return points_.dim(); }

  /// Total levels; root is level 0, leaves are level num_levels()-1.
  index_t num_levels() const { return clustering_.num_levels; }
  index_t leaf_level() const { return clustering_.num_levels - 1; }

  /// Number of clusters at a level (2^level).
  index_t nodes_at(index_t level) const { return index_t{1} << level; }

  /// Permuted index range [begin, end) of cluster i at `level`.
  index_t begin(index_t level, index_t i) const { return node(level, i).begin; }
  index_t end(index_t level, index_t i) const { return node(level, i).end; }
  index_t size(index_t level, index_t i) const { return node(level, i).size(); }

  /// The positions [begin, end) of cluster i at `level`, as an index list
  /// (a view into one list the tree owns): the row or column set of a block
  /// over whole clusters.
  const_index_span positions(index_t level, index_t i) const {
    return const_index_span(positions_).subspan(static_cast<size_t>(begin(level, i)),
                                                 static_cast<size_t>(size(level, i)));
  }

  /// Tight bounding box of cluster i at `level`.
  const BoundingBox& box(index_t level, index_t i) const { return node(level, i).box; }

  /// Largest leaf cluster size (the effective leaf size).
  index_t max_leaf_size() const;

  /// Permuted position -> original point index.
  const std::vector<index_t>& perm() const { return clustering_.perm; }
  index_t original_index(index_t pos) const {
    return clustering_.perm[static_cast<size_t>(pos)];
  }

  /// The clustered geometry (original point order).
  const PointCloud& points() const { return points_; }

  /// Coordinate of the point at *permuted* position pos.
  real_t coord_permuted(index_t pos, index_t d) const {
    return points_.coord(original_index(pos), d);
  }

 private:
  const geo::KdNode& node(index_t level, index_t i) const {
    return clustering_.nodes[static_cast<size_t>((index_t{1} << level) - 1 + i)];
  }

  PointCloud points_;
  geo::KdClustering clustering_;
  std::vector<index_t> positions_; ///< 0 .. N-1
};

} // namespace h2sketch::tree
