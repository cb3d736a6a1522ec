#include "tree/cluster_tree.hpp"

#include <cmath>
#include <numeric>
#include <string>

#include "common/errors.hpp"

namespace h2sketch::tree {

ClusterTree ClusterTree::build(PointCloud points, index_t leaf_size) {
  for (index_t i = 0; i < points.size(); ++i)
    for (index_t d = 0; d < points.dim(); ++d)
      if (!std::isfinite(points.coord(i, d)))
        throw InvalidArgumentError("ClusterTree::build: coordinate " + std::to_string(d) +
                                   " of point " + std::to_string(i) + " is not finite");
  geo::KdClustering clustering = geo::build_kd_clustering(points, leaf_size);
  return from_parts(std::move(points), std::move(clustering));
}

ClusterTree ClusterTree::from_parts(PointCloud points, geo::KdClustering clustering) {
  H2S_CHECK(static_cast<index_t>(clustering.perm.size()) == points.size(),
            "from_parts: clustering does not match point count");
  ClusterTree t;
  t.clustering_ = std::move(clustering);
  t.points_ = std::move(points);
  t.positions_.resize(t.clustering_.perm.size());
  std::iota(t.positions_.begin(), t.positions_.end(), index_t{0});
  return t;
}

index_t ClusterTree::max_leaf_size() const {
  const index_t l = leaf_level();
  index_t mx = 0;
  for (index_t i = 0; i < nodes_at(l); ++i) mx = std::max(mx, size(l, i));
  return mx;
}

} // namespace h2sketch::tree
