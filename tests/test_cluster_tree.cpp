#include "tree/cluster_tree.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/errors.hpp"
#include "test_common.hpp"

namespace h2sketch::tree {
namespace {

struct TreeCase {
  index_t n;
  index_t dim;
  index_t leaf_size;
  std::uint64_t seed;
};

class ClusterTreeProps : public ::testing::TestWithParam<TreeCase> {
 protected:
  ClusterTree make() const {
    const auto p = GetParam();
    return test_util::cube_tree(p.n, p.dim, p.seed, p.leaf_size);
  }
};

TEST_P(ClusterTreeProps, PermIsABijection) {
  const ClusterTree t = make();
  std::vector<index_t> sorted = t.perm();
  std::sort(sorted.begin(), sorted.end());
  for (index_t i = 0; i < t.num_points(); ++i) EXPECT_EQ(sorted[static_cast<size_t>(i)], i);
}

TEST_P(ClusterTreeProps, EveryLevelPartitionsTheIndexRange) {
  const ClusterTree t = make();
  for (index_t l = 0; l < t.num_levels(); ++l) {
    index_t expect_begin = 0;
    for (index_t i = 0; i < t.nodes_at(l); ++i) {
      EXPECT_EQ(t.begin(l, i), expect_begin);
      EXPECT_GE(t.size(l, i), 0);
      expect_begin = t.end(l, i);
    }
    EXPECT_EQ(expect_begin, t.num_points());
  }
}

TEST_P(ClusterTreeProps, PositionsListEachNodesRangeAfterBuildAndFromParts) {
  const ClusterTree built = make();
  const ClusterTree parts = ClusterTree::from_parts(built.points(), built.clustering());
  for (const ClusterTree* t : {&built, &parts})
    for (index_t l = 0; l < t->num_levels(); ++l)
      for (index_t i = 0; i < t->nodes_at(l); ++i) {
        const const_index_span pos = t->positions(l, i);
        ASSERT_EQ(static_cast<index_t>(pos.size()), t->size(l, i)) << l << "," << i;
        for (index_t p = 0; p < t->size(l, i); ++p)
          EXPECT_EQ(pos[static_cast<size_t>(p)], t->begin(l, i) + p) << l << "," << i;
      }
}

TEST_P(ClusterTreeProps, ChildrenPartitionParent) {
  const ClusterTree t = make();
  for (index_t l = 0; l + 1 < t.num_levels(); ++l) {
    for (index_t i = 0; i < t.nodes_at(l); ++i) {
      EXPECT_EQ(t.begin(l + 1, 2 * i), t.begin(l, i));
      EXPECT_EQ(t.end(l + 1, 2 * i), t.begin(l + 1, 2 * i + 1));
      EXPECT_EQ(t.end(l + 1, 2 * i + 1), t.end(l, i));
    }
  }
}

TEST_P(ClusterTreeProps, LeafSizesBoundedAndBalanced) {
  const ClusterTree t = make();
  const index_t l = t.leaf_level();
  index_t mn = t.num_points(), mx = 0;
  for (index_t i = 0; i < t.nodes_at(l); ++i) {
    mn = std::min(mn, t.size(l, i));
    mx = std::max(mx, t.size(l, i));
  }
  // Depth may be capped when leaf_size is tiny so that no leaf is empty;
  // otherwise the requested bound holds.
  const bool depth_capped = 2 * t.nodes_at(l) > t.num_points();
  if (!depth_capped) EXPECT_LE(mx, GetParam().leaf_size);
  EXPECT_GE(mn, 1);
  EXPECT_LE(mx - mn, 1); // median splits keep siblings within one point
}

TEST_P(ClusterTreeProps, BoxesContainTheirPoints) {
  const ClusterTree t = make();
  for (index_t l = 0; l < t.num_levels(); ++l) {
    for (index_t i = 0; i < t.nodes_at(l); ++i) {
      const auto& box = t.box(l, i);
      for (index_t p = t.begin(l, i); p < t.end(l, i); ++p)
        EXPECT_TRUE(box.contains(t.points(), t.original_index(p)));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SizesDimsLeaves, ClusterTreeProps,
    ::testing::Values(TreeCase{256, 3, 32, 1}, TreeCase{1000, 3, 64, 2}, TreeCase{513, 2, 16, 3},
                      TreeCase{777, 1, 8, 4}, TreeCase{64, 3, 64, 5}, TreeCase{65, 3, 64, 6},
                      TreeCase{100, 2, 1, 7}));

TEST(ClusterTree, SingleNodeWhenLeafCoversAll) {
  const ClusterTree t = test_util::cube_tree(50, 3, 8, 64);
  EXPECT_EQ(t.num_levels(), 1);
  EXPECT_EQ(t.leaf_level(), 0);
  EXPECT_EQ(t.size(0, 0), 50);
}

TEST(ClusterTree, DepthMatchesLeafBound) {
  const ClusterTree t = test_util::cube_tree(1024, 3, 9, 64);
  // 1024 / 64 = 16 leaves -> 5 levels (root + 4 splits).
  EXPECT_EQ(t.num_levels(), 5);
  EXPECT_EQ(t.max_leaf_size(), 64);
}

TEST(ClusterTree, DuplicatePointsAreHandled) {
  geo::PointCloud pc(128, 3); // all points identical at the origin
  const ClusterTree t = ClusterTree::build(pc, 16);
  EXPECT_EQ(t.max_leaf_size(), 16);
  for (index_t i = 0; i < t.nodes_at(t.leaf_level()); ++i)
    EXPECT_DOUBLE_EQ(t.box(t.leaf_level(), i).diameter(), 0.0);
}

TEST(ClusterTree, SplitsReduceBoxExtentAlongSomeAxis) {
  const ClusterTree t = test_util::cube_tree(512, 3, 10, 32);
  // Child diameters never exceed the parent's.
  for (index_t l = 0; l + 1 < t.num_levels(); ++l)
    for (index_t i = 0; i < t.nodes_at(l); ++i) {
      EXPECT_LE(t.box(l + 1, 2 * i).diameter(), t.box(l, i).diameter() + 1e-12);
      EXPECT_LE(t.box(l + 1, 2 * i + 1).diameter(), t.box(l, i).diameter() + 1e-12);
    }
}

TEST(ClusterTree, CoordPermutedConsistent) {
  const ClusterTree t = test_util::cube_tree(100, 2, 11, 10);
  for (index_t p = 0; p < 100; ++p)
    for (index_t d = 0; d < 2; ++d)
      EXPECT_EQ(t.coord_permuted(p, d), t.points().coord(t.original_index(p), d));
}

TEST(ClusterTree, RejectsNonFiniteCoordinates) {
  // One NaN used to surface later as "norm estimate must be positive".
  for (const real_t bad : {std::nan(""), HUGE_VAL}) {
    geo::PointCloud pc = geo::uniform_random_cube(64, 3, 12);
    pc.coord(17, 1) = bad;
    try {
      (void)ClusterTree::build(std::move(pc), 8);
      FAIL() << "coordinate " << bad << " accepted";
    } catch (const InvalidArgumentError& e) {
      EXPECT_FALSE(e.retryable());
    }
  }
}

} // namespace
} // namespace h2sketch::tree
