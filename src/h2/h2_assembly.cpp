#include "h2/h2_assembly.hpp"

#include <utility>
#include <vector>

namespace h2sketch::h2 {

void generate_near_field(batched::ExecutionContext& ctx, H2Matrix& a,
                         const kern::EntryGenerator& gen) {
  const tree::ClusterTree& t = *a.tree;
  const index_t leaf = t.leaf_level();
  const auto& near = a.mtree.near_leaf;
  for (index_t r = 0; r < t.nodes_at(leaf); ++r)
    for (index_t j = 0; j < near.row_count(r); ++j) {
      const index_t e = near.row_ptr[static_cast<size_t>(r)] + j;
      a.dense.set_shape(e, t.size(leaf, r), t.size(leaf, near.col[static_cast<size_t>(e)]));
    }
  a.dense.allocate(ctx.device());
  std::vector<kern::BlockRequest> reqs;
  reqs.reserve(static_cast<size_t>(near.count()));
  for (index_t r = 0; r < t.nodes_at(leaf); ++r)
    for (index_t j = 0; j < near.row_count(r); ++j) {
      const index_t e = near.row_ptr[static_cast<size_t>(r)] + j;
      reqs.push_back({t.positions(leaf, r), t.positions(leaf, near.col[static_cast<size_t>(e)]),
                      a.dense.dev(e)});
    }
  kern::batched_generate(ctx, batched::kEntryGenStream, gen, std::move(reqs));
}

void generate_coupling(batched::ExecutionContext& ctx, H2Matrix& a,
                       const kern::EntryGenerator& gen, index_t first, index_t last) {
  std::vector<kern::BlockRequest> reqs;
  for (index_t l = first; l < last; ++l) {
    const auto ul = static_cast<size_t>(l);
    const auto& far = a.mtree.far[ul];
    if (far.empty()) continue;
    const auto& skel = a.skeleton[ul];
    for (index_t r = 0; r < a.tree->nodes_at(l); ++r)
      for (index_t j = 0; j < far.row_count(r); ++j) {
        const index_t e = far.row_ptr[static_cast<size_t>(r)] + j;
        const index_t c = far.col[static_cast<size_t>(e)];
        if (r < c)
          a.coupling[ul].set_shape(e, static_cast<index_t>(skel[static_cast<size_t>(r)].size()),
                                   static_cast<index_t>(skel[static_cast<size_t>(c)].size()));
      }
    a.coupling[ul].allocate(ctx.device());
    for (index_t r = 0; r < a.tree->nodes_at(l); ++r)
      for (index_t j = 0; j < far.row_count(r); ++j) {
        const index_t e = far.row_ptr[static_cast<size_t>(r)] + j;
        const index_t c = far.col[static_cast<size_t>(e)];
        if (r < c)
          reqs.push_back({skel[static_cast<size_t>(r)], skel[static_cast<size_t>(c)],
                          a.coupling[ul].dev(e)});
      }
  }
  if (!reqs.empty())
    kern::batched_generate(ctx, batched::kEntryGenStream, gen, std::move(reqs));
}

void set_skeleton(H2Matrix& a, index_t level, index_t i, const_index_span local) {
  const auto ul = static_cast<size_t>(level);
  const auto k = static_cast<index_t>(local.size());
  a.ranks[ul][static_cast<size_t>(i)] = k;
  auto& skel = a.skeleton[ul][static_cast<size_t>(i)];
  skel.resize(local.size());
  if (level == a.leaf_level()) {
    const index_t b = a.tree->begin(level, i);
    for (index_t s = 0; s < k; ++s)
      skel[static_cast<size_t>(s)] = b + local[static_cast<size_t>(s)];
    return;
  }
  const auto& s1 = a.skeleton[ul + 1][static_cast<size_t>(2 * i)];
  const auto& s2 = a.skeleton[ul + 1][static_cast<size_t>(2 * i + 1)];
  const auto r1 = static_cast<index_t>(s1.size());
  for (index_t s = 0; s < k; ++s) {
    const index_t j = local[static_cast<size_t>(s)];
    skel[static_cast<size_t>(s)] =
        j < r1 ? s1[static_cast<size_t>(j)] : s2[static_cast<size_t>(j - r1)];
  }
}

} // namespace h2sketch::h2
