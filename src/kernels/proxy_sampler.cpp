#include "kernels/proxy_sampler.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <numbers>
#include <numeric>
#include <vector>

#include "backend/device_matrix.hpp"
#include "batched/batched_id.hpp"
#include "common/timer.hpp"
#include "h2/h2_matvec.hpp"
#include "kernels/dense_sampler.hpp"
#include "kernels/entry_gen.hpp"
#include "la/blas.hpp"
#include "tree/admissibility.hpp"

namespace h2sketch::kern {

namespace {

/// Entry generator over the cluster points *extended by proxy points*:
/// indices < N address permuted cluster positions (so skeleton/leaf index
/// sets work unchanged), indices >= N address proxy points appended with
/// add_point. All proxy points are appended before the first generate call,
/// so the coordinate table is stable across launches.
class ProxyEntryGenerator final : public EntryGenerator {
 public:
  ProxyEntryGenerator(const tree::ClusterTree& tree, const KernelFunction& kernel)
      : kernel_(&kernel), dim_(tree.dim()), n_(tree.num_points()) {
    coords_.resize(static_cast<size_t>(n_ * dim_));
    for (index_t p = 0; p < n_; ++p)
      for (index_t d = 0; d < dim_; ++d)
        coords_[static_cast<size_t>(p * dim_ + d)] = tree.coord_permuted(p, d);
  }

  /// Append a proxy point; returns its extended index (>= N).
  index_t add_point(const real_t* x) {
    for (index_t d = 0; d < dim_; ++d) coords_.push_back(x[d]);
    return n_ + num_proxy_++;
  }

  index_t num_proxy() const { return num_proxy_; }

  void generate_block(const_index_span rows, const_index_span cols,
                      MatrixView out) const override {
    H2S_CHECK(out.rows == static_cast<index_t>(rows.size()) &&
                  out.cols == static_cast<index_t>(cols.size()),
              "generate_block: shape mismatch");
    for (index_t j = 0; j < out.cols; ++j) {
      const real_t* yc = &coords_[static_cast<size_t>(cols[static_cast<size_t>(j)] * dim_)];
      for (index_t i = 0; i < out.rows; ++i) {
        const real_t* xc = &coords_[static_cast<size_t>(rows[static_cast<size_t>(i)] * dim_)];
        out(i, j) = kernel_->evaluate(xc, yc, dim_);
      }
    }
    record_entries(out.rows * out.cols);
  }

 private:
  const KernelFunction* kernel_;
  index_t dim_;
  index_t n_;
  index_t num_proxy_ = 0;
  std::vector<real_t> coords_; ///< cluster coords then proxy coords, point-major
};

/// Proxy count per shell for a given tolerance and dimension: H2Pack's
/// surface-density heuristic (6 q^2 on a sphere with q decimal digits of
/// tolerance), reduced for lower dimensions.
index_t auto_points_per_shell(real_t tol, index_t dim) {
  const real_t digits = -std::log10(std::max(tol, real_t(1e-15)));
  const index_t q = std::clamp<index_t>(static_cast<index_t>(std::ceil(digits)), 4, 10);
  if (dim >= 3) return 6 * q * q;
  if (dim == 2) return std::max<index_t>(8 * q, 24);
  return 2;
}

/// Append one shell of radius r around center c to the generator; collects
/// the extended indices. Shell s gets a deterministic angular offset so
/// consecutive shells don't stack points along the same rays.
void add_shell(ProxyEntryGenerator& pgen, const real_t* c, real_t r, index_t m, index_t dim,
               index_t shell, std::vector<index_t>& out) {
  const real_t ga = std::numbers::pi * (3.0 - std::sqrt(5.0)); // golden angle
  real_t x[3] = {0, 0, 0};
  if (dim >= 3) {
    // Fibonacci sphere: near-uniform coverage at any m.
    for (index_t i = 0; i < m; ++i) {
      const real_t z = 1.0 - 2.0 * (static_cast<real_t>(i) + 0.5) / static_cast<real_t>(m);
      const real_t rho = std::sqrt(std::max(real_t(0), 1.0 - z * z));
      const real_t phi = ga * static_cast<real_t>(i) + 0.5 * ga * static_cast<real_t>(shell);
      x[0] = c[0] + r * rho * std::cos(phi);
      x[1] = c[1] + r * rho * std::sin(phi);
      x[2] = c[2] + r * z;
      out.push_back(pgen.add_point(x));
    }
  } else if (dim == 2) {
    for (index_t i = 0; i < m; ++i) {
      const real_t phi = 2.0 * std::numbers::pi * (static_cast<real_t>(i) + 0.5) /
                             static_cast<real_t>(m) +
                         ga * static_cast<real_t>(shell);
      x[0] = c[0] + r * std::cos(phi);
      x[1] = c[1] + r * std::sin(phi);
      out.push_back(pgen.add_point(x));
    }
  } else {
    x[0] = c[0] - r;
    out.push_back(pgen.add_point(x));
    x[0] = c[0] + r;
    out.push_back(pgen.add_point(x));
  }
}

} // namespace

ProxyMatVecSampler::ProxyMatVecSampler(std::shared_ptr<const tree::ClusterTree> tree,
                                       const KernelFunction& kernel,
                                       const ProxySamplerOptions& opts)
    : tree_(std::move(tree)) {
  batched::ExecutionContext build_ctx;
  build(kernel, opts, build_ctx);
  ctx_ = std::make_unique<batched::ExecutionContext>(surrogate_.execution_config());
}

ProxyMatVecSampler::ProxyMatVecSampler(std::shared_ptr<const tree::ClusterTree> tree,
                                       const KernelFunction& kernel,
                                       const ProxySamplerOptions& opts,
                                       batched::ExecutionContext& build_ctx)
    : tree_(std::move(tree)) {
  build(kernel, opts, build_ctx);
  ctx_ = std::make_unique<batched::ExecutionContext>(surrogate_.execution_config());
}

index_t ProxyMatVecSampler::size() const { return tree_->num_points(); }

void ProxyMatVecSampler::sample(ConstMatrixView omega, MatrixView y) {
  h2::h2_matvec(*ctx_, surrogate_, omega, y);
  record_samples(omega.cols);
}

void ProxyMatVecSampler::build(const KernelFunction& kernel, ProxySamplerOptions opts,
                               batched::ExecutionContext& ctx) {
  const double t0 = wall_seconds();
  if (opts.tol <= 0) opts.tol = 1e-6;
  H2S_CHECK(opts.eta > 0, "proxy sampler needs a positive admissibility eta");
  H2S_CHECK(opts.num_shells >= 1, "proxy sampler needs at least one shell");

  const tree::ClusterTree& t = *tree_;
  const index_t dim = t.dim();
  const index_t leaf = t.leaf_level();

  surrogate_.tree = tree_;
  surrogate_.mtree = tree::MatrixTree::build(t, tree::Admissibility::general(opts.eta));
  surrogate_.init_structure();

  ProxyEntryGenerator pgen(t, kernel);
  const bool has_far = surrogate_.mtree.has_any_far();

  // Proxy geometry for every node that carries a basis (levels leaf..1):
  // num_shells concentric shells from just inside the admissibility buffer
  // (no admissible source can be closer than ~diameter/(2 eta) to the box)
  // out to the radius enclosing the whole domain. Pure geometry, laid out
  // for all levels before the first generate launch: appending a point may
  // reallocate the coordinate table that in-flight launches read.
  std::vector<std::vector<std::vector<index_t>>> proxy_idx(static_cast<size_t>(leaf + 1));
  if (has_far) {
    const index_t per_shell =
        opts.points_per_shell > 0 ? opts.points_per_shell : auto_points_per_shell(opts.tol, dim);
    const geo::BoundingBox& root_box = t.box(0, 0);
    for (index_t l = 1; l <= leaf; ++l) {
      proxy_idx[static_cast<size_t>(l)].resize(static_cast<size_t>(t.nodes_at(l)));
      for (index_t i = 0; i < t.nodes_at(l); ++i) {
        const geo::BoundingBox& b = t.box(l, i);
        real_t c[3] = {0, 0, 0};
        for (index_t d = 0; d < dim; ++d) c[d] = b.center(d);
        const real_t diam = b.diameter();
        const real_t scale = 1.0 + std::abs(c[0]) + std::abs(c[1]) + std::abs(c[2]);
        // Guard degenerate boxes (duplicate points) with a tiny radius floor.
        const real_t r_inner = std::max(0.5 * diam + opts.inner_gap_fraction * diam / opts.eta,
                                        real_t(1e-8) * scale);
        const real_t r_outer = std::max(root_box.max_corner_distance(c), 1.5 * r_inner);
        auto& idx = proxy_idx[static_cast<size_t>(l)][static_cast<size_t>(i)];
        idx.reserve(static_cast<size_t>(opts.num_shells * per_shell));
        for (index_t s = 0; s < opts.num_shells; ++s) {
          const real_t f = opts.num_shells > 1
                               ? static_cast<real_t>(s) / static_cast<real_t>(opts.num_shells - 1)
                               : real_t(0);
          const real_t r = r_inner * std::pow(r_outer / r_inner, f);
          add_shell(pgen, c, r, per_shell, dim, s, idx);
        }
      }
    }
    proxy_points_ = pgen.num_proxy();
  }

  // Exact near field: its Frobenius mass anchors the ID threshold.
  std::vector<std::vector<index_t>> leaf_positions(static_cast<size_t>(t.nodes_at(leaf)));
  {
    const auto& near = surrogate_.mtree.near_leaf;
    std::vector<BlockRequest> reqs;
    reqs.reserve(static_cast<size_t>(near.count()));
    for (index_t i = 0; i < t.nodes_at(leaf); ++i) {
      auto& pos = leaf_positions[static_cast<size_t>(i)];
      pos.resize(static_cast<size_t>(t.size(leaf, i)));
      std::iota(pos.begin(), pos.end(), t.begin(leaf, i));
    }
    for (index_t r = 0; r < t.nodes_at(leaf); ++r)
      for (index_t j = 0; j < near.row_count(r); ++j) {
        const index_t e = near.row_ptr[static_cast<size_t>(r)] + j;
        const index_t c = near.col[static_cast<size_t>(e)];
        surrogate_.dense.set_shape(e, t.size(leaf, r), t.size(leaf, c));
      }
    surrogate_.dense.allocate(ctx.device());
    for (index_t r = 0; r < t.nodes_at(leaf); ++r)
      for (index_t j = 0; j < near.row_count(r); ++j) {
        const index_t e = near.row_ptr[static_cast<size_t>(r)] + j;
        reqs.push_back({leaf_positions[static_cast<size_t>(r)],
                        leaf_positions[static_cast<size_t>(
                            near.col[static_cast<size_t>(e)])],
                        surrogate_.dense.dev(e)});
      }
    batched_generate(ctx, batched::kEntryGenStream, pgen, std::move(reqs));
  }

  if (!has_far) {
    ctx.sync_all();
    entries_generated_ = pgen.entries_generated();
    surrogate_.validate();
    build_seconds_ = wall_seconds() - t0;
    return;
  }

  // ID threshold: like the construction's eps_abs = tol * ||K||, with the
  // near-field Frobenius mass as the (conservative, under-estimating) norm
  // anchor — available for free once the dense blocks land.
  ctx.sync(batched::kEntryGenStream);
  real_t near_sq = 0.0;
  {
    // The dense blocks just landed in the device arena; accumulate their
    // Frobenius mass in place rather than pulling host mirrors down.
    backend::KernelScope scope(&ctx.device());
    for (index_t e = 0; e < surrogate_.dense.count(); ++e) {
      const real_t f = la::norm_f(surrogate_.dense.dev(e));
      near_sq += f * f;
    }
  }
  const real_t norm_anchor = near_sq > 0 ? std::sqrt(near_sq) : real_t(1);
  const real_t abs_tol = opts.tol * opts.id_tol_factor * norm_anchor;

  // Bottom-up nested proxy ID (the deterministic mirror of Algorithm 1's
  // skeletonization): leaf panels K(I_tau, P_tau) give U and the skeleton;
  // inner panels K([skel(nu1); skel(nu2)], P_tau) give the stacked transfer.
  for (index_t l = leaf; l >= 1; --l) {
    const auto ul = static_cast<size_t>(l);
    const index_t nodes = t.nodes_at(l);
    std::vector<std::vector<index_t>> stacked_rows;
    if (l != leaf) {
      stacked_rows.resize(static_cast<size_t>(nodes));
      for (index_t i = 0; i < nodes; ++i) {
        const auto& s1 = surrogate_.skeleton[ul + 1][static_cast<size_t>(2 * i)];
        const auto& s2 = surrogate_.skeleton[ul + 1][static_cast<size_t>(2 * i + 1)];
        auto& rows = stacked_rows[static_cast<size_t>(i)];
        rows.reserve(s1.size() + s2.size());
        rows.insert(rows.end(), s1.begin(), s1.end());
        rows.insert(rows.end(), s2.begin(), s2.end());
      }
    }

    std::vector<backend::DeviceMatrix> panels(static_cast<size_t>(nodes));
    {
      std::vector<BlockRequest> reqs;
      reqs.reserve(static_cast<size_t>(nodes));
      for (index_t i = 0; i < nodes; ++i) {
        const auto ui = static_cast<size_t>(i);
        const_index_span rows = l == leaf ? const_index_span(leaf_positions[ui])
                                          : const_index_span(stacked_rows[ui]);
        const auto& cols = proxy_idx[ul][ui];
        panels[ui].resize_uninitialized(ctx.device(), static_cast<index_t>(rows.size()),
                                        static_cast<index_t>(cols.size()));
        reqs.push_back({rows, cols, panels[ui].view()});
      }
      batched_generate(ctx, batched::kEntryGenStream, pgen, std::move(reqs));
      ctx.sync(batched::kEntryGenStream);
    }

    std::vector<la::RowID> ids(static_cast<size_t>(nodes));
    {
      std::vector<ConstMatrixView> ys;
      ys.reserve(static_cast<size_t>(nodes));
      for (index_t i = 0; i < nodes; ++i) ys.push_back(panels[static_cast<size_t>(i)].view());
      batched::batched_row_id(ctx, ys, abs_tol, opts.max_rank, ids);
    }

    for (index_t i = 0; i < nodes; ++i) {
      const auto ui = static_cast<size_t>(i);
      la::RowID& id = ids[ui];
      const index_t k = static_cast<index_t>(id.skeleton.size());
      surrogate_.ranks[ul][ui] = k;
      surrogate_.basis[ul].stage(i, std::move(id.interp));
      auto& skel = surrogate_.skeleton[ul][ui];
      skel.resize(static_cast<size_t>(k));
      if (l == leaf) {
        const index_t b = t.begin(l, i);
        for (index_t s = 0; s < k; ++s)
          skel[static_cast<size_t>(s)] = b + id.skeleton[static_cast<size_t>(s)];
      } else {
        const auto& rows = stacked_rows[ui];
        for (index_t s = 0; s < k; ++s)
          skel[static_cast<size_t>(s)] = rows[static_cast<size_t>(id.skeleton[static_cast<size_t>(s)])];
      }
    }
    surrogate_.basis[ul].commit(ctx.device());
  }

  // Exact coupling at the selected skeletons, all levels in one batch.
  {
    std::vector<BlockRequest> reqs;
    reqs.reserve(static_cast<size_t>(surrogate_.mtree.total_far_blocks()));
    for (index_t l = 0; l < t.num_levels(); ++l) {
      const auto ul = static_cast<size_t>(l);
      const auto& far = surrogate_.mtree.far[ul];
      for (index_t r = 0; r < t.nodes_at(l); ++r)
        for (index_t j = 0; j < far.row_count(r); ++j) {
          const index_t e = far.row_ptr[static_cast<size_t>(r)] + j;
          const index_t c = far.col[static_cast<size_t>(e)];
          const auto& rs = surrogate_.skeleton[ul][static_cast<size_t>(r)];
          const auto& cs = surrogate_.skeleton[ul][static_cast<size_t>(c)];
          surrogate_.coupling[ul].set_shape(e, static_cast<index_t>(rs.size()),
                                            static_cast<index_t>(cs.size()));
        }
      surrogate_.coupling[ul].allocate(ctx.device());
      for (index_t r = 0; r < t.nodes_at(l); ++r)
        for (index_t j = 0; j < far.row_count(r); ++j) {
          const index_t e = far.row_ptr[static_cast<size_t>(r)] + j;
          const index_t c = far.col[static_cast<size_t>(e)];
          reqs.push_back({surrogate_.skeleton[ul][static_cast<size_t>(r)],
                          surrogate_.skeleton[ul][static_cast<size_t>(c)],
                          surrogate_.coupling[ul].dev(e)});
        }
    }
    batched_generate(ctx, batched::kEntryGenStream, pgen, std::move(reqs));
  }

  ctx.sync_all();
  entries_generated_ = pgen.entries_generated();
  surrogate_.validate();
  build_seconds_ = wall_seconds() - t0;
}

SamplerKind sampler_kind_from_env(SamplerKind fallback) {
  const char* v = std::getenv("H2SKETCH_SAMPLER");
  if (v == nullptr) return fallback;
  if (std::strcmp(v, "proxy") == 0) return SamplerKind::Proxy;
  if (std::strcmp(v, "exact") == 0) return SamplerKind::Exact;
  return fallback;
}

std::unique_ptr<MatVecSampler> make_kernel_sampler(SamplerKind kind,
                                                   std::shared_ptr<const tree::ClusterTree> tree,
                                                   const KernelFunction& kernel,
                                                   const ProxySamplerOptions& proxy_opts) {
  if (kind == SamplerKind::Proxy)
    return std::make_unique<ProxyMatVecSampler>(std::move(tree), kernel, proxy_opts);
  return std::make_unique<KernelMatVecSampler>(*tree, kernel);
}

} // namespace h2sketch::kern
