#include "kernels/proxy_sampler.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <vector>

#include "backend/device_matrix.hpp"
#include "batched/batched_id.hpp"
#include "common/timer.hpp"
#include "h2/h2_assembly.hpp"
#include "h2/h2_matvec.hpp"
#include "kernels/dense_sampler.hpp"
#include "kernels/entry_gen.hpp"
#include "la/blas.hpp"
#include "tree/admissibility.hpp"

namespace h2sketch::kern {

namespace {

/// Admissibility parameter of the *surrogate's* block structure (always the
/// general condition — proxy surfaces require separated far fields, so even
/// an HSS outer build sketches a strongly-admissible surrogate). 1.0
/// balances the uncompressed near field (the dominant sample() cost: at 0.7
/// a 2D leaf keeps ~28 near neighbors vs ~12 at 1.0, tripling the matvec)
/// against proxy rank; beyond ~1.4 the closer annuli push the surrogate
/// error past the tolerance scale and the adaptive loop pays it back in
/// extra sample rounds.
constexpr real_t kEta = 1.0;

/// Concentric shells per node between the inner annulus radius and the
/// enclosing-domain radius. Three shells hold the surrogate error at the
/// tolerance scale; two halve the setup cost at ~10x the error.
constexpr index_t kNumShells = 3;
static_assert(kNumShells >= 2, "the shells span the inner to the outer radius");

/// Inner shell radius = node half-diameter + this fraction of the
/// admissibility gap diameter/eta; < 1 keeps the first shell strictly
/// inside the buffer zone no admissible source can enter.
constexpr real_t kInnerGapFraction = 0.5;

/// Multiplier on the ID truncation threshold, mirroring
/// ConstructionOptions::id_tol_factor. It leaves headroom below tol so
/// per-level ID truncation does not accumulate past it. The IDs are not
/// rank-capped.
constexpr real_t kIdTolFactor = 0.1;

/// Proxy count per shell for a given tolerance and dimension: H2Pack's
/// surface-density heuristic (3D: 6 q^2 points on a Fibonacci sphere with
/// q = ceil(-log10 tol) clamped to [4, 10]; 2D: max(8 q, 24) on a circle;
/// 1D: 2).
index_t points_per_shell(real_t tol, index_t dim) {
  const real_t digits = -std::log10(std::max(tol, real_t(1e-15)));
  const index_t q = std::clamp<index_t>(static_cast<index_t>(std::ceil(digits)), 4, 10);
  if (dim >= 3) return 6 * q * q;
  if (dim == 2) return std::max<index_t>(8 * q, 24);
  return 2;
}

/// Append one shell of radius r around center c to the proxy points `pts`
/// (point-major, numbered from n after the tree's n points); collects the
/// extended indices. Shell s gets a deterministic angular offset so
/// consecutive shells don't stack points along the same rays.
void add_shell(std::vector<real_t>& pts, index_t n, const real_t* c, real_t r, index_t m,
               index_t dim, index_t shell, std::vector<index_t>& out) {
  const real_t ga = std::numbers::pi * (3.0 - std::sqrt(5.0)); // golden angle
  real_t x[3] = {0, 0, 0};
  const auto add_point = [&] {
    out.push_back(n + static_cast<index_t>(pts.size()) / dim);
    pts.insert(pts.end(), x, x + dim);
  };
  if (dim >= 3) {
    // Fibonacci sphere: near-uniform coverage at any m.
    for (index_t i = 0; i < m; ++i) {
      const real_t z = 1.0 - 2.0 * (static_cast<real_t>(i) + 0.5) / static_cast<real_t>(m);
      const real_t rho = std::sqrt(std::max(real_t(0), 1.0 - z * z));
      const real_t phi = ga * static_cast<real_t>(i) + 0.5 * ga * static_cast<real_t>(shell);
      x[0] = c[0] + r * rho * std::cos(phi);
      x[1] = c[1] + r * rho * std::sin(phi);
      x[2] = c[2] + r * z;
      add_point();
    }
  } else if (dim == 2) {
    for (index_t i = 0; i < m; ++i) {
      const real_t phi = 2.0 * std::numbers::pi * (static_cast<real_t>(i) + 0.5) /
                             static_cast<real_t>(m) +
                         ga * static_cast<real_t>(shell);
      x[0] = c[0] + r * std::cos(phi);
      x[1] = c[1] + r * std::sin(phi);
      add_point();
    }
  } else {
    x[0] = c[0] - r;
    add_point();
    x[0] = c[0] + r;
    add_point();
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

  const tree::ClusterTree& t = *tree_;
  const index_t dim = t.dim();
  const index_t leaf = t.leaf_level();

  surrogate_.tree = tree_;
  surrogate_.mtree = tree::MatrixTree::build(t, tree::Admissibility::general(kEta));
  surrogate_.init_structure();

  const bool has_far = surrogate_.mtree.has_any_far();

  // Proxy geometry for every node that carries a basis (levels leaf..1):
  // kNumShells concentric shells from just inside the admissibility buffer
  // (no admissible source can be closer than ~diameter/(2 eta) to the box)
  // out to the radius enclosing the whole domain. Pure geometry, laid out
  // for all levels up front: the entry generator appends the points to the
  // tree's when it is made.
  std::vector<std::vector<std::vector<index_t>>> proxy_idx(static_cast<size_t>(leaf + 1));
  std::vector<real_t> proxy_pts;
  if (has_far) {
    const index_t per_shell = points_per_shell(opts.tol, dim);
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
        const real_t r_inner =
            std::max(0.5 * diam + kInnerGapFraction * diam / kEta, real_t(1e-8) * scale);
        const real_t r_outer = std::max(root_box.max_corner_distance(c), 1.5 * r_inner);
        auto& idx = proxy_idx[static_cast<size_t>(l)][static_cast<size_t>(i)];
        idx.reserve(static_cast<size_t>(kNumShells * per_shell));
        for (index_t s = 0; s < kNumShells; ++s) {
          const real_t f = static_cast<real_t>(s) / static_cast<real_t>(kNumShells - 1);
          const real_t r = r_inner * std::pow(r_outer / r_inner, f);
          add_shell(proxy_pts, t.num_points(), c, r, per_shell, dim, s, idx);
        }
      }
    }
  }
  proxy_points_ = static_cast<index_t>(proxy_pts.size()) / dim;
  const KernelEntryGenerator gen(t, kernel, proxy_pts);

  // Exact near field: its Frobenius mass anchors the ID threshold.
  h2::generate_near_field(ctx, surrogate_, gen);

  if (!has_far) {
    ctx.sync_all();
    entries_generated_ = gen.entries_generated();
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
  const real_t abs_tol = opts.tol * kIdTolFactor * norm_anchor;

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
        const_index_span rows = l == leaf ? t.positions(l, i) : stacked_rows[ui];
        const auto& cols = proxy_idx[ul][ui];
        panels[ui].resize_uninitialized(ctx.device(), static_cast<index_t>(rows.size()),
                                        static_cast<index_t>(cols.size()));
        reqs.push_back({rows, cols, panels[ui].view()});
      }
      batched_generate(ctx, batched::kEntryGenStream, gen, std::move(reqs));
      ctx.sync(batched::kEntryGenStream);
    }

    std::vector<la::RowID> ids(static_cast<size_t>(nodes));
    {
      std::vector<ConstMatrixView> ys;
      ys.reserve(static_cast<size_t>(nodes));
      for (index_t i = 0; i < nodes; ++i) ys.push_back(panels[static_cast<size_t>(i)].view());
      batched::batched_row_id(ctx, ys, abs_tol, /*max_rank=*/-1, ids);
    }

    for (index_t i = 0; i < nodes; ++i) {
      la::RowID& id = ids[static_cast<size_t>(i)];
      h2::set_skeleton(surrogate_, l, i, id.skeleton);
      surrogate_.basis[ul].stage(i, std::move(id.interp));
    }
    surrogate_.basis[ul].commit(ctx.device());
  }

  // Exact coupling at the selected skeletons, all levels in one batch.
  h2::generate_coupling(ctx, surrogate_, gen, 0, t.num_levels());

  ctx.sync_all();
  entries_generated_ = gen.entries_generated();
  surrogate_.validate();
  build_seconds_ = wall_seconds() - t0;
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
