#pragma once

#include <memory>

#include "batched/device.hpp"
#include "h2/h2_matrix.hpp"
#include "kernels/kernel.hpp"
#include "kernels/sampler.hpp"

/// \file proxy_sampler.hpp
/// Proxy-point sketching operator: an O(N)-per-column replacement for the
/// O(N^2)-per-column exact samplers (`DenseMatrixSampler`,
/// `KernelMatVecSampler`) feeding Algorithm 1.
///
/// At setup, a deterministic surrogate H2 representation K~ of the kernel
/// matrix is built without ever sampling K: per cluster-tree node, proxy
/// points are laid out on concentric shells of an annulus enclosing the node
/// (inner radius just inside the admissibility gap of Eq. (1), outer radius
/// covering the domain — the proxy-surface idea of H2Pack and nested cross
/// approximation), the kernel-to-proxy panel K(I, P) is generated through
/// the batched entry generator on ExecutionContext streams, and a batched
/// row ID of the panel yields the node basis and skeleton. Transfers nest
/// through stacked child skeletons exactly as in the sketching construction;
/// coupling and near-field blocks are exact kernel entries. `sample` then
/// evaluates Y = K~ * Omega through the O(N) H2 matvec: near field exact,
/// far field proxy-compressed.
///
/// The surrogate is an approximation, so the construction driven by it
/// inherits its error floor — the exact samplers remain the oracle; the
/// accuracy contract is validated by the proxy-vs-exact agreement suite.

namespace h2sketch::kern {

/// Compression knob of the surrogate build. The proxy geometry (the
/// surrogate's admissibility, shells and points per shell) and its ID
/// threshold are fixed constants of proxy_sampler.cpp.
struct ProxySamplerOptions {
  /// Surrogate compression tolerance. <= 0 means "inherit": the kernel-
  /// convenience construction entry points substitute their own tol; a
  /// standalone ProxyMatVecSampler falls back to 1e-6.
  real_t tol = 0.0;
};

/// Black-box sampler whose sample() costs O(N d) instead of O(N^2 d).
class ProxyMatVecSampler final : public MatVecSampler {
 public:
  /// Build the surrogate under an internal batched context. The tree and
  /// kernel must outlive the sampler.
  ProxyMatVecSampler(std::shared_ptr<const tree::ClusterTree> tree, const KernelFunction& kernel,
                     const ProxySamplerOptions& opts = {});

  /// Build the surrogate under the caller's context (sampling still runs on
  /// the sampler's own context, like H2Sampler).
  ProxyMatVecSampler(std::shared_ptr<const tree::ClusterTree> tree, const KernelFunction& kernel,
                     const ProxySamplerOptions& opts, batched::ExecutionContext& build_ctx);

  index_t size() const override;
  void sample(ConstMatrixView omega, MatrixView y) override;

  /// The surrogate operator (inspection/tests).
  const h2::H2Matrix& surrogate() const { return surrogate_; }

  /// Setup cost accounting.
  double build_seconds() const { return build_seconds_; }
  index_t proxy_points_used() const { return proxy_points_; }
  index_t entries_generated() const { return entries_generated_; }

 private:
  void build(const KernelFunction& kernel, ProxySamplerOptions opts,
             batched::ExecutionContext& ctx);

  std::shared_ptr<const tree::ClusterTree> tree_;
  h2::H2Matrix surrogate_;
  /// Matvec context for sample(), created after the build so it binds to
  /// the device the surrogate's arenas actually live on (the build
  /// context's backend, which may differ from the process default).
  std::unique_ptr<batched::ExecutionContext> ctx_;
  double build_seconds_ = 0.0;
  index_t proxy_points_ = 0;
  index_t entries_generated_ = 0;
};

/// Which sampler the kernel-convenience construction entry points build.
enum class SamplerKind {
  Exact, ///< KernelMatVecSampler: O(N^2 d), the oracle
  Proxy  ///< ProxyMatVecSampler: O(N d) via the surrogate
};

/// Factory for a kernel-matrix sampler of the requested kind. `proxy_opts`
/// is consulted only for SamplerKind::Proxy.
std::unique_ptr<MatVecSampler> make_kernel_sampler(
    SamplerKind kind, std::shared_ptr<const tree::ClusterTree> tree, const KernelFunction& kernel,
    const ProxySamplerOptions& proxy_opts = {});

} // namespace h2sketch::kern
