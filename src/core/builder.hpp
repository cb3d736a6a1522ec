#pragma once

#include <vector>

#include "backend/device_matrix.hpp"
#include "common/random.hpp"
#include "core/construction.hpp"

/// \file builder.hpp
/// Internal state machine for Algorithm 1. Split across construction.cpp
/// (driver, skeletonization) and adaptive.cpp (sampling, updateSamples
/// sweep, convergence); the arena fills and the upward pass are the shared
/// h2/ steps (h2_assembly.hpp, h2_matvec.hpp). Not part of the public API
/// surface.

namespace h2sketch::core::detail {

class H2SketchBuilder {
 public:
  H2SketchBuilder(std::shared_ptr<const tree::ClusterTree> tree, const tree::Admissibility& adm,
                  kern::MatVecSampler& sampler, const kern::EntryGenerator& gen,
                  const ConstructionOptions& opts, batched::ExecutionContext& ctx);

  ConstructionResult run();

 private:
  // --- driver phases (construction.cpp) ---
  /// Row-ID the level's samples, store its bases and skeletons, and run
  /// its first upsweep (extend_upswept over every column so far).
  void skeletonize_level(index_t level);
  void finalize_stats(double t0);

  // --- sampling & adaptivity (adaptive.cpp) ---
  /// Append d_new fresh columns to the global (Omega, Y) pair.
  void sample_columns(index_t d_new);
  /// Allocate/extend Y_loc at `level` and fill columns [c0, c0 + dn).
  void extend_yloc(index_t level, index_t c0, index_t dn);
  /// Append the columns [c0, c0 + dn) to the upswept (y_up, omega_up) of a
  /// *skeletonized* level.
  void extend_upswept(index_t level, index_t c0, index_t dn);
  /// One adaptive round while processing `level`: sample, sweep through the
  /// completed levels below, extend the current level's Y_loc.
  void add_sample_round(index_t level);
  /// Number of nodes at `level` that fail the convergence probe (0 once
  /// the level has converged).
  index_t unconverged_nodes(index_t level);
  real_t eps_abs() const;

  // --- inputs ---
  std::shared_ptr<const tree::ClusterTree> tree_;
  kern::MatVecSampler& sampler_;
  const kern::EntryGenerator& gen_;
  ConstructionOptions opts_;
  batched::ExecutionContext& ctx_;

  // --- output under construction ---
  h2::H2Matrix out_;
  ConstructionStats stats_;

  // --- sketching state (device-resident: the paper keeps the sample
  // matrices on the GPU for the whole construction; host code reaches them
  // only through backend copies or inside kernel launches) ---
  GaussianStream stream_;
  std::uint64_t rand_offset_ = 0;
  backend::DeviceMatrix omega_global_; ///< N x d_total
  backend::DeviceMatrix y_global_;     ///< N x d_total
  index_t d_total_ = 0;

  /// Y_loc per level (allocated when the level is reached, retained so new
  /// sample columns can be appended at every level).
  std::vector<std::vector<backend::DeviceMatrix>> yloc_;
  /// Upswept samples/vectors per skeletonized level: rank x d_total.
  std::vector<std::vector<backend::DeviceMatrix>> y_up_, omega_up_;
  /// Skeleton row indices *local to Y_loc's rows*, per node.
  std::vector<std::vector<std::vector<index_t>>> jlocal_;

  /// Incremental convergence-probe state, valid for probe_level_ only: per
  /// node a copy of Y_loc whose first probe_cols_ columns hold their
  /// Householder factorization in place (scalars in probe_tau_).
  index_t probe_level_ = -1;
  index_t probe_cols_ = 0;
  std::vector<backend::DeviceMatrix> probe_work_;
  std::vector<std::vector<real_t>> probe_tau_;
};

} // namespace h2sketch::core::detail
