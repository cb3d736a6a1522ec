/// Fig. 6(b): memory of compressed multifrontal frontal matrices — the
/// proposed strongly-admissible H2 vs the weak-admissibility formats
/// (HSS = Algorithm 1 under weak admissibility, HODLR = top-down peeling;
/// HODBF is out of scope, see DESIGN.md). Small fronts are exact root
/// fronts of 3D Poisson grids via the multifrontal substrate; larger fronts
/// use the DtN-like synthetic separator kernel. As in the paper, the
/// sketching operator here is a full dense matrix.

#include "baselines/peeling_hodlr.hpp"
#include "bench_common.hpp"
#include "kernels/dense_sampler.hpp"
#include "solver/hss_construction.hpp"
#include "sparse/multifrontal.hpp"
#include "sparse/synthetic_front.hpp"

using namespace h2sketch;
using namespace h2sketch::bench;

namespace {

/// Dense (permuted) front + its cluster tree.
struct FrontCase {
  std::string name;
  std::shared_ptr<tree::ClusterTree> tr;
  Matrix dense; ///< permuted dense front
};

FrontCase exact_front(index_t g1d, index_t leaf) {
  const sparse::Grid g{g1d, g1d, g1d};
  const sparse::CsrMatrix a = sparse::poisson_matrix(g);
  const auto mf = sparse::multifrontal_root_front(a, g, {64});
  geo::PointCloud pts = sparse::grid_points(g, mf.root_vars);
  FrontCase fc;
  fc.name = "poisson" + std::to_string(g1d) + "^3";
  fc.tr = std::make_shared<tree::ClusterTree>(tree::ClusterTree::build(std::move(pts), leaf));
  const index_t n = fc.tr->num_points();
  fc.dense.resize(n, n);
  // Permute the front into cluster order.
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < n; ++i)
      fc.dense(i, j) = mf.root_front(fc.tr->original_index(i), fc.tr->original_index(j));
  return fc;
}

FrontCase synthetic_front_case(index_t nx, index_t leaf) {
  const auto f = sparse::make_synthetic_front(nx, nx);
  const auto kernel = sparse::synthetic_front_kernel(f);
  FrontCase fc;
  fc.name = "dtn" + std::to_string(nx) + "x" + std::to_string(nx);
  fc.tr = std::make_shared<tree::ClusterTree>(tree::ClusterTree::build(f.points, leaf));
  kern::KernelEntryGenerator gen(*fc.tr, kernel);
  const index_t n = fc.tr->num_points();
  std::vector<index_t> all(static_cast<size_t>(n));
  for (index_t i = 0; i < n; ++i) all[static_cast<size_t>(i)] = i;
  fc.dense.resize(n, n);
  gen.generate_block(all, all, fc.dense.view());
  return fc;
}

} // namespace

int main(int argc, char** argv) {
  const bool large = has_flag(argc, argv, "--large");
  const index_t leaf = 32;
  const real_t eta = 0.7;

  std::vector<FrontCase> cases;
  cases.push_back(exact_front(9, leaf));   // 81-point separator
  cases.push_back(exact_front(13, leaf));  // 169
  cases.push_back(exact_front(17, leaf));  // 289
  cases.push_back(synthetic_front_case(24, leaf));  // 576
  cases.push_back(synthetic_front_case(32, leaf));  // 1024
  if (large) {
    cases.push_back(synthetic_front_case(50, leaf)); // 2500 (paper's smallest)
    cases.push_back(synthetic_front_case(100, leaf)); // 10000
  }

  Table table("fig6b_frontal", {"front", "N", "dense_MB", "h2_MB", "hss_MB", "hodlr_MB",
                                "h2_err", "h2_max_rank", "hss_max_rank"});
  table.print_header();

  for (auto& fc : cases) {
    const index_t n = fc.tr->num_points();
    core::ConstructionOptions opts;
    opts.tol = 1e-6;
    opts.sample_block = 32;
    opts.initial_samples = 64;

    kern::DenseEntryGenerator gen(fc.dense.view());

    kern::DenseMatrixSampler s_h2(fc.dense.view());
    auto r_h2 = core::construct_h2(fc.tr, tree::Admissibility::general(eta), s_h2, gen, opts);
    kern::DenseMatrixSampler fresh(fc.dense.view());
    h2::H2Sampler approx(r_h2.matrix);
    const real_t err = core::relative_error_2norm(fresh, approx, 10);

    kern::DenseMatrixSampler s_hss(fc.dense.view());
    auto r_hss = solver::build_hss(fc.tr, s_hss, gen, opts);

    kern::DenseMatrixSampler s_hodlr(fc.dense.view());
    baselines::TopDownOptions td;
    td.tol = 1e-6;
    td.sample_block = 32;
    auto r_hodlr = baselines::build_peeling_hodlr(fc.tr, s_hodlr, td);

    const std::size_t dense_bytes = static_cast<std::size_t>(n) * n * sizeof(real_t);
    table.row({fc.name, fmt(n), fmt_mb(dense_bytes), fmt_mb(r_h2.stats.memory_bytes),
               fmt_mb(r_hss.stats.memory_bytes), fmt_mb(r_hodlr.stats.memory_bytes), fmt(err, 2),
               fmt(r_h2.stats.max_rank), fmt(r_hss.stats.max_rank)});
  }
  std::cout << "\nShape checks (paper Fig. 6b): the H2 memory grows ~O(N); the weak-\n"
               "admissibility formats (HSS/HODLR) carry larger ranks on these 2D-surface\n"
               "operators and their memory grows superlinearly (smaller prefactor at tiny N).\n";
  return 0;
}
