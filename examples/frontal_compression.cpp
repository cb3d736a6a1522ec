/// Frontal-matrix compression: the paper's third test problem. Extracts the
/// root frontal matrix (the Schur complement of the top separator) from a
/// multifrontal factorization of a 3D Poisson problem, clusters the
/// separator-plane geometry, and compresses the dense front with the
/// sketching H2 construction and the weak-admissibility HSS baseline. The
/// sketching operator is the full dense front, as in the paper.

#include <iostream>

#include "core/construction.hpp"
#include "core/error_est.hpp"
#include "h2/h2_matvec.hpp"
#include "kernels/dense_sampler.hpp"
#include "solver/hss_construction.hpp"
#include "sparse/multifrontal.hpp"

using namespace h2sketch;

int main() {
  const sparse::Grid g{17, 17, 17};
  std::cout << "factoring 3D Poisson " << g.nx << "^3 (" << g.size() << " unknowns)...\n";
  const sparse::CsrMatrix a = sparse::poisson_matrix(g);
  const auto mf = sparse::multifrontal_root_front(a, g, {64});
  const index_t nf = mf.root_front.rows();
  std::cout << "root separator front: " << nf << " x " << nf << "\n";

  // Cluster the separator-plane geometry and permute the front.
  auto tr = std::make_shared<tree::ClusterTree>(
      tree::ClusterTree::build(sparse::grid_points(g, mf.root_vars), 32));
  Matrix front(nf, nf);
  for (index_t j = 0; j < nf; ++j)
    for (index_t i = 0; i < nf; ++i)
      front(i, j) = mf.root_front(tr->original_index(i), tr->original_index(j));

  kern::DenseMatrixSampler sampler(front.view());
  kern::DenseEntryGenerator gen(front.view());
  core::ConstructionOptions opts;
  opts.tol = 1e-6;
  opts.sample_block = 32;
  opts.initial_samples = 64;

  auto h2res = core::construct_h2(tr, tree::Admissibility::general(0.7), sampler, gen, opts);
  kern::DenseMatrixSampler fresh(front.view());
  h2::H2Sampler approx(h2res.matrix);
  const real_t err = core::relative_error_2norm(fresh, approx, 15);

  kern::DenseMatrixSampler s_hss(front.view());
  auto hss = solver::build_hss(tr, s_hss, gen, opts);

  const double dense_mb = static_cast<double>(nf) * nf * 8.0 / (1024.0 * 1024.0);
  std::cout << "dense front: " << dense_mb << " MiB\n"
            << "H2 (eta=0.7): "
            << static_cast<double>(h2res.stats.memory_bytes) / (1024.0 * 1024.0) << " MiB, ranks ["
            << h2res.stats.min_rank << "," << h2res.stats.max_rank << "], rel err " << err << "\n"
            << "HSS (weak):   "
            << static_cast<double>(hss.stats.memory_bytes) / (1024.0 * 1024.0) << " MiB, ranks ["
            << hss.stats.min_rank << "," << hss.stats.max_rank << "]\n";
  return err < 1e-4 ? 0 : 1;
}
