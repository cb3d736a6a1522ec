#include "h2/h2_io.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <string>

#include "common/random.hpp"
#include "core/construction.hpp"
#include "h2/cheb_construction.hpp"
#include "h2/h2_dense.hpp"
#include "h2/h2_matvec.hpp"
#include "kernels/dense_sampler.hpp"
#include "kernels/kernels.hpp"
#include "la/blas.hpp"
#include "test_common.hpp"

namespace h2sketch::h2 {
namespace {

using tree::Admissibility;
using tree::ClusterTree;

H2Matrix make_cheb(index_t n, std::uint64_t seed) {
  auto tr = test_util::build_cube_tree(n, 2, seed, 16);
  kern::ExponentialKernel k(0.2);
  return build_cheb_h2(tr, Admissibility::general(0.7), k, 3);
}

H2Matrix make_sketched(index_t n, std::uint64_t seed) {
  auto tr = test_util::build_cube_tree(n, 2, seed, 16);
  kern::Matern32Kernel k(0.3);
  kern::KernelMatVecSampler sampler(*tr, k);
  kern::KernelEntryGenerator gen(*tr, k);
  core::ConstructionOptions opts;
  opts.tol = 1e-7;
  return core::construct_h2(tr, Admissibility::general(0.7), sampler, gen, opts).matrix;
}

TEST(H2Io, RoundTripPreservesChebMatrixExactly) {
  const H2Matrix a = make_cheb(300, 81);
  std::stringstream ss;
  save_h2(ss, a);
  const H2Matrix b = load_h2(ss);
  EXPECT_EQ(a.memory_bytes(), b.memory_bytes());
  EXPECT_EQ(max_abs_diff(densify(a).view(), densify(b).view()), 0.0);
}

TEST(H2Io, RoundTripPreservesSketchBuiltMatrixAndMatvec) {
  const H2Matrix a = make_sketched(400, 82);
  std::stringstream ss;
  save_h2(ss, a);
  const H2Matrix b = load_h2(ss);
  b.validate();
  // Skeleton index sets survive.
  EXPECT_EQ(a.skeleton, b.skeleton);
  // Matvec is bit-identical.
  Matrix x(400, 2), ya(400, 2), yb(400, 2);
  fill_gaussian(x.view(), GaussianStream(83));
  h2_matvec(a, x.view(), ya.view());
  h2_matvec(b, x.view(), yb.view());
  EXPECT_EQ(max_abs_diff(ya.view(), yb.view()), 0.0);
}

TEST(H2Io, FileRoundTrip) {
  const H2Matrix a = make_cheb(200, 84);
  const std::string path = "h2io_test.bin";
  save_h2_file(path, a);
  const H2Matrix b = load_h2_file(path);
  EXPECT_EQ(max_abs_diff(densify(a).view(), densify(b).view()), 0.0);
  std::remove(path.c_str());
}

TEST(H2Io, FileRoundTripThenMatvecMatchesDenseTruth) {
  // Save/load must preserve the operator itself, not just the bytes: the
  // loaded matrix's matvec is checked against the dense kernel ground truth.
  auto tr = test_util::build_cube_tree(300, 2, 86, 16);
  kern::ExponentialKernel k(0.2);
  const H2Matrix a = build_cheb_h2(tr, Admissibility::general(0.7), k, 4);
  const std::string path = "h2io_matvec_test.bin";
  save_h2_file(path, a);
  const H2Matrix b = load_h2_file(path);
  std::remove(path.c_str());
  b.validate();

  const Matrix kd = test_util::dense_kernel_matrix(*tr, k);
  const index_t n = tr->num_points();
  Matrix x(n, 3), y(n, 3), ref(n, 3);
  fill_gaussian(x.view(), GaussianStream(87));
  h2_matvec(b, x.view(), y.view());
  la::gemm(1.0, kd.view(), la::Op::None, x.view(), la::Op::None, 0.0, ref.view());
  // Loaded operator approximates the kernel exactly as well as the saved one.
  EXPECT_LT(test_util::rel_fro_error(y.view(), ref.view()), 1e-3);
  Matrix ya(n, 3);
  h2_matvec(a, x.view(), ya.view());
  EXPECT_EQ(max_abs_diff(y.view(), ya.view()), 0.0);
}

TEST(H2Io, Version2StoresEachMirroredPairOnce) {
  // The stream carries version 2 right after the magic, and a mirrored
  // coupling slot round-trips as the 0 x 0 block it is stored as.
  const H2Matrix a = make_sketched(400, 88);
  std::stringstream ss;
  save_h2(ss, a);
  const std::string bytes = ss.str();
  std::uint32_t version = 0;
  std::memcpy(&version, bytes.data() + sizeof(std::uint64_t), sizeof(version));
  EXPECT_EQ(version, 2u);
  const H2Matrix b = load_h2(ss);
  index_t mirrored = 0;
  for (index_t l = 0; l < a.num_levels(); ++l) {
    const auto& far = a.mtree.far[static_cast<size_t>(l)];
    for (index_t r = 0; r < a.tree->nodes_at(l); ++r)
      for (index_t j = 0; j < far.row_count(r); ++j) {
        const index_t e = far.row_ptr[static_cast<size_t>(r)] + j;
        const auto& ab = a.coupling[static_cast<size_t>(l)];
        const auto& bb = b.coupling[static_cast<size_t>(l)];
        EXPECT_EQ(bb.rows(e), ab.rows(e));
        EXPECT_EQ(bb.cols(e), ab.cols(e));
        if (far.col_at(r, j) < r) {
          ++mirrored;
          EXPECT_EQ(bb.rows(e) * bb.cols(e), 0);
        }
      }
  }
  EXPECT_GT(mirrored, 0);
  EXPECT_EQ(a.device_bytes(), b.device_bytes());
  EXPECT_EQ(max_abs_diff(densify(a).view(), densify(b).view()), 0.0);
}

TEST(H2Io, Version1StreamIsRejected) {
  // Version-1 streams stored both blocks of every mirrored pair.
  const H2Matrix a = make_cheb(200, 89);
  std::stringstream ss;
  save_h2(ss, a);
  std::string bytes = ss.str();
  const std::uint32_t v1 = 1;
  std::memcpy(bytes.data() + sizeof(std::uint64_t), &v1, sizeof(v1));
  std::stringstream old(bytes);
  try {
    (void)load_h2(old);
    FAIL() << "a version-1 stream must not load";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported version"), std::string::npos) << e.what();
  }
}

TEST(H2Io, BadMagicThrows) {
  std::stringstream ss;
  ss << "this is not an h2 matrix";
  EXPECT_THROW(load_h2(ss), std::runtime_error);
}

TEST(H2Io, TruncatedStreamThrows) {
  const H2Matrix a = make_cheb(200, 85);
  std::stringstream ss;
  save_h2(ss, a);
  std::string full = ss.str();
  std::stringstream cut(full.substr(0, full.size() / 2));
  EXPECT_THROW(load_h2(cut), std::runtime_error);
}

TEST(H2Io, MissingFileThrows) {
  EXPECT_THROW(load_h2_file("/nonexistent/path/matrix.bin"), std::runtime_error);
}

} // namespace
} // namespace h2sketch::h2
