#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>

#include "backend/device_matrix.hpp"
#include "backend/registry.hpp"
#include "batched/batched_gemm.hpp"
#include "batched/batched_id.hpp"
#include "batched/batched_qr.hpp"
#include "batched/batched_rand.hpp"
#include "batched/batched_solve.hpp"
#include "batched/bsr_gemm.hpp"
#include "la/gemm_engine.hpp"
#include "common/random.hpp"
#include "kernels/entry_gen.hpp"
#include "test_common.hpp"

/// \file test_batched.cpp
/// The registry-driven parity suite for the batched primitives: one
/// parameterized fixture iterates every registered backend configuration
/// (naive / cpu / simdevice / faulty-*) and, for every primitive in
/// src/batched/ plus kern::batched_generate, asserts
///   * bitwise-identical results against the per-entry host reference
///     (hence bitwise identity across all backends, transitively), with
///     operands marshaled into device memory, and
///   * the pinned launch count of the configuration's launch mode.
/// This replaces the former per-op Naive-vs-Batched tests.

namespace h2sketch::batched {
namespace {

using test_util::random_matrix;

/// Launch pins: a batched configuration costs one launch per batch, the
/// naive configuration one launch per entry.
index_t pinned(const std::string& name, index_t batch_entries, index_t batched_launches) {
  return name == "naive" ? batch_entries : batched_launches;
}

/// A device-resident copy of a host matrix plus download-back helpers, so
/// every primitive is exercised across the marshaling boundary.
struct DeviceOperand {
  backend::DeviceMatrix dm;

  DeviceOperand(backend::DeviceBackend& dev, ConstMatrixView host) {
    dm.resize(dev, host.rows, host.cols);
    if (!dm.empty()) dm.upload_from(host);
  }
};

class RegistryBackendTest : public ::testing::TestWithParam<std::string> {
 protected:
  RegistryBackendTest() : ctx_(backend::shared_backend(GetParam())) {}

  backend::DeviceBackend& dev() { return ctx_.device(); }

  batched::ExecutionContext ctx_;
};

TEST(BackendRegistry, RegistersTheBuiltInConfigurations) {
  const auto names = backend::registered_backends();
  ASSERT_EQ(names.size(), 5u);
  EXPECT_NE(std::find(names.begin(), names.end(), "naive"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "cpu"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "simdevice"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "faulty-cpu"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "faulty-simdevice"), names.end());
  EXPECT_THROW((void)backend::shared_backend("cuda"), std::runtime_error);
}

TEST_P(RegistryBackendTest, GemmMatchesPerEntryReferenceBitwise) {
  // Variable sizes, including an empty entry.
  const std::vector<std::array<index_t, 3>> dims = {{4, 5, 3}, {7, 2, 6}, {0, 3, 2}, {1, 1, 1}};
  std::vector<Matrix> as, bs, cs, refs;
  std::vector<DeviceOperand> da, db, dc;
  for (size_t i = 0; i < dims.size(); ++i) {
    as.push_back(random_matrix(dims[i][0], dims[i][2], 10 + i));
    bs.push_back(random_matrix(dims[i][2], dims[i][1], 20 + i));
    cs.push_back(random_matrix(dims[i][0], dims[i][1], 30 + i));
    refs.push_back(to_matrix(cs.back().view()));
    da.emplace_back(dev(), as[i].view());
    db.emplace_back(dev(), bs[i].view());
    dc.emplace_back(dev(), cs[i].view());
  }
  std::vector<ConstMatrixView> av, bv;
  std::vector<MatrixView> cv;
  for (size_t i = 0; i < dims.size(); ++i) {
    av.push_back(da[i].dm.view());
    bv.push_back(db[i].dm.view());
    cv.push_back(dc[i].dm.view());
  }
  batched_gemm(ctx_, 2.0, av, la::Op::None, bv, la::Op::None, 1.0, cv);
  for (size_t i = 0; i < dims.size(); ++i) {
    la::gemm(2.0, as[i].view(), la::Op::None, bs[i].view(), la::Op::None, 1.0, refs[i].view());
    const Matrix got = dc[i].dm.to_host();
    EXPECT_EQ(max_abs_diff(got.view(), refs[i].view()), 0.0) << "entry " << i;
  }
  EXPECT_EQ(ctx_.kernel_launches(),
            pinned(GetParam(), static_cast<index_t>(dims.size()), 1));
}

TEST_P(RegistryBackendTest, GatherRowsMatchesReferenceBitwise) {
  Matrix a = random_matrix(6, 3, 7);
  DeviceOperand da(dev(), a.view());
  backend::DeviceMatrix out;
  out.resize(dev(), 2, 3);
  std::vector<std::vector<index_t>> rows = {{5, 0}};
  std::vector<ConstMatrixView> in = {da.dm.view()};
  std::vector<MatrixView> dst = {out.view()};
  batched_gather_rows(ctx_, in, rows, dst);
  const Matrix got = out.to_host();
  for (index_t j = 0; j < 3; ++j) {
    EXPECT_EQ(got(0, j), a(5, j));
    EXPECT_EQ(got(1, j), a(0, j));
  }
  EXPECT_EQ(ctx_.kernel_launches(), pinned(GetParam(), 1, 1));
}

TEST_P(RegistryBackendTest, MinRDiagUpdateMatchesFullProbeBitwise) {
  // Panels grown in three appends (including empty appends and panels wider
  // than tall): after each ingest the incremental probe must equal the
  // from-scratch probe of the full panel bitwise.
  const std::vector<index_t> rows = {10, 3, 2, 5};
  const std::vector<std::array<index_t, 3>> chunks = {{3, 4, 2}, {2, 6, 1}, {4, 3, 2}, {0, 5, 0}};
  std::vector<Matrix> full;
  std::vector<backend::DeviceMatrix> work(rows.size());
  std::vector<std::vector<real_t>> tau(rows.size());
  std::vector<index_t> ingested(rows.size(), 0);
  for (size_t i = 0; i < rows.size(); ++i) {
    const index_t total = chunks[i][0] + chunks[i][1] + chunks[i][2];
    full.push_back(random_matrix(rows[i], total, 40 + static_cast<index_t>(i)));
    work[i].resize(dev(), rows[i], 0);
  }
  for (size_t step = 0; step < 3; ++step) {
    std::vector<MatrixView> wv(rows.size());
    std::vector<index_t> factored(rows.size());
    for (size_t i = 0; i < rows.size(); ++i) {
      const index_t c0 = ingested[i], dn = chunks[i][step];
      work[i].append_cols(dev(), dn);
      if (dn > 0) dev().upload(full[i].view().col_range(c0, dn), work[i].view().col_range(c0, dn));
      factored[i] = c0;
      wv[i] = work[i].view();
      ingested[i] = c0 + dn;
    }
    std::vector<real_t> out(rows.size());
    batched_min_r_diag_update(ctx_, wv, factored, tau, out);
    for (size_t i = 0; i < rows.size(); ++i)
      EXPECT_EQ(out[i], la::min_abs_r_diag(full[i].view().col_range(0, ingested[i])))
          << "panel " << i << " step " << step;
  }
  EXPECT_EQ(ctx_.kernel_launches(), pinned(GetParam(), 12, 3));
}

TEST_P(RegistryBackendTest, RowIdMatchesSingleBitwise) {
  std::vector<Matrix> mats;
  mats.push_back(random_matrix(12, 6, 3));
  mats.push_back(random_matrix(5, 9, 4));
  std::vector<DeviceOperand> dm;
  std::vector<ConstMatrixView> views;
  for (auto& m : mats) {
    dm.emplace_back(dev(), m.view());
    views.push_back(dm.back().dm.view());
  }
  std::vector<la::RowID> out(mats.size());
  batched_row_id(ctx_, views, 1e-10, -1, out);
  for (size_t i = 0; i < mats.size(); ++i) {
    const la::RowID ref = la::row_id(mats[i].view(), 1e-10, -1);
    EXPECT_EQ(out[i].skeleton, ref.skeleton);
    EXPECT_EQ(max_abs_diff(out[i].interp.view(), ref.interp.view()), 0.0);
  }
  EXPECT_EQ(ctx_.kernel_launches(), pinned(GetParam(), 2, 1));
}

TEST_P(RegistryBackendTest, FillGaussianIdenticalAcrossBackends) {
  // Counter-based RNG: the backend (and hence parallelization) must not
  // change the generated values. Monolithic and per-block forms.
  GaussianStream stream(99);
  backend::DeviceMatrix a;
  a.resize(dev(), 64, 8);
  batched_fill_gaussian(ctx_, a.view(), stream, 1234);
  Matrix ref(64, 8);
  fill_gaussian(ref.view(), stream, 1234);
  EXPECT_EQ(max_abs_diff(a.to_host().view(), ref.view()), 0.0);
  EXPECT_EQ(ctx_.kernel_launches(), 1); // monolithic fill: 1 in either mode

  backend::DeviceMatrix b1, b2;
  b1.resize(dev(), 5, 3);
  b2.resize(dev(), 2, 7);
  const std::vector<MatrixView> blocks = {b1.view(), b2.view()};
  const std::vector<std::uint64_t> offsets = {11, 500};
  batched_fill_gaussian(ctx_, blocks, stream, offsets);
  Matrix r1(5, 3), r2(2, 7);
  fill_gaussian(r1.view(), stream, 11);
  fill_gaussian(r2.view(), stream, 500);
  EXPECT_EQ(max_abs_diff(b1.to_host().view(), r1.view()), 0.0);
  EXPECT_EQ(max_abs_diff(b2.to_host().view(), r2.view()), 0.0);
  EXPECT_EQ(ctx_.kernel_launches(), 1 + pinned(GetParam(), 2, 1));
}

TEST_P(RegistryBackendTest, PotrfAndTrsmMatchPerEntryReferenceBitwise) {
  SmallRng rng(515);
  const index_t batch = 6;
  std::vector<Matrix> spd(batch), rhs(batch);
  std::vector<DeviceOperand> dspd, drhs;
  for (index_t e = 0; e < batch; ++e) {
    const index_t n = 1 + rng.next_index(20);
    const index_t m = 1 + rng.next_index(8);
    const Matrix g = random_matrix(n, n, 900 + static_cast<std::uint64_t>(e));
    Matrix a(n, n);
    la::gemm(1.0, g.view(), la::Op::None, g.view(), la::Op::Trans, 0.0, a.view());
    for (index_t i = 0; i < n; ++i) a(i, i) += static_cast<real_t>(n);
    spd[static_cast<size_t>(e)] = to_matrix(a.view());
    rhs[static_cast<size_t>(e)] = random_matrix(m, n, 1900 + static_cast<std::uint64_t>(e));
    dspd.emplace_back(dev(), spd[static_cast<size_t>(e)].view());
    drhs.emplace_back(dev(), rhs[static_cast<size_t>(e)].view());
  }
  std::vector<MatrixView> av;
  for (auto& d : dspd) av.push_back(d.dm.view());
  batched_potrf(ctx_, kSampleStream, std::move(av));
  std::vector<ConstMatrixView> lv;
  std::vector<MatrixView> bv;
  for (index_t e = 0; e < batch; ++e) {
    lv.push_back(dspd[static_cast<size_t>(e)].dm.view());
    bv.push_back(drhs[static_cast<size_t>(e)].dm.view());
  }
  batched_trsm_lower(ctx_, kSampleStream, TrsmSide::Right, la::Op::Trans, std::move(lv),
                     std::move(bv));
  ctx_.sync_all();
  for (index_t e = 0; e < batch; ++e) {
    Matrix ref_l = to_matrix(spd[static_cast<size_t>(e)].view());
    la::cholesky(ref_l.view());
    Matrix ref_b = to_matrix(rhs[static_cast<size_t>(e)].view());
    la::trsm_lower_right(ref_l.view(), la::Op::Trans, ref_b.view());
    EXPECT_EQ(max_abs_diff(dspd[static_cast<size_t>(e)].dm.to_host().view(), ref_l.view()), 0.0);
    EXPECT_EQ(max_abs_diff(drhs[static_cast<size_t>(e)].dm.to_host().view(), ref_b.view()), 0.0);
  }
  EXPECT_EQ(ctx_.kernel_launches(), pinned(GetParam(), 2 * batch, 2));
}

TEST_P(RegistryBackendTest, EntryGenMatchesDirectEvaluationBitwise) {
  const Matrix source = random_matrix(16, 16, 88);
  kern::DenseEntryGenerator gen(source.view());
  const std::vector<index_t> rows = {3, 0, 9};
  const std::vector<index_t> cols = {1, 15};
  backend::DeviceMatrix out1, out2;
  out1.resize(dev(), 3, 2);
  out2.resize(dev(), 2, 3);
  std::vector<kern::BlockRequest> reqs = {{rows, cols, out1.view()}, {cols, rows, out2.view()}};
  kern::batched_generate(ctx_, gen, reqs);
  Matrix ref1(3, 2), ref2(2, 3);
  gen.generate_block(rows, cols, ref1.view());
  gen.generate_block(cols, rows, ref2.view());
  EXPECT_EQ(max_abs_diff(out1.to_host().view(), ref1.view()), 0.0);
  EXPECT_EQ(max_abs_diff(out2.to_host().view(), ref2.view()), 0.0);
  EXPECT_EQ(ctx_.kernel_launches(), pinned(GetParam(), 2, 1));
}

/// Random CSR block pattern over `rows` x `cols` nodes with uniform block
/// dims; reference result computed densely. Operands are device-resident.
struct BsrFixture {
  std::vector<index_t> row_ptr, col;
  std::vector<Matrix> block_store, x_store, y_store, y_ref;
  std::vector<backend::DeviceMatrix> dblocks, dx, dy;
  std::vector<ConstMatrixView> blocks, xv;
  std::vector<la::Op> ops;
  std::vector<MatrixView> yv;

  BsrFixture(backend::DeviceBackend& dev, index_t rows, index_t cols, index_t bm, index_t bn,
             index_t ncols, real_t density, std::uint64_t seed) {
    SmallRng rng(seed);
    row_ptr.push_back(0);
    for (index_t r = 0; r < rows; ++r) {
      for (index_t c = 0; c < cols; ++c)
        if (rng.next_real() < density) col.push_back(c);
      row_ptr.push_back(static_cast<index_t>(col.size()));
    }
    for (size_t e = 0; e < col.size(); ++e)
      block_store.push_back(random_matrix(bm, bn, seed + 100 + e));
    ops.assign(col.size(), la::Op::None);
    for (index_t c = 0; c < cols; ++c) x_store.push_back(random_matrix(bn, ncols, seed + 500 + c));
    for (index_t r = 0; r < rows; ++r) {
      y_store.push_back(random_matrix(bm, ncols, seed + 900 + r));
      y_ref.push_back(to_matrix(y_store.back().view()));
    }
    auto device_copies = [&dev](const std::vector<Matrix>& host,
                                std::vector<backend::DeviceMatrix>& out) {
      out.resize(host.size());
      for (size_t i = 0; i < host.size(); ++i) {
        out[i].resize(dev, host[i].rows(), host[i].cols());
        if (!out[i].empty()) out[i].upload_from(host[i].view());
      }
    };
    device_copies(block_store, dblocks);
    device_copies(x_store, dx);
    device_copies(y_store, dy);
    for (auto& b : dblocks) blocks.push_back(b.view());
    for (auto& x : dx) xv.push_back(x.view());
    for (auto& y : dy) yv.push_back(y.view());
  }

  index_t max_blocks_per_row() const {
    index_t mx = 0;
    for (size_t r = 0; r + 1 < row_ptr.size(); ++r) mx = std::max(mx, row_ptr[r + 1] - row_ptr[r]);
    return mx;
  }

  void reference(real_t alpha) {
    for (size_t r = 0; r + 1 < row_ptr.size(); ++r)
      for (index_t e = row_ptr[r]; e < row_ptr[r + 1]; ++e)
        la::gemm(alpha, block_store[static_cast<size_t>(e)].view(), la::Op::None,
                 x_store[static_cast<size_t>(col[static_cast<size_t>(e)])].view(), la::Op::None,
                 1.0, y_ref[r].view());
  }
};

TEST_P(RegistryBackendTest, BsrGemmMatchesDenseReferenceBitwise) {
  BsrFixture f(dev(), 6, 5, 4, 3, 2, 0.5, 42);
  f.reference(-1.0);
  ASSERT_GT(f.max_blocks_per_row(), 1);
  bsr_gemm(ctx_, -1.0, f.row_ptr, f.col, f.blocks, f.ops, f.xv, f.yv);
  for (size_t r = 0; r < f.dy.size(); ++r)
    EXPECT_EQ(max_abs_diff(f.dy[r].to_host().view(), f.y_ref[r].view()), 0.0);
  // One launch per product, whatever the blocks per row; the naive mode
  // pays the per-entry price for each of the `rows` entries.
  const index_t rows = static_cast<index_t>(f.row_ptr.size()) - 1;
  EXPECT_EQ(ctx_.kernel_launches(), pinned(GetParam(), rows, 1));
}

TEST_P(RegistryBackendTest, BsrGemmHandlesRaggedRowsAndHeterogeneousBlocks) {
  // Rows with 0, 1 and 3 blocks; block dims vary per entry — the shape a
  // real level mix produces, and the case a uniform-dims-only backend
  // override would get wrong.
  std::vector<index_t> row_ptr = {0, 0, 1, 4};
  std::vector<index_t> col = {2, 0, 1, 2};
  // Row block heights: y0 2x2, y1 3x2, y2 4x2. Column widths: x0 2, x1 3, x2 5.
  std::vector<index_t> row_m = {2, 3, 4}, col_n = {2, 3, 5};
  std::vector<Matrix> bl;
  bl.push_back(random_matrix(3, 5, 1)); // (1,2)
  bl.push_back(random_matrix(4, 2, 2)); // (2,0)
  bl.push_back(random_matrix(4, 3, 3)); // (2,1)
  bl.push_back(random_matrix(4, 5, 4)); // (2,2)
  std::vector<Matrix> xs, yr;
  for (index_t c = 0; c < 3; ++c)
    xs.push_back(random_matrix(col_n[static_cast<size_t>(c)], 2, 5 + c));
  for (index_t r = 0; r < 3; ++r) yr.push_back(Matrix(row_m[static_cast<size_t>(r)], 2));
  std::vector<DeviceOperand> dbl, dxs;
  std::vector<backend::DeviceMatrix> dys(3);
  std::vector<ConstMatrixView> bv, xv;
  std::vector<MatrixView> yv;
  for (auto& b : bl) {
    dbl.emplace_back(dev(), b.view());
    bv.push_back(dbl.back().dm.view());
  }
  for (auto& x : xs) {
    dxs.emplace_back(dev(), x.view());
    xv.push_back(dxs.back().dm.view());
  }
  for (index_t r = 0; r < 3; ++r) {
    dys[static_cast<size_t>(r)].resize(dev(), row_m[static_cast<size_t>(r)], 2);
    yv.push_back(dys[static_cast<size_t>(r)].view());
  }
  const std::vector<la::Op> ops(bv.size(), la::Op::None);
  bsr_gemm(ctx_, 1.0, row_ptr, col, bv, ops, xv, yv);
  la::gemm(1.0, bl[0].view(), la::Op::None, xs[2].view(), la::Op::None, 1.0, yr[1].view());
  la::gemm(1.0, bl[1].view(), la::Op::None, xs[0].view(), la::Op::None, 1.0, yr[2].view());
  la::gemm(1.0, bl[2].view(), la::Op::None, xs[1].view(), la::Op::None, 1.0, yr[2].view());
  la::gemm(1.0, bl[3].view(), la::Op::None, xs[2].view(), la::Op::None, 1.0, yr[2].view());
  for (size_t r = 0; r < 3; ++r)
    EXPECT_EQ(max_abs_diff(dys[r].to_host().view(), yr[r].view()), 0.0);
  EXPECT_EQ(la::norm_f(dys[0].to_host().view()), 0.0); // blockless row untouched
  EXPECT_EQ(ctx_.kernel_launches(), pinned(GetParam(), 3, 1));
}

TEST_P(RegistryBackendTest, BsrGemmEmptyPatternIsNoop) {
  std::vector<index_t> row_ptr = {0, 0, 0};
  Matrix y0(3, 2), y1(3, 2);
  std::vector<MatrixView> yv = {y0.view(), y1.view()};
  bsr_gemm(ctx_, 1.0, row_ptr, {}, {}, {}, {}, yv);
  EXPECT_EQ(ctx_.kernel_launches(), 0);
}

TEST_P(RegistryBackendTest, BsrGemmReadsTransposedBlocks) {
  // How a symmetric operator reads its mirrored coupling: every other block
  // is stored as its bn x bm transpose and passed with Op::Trans. Checked
  // against the naive triple loops, entry by entry in CSR order.
  const index_t bm = 5, bn = 3, ncols = 4;
  const std::vector<index_t> row_ptr = {0, 2, 2, 5, 6};
  const std::vector<index_t> col = {0, 2, 0, 1, 2, 1};
  std::vector<Matrix> bl, xs, yr;
  std::vector<la::Op> ops;
  for (size_t e = 0; e < col.size(); ++e) {
    ops.push_back(e % 2 == 0 ? la::Op::None : la::Op::Trans);
    bl.push_back(ops.back() == la::Op::None ? random_matrix(bm, bn, 60 + e)
                                            : random_matrix(bn, bm, 60 + e));
  }
  for (index_t c = 0; c < 3; ++c) xs.push_back(random_matrix(bn, ncols, 70 + c));
  std::vector<DeviceOperand> dbl, dxs;
  std::vector<backend::DeviceMatrix> dys(4);
  std::vector<ConstMatrixView> bv, xv;
  std::vector<MatrixView> yv;
  for (auto& b : bl) {
    dbl.emplace_back(dev(), b.view());
    bv.push_back(dbl.back().dm.view());
  }
  for (auto& x : xs) {
    dxs.emplace_back(dev(), x.view());
    xv.push_back(dxs.back().dm.view());
  }
  for (index_t r = 0; r < 4; ++r) {
    yr.push_back(random_matrix(bm, ncols, 80 + r));
    dys[static_cast<size_t>(r)].resize(dev(), bm, ncols);
    dys[static_cast<size_t>(r)].upload_from(yr.back().view());
    yv.push_back(dys[static_cast<size_t>(r)].view());
  }
  bsr_gemm(ctx_, -0.5, row_ptr, col, bv, ops, xv, yv);
  for (size_t r = 0; r < 4; ++r) {
    for (index_t e = row_ptr[r]; e < row_ptr[r + 1]; ++e) {
      const auto ue = static_cast<size_t>(e);
      la::gemm_naive(-0.5, bl[ue].view(), ops[ue], xs[static_cast<size_t>(col[ue])].view(),
                     la::Op::None, 1.0, yr[r].view());
    }
    EXPECT_LT(max_abs_diff(dys[r].to_host().view(), yr[r].view()), 1e-13) << "row " << r;
  }
  EXPECT_EQ(ctx_.kernel_launches(), pinned(GetParam(), 4, 1));
}

INSTANTIATE_TEST_SUITE_P(AllRegisteredBackends, RegistryBackendTest,
                         ::testing::ValuesIn([] {
                           std::vector<std::string> names;
                           for (std::string_view n : backend::registered_backends())
                             names.emplace_back(n);
                           return names;
                         }()),
                         [](const auto& info) {
                           // gtest parameter names must be alphanumeric:
                           // "faulty-cpu" -> "faulty_cpu".
                           std::string n = info.param;
                           for (char& c : n)
                             if (c == '-') c = '_';
                           return n;
                         });

TEST(ExecutionContext, LaunchAccountingPerBackend) {
  ExecutionContext batched(Backend::Batched);
  batched.run_batch(10, [](index_t) {});
  EXPECT_EQ(batched.kernel_launches(), 1);

  ExecutionContext naive(Backend::Naive);
  naive.run_batch(10, [](index_t) {});
  EXPECT_EQ(naive.kernel_launches(), 10);

  batched.run_batch(0, [](index_t) {});
  EXPECT_EQ(batched.kernel_launches(), 1); // empty batch: no launch
  batched.reset_counters();
  EXPECT_EQ(batched.kernel_launches(), 0);
}

} // namespace
} // namespace h2sketch::batched
