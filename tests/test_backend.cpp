#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>

#include "backend/cpu_backend.hpp"
#include "backend/device_matrix.hpp"
#include "backend/registry.hpp"
#include "backend/sim_device.hpp"
#include "batched/device.hpp"
#include "core/construction.hpp"
#include "h2/h2_dense.hpp"
#include "h2/h2_matvec.hpp"
#include "kernels/dense_sampler.hpp"
#include "kernels/kernels.hpp"
#include "solver/hss_construction.hpp"
#include "solver/ulv.hpp"
#include "test_common.hpp"

/// \file test_backend.cpp
/// The device-backend seam: the DeviceBuffer memory model and its explicit
/// marshaling copies, the SimulatedDevice separate heap with host-deref
/// poisoning, the backend-allocated Workspace arena, and the end-to-end
/// guarantee of the refactor — construction, H2 matvec and ULV
/// factor/solve produce bitwise-identical results with unchanged launch
/// counts on CpuBackend vs SimulatedDevice.

namespace h2sketch::backend {
namespace {

using test_util::dense_kernel_matrix;
using test_util::random_matrix;

std::shared_ptr<SimulatedDevice> small_sim(bool poison = true) {
  SimDeviceOptions opts;
  opts.heap_bytes = std::size_t{256} << 20;
  opts.poison = poison ? 1 : 0;
  return make_sim_device(opts);
}

TEST(DeviceBuffer, AllocateCopyRoundTripAndStats) {
  // Fresh device instances (stats start at zero): registry configs now all
  // share the process-wide devices, so exact-count tests use the factories.
  const std::shared_ptr<DeviceBackend> devices[] = {make_cpu_backend(), small_sim(false)};
  for (const auto& dev : devices) {
    const std::string_view name = dev->name();
    const std::size_t n = 1000;
    DeviceBuffer buf = dev->allocate(n * sizeof(real_t));
    ASSERT_FALSE(buf.empty());
    EXPECT_EQ(buf.bytes(), n * sizeof(real_t));

    std::vector<real_t> host(n), back(n);
    for (std::size_t i = 0; i < n; ++i) host[i] = static_cast<real_t>(i) * 0.5;
    dev->copy_to_device(buf.data(), host.data(), n * sizeof(real_t));
    dev->copy_to_host(back.data(), buf.data(), n * sizeof(real_t));
    EXPECT_EQ(std::memcmp(host.data(), back.data(), n * sizeof(real_t)), 0) << name;

    const DeviceStatsSnapshot s = dev->stats();
    EXPECT_EQ(s.allocations, 1u);
    EXPECT_EQ(s.bytes_to_device, n * sizeof(real_t));
    EXPECT_EQ(s.bytes_to_host, n * sizeof(real_t));
    EXPECT_EQ(s.live_bytes, n * sizeof(real_t));
    buf.release();
    EXPECT_EQ(dev->stats().live_bytes, 0u);
    EXPECT_EQ(dev->stats().deallocations, 1u);
  }
}

TEST(SimulatedDevice, KeepsASeparateHeap) {
  auto sim = small_sim(false);
  EXPECT_TRUE(sim->is_device());
  EXPECT_EQ(sim->name(), "simdevice");
  DeviceBuffer buf = sim->allocate(128);
  EXPECT_TRUE(sim->owns(buf.data()));
  int on_host_stack = 0;
  EXPECT_FALSE(sim->owns(&on_host_stack));
  std::vector<real_t> host_heap(4);
  EXPECT_FALSE(sim->owns(host_heap.data()));
  // CpuBackend pointers are host pointers, not device-heap pointers.
  auto cpu = make_cpu_backend();
  DeviceBuffer hb = cpu->allocate(128);
  EXPECT_FALSE(sim->owns(hb.data()));
}

TEST(SimulatedDevice, FreeListReusesAndCoalesces) {
  auto sim = small_sim(false);
  DeviceBuffer a = sim->allocate(4096);
  DeviceBuffer b = sim->allocate(4096);
  void* pa = a.data();
  void* pb = b.data();
  a.release();
  b.release();
  // The coalesced block serves a request spanning both.
  DeviceBuffer c = sim->allocate(8192);
  EXPECT_EQ(c.data(), pa);
  (void)pb;
}

TEST(SimulatedDevice, PoisonBlocksHostDereferenceOutsideKernelScopes) {
  auto sim = small_sim(true);
  if (!sim->poison_active()) GTEST_SKIP() << "poisoning unavailable on this platform";
  DeviceBuffer buf = sim->allocate(64);
  auto* p = static_cast<volatile real_t*>(buf.data());
  {
    // Inside a kernel scope the page is mapped and reads/writes succeed.
    KernelScope ks(sim.get());
    p[0] = 42.0;
    EXPECT_EQ(p[0], 42.0);
  }
  // Outside any scope a host dereference of device memory must die.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH({ p[0] = 1.0; }, "");
}

TEST(SimulatedDevice, KernelScopesNestAcrossThreadsProcessWide) {
  auto sim = small_sim(true);
  if (!sim->poison_active()) GTEST_SKIP() << "poisoning unavailable on this platform";
  DeviceBuffer buf = sim->allocate(64);
  auto* p = static_cast<real_t*>(buf.data());
  KernelScope outer(sim.get());
  {
    KernelScope inner(sim.get());
    p[0] = 1.0;
  }
  // The outer scope is still live: access must keep working.
  EXPECT_EQ(p[0], 1.0);
}

TEST(DeviceMatrix, ResizeZeroesAndAppendColsPreserves) {
  for (std::string_view name : {std::string_view("cpu"), std::string_view("simdevice")}) {
    auto dev = shared_backend(name).device;
    DeviceMatrix m;
    m.resize(*dev, 3, 2);
    EXPECT_EQ(la::norm_f(m.to_host().view()), 0.0) << name;
    const Matrix h = random_matrix(3, 2, 5);
    m.upload_from(h.view());
    m.append_cols(*dev, 2);
    EXPECT_EQ(m.rows(), 3);
    EXPECT_EQ(m.cols(), 4);
    const Matrix back = m.to_host();
    EXPECT_EQ(max_abs_diff(back.view().col_range(0, 2), h.view()), 0.0);
    EXPECT_EQ(la::norm_f(back.view().col_range(2, 2)), 0.0);
  }
}

TEST(WorkspaceBackend, ArenaIsBackendAllocated) {
  auto sim = small_sim(false);
  Workspace ws(sim);
  ws.reserve_bytes(1 << 12);
  real_t* a = ws.allocate<real_t>(100);
  real_t* b = ws.allocate<real_t>(100);
  EXPECT_TRUE(sim->owns(a));
  EXPECT_TRUE(sim->owns(b));
  EXPECT_NE(a, b);
  EXPECT_EQ(ws.backing_allocations(), 1);
  ws.reset();
  EXPECT_EQ(ws.allocate<real_t>(100), a); // arena recycled in place
  // A context's workspace uses the context's device backend.
  batched::ExecutionContext ctx(ExecutionConfig{sim, LaunchMode::Batched});
  ctx.workspace().reserve_bytes(256);
  EXPECT_TRUE(sim->owns(ctx.workspace().allocate<real_t>(8)));
}

/// Fixture running the acceptance guarantee end to end: identical
/// workloads on a fresh CpuBackend and a fresh SimulatedDevice.
struct TwoBackendWorkload {
  std::shared_ptr<tree::ClusterTree> tr;
  kern::ExponentialKernel k{0.3};
  Matrix kd;
  core::ConstructionOptions opts;

  TwoBackendWorkload() {
    tr = test_util::build_cube_tree(256, 2, 33, 16);
    kd = dense_kernel_matrix(*tr, k);
    opts.tol = 1e-6;
    opts.sample_block = 16;
    opts.initial_samples = 32;
  }
};

TEST(BackendParity, ConstructionIsBitwiseIdenticalWithPinnedLaunches) {
  TwoBackendWorkload w;
  auto run = [&](std::string_view name) {
    batched::ExecutionContext ctx(shared_backend(name));
    kern::DenseMatrixSampler sampler(w.kd.view());
    kern::KernelEntryGenerator gen(*w.tr, w.k);
    return core::construct_h2(w.tr, tree::Admissibility::general(0.7), sampler, gen, w.opts, ctx);
  };
  const auto cpu = run("cpu");
  const auto sim = run("simdevice");
  EXPECT_EQ(cpu.stats.kernel_launches, sim.stats.kernel_launches);
  EXPECT_EQ(cpu.stats.total_samples, sim.stats.total_samples);
  EXPECT_EQ(cpu.stats.max_rank, sim.stats.max_rank);
  EXPECT_EQ(max_abs_diff(h2::densify(cpu.matrix).view(), h2::densify(sim.matrix).view()), 0.0);
}

TEST(BackendParity, MatvecIsBitwiseIdentical) {
  // Operators are device-resident, so each backend builds (bitwise
  // identically — pinned above) and applies its own copy; the products must
  // still agree bitwise with identical launch counts.
  TwoBackendWorkload w;
  const Matrix x = random_matrix(w.tr->num_points(), 3, 7);
  auto apply_on = [&](std::string_view name) {
    batched::ExecutionContext ctx(shared_backend(name));
    kern::DenseMatrixSampler sampler(w.kd.view());
    kern::KernelEntryGenerator gen(*w.tr, w.k);
    const auto res =
        core::construct_h2(w.tr, tree::Admissibility::general(0.7), sampler, gen, w.opts, ctx);
    Matrix y(res.matrix.size(), 3);
    const index_t before = ctx.kernel_launches();
    h2::h2_matvec(ctx, res.matrix, x.view(), y.view());
    return std::pair<Matrix, index_t>(std::move(y), ctx.kernel_launches() - before);
  };
  const auto [y_cpu, launches_cpu] = apply_on("cpu");
  const auto [y_sim, launches_sim] = apply_on("simdevice");
  EXPECT_EQ(max_abs_diff(y_cpu.view(), y_sim.view()), 0.0);
  EXPECT_EQ(launches_cpu, launches_sim);
}

TEST(BackendParity, ForeignContextIsRejectedForResidentOperators) {
  // The arenas of a cpu-built operator live on the cpu heap: applying it
  // through a simdevice context must throw instead of mixing heaps.
  TwoBackendWorkload w;
  kern::DenseMatrixSampler sampler(w.kd.view());
  kern::KernelEntryGenerator gen(*w.tr, w.k);
  batched::ExecutionContext build_ctx(shared_backend("cpu"));
  const auto res =
      core::construct_h2(w.tr, tree::Admissibility::general(0.7), sampler, gen, w.opts, build_ctx);
  const Matrix x = random_matrix(res.matrix.size(), 2, 7);
  Matrix y(res.matrix.size(), 2);
  batched::ExecutionContext foreign(shared_backend("simdevice"));
  EXPECT_THROW(h2::h2_matvec(foreign, res.matrix, x.view(), y.view()), std::runtime_error);

  kern::RidgeKernel rk(w.k, 1.0);
  const Matrix rkd = dense_kernel_matrix(*w.tr, rk);
  kern::DenseMatrixSampler rsampler(rkd.view());
  kern::KernelEntryGenerator rgen(*w.tr, rk);
  auto hss = solver::build_hss(w.tr, rsampler, rgen, w.opts, build_ctx);
  EXPECT_THROW(hss.matrix.matvec(foreign, x.view(), y.view()), std::runtime_error);
}

TEST(BackendParity, SteadyStateMatvecUploadsOnlyX) {
  // The acceptance pin of the device-resident refactor: operand panels cross
  // the boundary once at build; from then on every h2_matvec moves exactly
  // the x panel to the device and the y panel back. A fresh SimulatedDevice
  // heap makes the byte deltas exact.
  TwoBackendWorkload w;
  auto sim = small_sim(false);
  batched::ExecutionContext ctx(ExecutionConfig{sim, LaunchMode::Batched});
  kern::DenseMatrixSampler sampler(w.kd.view());
  kern::KernelEntryGenerator gen(*w.tr, w.k);
  const auto res =
      core::construct_h2(w.tr, tree::Admissibility::general(0.7), sampler, gen, w.opts, ctx);

  // Operand arenas are resident on the sim heap — mostly written in place
  // by the build's kernel launches rather than uploaded, so the transfer
  // counters stay small while live_bytes covers the whole operator.
  EXPECT_GT(res.matrix.device_bytes(), 0u);
  EXPECT_GE(sim->stats().live_bytes, res.matrix.device_bytes());
  const auto build_uploads = sim->stats().bytes_to_device;

  const index_t n = res.matrix.size();
  const index_t d = 3;
  const Matrix x = random_matrix(n, d, 7);
  Matrix y(n, d);
  // Warmup apply grows the context workspace arena once.
  h2::h2_matvec(ctx, res.matrix, x.view(), y.view());
  const auto panel = static_cast<std::uint64_t>(n) * d * sizeof(real_t);
  for (int rep = 0; rep < 3; ++rep) {
    const auto before = sim->stats();
    h2::h2_matvec(ctx, res.matrix, x.view(), y.view());
    const auto after = sim->stats();
    EXPECT_EQ(after.bytes_to_device - before.bytes_to_device, panel) << "apply " << rep;
    EXPECT_EQ(after.bytes_to_host - before.bytes_to_host, panel) << "apply " << rep;
  }
  // Operand bytes never recross the boundary after build: total upload
  // traffic is the build's plus exactly one x panel per apply (4 applies
  // counting the warmup).
  EXPECT_EQ(sim->stats().bytes_to_device, build_uploads + 4 * panel);
}

TEST(BackendParity, SteadyStateHssSolveUploadsOnlyB) {
  // Same pin for the HSS matvec and the ULV solve: after the warmup apply,
  // per-apply traffic is exactly the input panel over and the output panel
  // back — generators, couplings, leaf diagonals and factor panels never
  // recross the boundary.
  auto tr = test_util::build_cube_tree(256, 2, 91, 16);
  kern::ExponentialKernel base(0.3);
  kern::RidgeKernel k(base, 1.0);
  const Matrix kd = dense_kernel_matrix(*tr, k);
  core::ConstructionOptions opts;
  opts.tol = 1e-8;
  opts.sample_block = 16;
  opts.initial_samples = 32;
  auto sim = small_sim(false);
  batched::ExecutionContext ctx(ExecutionConfig{sim, LaunchMode::Batched});
  kern::DenseMatrixSampler sampler(kd.view());
  kern::KernelEntryGenerator gen(*tr, k);
  auto res = solver::build_hss(tr, sampler, gen, opts, ctx);
  auto f = solver::ulv_factor(res.matrix, ctx);
  EXPECT_GT(res.matrix.device_bytes(), 0u);
  EXPECT_GT(f.device_bytes(), 0u);
  EXPECT_GE(sim->stats().live_bytes, res.matrix.device_bytes() + f.device_bytes());

  const index_t n = res.matrix.size();
  const index_t d = 2;
  const Matrix x = random_matrix(n, d, 5);
  Matrix y(n, d), s(n, d);
  res.matrix.matvec(ctx, x.view(), y.view()); // warmup
  f.solve_many(x.view(), s.view(), ctx);      // warmup
  const auto panel = static_cast<std::uint64_t>(n) * d * sizeof(real_t);
  for (int rep = 0; rep < 3; ++rep) {
    auto before = sim->stats();
    res.matrix.matvec(ctx, x.view(), y.view());
    auto after = sim->stats();
    EXPECT_EQ(after.bytes_to_device - before.bytes_to_device, panel) << "matvec " << rep;
    EXPECT_EQ(after.bytes_to_host - before.bytes_to_host, panel) << "matvec " << rep;
    before = sim->stats();
    f.solve_many(x.view(), s.view(), ctx);
    after = sim->stats();
    EXPECT_EQ(after.bytes_to_device - before.bytes_to_device, panel) << "solve " << rep;
    EXPECT_EQ(after.bytes_to_host - before.bytes_to_host, panel) << "solve " << rep;
  }
}

TEST(BackendParity, UlvFactorAndSolveAreBitwiseIdentical) {
  auto tr = test_util::build_cube_tree(256, 2, 44, 16);
  kern::ExponentialKernel base(0.3);
  kern::RidgeKernel k(base, 1.0);
  const Matrix kd = dense_kernel_matrix(*tr, k);
  core::ConstructionOptions opts;
  opts.tol = 1e-8;
  opts.sample_block = 16;
  opts.initial_samples = 32;

  auto solve_with = [&](std::string_view name) {
    batched::ExecutionContext ctx(shared_backend(name));
    kern::DenseMatrixSampler sampler(kd.view());
    kern::KernelEntryGenerator gen(*tr, k);
    auto res = solver::build_hss(tr, sampler, gen, opts, ctx);
    auto f = solver::ulv_factor(res.matrix, ctx);
    std::vector<real_t> b = test_util::random_vector(tr->num_points(), 21);
    std::vector<real_t> x(b.size(), 0.0);
    f.solve(b, x, ctx);
    return std::pair<std::vector<real_t>, index_t>(std::move(x), ctx.kernel_launches());
  };
  const auto [x_cpu, launches_cpu] = solve_with("cpu");
  const auto [x_sim, launches_sim] = solve_with("simdevice");
  EXPECT_EQ(launches_cpu, launches_sim);
  ASSERT_EQ(x_cpu.size(), x_sim.size());
  for (size_t i = 0; i < x_cpu.size(); ++i) EXPECT_EQ(x_cpu[i], x_sim[i]) << "entry " << i;
}

TEST(BackendParity, ConvenienceSolveFollowsTheFactorsDevice) {
  // A factor built on a non-default device must be solvable through the
  // convenience overload (it binds to the owning device), while an
  // explicit context on a different device is rejected instead of
  // dereferencing a foreign poisoned heap.
  auto tr = test_util::build_cube_tree(128, 2, 66, 16);
  kern::ExponentialKernel base(0.3);
  kern::RidgeKernel k(base, 1.0);
  const Matrix kd = dense_kernel_matrix(*tr, k);
  core::ConstructionOptions opts;
  opts.tol = 1e-8;
  opts.sample_block = 16;
  opts.initial_samples = 32;
  batched::ExecutionContext ctx(shared_backend("simdevice"));
  kern::DenseMatrixSampler sampler(kd.view());
  kern::KernelEntryGenerator gen(*tr, k);
  auto res = solver::build_hss(tr, sampler, gen, opts, ctx);
  auto f = solver::ulv_factor(res.matrix, ctx);

  const std::vector<real_t> b = test_util::random_vector(tr->num_points(), 9);
  std::vector<real_t> x_conv(b.size(), 0.0), x_ctx(b.size(), 0.0);
  f.solve(b, x_conv); // convenience: must bind to the factor's simdevice
  f.solve(b, x_ctx, ctx);
  for (size_t i = 0; i < b.size(); ++i) EXPECT_EQ(x_conv[i], x_ctx[i]);

  batched::ExecutionContext other(shared_backend("cpu"));
  std::vector<real_t> x_bad(b.size(), 0.0);
  EXPECT_THROW(f.solve(b, x_bad, other), std::runtime_error);
}

TEST(BackendParity, HssMatvecIsBitwiseIdenticalAndMatchesDensify) {
  // Device-resident storage: each backend builds and applies its own
  // operator; the results stay bitwise identical and match the dense
  // reference (densify reads the lazy host mirrors).
  auto tr = test_util::build_cube_tree(256, 2, 55, 16);
  kern::ExponentialKernel k(0.3);
  const Matrix kd = dense_kernel_matrix(*tr, k);
  core::ConstructionOptions opts;
  opts.tol = 1e-7;
  opts.sample_block = 16;
  opts.initial_samples = 32;
  const index_t n = tr->num_points();
  const Matrix x = random_matrix(n, 2, 77);

  auto apply_on = [&](std::string_view name, Matrix* dense_out) {
    batched::ExecutionContext ctx(shared_backend(name));
    kern::DenseMatrixSampler sampler(kd.view());
    kern::KernelEntryGenerator gen(*tr, k);
    auto res = solver::build_hss(tr, sampler, gen, opts, ctx);
    Matrix y(n, 2);
    const index_t before = ctx.kernel_launches();
    res.matrix.matvec(ctx, x.view(), y.view());
    if (dense_out) *dense_out = h2::densify(res.matrix);
    return std::pair<Matrix, index_t>(std::move(y), ctx.kernel_launches() - before);
  };
  Matrix dense;
  const auto [y_cpu, launches_cpu] = apply_on("cpu", &dense);
  const auto [y_sim, launches_sim] = apply_on("simdevice", nullptr);
  Matrix y_ref(n, 2);
  la::gemm(1.0, dense.view(), la::Op::None, x.view(), la::Op::None, 0.0, y_ref.view());
  EXPECT_EQ(max_abs_diff(y_cpu.view(), y_sim.view()), 0.0);
  EXPECT_EQ(launches_cpu, launches_sim);
  EXPECT_LT(test_util::rel_fro_error(y_cpu.view(), y_ref.view()), test_util::kMatvecRelTol);
}

TEST(Registry, SharedBackendIsTheProcessWideDevice) {
  // One process-wide device per kind: an operator built under one context
  // and applied under another must address the same device heap.
  for (std::string_view name : registered_backends())
    EXPECT_EQ(shared_backend(name).device.get(), shared_backend(name).device.get()) << name;
  EXPECT_EQ(shared_backend("naive").device.get(), shared_backend("cpu").device.get());
}

TEST(Registry, OperatorBuiltSharedAppliesUnderASecondContext) {
  // Build + factor under shared_backend("simdevice"), then matvec and solve
  // through a second, convenience-style context on the same configuration:
  // same device heap, so both must work and agree bitwise with the build
  // context.
  auto tr = test_util::build_cube_tree(128, 2, 17, 16);
  kern::ExponentialKernel base(0.3);
  kern::RidgeKernel k(base, 1.0);
  const Matrix kd = dense_kernel_matrix(*tr, k);
  core::ConstructionOptions opts;
  opts.tol = 1e-8;
  opts.sample_block = 16;
  opts.initial_samples = 32;
  batched::ExecutionContext build_ctx(shared_backend("simdevice"));
  kern::DenseMatrixSampler sampler(kd.view());
  kern::KernelEntryGenerator gen(*tr, k);
  auto res = solver::build_hss(tr, sampler, gen, opts, build_ctx);
  auto f = solver::ulv_factor(res.matrix, build_ctx);

  const index_t n = res.matrix.size();
  const Matrix x = random_matrix(n, 2, 31);
  Matrix y_build(n, 2), y_conv(n, 2);
  res.matrix.matvec(build_ctx, x.view(), y_build.view());
  batched::ExecutionContext conv_ctx(shared_backend("simdevice"));
  res.matrix.matvec(conv_ctx, x.view(), y_conv.view());
  EXPECT_EQ(max_abs_diff(y_build.view(), y_conv.view()), 0.0);

  const std::vector<real_t> b = test_util::random_vector(tr->num_points(), 13);
  std::vector<real_t> s_build(b.size(), 0.0), s_conv(b.size(), 0.0);
  f.solve(b, s_build, build_ctx);
  f.solve(b, s_conv, conv_ctx); // used to throw: foreign device heap
  for (size_t i = 0; i < b.size(); ++i) EXPECT_EQ(s_build[i], s_conv[i]) << "entry " << i;
}

TEST(Registry, DefaultBackendOverrideAndReset) {
  // The default is no longer frozen at first call: an explicit override
  // wins, and resetting reverts to the environment.
  const std::string before = default_backend_name();
  set_default_backend("naive");
  EXPECT_EQ(default_backend_name(), "naive");
  EXPECT_EQ(default_backend().mode, LaunchMode::Naive);
  set_default_backend("cpu"); // override replaces override
  EXPECT_EQ(default_backend_name(), "cpu");
  reset_default_backend();
  EXPECT_EQ(default_backend_name(), before);
  const char* env = std::getenv("H2SKETCH_BACKEND");
  EXPECT_EQ(default_backend_name(), env != nullptr ? std::string(env) : std::string("cpu"));
  EXPECT_THROW(set_default_backend("warpdrive"), std::runtime_error);
  EXPECT_EQ(default_backend_name(), before); // failed override changes nothing
}

} // namespace
} // namespace h2sketch::backend
