/// Command-line utility around the library: compress a kernel matrix to a
/// file, inspect a saved H2 matrix, or apply it to a vector of ones. Shows
/// the save/load workflow a downstream solver would use (compress once,
/// reload for repeated matvecs).
///
///   h2_tool compress <out.h2> [N] [kernel: exp|helm|matern] [tol]
///   h2_tool info <in.h2>
///   h2_tool matvec <in.h2>

#include <cstring>
#include <iostream>
#include <string>

#include "common/errors.hpp"
#include "common/random.hpp"
#include "core/construction.hpp"
#include "h2/h2_io.hpp"
#include "h2/h2_matvec.hpp"
#include "kernels/dense_sampler.hpp"
#include "kernels/kernels.hpp"
#include "la/blas.hpp"

using namespace h2sketch;

namespace {

int cmd_compress(int argc, char** argv) {
  const std::string path = argv[2];
  const index_t n = argc > 3 ? std::atoll(argv[3]) : 4096;
  const std::string which = argc > 4 ? argv[4] : "exp";
  const real_t tol = argc > 5 ? std::atof(argv[5]) : 1e-6;

  const std::unique_ptr<kern::KernelFunction> kernel = kern::kernel_by_name(which);

  auto tr = std::make_shared<tree::ClusterTree>(
      tree::ClusterTree::build(geo::uniform_random_cube(n, 3, 7), 32));
  kern::KernelMatVecSampler sampler(*tr, *kernel);
  kern::KernelEntryGenerator gen(*tr, *kernel);
  core::ConstructionOptions opts;
  opts.tol = tol;
  opts.sample_block = 32;
  opts.initial_samples = 64;
  auto res = core::construct_h2(tr, tree::Admissibility::general(0.7), sampler, gen, opts);
  std::cout << res.stats.summary() << "\n";
  h2::save_h2_file(path, res.matrix);
  std::cout << "saved " << path << "\n";
  return 0;
}

int cmd_info(const char* path) {
  const h2::H2Matrix a = h2::load_h2_file(path);
  std::cout << "N = " << a.size() << ", levels = " << a.num_levels() << ", Csp = "
            << a.mtree.csp() << "\n"
            << "ranks [" << a.min_rank() << ", " << a.max_rank() << "]\n"
            << "far blocks " << a.mtree.total_far_blocks() << ", dense blocks "
            << a.mtree.near_leaf.count() << "\n"
            << "memory " << static_cast<double>(a.memory_bytes()) / (1024.0 * 1024.0) << " MiB ("
            << static_cast<double>(a.size()) * a.size() * 8.0 / (1024.0 * 1024.0)
            << " MiB dense)\n";
  return 0;
}

int cmd_matvec(const char* path) {
  const h2::H2Matrix a = h2::load_h2_file(path);
  const index_t n = a.size();
  Matrix x(n, 1), y(n, 1);
  x.fill(1.0);
  const double t0 = wall_seconds();
  h2::h2_matvec(a, x.view(), y.view());
  std::cout << "||K*1|| = " << la::norm_f(y.view()) << " in " << wall_seconds() - t0 << " s\n";
  return 0;
}

int run(int argc, char** argv) {
  if (argc >= 3 && std::strcmp(argv[1], "compress") == 0) return cmd_compress(argc, argv);
  if (argc >= 3 && std::strcmp(argv[1], "info") == 0) return cmd_info(argv[2]);
  if (argc >= 3 && std::strcmp(argv[1], "matvec") == 0) return cmd_matvec(argv[2]);
  std::cerr << "usage:\n  h2_tool compress <out.h2> [N] [exp|helm|matern] [tol]\n"
               "  h2_tool info <in.h2>\n  h2_tool matvec <in.h2>\n";
  // With no arguments (e.g. smoke runs), exercise the full cycle in temp.
  if (argc == 1) {
    const char* tmp = "h2_tool_demo.h2";
    char prog[] = "h2_tool", sub[] = "compress", n[] = "1024";
    char* fake[] = {prog, sub, const_cast<char*>(tmp), n};
    cmd_compress(4, fake);
    cmd_info(tmp);
    cmd_matvec(tmp);
    std::remove(tmp);
    return 0;
  }
  return 2;
}

} // namespace

int main(int argc, char** argv) {
  // Bad input (an unknown kernel name, a tol that is not positive) is
  // reported, not aborted on.
  try {
    return run(argc, argv);
  } catch (const InvalidArgumentError& e) {
    std::cerr << "h2_tool: " << e.what() << "\n";
    return 2;
  }
}
