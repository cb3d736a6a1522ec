/// bench_suite: the repository's benchmark. One command runs every workload
/// (each in a child process of its own), prints every end-to-end metric by
/// name and unit, and checks that every output is correct.
///
///   bench_suite --all [--seed S] [--seconds T] [--trace] [--smoke]
///   bench_suite --workload NAME [--seed S] [--seconds T] [--trace 0|1] [--smoke]
///   bench_suite --reference
///
/// A single-workload run prints its table, then one JSON line
/// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics of
/// the untraced pass, or with --trace the per-layer metrics of the traced
/// pass (which also writes bench_trace_<workload>.json). --all prints one
/// aggregate JSON line with every workload's result. --reference prints the
/// dense baselines at each workload's size. See README.md beside this file.

#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <iostream>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.hpp"
#include "la/blas.hpp"
#include "suite/construct.hpp"
#include "suite/serve.hpp"

using namespace h2sketch;
using namespace h2sketch::suite;

namespace {

struct Workload {
  const char* name;
  std::function<Report(const RunConfig&)> run;
};

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"h2_cov3d", [](const RunConfig& c) { return run_construct("h2_cov3d", setup_cov3d, c); }},
      {"h2_update", [](const RunConfig& c) { return run_construct("h2_update", setup_update, c); }},
      {"hss_solve", [](const RunConfig& c) { return run_construct("hss_solve", setup_hss, c); }},
      {"serve_mix", run_serve},
  };
  return all;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads())
    if (name == w.name) return &w;
  return nullptr;
}

/// This executable's path (exec'ing it keeps the process named bench_suite).
std::string self_path() {
  char buf[4096];
  const ssize_t k = readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  return k > 0 ? std::string(buf, static_cast<size_t>(k)) : "/proc/self/exe";
}

/// The library runs min(4, cores) wide. OpenMP reads OMP_NUM_THREADS when
/// its runtime loads, so a process started without the right value
/// re-executes itself with it set.
void pin_width(char** argv) {
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  const std::string want = std::to_string(std::min(4u, cores));
  const char* have = std::getenv("OMP_NUM_THREADS");
  if (have != nullptr && want == have) return;
  setenv("OMP_NUM_THREADS", want.c_str(), 1);
  setenv("H2SKETCH_NUM_THREADS", want.c_str(), 1);
  execv(self_path().c_str(), argv);
  std::perror("bench_suite: re-exec with OMP_NUM_THREADS failed");
}

struct Args {
  std::string workload;
  bool all = false;
  bool reference = false;
  RunConfig cfg;
};

[[noreturn]] void usage(const char* why) {
  std::cerr << "bench_suite: " << why
            << "\nusage: bench_suite (--all | --workload NAME | --reference) [--seed S]"
               " [--seconds T] [--trace [0|1]] [--smoke]\nworkloads:";
  for (const Workload& w : workloads()) std::cerr << " " << w.name;
  std::cerr << "\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string f = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + f).c_str());
      return argv[++i];
    };
    if (f == "--all") {
      a.all = true;
    } else if (f == "--reference") {
      a.reference = true;
    } else if (f == "--workload") {
      a.workload = value();
      if (!find_workload(a.workload)) usage(("unknown workload " + a.workload).c_str());
    } else if (f == "--seed" || f == "--seconds") {
      const std::string v = value();
      try {
        if (f == "--seed")
          a.cfg.seed = std::stoull(v);
        else
          a.cfg.seconds = std::stod(v);
      } catch (const std::exception&) {
        usage(("bad value " + v + " for " + f).c_str());
      }
      if (!(a.cfg.seconds > 0)) usage("--seconds must be positive");
    } else if (f == "--trace") {
      a.cfg.trace = true;
      const std::string next = i + 1 < argc ? argv[i + 1] : "";
      if (next == "0" || next == "1") a.cfg.trace = argv[++i][0] == '1';
    } else if (f == "--smoke") {
      a.cfg.smoke = true;
    } else {
      usage(("unknown argument " + f).c_str());
    }
  }
  if (a.all + a.reference + !a.workload.empty() != 1)
    usage("give exactly one of --all, --workload NAME, --reference");
  if (a.cfg.smoke) a.cfg.seconds = std::min(a.cfg.seconds, 3.0);
  return a;
}

std::string header(const std::string& name, const RunConfig& cfg) {
  return name + " (seed " + std::to_string(cfg.seed) + ", " + std::to_string(num_threads()) +
         " threads, " + (cfg.trace ? "traced, per-layer" : "untraced, end-to-end") +
         (cfg.smoke ? ", smoke" : "") + ")";
}

int run_one(const Workload& w, const RunConfig& cfg) {
  Report r;
  try {
    r = w.run(cfg);
  } catch (const std::exception& ex) {
    std::cerr << w.name << " threw: " << ex.what() << "\n";
    r.check(false, "workload completes");
  }
  r.print_table(header(w.name, cfg));
  std::cout << r.json() << std::endl;
  return r.correct() ? 0 : 1;
}

long json_long(const std::string& json, const char* key) {
  const std::size_t at = json.find(std::string("\"") + key + "\": ");
  return at == std::string::npos ? -1 : std::atol(json.c_str() + at + std::strlen(key) + 4);
}

/// Runs `--workload NAME` in a child process and returns its result line.
/// A child that dies or prints no result counts as one failed operation.
std::string run_child(const std::string& name, const Args& a) {
  const std::string lost = "{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {}}";
  std::vector<std::string> args = {"bench_suite", "--workload", name, "--seed",
                                   std::to_string(a.cfg.seed), "--seconds",
                                   std::to_string(a.cfg.seconds), "--trace",
                                   a.cfg.trace ? "1" : "0"};
  if (a.cfg.smoke) args.push_back("--smoke");
  std::vector<char*> argv;
  for (std::string& s : args) argv.push_back(s.data());
  argv.push_back(nullptr);

  const std::string exe = self_path();
  int fds[2];
  if (pipe(fds) != 0) {
    std::perror("pipe");
    return lost;
  }
  std::fflush(stdout);
  const pid_t pid = fork();
  if (pid == 0) {
    dup2(fds[1], STDOUT_FILENO);
    close(fds[0]);
    close(fds[1]);
    execv(exe.c_str(), argv.data());
    _exit(127);
  }
  close(fds[1]);
  std::string out;
  char buf[4096];
  for (ssize_t k; (k = read(fds[0], buf, sizeof(buf))) != 0;) {
    if (k > 0) out.append(buf, static_cast<size_t>(k));
    else if (errno != EINTR) break;
  }
  close(fds[0]);
  int status = 0;
  while (pid > 0 && waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }

  while (!out.empty() && out.back() == '\n') out.pop_back();
  const std::size_t nl = out.rfind('\n');
  std::string last = nl == std::string::npos ? out : out.substr(nl + 1);
  std::fputs((nl == std::string::npos ? std::string() : out.substr(0, nl + 1)).c_str(), stdout);
  if (pid < 0 || WIFSIGNALED(status) || last.rfind("{\"correct\"", 0) != 0) {
    const bool signaled = pid > 0 && WIFSIGNALED(status);
    std::cout << name << ": child "
              << (signaled ? "killed by signal " + std::to_string(WTERMSIG(status))
                           : std::string("printed no result"))
              << "; failed_frac = 1\n";
    return lost;
  }
  return last;
}

int run_all(const Args& a) {
  std::string body;
  long attempted = 0, failed = 0;
  bool correct = true;
  std::vector<std::pair<std::string, double>> frac;
  for (const Workload& w : workloads()) {
    const std::string res = run_child(w.name, a);
    const long at = json_long(res, "attempted"), fa = json_long(res, "failed");
    attempted += at;
    failed += fa;
    correct = correct && res.rfind("{\"correct\": true", 0) == 0;
    frac.emplace_back(w.name, at > 0 ? static_cast<double>(fa) / static_cast<double>(at) : 1.0);
    body += (body.empty() ? "\"" : ", \"") + std::string(w.name) + "\": " + res;
  }
  std::printf("\n== all workloads ==\n");
  for (const auto& [name, f] : frac) std::printf("  %-14s failed_frac %g\n", name.c_str(), f);
  std::cout << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
            << ", \"failed\": " << failed << ", \"hardware_threads\": " << num_threads()
            << ", \"seed\": " << a.cfg.seed << ", \"trace\": " << (a.cfg.trace ? "true" : "false")
            << ", \"workloads\": {" << body << "}}" << std::endl;
  return correct ? 0 : 1;
}

/// Dense baselines at each workload's size: the matrix's bytes, a 16-column
/// and a one-column dense apply, and for factored workloads a dense
/// Cholesky factorization and one-RHS solve.
int run_reference(const Args& a) {
  const std::vector<std::pair<const char*, SetupFn>> setups = {{"h2_cov3d", setup_cov3d},
                                                               {"h2_update", setup_update},
                                                               {"hss_solve", setup_hss},
                                                               {"serve_mix", setup_serve}};
  std::string body;
  for (const auto& [name, setup] : setups) {
    const std::unique_ptr<Problem> p = setup(a.cfg);
    const index_t n = p->size();
    std::vector<index_t> all(static_cast<size_t>(n));
    std::iota(all.begin(), all.end(), index_t{0});
    Matrix k(n, n);
    p->gen->generate_block(all, all, k.view());
    const Matrix x16 = gaussian_panel(n, kApplyCols, sub_seed(a.cfg.seed, kVectors));
    Matrix y16(n, kApplyCols);
    const auto timed = [](int reps, const auto& f) {
      std::vector<double> s;
      for (int i = 0; i < reps; ++i) {
        const double t0 = wall_seconds();
        f();
        s.push_back(wall_seconds() - t0);
      }
      return median(s);
    };
    const double apply16 = timed(5, [&] {
      la::gemm_parallel(1.0, k.view(), la::Op::None, x16.view(), la::Op::None, 0.0, y16.view());
    });
    const double apply1 = timed(20, [&] {
      la::gemm_parallel(1.0, k.view(), la::Op::None, x16.view().col_range(0, 1), la::Op::None, 0.0,
                        y16.view().col_range(0, 1));
    });
    char row[512];
    std::snprintf(row, sizeof(row),
                  "\"%s\": {\"n\": %lld, \"dense_mb\": %.6g, \"dense_apply16_ms\": %.6g, "
                  "\"dense_apply1_ms\": %.6g",
                  name, static_cast<long long>(n), 8.0 * static_cast<double>(n) * n / (1 << 20),
                  1e3 * apply16, 1e3 * apply1);
    body += (body.empty() ? "" : ", ") + std::string(row);
    if (p->factored) {
      const double chol = timed(1, [&] { la::cholesky(k.view()); });
      Matrix x = to_matrix(x16.view().col_range(0, 1));
      const double solve1 = timed(5, [&] { la::cholesky_solve(k.view(), x.view()); });
      std::snprintf(row, sizeof(row), ", \"dense_cholesky_s\": %.6g, \"dense_solve1_ms\": %.6g",
                    chol, 1e3 * solve1);
      body += row;
    }
    body += "}";
    std::cerr << "reference " << name << " done\n";
  }
  std::cout << "{\"hardware_threads\": " << num_threads() << ", \"reference\": {" << body << "}}"
            << std::endl;
  return 0;
}

} // namespace

int main(int argc, char** argv) {
  pin_width(argv);
  const Args a = parse(argc, argv);
  if (a.reference) return run_reference(a);
  if (a.all) return run_all(a);
  return run_one(*find_workload(a.workload), a.cfg);
}
