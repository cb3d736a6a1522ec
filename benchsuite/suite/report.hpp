#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

/// \file report.hpp
/// Sample statistics and the result record every workload fills: named
/// metrics with units, the attempted/failed operation counts, and the
/// correctness verdict, printed as a table and then as one JSON line.

namespace h2sketch::suite {

/// Quantile q in [0, 1] by linear interpolation between order statistics.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// Median, over consecutive blocks of `block` samples taken in order, of
/// each block's quantile q; a short last block joins the one before it.
/// A host stall that slows a few blocks barely moves it, while a tail that
/// grows in every block moves it fully. Under two blocks, the plain quantile.
inline double block_quantile(const std::vector<double>& v, double q, std::size_t block) {
  const std::size_t blocks = v.size() / block;
  if (blocks < 2) return quantile(v, q);
  std::vector<double> per_block;
  for (std::size_t b = 0; b < blocks; ++b) {
    const auto first = v.begin() + static_cast<std::ptrdiff_t>(b * block);
    const auto last = b + 1 == blocks ? v.end() : first + static_cast<std::ptrdiff_t>(block);
    per_block.push_back(quantile(std::vector<double>(first, last), q));
  }
  return median(per_block);
}

/// High-water resident set of this process, in MiB.
inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB on Linux
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Report {
 public:
  void add(std::string name, double value, std::string unit) {
    if (!std::isfinite(value)) check(false, name + " is not finite");
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }

  /// Count one operation; a false `ok` marks it failed and the run incorrect.
  bool check(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      std::cerr << "CHECK FAILED: " << what << "\n";
    }
    return ok;
  }
  /// Count operations that completed without a check of their own.
  void count(long n) { attempted_ += n; }

  /// A line printed under the table, not part of the JSON result.
  void note(std::string line) { notes_.push_back(std::move(line)); }

  bool correct() const { return failed_ == 0 && attempted_ > 0; }
  long attempted() const { return attempted_; }
  long failed() const { return failed_; }

  void print_table(const std::string& title) const {
    std::printf("\n== %s ==\n", title.c_str());
    for (const Metric& m : metrics_)
      std::printf("  %-34s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    std::printf("  %-34s %16ld\n  %-34s %16ld\n", "attempted", attempted_, "failed", failed_);
    for (const std::string& n : notes_) std::printf("  %s\n", n.c_str());
  }

  /// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}} on one line,
  /// every value with all 17 significant digits.
  std::string json() const {
    std::string s = "{\"correct\": ";
    s += correct() ? "true" : "false";
    s += ", \"attempted\": " + std::to_string(attempted_);
    s += ", \"failed\": " + std::to_string(failed_) + ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      char num[64];
      // A non-finite value already failed its check; JSON has no spelling for it.
      const double v = std::isfinite(metrics_[i].value) ? metrics_[i].value : -1.0;
      std::snprintf(num, sizeof(num), "%.17g", v);
      s += (i ? ", \"" : "\"") + metrics_[i].name + "\": {\"value\": " + num + ", \"unit\": \"" +
           metrics_[i].unit + "\"}";
    }
    return s + "}}";
  }

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
  long attempted_ = 0;
  long failed_ = 0;
};

} // namespace h2sketch::suite
