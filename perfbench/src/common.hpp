// Shared plumbing of the benchmark binary: run options, the outcome each
// workload reports, seed derivation and process-level measurements.
#ifndef PERFBENCH_COMMON_HPP
#define PERFBENCH_COMMON_HPP

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory the traced run writes its spans to (empty: not written).
  std::string spans_dir;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports. `correct` turns false on the first failed
/// output check; `errors` says which.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> errors;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void fail(std::string what) {
    correct = false;
    errors.push_back(std::move(what));
  }
};

/// Independent stream seed derived from the workload seed (SplitMix64 of the
/// pair), so every generated input depends on --seed alone.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) noexcept;

/// num / den, or 0 when den is 0 (a layer the workload did not exercise).
inline double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }
inline double ratio(std::uint64_t num, std::uint64_t den) {
  return ratio(static_cast<double>(num), static_cast<double>(den));
}

/// Peak resident set of this process so far, in MiB.
[[nodiscard]] double peak_rss_mb();

Outcome run_lifetime(const RunOptions& opt);
Outcome run_host_mixed(const RunOptions& opt);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_HPP
