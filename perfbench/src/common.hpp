#pragma once
// Shared vocabulary of the end-to-end benchmark: run options, the metric
// table a run prints, the pass/fail tally, and small statistics helpers.
// The workloads live in batch.cpp and serve_workloads.cpp; see
// perfbench/README.md for what each one measures and why.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

class Trace;

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// `smoke` shrinks every design and rate so a run takes seconds; the
/// benchmark's own tests use it.  Timed runs always use `full`.
enum class Scale { kFull, kSmoke };

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Scale scale = Scale::kFull;
  /// serve_mixed: multiplies every arrival rate.  For measuring the
  /// daemon's capacity for the mix; timed runs use 1.
  double load_scale = 1.0;
  /// Test hook: corrupt the first result before it is checked, so a test
  /// can show that the output checks catch it.
  bool tamper = false;
  /// The gtl_serve binary built beside this one.
  std::string serve_bin;
  /// Scratch directory for this run's inputs (removed at exit).
  std::string work_dir;
  /// Persistent output directory: trace files and recorded digests.
  std::string out_dir;
};

/// Named measurements, printed as {"name": {"value": v, "unit": u}}.
struct Metrics {
  std::map<std::string, std::pair<double, std::string>> values;

  void set(const std::string& name, double value, const std::string& unit) {
    values[name] = {value, unit};
  }
};

/// Operations attempted and failed, plus output-check failures.  Any
/// check failure makes the run incorrect.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> check_failures;

  [[nodiscard]] bool correct() const { return check_failures.empty(); }
  /// Record a failed output check (the operation also counts as failed).
  void fail_check(const std::string& what) {
    ++failed;
    check_failures.push_back(what);
  }
};

struct RunReport {
  Metrics metrics;
  Tally tally;
  /// FNV-1a over the deterministic result bytes of a fixed subset of the
  /// run's operations (same seed, seconds and scale give the same subset).
  std::string digest;
  std::size_t digest_items = 0;
};

/// Nearest-rank percentile (q in (0, 1]); 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return percentile(std::move(v), 0.5);
}

/// splitmix64 of (seed, stream): independent deterministic sub-seeds.
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream);

/// Peak resident set of this process in MB (getrusage ru_maxrss).
[[nodiscard]] double self_peak_rss_mb();

/// Store the end-to-end latency metrics shared by every workload.
void set_latency_metrics(Metrics& m, const std::vector<double>& latencies_ms);

RunReport run_paper_batch(const Options& opt, Trace& trace);
RunReport run_serve_mixed(const Options& opt, Trace& trace);

}  // namespace perfbench
