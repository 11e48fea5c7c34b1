// gtl_perfbench — the end-to-end benchmark.  Normally started by
// perfbench/run.py, which builds it; see perfbench/README.md.
//
//   gtl_perfbench --workload=paper_batch --seed=1 --seconds=20 --trace=0
//       --serve-bin=PATH --work-dir=DIR --out-dir=DIR [--scale=smoke]
//       [--load-scale=X] [--git-rev=REV] [--tamper]
//
// Prints a run header, the result digest, and as its last line one JSON
// object {"correct", "attempted", "failed", "metrics"}.  Exits 0 when
// every output check passed, 1 when one failed, 2 on bad arguments and 3
// when the build is not one whose numbers may be reported.

#include <sys/resource.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <thread>

#include "checks.hpp"
#include "common.hpp"
#include "trace.hpp"
#include "util/failpoint.hpp"
#include "util/json.hpp"
#include "util/simd.hpp"

namespace perfbench {

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double exact = q * static_cast<double>(v.size());
  auto idx = static_cast<std::size_t>(exact);
  if (static_cast<double>(idx) < exact) ++idx;
  if (idx == 0) idx = 1;
  return v[std::min(idx, v.size()) - 1];
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double self_peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

void set_latency_metrics(Metrics& m, const std::vector<double>& latencies_ms) {
  m.set("latency_ms_p50", percentile(latencies_ms, 0.5), "ms");
  m.set("latency_ms_p90", percentile(latencies_ms, 0.9), "ms");
}

}  // namespace perfbench

namespace {

using perfbench::Options;

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

bool parse_args(int argc, char** argv, Options* opt, std::string* git_rev) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string val = eq == std::string::npos ? "" : arg.substr(eq + 1);
    try {
      if (key == "--workload") {
        opt->workload = val;
      } else if (key == "--seed") {
        opt->seed = std::stoull(val);
      } else if (key == "--seconds") {
        opt->seconds = std::stod(val);
      } else if (key == "--trace") {
        opt->trace = val == "1";
      } else if (key == "--scale") {
        if (val != "full" && val != "smoke") return false;
        opt->scale = val == "smoke" ? perfbench::Scale::kSmoke
                                    : perfbench::Scale::kFull;
      } else if (key == "--load-scale") {
        opt->load_scale = std::stod(val);
      } else if (key == "--tamper") {
        opt->tamper = true;
      } else if (key == "--serve-bin") {
        opt->serve_bin = val;
      } else if (key == "--work-dir") {
        opt->work_dir = val;
      } else if (key == "--out-dir") {
        opt->out_dir = val;
      } else if (key == "--git-rev") {
        *git_rev = val;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return !opt->workload.empty() && opt->seconds > 0.0 && opt->load_scale > 0.0 &&
         !opt->serve_bin.empty() && !opt->work_dir.empty() &&
         !opt->out_dir.empty();
}

}  // namespace

int main(int argc, char** argv) {
  namespace fs = std::filesystem;
  using gtl::JsonValue;
  Options opt;
  std::string git_rev = "unknown";
  if (!parse_args(argc, argv, &opt, &git_rev)) {
    std::cerr << "usage: gtl_perfbench --workload=NAME --seed=N --seconds=S "
                 "--trace=0|1 --serve-bin=PATH --work-dir=DIR --out-dir=DIR "
                 "[--scale=full|smoke] [--load-scale=X] [--git-rev=REV] [--tamper]\n";
    return 2;
  }

  JsonValue::Object header;
  header.emplace("workload", JsonValue(opt.workload));
  header.emplace("seed", JsonValue(opt.seed));
  header.emplace("seconds", JsonValue(opt.seconds));
  header.emplace("trace", JsonValue(opt.trace));
  header.emplace("load_scale", JsonValue(opt.load_scale));
  header.emplace("scale", JsonValue(opt.scale == perfbench::Scale::kSmoke ? "smoke" : "full"));
  header.emplace("nproc", JsonValue(static_cast<std::uint64_t>(
                              std::thread::hardware_concurrency())));
  header.emplace("cpu_model", JsonValue(cpu_model()));
  header.emplace("build_type", JsonValue(PERFBENCH_BUILD_TYPE));
  header.emplace("compiler", JsonValue(PERFBENCH_COMPILER));
  header.emplace("simd_backend", JsonValue(gtl::simd::backend_name()));
  header.emplace("failpoints", JsonValue(gtl::failpoint::compiled_in()));
  header.emplace("git_rev", JsonValue(git_rev));
  std::cout << "header " << JsonValue(std::move(header)).dump() << std::endl;
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release" ||
      gtl::failpoint::compiled_in()) {
    std::cerr << "gtl_perfbench: refusing to report numbers from a "
                 "non-Release or failpoint build\n";
    return 3;
  }

  perfbench::RunReport rep;
  perfbench::Trace trace(opt.trace);
  fs::create_directories(opt.work_dir);
  fs::create_directories(opt.out_dir);
  try {
    if (opt.workload == "paper_batch") {
      rep = perfbench::run_paper_batch(opt, trace);
    } else if (opt.workload == "serve_mixed") {
      rep = perfbench::run_serve_mixed(opt, trace);
    } else {
      std::cerr << "gtl_perfbench: unknown workload " << opt.workload << "\n";
      return 2;
    }
  } catch (const std::exception& e) {
    std::cerr << "gtl_perfbench: " << e.what() << "\n";
    std::error_code ec;
    fs::remove_all(opt.work_dir, ec);
    return 1;
  }
  std::error_code ec;
  fs::remove_all(opt.work_dir, ec);

  perfbench::Tally& tally = rep.tally;
  // Only a clean run's digest is recorded or compared.
  if (!opt.tamper && tally.correct() && rep.digest_items > 0) {
    const std::string key = opt.workload + "-seed" + std::to_string(opt.seed) +
                            "-s" + std::to_string(opt.seconds) + "-" +
                            (opt.scale == perfbench::Scale::kSmoke ? "smoke" : "full") +
                            "-trace" + (opt.trace ? "1" : "0") + "-x" +
                            std::to_string(opt.load_scale);
    if (const std::string err = perfbench::check_recorded_digest(
            (fs::path(opt.out_dir) / "digests").string(), key, rep.digest);
        !err.empty()) {
      tally.fail_check(err);
    }
  }
  std::cout << "digest " << opt.workload << " seed=" << opt.seed
            << " items=" << rep.digest_items << " fnv1a=" << rep.digest << "\n";
  if (opt.trace) {
    rep.metrics.set("error_ratio",
                    tally.attempted == 0 ? 0.0
                                         : static_cast<double>(tally.failed) /
                                               static_cast<double>(tally.attempted),
                    "ratio");
    const fs::path path = fs::path(opt.out_dir) /
                          ("trace-" + opt.workload + "-" + std::to_string(opt.seed) + ".json");
    if (!trace.write_chrome_json(path.string())) {
      tally.fail_check("cannot write " + path.string());
    }
    std::cout << "trace " << path.string() << "\n";
  }
  for (std::size_t i = 0; i < tally.check_failures.size() && i < 10; ++i) {
    std::cerr << "gtl_perfbench: check failed: " << tally.check_failures[i] << "\n";
  }

  JsonValue::Object metrics;
  for (const auto& [name, vu] : rep.metrics.values) {
    JsonValue::Object o;
    o.emplace("value", JsonValue(vu.first));
    o.emplace("unit", JsonValue(vu.second));
    metrics.emplace(name, JsonValue(std::move(o)));
  }
  JsonValue::Object out;
  out.emplace("correct", JsonValue(tally.correct()));
  out.emplace("attempted", JsonValue(tally.attempted));
  out.emplace("failed", JsonValue(tally.failed));
  out.emplace("metrics", JsonValue(std::move(metrics)));
  std::cout << JsonValue(std::move(out)).dump() << std::endl;
  return tally.correct() ? 0 : 1;
}
