// paper_batch: the paper's detector as a batch job, in process, one job
// at a time (closed loop).  The design is the paper-scale planted graph
// (48k cells; planted GTLs 2x2400 + 2x1200), written once as Bookshelf
// text.  A job is read_snapshot -> Finder::create (40 seeds, Z=10k,
// 4 threads) -> run() -> to_json(result).dump(), with a fresh rng_seed.
// Phase I absorb dominates a job, so order/finder changes show here and
// serve/session changes must not.

#include <filesystem>
#include <iostream>
#include <memory>
#include <numeric>

#include "checks.hpp"
#include "common.hpp"
#include "gtl/finder.hpp"
#include "gtl/netlist.hpp"
#include "graphgen/planted_graph.hpp"
#include "layers.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

constexpr int kSetupReps = 9;
constexpr std::size_t kThreads = 4;

}  // namespace

RunReport run_paper_batch(const Options& opt, Trace& trace) {
  namespace fs = std::filesystem;
  const bool smoke = opt.scale == Scale::kSmoke;
  RunReport rep;

  // Inputs: the design is fixed (perf_microbench's paper_scale_graph), so
  // runs with different seeds differ only in their jobs' rng_seeds.
  gtl::PlantedGraphConfig pcfg;
  pcfg.num_cells = smoke ? 6'000 : 48'000;
  pcfg.gtls.push_back({smoke ? 300u : 2'400u, 2});
  pcfg.gtls.push_back({smoke ? 150u : 1'200u, 2});
  gtl::Rng rng(2026);
  {
    gtl::BookshelfDesign design;
    design.netlist = gtl::generate_planted_graph(pcfg, rng).netlist;
    gtl::write_bookshelf(design, opt.work_dir, "paper");
  }
  const fs::path nodes = fs::path(opt.work_dir) / "paper.nodes";
  const fs::path nets = fs::path(opt.work_dir) / "paper.nets";
  const fs::path snap = fs::path(opt.work_dir) / "paper.snap";
  const double text_bytes =
      static_cast<double>(fs::file_size(nodes) + fs::file_size(nets));

  // Set-up: Bookshelf parse + snapshot fill + first snapshot load.
  std::vector<double> setup_s;
  gtl::BookshelfDesign oracle;
  for (int r = 0; r < kSetupReps; ++r) {
    const Clock::time_point t0 = Clock::now();
    gtl::BookshelfDesign parsed;
    {
      Scope s(trace, "netlist.read_bookshelf_files", r);
      parsed = gtl::read_bookshelf_files(nodes, nets);
      s.close();
      trace.count(s.id(), "bytes", text_bytes);
    }
    {
      Scope s(trace, "netlist.write_snapshot", r);
      gtl::write_snapshot(parsed, snap);
    }
    {
      Scope s(trace, "netlist.read_snapshot", r);
      oracle = gtl::read_snapshot(snap);
    }
    setup_s.push_back(ms_between(t0, Clock::now()) / 1e3);
  }

  gtl::FinderConfig cfg;
  cfg.num_seeds = smoke ? 10 : 40;
  cfg.max_ordering_length = smoke ? 1'000 : 10'000;
  cfg.num_threads = kThreads;

  // The timed window.  A traced run alternates an untraced run() job with
  // a traced, phase-stepped job of the same rng_seed, so every pair must
  // give the same bytes and the pair's times give the tracing overhead.
  // Each job is checked as soon as it is timed, outside its time, and only
  // the bytes the checks still need are kept (the digest and the previous
  // job's result), so peak RSS does not grow with the number of jobs.
  gtl::GroupConnectivity group(oracle.netlist);
  const std::size_t digest_jobs = smoke ? 2 : 8;
  Digest digest;
  std::string prev_det;
  std::vector<double> plain_ms;
  std::vector<double> traced_ms;
  const Clock::time_point end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(opt.seconds));
  for (std::uint64_t id = 1; Clock::now() < end; ++id) {
    const bool traced = trace.enabled() && id % 2 == 0;
    cfg.rng_seed = mix_seed(opt.seed, trace.enabled() ? (id + 1) / 2 : id);
    ++rep.tally.attempted;
    std::string out;
    const Clock::time_point t0 = Clock::now();
    if (traced) {
      Scope js(trace, "finder.job", id);
      gtl::BookshelfDesign d;
      {
        Scope s(trace, "netlist.read_snapshot", id, js.id());
        d = gtl::read_snapshot(snap);
      }
      out = traced_job(trace, id, js.id(), d.netlist, cfg);
    } else {
      const gtl::BookshelfDesign d = gtl::read_snapshot(snap);
      std::unique_ptr<gtl::Finder> finder;
      if (gtl::Finder::create(d.netlist, cfg, &finder).is_ok()) {
        out = gtl::to_json(finder->run()).dump();
      }
    }
    (traced ? traced_ms : plain_ms).push_back(ms_between(t0, Clock::now()));

    // Checks: the result against the GroupConnectivity oracle; the first
    // few into the digest; each traced job against its run() twin.
    if (opt.tamper && id == 1) out = tamper_result_json(out);
    const std::string what = "job " + std::to_string(id) + ": ";
    std::string det;
    gtl::FinderResult r;
    if (out.empty() || !gtl::parse_finder_result(out, &r).is_ok()) {
      rep.tally.fail_check(what + "no result");
    } else if (const std::string err = check_gtls(r, group); !err.empty()) {
      rep.tally.fail_check(what + err);
    } else {
      det = deterministic_bytes(r);
      if (traced && det != prev_det) {
        rep.tally.fail_check(what + "stepped result differs from run()");
      }
    }
    if (id <= digest_jobs) digest.add(id, det);
    prev_det = std::move(det);
  }
  // Peak RSS now: the window's jobs plus the oracle, before the traced
  // run's side measurements.
  const double peak_rss_mb = self_peak_rss_mb();
  rep.digest = digest.hex();
  rep.digest_items = digest.items();
  if (digest.items() < digest_jobs) {
    rep.tally.fail_check("fewer jobs than the digest covers; raise --seconds");
  }

  Metrics& m = rep.metrics;
  m.set("setup_s", median(setup_s), "s");
  set_latency_metrics(m, plain_ms);
  // Closed loop, one job at a time: jobs per second of job time.
  const double busy_ms = std::accumulate(plain_ms.begin(), plain_ms.end(), 0.0);
  m.set("throughput_per_s",
        busy_ms > 0.0 ? static_cast<double>(plain_ms.size()) / (busy_ms / 1e3) : 0.0,
        "1/s");

  if (trace.enabled()) {
    gtl::FinderConfig side = cfg;
    side.rng_seed = mix_seed(opt.seed, 1u << 20);
    measure_cold_penalty(trace, oracle.netlist, side, 3);
    if (const std::string err =
            measure_speedup(trace, oracle.netlist, side, kThreads);
        !err.empty()) {
      rep.tally.fail_check(err);
    }
    add_layer_metrics(trace, m);
    add_zero_serve_metrics(m);
    m.set("trace.overhead_pct",
          (median(traced_ms) / median(plain_ms) - 1.0) * 100.0, "%");
    const std::vector<double> job1 = trace.durations_ms("speedup.job");
    const std::vector<double> ph1 = trace.durations_ms("speedup.grow_orderings");
    const std::vector<double> self = trace.self_ms("speedup.job");
    if (!job1.empty() && !ph1.empty() && !self.empty()) {
      std::cerr << "perfbench: 1-thread job " << job1[0] << " ms: phase I "
                << ph1[0] << " ms (" << 100.0 * ph1[0] / job1[0]
                << "%), residual " << self[0] << " ms ("
                << 100.0 * self[0] / job1[0] << "%)\n";
    }
  }
  m.set("peak_rss_mb", peak_rss_mb, "MB");
  return rep;
}

}  // namespace perfbench
