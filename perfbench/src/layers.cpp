#include "layers.hpp"

#include <memory>
#include <numeric>

#include "checks.hpp"

namespace perfbench {

namespace {

double sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

std::string traced_job(Trace& trace, std::uint64_t op, Trace::SpanId parent,
                       const gtl::Netlist& nl, const gtl::FinderConfig& cfg,
                       const std::string& ns) {
  const auto name = [&ns](const char* module, const char* call) {
    return (ns.empty() ? std::string(module) : ns) + "." + call;
  };
  std::unique_ptr<gtl::Finder> finder;
  {
    Scope s(trace, name("finder", "create"), op, parent);
    if (!gtl::Finder::create(nl, cfg, &finder).is_ok()) return {};
  }
  {
    Scope s(trace, name("order", "grow_orderings"), op, parent);
    const gtl::OrderingSet& os = finder->grow_orderings();
    s.close();
    double cells = 0.0;
    for (const gtl::LinearOrdering& o : os.orderings) {
      cells += static_cast<double>(o.cells.size());
    }
    trace.count(s.id(), "orderings", static_cast<double>(os.num_completed()));
    trace.count(s.id(), "cells_absorbed", cells);
  }
  {
    Scope s(trace, name("finder", "extract_candidates"), op, parent);
    const gtl::CandidateSet& cs = finder->extract_candidates();
    s.close();
    trace.count(s.id(), "extracted", static_cast<double>(cs.extracted));
    trace.count(s.id(), "kept", static_cast<double>(cs.candidates.size()));
  }
  const gtl::FinderResult* result = nullptr;
  {
    Scope s(trace, name("finder", "refine_and_prune"), op, parent);
    result = &finder->refine_and_prune();
    s.close();
    const auto refined = static_cast<double>(result->candidates_after_dedup);
    trace.count(s.id(), "refined", refined);
    trace.count(s.id(), "regrowths",
                refined * static_cast<double>(cfg.refine_seeds));
    trace.count(s.id(), "gtls", static_cast<double>(result->gtls.size()));
  }
  Scope s(trace, name("finder", "serialize"), op, parent);
  std::string out = gtl::to_json(*result).dump();
  s.close();
  trace.count(s.id(), "bytes", static_cast<double>(out.size()));
  return out;
}

void measure_cold_penalty(Trace& trace, const gtl::Netlist& nl,
                          gtl::FinderConfig cfg, int samples) {
  for (int i = 0; i < samples; ++i) {
    std::unique_ptr<gtl::Finder> finder;
    if (!gtl::Finder::create(nl, cfg, &finder).is_ok()) return;
    {
      Scope s(trace, "finder.run_cold", cfg.rng_seed);
      (void)finder->run();
    }
    {
      Scope s(trace, "finder.run_warm", cfg.rng_seed);
      (void)finder->run();
    }
    ++cfg.rng_seed;
  }
}

std::string measure_speedup(Trace& trace, const gtl::Netlist& nl,
                            gtl::FinderConfig cfg, std::size_t threads) {
  std::string first;
  for (const std::size_t t : {std::size_t{1}, threads}) {
    cfg.num_threads = t;
    Scope job(trace, "speedup.job", t);
    const std::string out = traced_job(trace, t, job.id(), nl, cfg, "speedup");
    job.close();
    gtl::FinderResult r;
    if (!gtl::parse_finder_result(out, &r).is_ok()) {
      return "speedup job at " + std::to_string(t) + " threads failed";
    }
    const std::string bytes = deterministic_bytes(r);
    if (first.empty()) {
      first = bytes;
    } else if (bytes != first) {
      return "result differs between 1 and " + std::to_string(t) + " threads";
    }
  }
  return {};
}

void add_layer_metrics(const Trace& trace, Metrics& m) {
  const auto med = [&trace](const char* span) {
    return median(trace.durations_ms(span));
  };
  const auto med_count = [&trace](const char* span, const char* key) {
    return median(trace.counts(span, key));
  };
  const auto total = [&trace](const char* span, const char* key) {
    return sum(trace.counts(span, key));
  };

  const std::vector<double> parse = trace.durations_ms("netlist.read_bookshelf_files");
  const std::vector<double> parsed_bytes =
      trace.counts("netlist.read_bookshelf_files", "bytes");
  std::vector<double> rates;
  for (std::size_t i = 0; i < parse.size() && i < parsed_bytes.size(); ++i) {
    rates.push_back(ratio(parsed_bytes[i] / 1e6, parse[i] / 1e3));
  }
  m.set("netlist.parse_ms", median(parse), "ms");
  m.set("netlist.parse_mb_per_s", median(rates), "MB/s");
  m.set("netlist.snapshot_fill_ms", med("netlist.write_snapshot"), "ms");
  m.set("netlist.snapshot_load_ms", med("netlist.read_snapshot"), "ms");

  const std::vector<double> phase1 = trace.durations_ms("order.grow_orderings");
  m.set("order.phase1_ms", median(phase1), "ms");
  m.set("order.cells_absorbed", med_count("order.grow_orderings", "cells_absorbed"),
        "count");
  m.set("order.absorbs_per_s",
        ratio(total("order.grow_orderings", "cells_absorbed"), sum(phase1) / 1e3),
        "1/s");

  m.set("finder.create_ms", med("finder.create"), "ms");
  m.set("finder.cold_penalty_ms", med("finder.run_cold") - med("finder.run_warm"),
        "ms");
  m.set("finder.phase2_ms", med("finder.extract_candidates"), "ms");
  m.set("finder.candidates_extracted",
        med_count("finder.extract_candidates", "extracted"), "count");
  m.set("finder.phase2_yield",
        ratio(total("finder.extract_candidates", "extracted"),
              total("order.grow_orderings", "orderings")),
        "ratio");
  m.set("finder.phase3_ms", med("finder.refine_and_prune"), "ms");
  m.set("finder.candidates_refined", med_count("finder.refine_and_prune", "refined"),
        "count");
  m.set("finder.regrowths", med_count("finder.refine_and_prune", "regrowths"),
        "count");
  m.set("finder.phase3_keep_ratio",
        ratio(total("finder.refine_and_prune", "gtls"),
              total("finder.refine_and_prune", "refined")),
        "ratio");
  const std::vector<double> p1 = trace.durations_ms("speedup.grow_orderings");
  const std::vector<double> p3 = trace.durations_ms("speedup.refine_and_prune");
  m.set("finder.phase1_speedup", p1.size() == 2 ? ratio(p1[0], p1[1]) : 0.0, "x");
  m.set("finder.phase3_speedup", p3.size() == 2 ? ratio(p3[0], p3[1]) : 0.0, "x");
  m.set("finder.serialize_ms", med("finder.serialize"), "ms");
  m.set("finder.result_bytes", med_count("finder.serialize", "bytes"), "bytes");
  m.set("finder.residual_ms", median(trace.self_ms("finder.job")), "ms");
}

void add_zero_serve_metrics(Metrics& m) {
  for (const char* name :
       {"serve.queue_ms_p50", "serve.queue_ms_p99", "serve.run_ms_p50",
        "serve.wire_ms_p50", "serve.quick_ms_p50", "serve.quick_ms_p99",
        "serve.full_ms_p50", "serve.full_ms_p90", "registry.load_ms",
        "loadgen.late_ms_p99"}) {
    m.set(name, 0.0, "ms");
  }
  m.set("serve.slo_ok_ratio", 0.0, "ratio");
  m.set("serve.session_reuse_ratio", 0.0, "ratio");
  m.set("registry.snapshot_hit_ratio", 0.0, "ratio");
  m.set("serve.shed", 0.0, "count");
}

}  // namespace perfbench
