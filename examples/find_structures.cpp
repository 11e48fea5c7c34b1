// Find tangled structures in a Bookshelf design (the ISPD 2005/2006
// placement benchmark format) and write a GTL report.
//
//   $ ./examples/find_structures --aux=path/to/bigblue1.aux
//   $ ./examples/find_structures                  # demo: synthetic bigblue1
//   $ ./examples/find_structures --help           # full option list
//
// The report lists every GTL (one per line: score, size, cut, members),
// ready to feed placement constraints or cell-inflation scripts.  With
// --json=FILE the full FinderResult is also written as JSON — the same
// schema a service front-end would return.

#include <fstream>
#include <iostream>
#include <memory>

#include "gtl/finder.hpp"
#include "gtl/netlist.hpp"
#include "graphgen/presets.hpp"
#include "netlist/netlist_stats.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

/// One-line heartbeat per phase plus a coarse per-seed ticker — the
/// pattern a long-running CLI wants (quiet but alive).
class PhaseLogger : public gtl::ProgressObserver {
 public:
  void on_phase_start(gtl::FinderPhase phase, std::size_t items) override {
    std::cout << "  [" << gtl::finder_phase_name(phase) << "] " << items
              << " items...\n";
  }
  void on_phase_end(gtl::FinderPhase phase, double seconds) override {
    std::cout << "  [" << gtl::finder_phase_name(phase) << "] done in "
              << seconds << "s\n";
  }
};

}  // namespace

int main(int argc, char** argv) {
  using namespace gtl;
  CliArgs args(argc, argv);
  args.usage("Find tangled logic structures in a Bookshelf design (or a "
             "synthetic bigblue1 stand-in) and write a GTL report.")
      .describe("aux=FILE", "Bookshelf .aux file; omit for the synthetic demo")
      .describe("snapshot=FILE", "binary snapshot cache: load FILE if it "
                                 "exists, else write it after loading")
      .describe("save-bookshelf=DIR", "also write the loaded design as "
                                      "Bookshelf corpus.{aux,nodes,nets,pl}")
      .describe("factor=F", "synthetic stand-in size factor (default 0.05)")
      .describe("seeds=N", "random starting seeds (default 100)")
      .describe("max-order=Z", "max ordering length (default: cells/8 + 1000)")
      .describe("threads=N", "worker threads (0 = all hardware threads)")
      .describe("score=ngtl|gtlsd", "selection metric (default gtlsd)")
      .describe("report=FILE", "report path (default gtl_report.txt)")
      .describe("json=FILE", "also write the FinderResult as JSON")
      .describe("progress", "log per-phase progress");
  if (cli_help_exit(args)) return 0;

  // get_string (vs get) makes a bare `--aux` a recorded error instead of
  // silently meaning "no aux file".
  const std::string aux = args.get_string("aux");
  const std::string snapshot = args.get_string("snapshot");
  const std::string save_bookshelf = args.get_string("save-bookshelf");
  const double factor = args.get_double("factor", 0.05);
  const auto seeds = args.get_int("seeds", 100);
  const auto threads = args.get_int("threads", 0);
  // -1 = absent: the default depends on the netlist size, known later.
  const auto max_order = args.get_int("max-order", -1);
  const std::string score = args.get_string("score", "gtlsd");
  if (score != "gtlsd" && score != "ngtl") {
    args.record_error(Status::parse_error("--score=" + score +
                                          ": expected ngtl or gtlsd"));
  }
  const std::string report_path = args.get_string("report", "gtl_report.txt");
  const std::string json_path = args.get_string("json");
  if (cli_error_exit(args)) return 2;

  // --- load or synthesize the design ---
  // Snapshot cache protocol (load_with_snapshot_cache): an existing
  // --snapshot is the cache hit (O(read) load); otherwise load --aux
  // text or generate the synthetic stand-in, then fill the cache so the
  // next run takes the fast path.
  BookshelfDesign design;
  SnapshotCacheResult cache;
  Timer load_timer;
  const Status load_st = load_with_snapshot_cache(
      snapshot,
      [&](BookshelfDesign* out) -> Status {
        if (!aux.empty()) {
          std::cout << "loading " << aux << "...\n";
          GTL_RETURN_IF_ERROR(try_read_bookshelf(aux, out));
          for (const std::string& w : out->warnings) {
            std::cerr << "warning: " << w << "\n";
          }
          std::cout << "parsed in " << fmt_double(load_timer.seconds(), 2)
                    << "s\n";
          return Status::ok();
        }
        std::cout << "no --aux given: generating a bigblue1-scale synthetic "
                     "stand-in for the ISPD 2005 design, which this "
                     "repository does not ship\n";
        auto cfg = ispd_like_config("bigblue1", factor);
        cfg.with_names = true;
        Rng rng(1);
        SyntheticCircuit circuit = generate_synthetic_circuit(cfg, rng);
        out->netlist = std::move(circuit.netlist);
        out->x = std::move(circuit.hint_x);
        out->y = std::move(circuit.hint_y);
        return Status::ok();
      },
      &design, &cache);
  if (!load_st.is_ok()) {
    std::cerr << "error: " << load_st.to_string() << "\n";
    return 2;
  }
  if (cache.hit) {
    std::cout << "snapshot " << snapshot << " loaded in "
              << fmt_double(load_timer.seconds(), 2) << "s ("
              << design.netlist.num_cells() << " cells"
              << (!aux.empty() ? "; cache overrides --aux" : "") << ")\n";
  }
  for (const std::string& note : cache.notes) std::cout << note << "\n";
  if (!save_bookshelf.empty()) {
    try {
      write_bookshelf(design, save_bookshelf, "corpus");
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << "\n";
      return 2;
    }
    std::cout << "Bookshelf corpus written to " << save_bookshelf
              << "/corpus.aux\n";
  }
  const Netlist& netlist = design.netlist;

  const NetlistSummary summary = summarize(netlist);
  std::cout << "design: " << fmt_int(static_cast<long long>(summary.num_cells))
            << " cells, " << fmt_int(static_cast<long long>(summary.num_nets))
            << " nets, A(G) = " << fmt_double(summary.avg_pins_per_cell, 2)
            << ", max net " << summary.max_net_size << " pins\n";

  // --- configure, validate, run ---
  FinderConfig fcfg;
  fcfg.num_seeds = static_cast<std::size_t>(seeds);
  fcfg.max_ordering_length = max_order >= 0
      ? static_cast<std::size_t>(max_order)
      : netlist.num_cells() / 8 + 1000;
  fcfg.num_threads = static_cast<std::size_t>(threads);
  fcfg.score = score == "ngtl" ? ScoreKind::kNgtlS : ScoreKind::kGtlSd;

  // Finder::create validates the config and reports a Status instead of
  // throwing — the rejection path for values arriving from a CLI.
  std::unique_ptr<Finder> session;
  if (const Status st = Finder::create(netlist, fcfg, &session);
      !st.is_ok()) {
    std::cerr << "error: " << st.to_string() << "\n";
    return 2;
  }
  Finder& finder = *session;
  PhaseLogger logger;
  if (args.has("progress")) finder.set_observer(&logger);

  const OrderingSet& orderings = finder.grow_orderings();
  const CandidateSet& cands = finder.extract_candidates();
  const FinderResult& result = finder.refine_and_prune();
  std::cout << "phase I grew " << orderings.num_completed()
            << " orderings in " << fmt_double(orderings.seconds, 1)
            << "s; phase II kept " << cands.candidates.size() << " of "
            << cands.extracted << " candidates in "
            << fmt_double(cands.seconds, 1) << "s\n"
            << "found " << result.gtls.size() << " disjoint GTLs in "
            << fmt_double(result.total_seconds, 1) << "s total (p = "
            << fmt_double(result.context.rent_exponent, 3) << ")\n\n";

  // --- console summary ---
  Table t("tangled structures (best first)");
  t.set_header({"#", "cells", "cut", "nGTL-S", "GTL-SD", "strength"});
  for (std::size_t i = 0; i < result.gtls.size() && i < 20; ++i) {
    const auto& g = result.gtls[i];
    t.add_row({std::to_string(i + 1),
               fmt_int(static_cast<long long>(g.size())), fmt_int(g.cut),
               fmt_double(g.ngtl_s, 3), fmt_double(g.gtl_sd, 3),
               g.score < 0.1 ? "strong" : (g.score < 0.4 ? "medium" : "weak")});
  }
  t.print(std::cout);

  // --- machine-readable reports ---
  std::ofstream report(report_path);
  report << "# gtl_report: score size cut members...\n";
  for (const auto& g : result.gtls) {
    report << g.score << ' ' << g.size() << ' ' << g.cut;
    for (const CellId c : g.cells) {
      report << ' ';
      if (netlist.has_names() && !netlist.cell_name(c).empty()) {
        report << netlist.cell_name(c);
      } else {
        report << c;
      }
    }
    report << '\n';
  }
  std::cout << "\nfull report written to " << report_path << "\n";

  if (!json_path.empty()) {
    std::ofstream json(json_path);
    json << to_json(result).dump(2) << "\n";
    std::cout << "JSON result written to " << json_path << "\n";
  }
  return 0;
}
