// Reproduces Table 2: "Experimental results on ISPD 05/06 placement
// benchmarks" — bigblue1-3 and adaptec1-3.
//
// The real benchmark data is not redistributable, so each circuit is a
// synthetic stand-in with the paper's |V| (scaled), a Rent-rule background
// and a planted population of tangled structures.  To run
// against the real data, pass --aux=<path to .aux file> instead.
//
// Reported per design (paper's columns): |V|, #seeds, #GTL found, the top
// three GTLs' size / cut / GTL-S / GTL-SD, and the runtime.

#include <algorithm>
#include <iostream>

#include "bench_common.hpp"
#include "graphgen/presets.hpp"
#include "netlist/bookshelf.hpp"
#include "netlist/netlist_io.hpp"

namespace {

using namespace gtl;

struct PaperRow {
  const char* name;
  const char* top3;  // size/cut/GTL-S/GTL-SD of the paper's top 3
  int gtls_found;
  int runtime_min;
};

constexpr PaperRow kPaper[] = {
    {"bigblue1",
     "6187/369/0.14/0.031; 1548/307/0.32/0.083; 3539/800/0.46/0.14", 72, 81},
    {"bigblue2",
     "13888/397/0.107/0.045; 9602/560/0.196/0.111; 10776/1091/0.352/0.195", 93,
     104},
    {"bigblue3",
     "695/81/0.204/0.225; 297/76/0.354/0.202; 13005/2289/0.686/0.454", 112,
     159},
    {"adaptec1",
     "2628/124/0.128/0.083; 2616/136/0.141/0.093; 375/36/0.142/0.212", 78,
     77},
    {"adaptec2",
     "751/52/0.132/0.315; 3387/263/0.236/0.058; 618/123/0.358/0.435", 54,
     114},
    {"adaptec3",
     "896/31/0.065/0.058; 420/25/0.089/0.17; 960/67/0.134/0.126", 109, 142},
};

}  // namespace

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  args.usage("Reproduce Table 2 on synthetic ISPD 05/06 stand-ins "
             "(or real data via --aux).")
      .describe("aux=FILE", "Bookshelf .aux file with the real benchmark")
      .describe("snapshot=FILE", "binary snapshot cache for --aux: load "
                                 "FILE if it exists, else write it after "
                                 "parsing")
      .describe("seeds=N", "random starting seeds per design (default 100)")
      .describe("threads=N", "worker threads (0 = all hardware threads)");
  bench::describe_common_options(args);
  if (bench::help_exit(args)) return 0;
  const Scale scale = parse_scale(args);
  const auto arg_seeds = args.get_int("seeds", 100);
  const auto arg_threads = args.get_int("threads", 0);
  const std::string snapshot = args.get("snapshot");
  if (!snapshot.empty() && !args.has("aux")) {
    args.record_error(Status::invalid_argument(
        "--snapshot caches a single real design; it requires --aux"));
  }
  if (bench::cli_error_exit(args)) return 2;
  bench::banner("Table 2 — ISPD 05/06 placement benchmarks", scale);
  const double f = bench::size_factor(scale);

  Table t("Table 2 (measured)");
  t.set_header({"Case", "|V|", "#seeds", "#GTL", "Top 3 GTLs", "GTL size",
                "Cut", "GTL-S", "GTL-SD", "Runtime(s)"});

  const std::string aux = args.get("aux");
  std::vector<std::string> names = ispd_benchmark_names();
  if (!aux.empty()) names = {aux};

  for (std::size_t b = 0; b < names.size(); ++b) {
    Netlist netlist;
    std::string case_name;
    if (!aux.empty()) {
      // Snapshot cache: first run parses the Bookshelf text and fills the
      // cache, every later run reloads in ~O(read) time.
      BookshelfDesign d;
      SnapshotCacheResult cache;
      const Status st = load_with_snapshot_cache(
          snapshot,
          [&](BookshelfDesign* out) -> Status {
            GTL_RETURN_IF_ERROR(try_read_bookshelf(aux, out));
            for (const std::string& w : out->warnings) {
              std::cerr << "warning: " << w << "\n";
            }
            return Status::ok();
          },
          &d, &cache);
      if (!st.is_ok()) {
        std::cerr << "error: " << st.to_string()
                  << "\n(delete the stale snapshot to re-parse --aux)\n";
        return 2;
      }
      for (const std::string& note : cache.notes) {
        std::cerr << note << "\n";
      }
      if (cache.hit) {
        std::cout << "loaded snapshot " << snapshot << " ("
                  << d.netlist.num_cells() << " cells, "
                  << d.netlist.num_nets()
                  << " nets; cache overrides --aux)\n";
      }
      netlist = std::move(d.netlist);
      case_name = std::filesystem::path(aux).stem().string();
    } else {
      const auto cfg = ispd_like_config(names[b], f);
      Rng rng(7000 + b);
      netlist = generate_synthetic_circuit(cfg, rng).netlist;
      case_name = names[b];
    }

    FinderConfig fcfg;
    fcfg.num_seeds = static_cast<std::size_t>(arg_seeds);
    fcfg.max_ordering_length = std::max<std::size_t>(
        2'000, static_cast<std::size_t>(netlist.num_cells() / 8));
    fcfg.num_threads = static_cast<std::size_t>(arg_threads);
    fcfg.rng_seed = 4242 + b;
    if (bench::config_error_exit(fcfg)) return 2;
    Timer timer;
    Finder finder(netlist, fcfg);
    const FinderResult& res = finder.run();
    const double secs = timer.seconds();

    for (std::size_t i = 0; i < std::min<std::size_t>(3, res.gtls.size());
         ++i) {
      const auto& g = res.gtls[i];
      t.add_row({i == 0 ? case_name : "",
                 i == 0 ? fmt_int(static_cast<long long>(netlist.num_cells()))
                        : "",
                 i == 0 ? std::to_string(fcfg.num_seeds) : "",
                 i == 0 ? std::to_string(res.gtls.size()) : "",
                 "Structure " + std::to_string(i + 1),
                 fmt_int(static_cast<long long>(g.size())),
                 fmt_int(g.cut), fmt_double(g.ngtl_s, 3),
                 fmt_double(g.gtl_sd, 3),
                 i == 0 ? fmt_double(secs, 1) : ""});
    }
    if (res.gtls.empty()) {
      t.add_row({case_name,
                 fmt_int(static_cast<long long>(netlist.num_cells())),
                 std::to_string(fcfg.num_seeds), "0", "-", "-", "-", "-", "-",
                 fmt_double(secs, 1)});
    }
    if (aux.empty() && b < std::size(kPaper)) {
      std::cout << case_name << ": " << res.gtls.size() << " GTLs in "
                << fmt_double(secs, 1) << "s   [paper: " << kPaper[b].gtls_found
                << " GTLs in " << kPaper[b].runtime_min
                << "m; top3 " << kPaper[b].top3 << "]\n";
    }
  }

  std::cout << '\n';
  t.print(std::cout);
  bench::shape_note();
  return 0;
}
