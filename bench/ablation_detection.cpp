// Detection-quality ablations for the design choices the paper argues
// for:
//
//   B. selection metric — GTL-SD (paper's final choice) vs. nGTL-S;
//   C. Phase III refinement — on vs. off;
//   D. seed budget — recovery rate as m shrinks.
//
// Each variant runs the full finder on the same planted graphs; quality =
// planted structures recovered with <5% miss, plus mean miss/over.
//
// Rows start at B because the ordering criterion is not ablated: Phase I
// always ranks by connection gain first (paper §3.2.1), and on this
// workload a min-cut-first order recovered the same structures with the
// same miss and over as the baseline at every --scale.

#include <algorithm>
#include <iostream>

#include "bench_common.hpp"
#include "graphgen/planted_graph.hpp"

namespace {

using namespace gtl;

struct Quality {
  std::size_t recovered = 0;
  std::size_t planted = 0;
  double mean_miss = 0.0;
  double mean_over = 0.0;
  std::size_t reported = 0;
  double seconds = 0.0;
};

Quality evaluate(const PlantedGraph& pg, const FinderConfig& cfg) {
  Timer timer;
  Finder finder(pg.netlist, cfg);
  const FinderResult& res = finder.run();
  Quality q;
  q.seconds = timer.seconds();
  q.planted = pg.gtl_members.size();
  q.reported = res.gtls.size();
  for (const auto& truth : pg.gtl_members) {
    RecoveryStats best;
    best.miss_fraction = 1.0;
    for (const auto& g : res.gtls) {
      const auto rec = recovery_stats(truth, g.cells);
      if (rec.overlap > best.overlap) best = rec;
    }
    if (best.miss_fraction < 0.05) ++q.recovered;
    q.mean_miss += best.miss_fraction;
    q.mean_over += best.over_fraction;
  }
  q.mean_miss /= static_cast<double>(q.planted);
  q.mean_over /= static_cast<double>(q.planted);
  return q;
}

std::string fmt_quality(const Quality& q) {
  return std::to_string(q.recovered) + "/" + std::to_string(q.planted);
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  args.usage("Detection-quality ablations: selection metric, Phase III "
             "refinement, seed budget.")
      .describe("seeds=N", "baseline seed budget (default 400)")
      .describe("threads=N", "worker threads (0 = all hardware threads)");
  bench::describe_common_options(args);
  if (bench::help_exit(args)) return 0;
  const Scale scale = parse_scale(args);
  const auto arg_seeds = args.get_int("seeds", 400);
  const auto arg_threads = args.get_int("threads", 0);
  if (bench::cli_error_exit(args)) return 2;
  bench::banner("Ablations — metric, refinement, seeds", scale);
  const double f = bench::size_factor(scale) * 20.0;  // default == x1 here

  PlantedGraphConfig gcfg;
  gcfg.num_cells = std::max<std::uint32_t>(4'000,
      static_cast<std::uint32_t>(20'000 * f));
  gcfg.gtls.push_back(
      {std::max<std::uint32_t>(200, static_cast<std::uint32_t>(1'000 * f)), 2});
  gcfg.gtls.push_back(
      {std::max<std::uint32_t>(100, static_cast<std::uint32_t>(400 * f)), 2});
  Rng rng(31337);
  const PlantedGraph pg = generate_planted_graph(gcfg, rng);
  std::cout << "workload: " << fmt_int(gcfg.num_cells)
            << " cells, 4 planted GTLs\n\n";

  FinderConfig base;
  base.num_seeds = static_cast<std::size_t>(arg_seeds);
  base.max_ordering_length = gcfg.gtls[0].size * 4;
  base.num_threads = static_cast<std::size_t>(arg_threads);
  base.rng_seed = 5;
  if (bench::config_error_exit(base)) return 2;

  Table t("ablation results");
  t.set_header({"variant", "recovered", "mean miss", "mean over",
                "#reported", "time(s)"});

  auto row = [&](const std::string& name, const FinderConfig& cfg) {
    const Quality q = evaluate(pg, cfg);
    t.add_row({name, fmt_quality(q), fmt_percent(q.mean_miss),
               fmt_percent(q.mean_over),
               std::to_string(q.reported), fmt_double(q.seconds, 2)});
  };

  row("baseline (paper config)", base);

  FinderConfig ngtl = base;
  ngtl.score = ScoreKind::kNgtlS;
  row("B: select by nGTL-S", ngtl);

  FinderConfig norefine = base;
  norefine.refine_seeds = 0;
  row("C: no Phase III refinement", norefine);

  for (const std::size_t m : {std::size_t{100}, std::size_t{50}}) {
    FinderConfig fewer = base;
    fewer.num_seeds = m;
    row("D: " + std::to_string(m) + " seeds", fewer);
  }

  t.print(std::cout);
  bench::shape_note();
  return 0;
}
