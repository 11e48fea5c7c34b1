// Performance microbenchmarks (google-benchmark) validating the paper's
// complexity claims (Ch. IV) and its design-choice ablations:
//   * Phase I ordering cost ~ O(|E| ln |V|) — growth rate across sizes;
//   * the large-net update-skip trick (paper's K=20) on fanout-heavy nets;
//   * Phase III refinement cost vs. detection quality;
//   * GTL metric evaluation is O(degree) per update, while the baseline
//     connectivity metrics (edge separability / adhesion) need max-flows —
//     the paper's Ch. II argument for why they are impractical.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <vector>

#include "finder/finder.hpp"
#include "finder/refine.hpp"
#include "finder/score_curve.hpp"
#include "graphgen/planted_graph.hpp"
#include "graphgen/presets.hpp"
#include "metrics/baselines.hpp"
#include "metrics/group_connectivity.hpp"
#include "netlist/bookshelf.hpp"
#include "netlist/netlist_io.hpp"
#include "order/linear_ordering.hpp"
#include "place/congestion.hpp"
#include "place/linear_system.hpp"
#include "place/quadratic_placer.hpp"
#include "util/rng.hpp"

namespace {

using namespace gtl;

const PlantedGraph& graph_of_size(std::uint32_t n) {
  static std::map<std::uint32_t, PlantedGraph> cache;
  auto it = cache.find(n);
  if (it == cache.end()) {
    PlantedGraphConfig cfg;
    cfg.num_cells = n;
    cfg.gtls.push_back({n / 10, 1});
    Rng rng(n);
    it = cache.emplace(n, generate_planted_graph(cfg, rng)).first;
  }
  return it->second;
}

/// Phase I throughput: cells absorbed per second at various |V|.
void BM_OrderingGrow(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const PlantedGraph& pg = graph_of_size(n);
  OrderingEngine engine(pg.netlist,
                        {.max_length = n / 4, .large_net_threshold = 20});
  std::size_t steps = 0;
  for (auto _ : state) {
    const LinearOrdering ord = engine.grow(pg.gtl_members[0][0]);
    steps += ord.cells.size();
    benchmark::DoNotOptimize(ord.prefix_cut.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(steps));
}
BENCHMARK(BM_OrderingGrow)->Arg(2'000)->Arg(8'000)->Arg(32'000);

/// Ablation: exact gains (threshold 0) vs the paper's large-net skip, on a
/// graph salted with high-fanout nets.
void BM_LargeNetThreshold(benchmark::State& state) {
  const bool use_trick = state.range(0) != 0;
  static const PlantedGraph* salted = [] {
    PlantedGraphConfig cfg;
    cfg.num_cells = 8'000;
    cfg.gtls.push_back({800, 1});
    Rng rng(5);
    auto* pg = new PlantedGraph(generate_planted_graph(cfg, rng));
    // Salt with 40-pin "bus" nets via a rebuild.
    NetlistBuilder nb;
    for (CellId c = 0; c < pg->netlist.num_cells(); ++c) nb.add_cell();
    for (NetId e = 0; e < pg->netlist.num_nets(); ++e) {
      nb.add_net(pg->netlist.pins_of(e));
    }
    for (int b = 0; b < 120; ++b) {
      std::vector<CellId> pins;
      for (int i = 0; i < 40; ++i) {
        pins.push_back(static_cast<CellId>(rng.next_below(8'000)));
      }
      nb.add_net(pins);
    }
    pg->netlist = nb.build();
    return pg;
  }();
  OrderingEngine engine(
      salted->netlist,
      {.max_length = 2'000,
       .large_net_threshold = use_trick ? 20u : 0u});
  for (auto _ : state) {
    const LinearOrdering ord = engine.grow(salted->gtl_members[0][0]);
    benchmark::DoNotOptimize(ord.cells.data());
  }
}
BENCHMARK(BM_LargeNetThreshold)->Arg(0)->Arg(1);

/// GroupConnectivity update cost (the inner loop of everything).
void BM_GroupConnectivityAdd(benchmark::State& state) {
  const PlantedGraph& pg = graph_of_size(8'000);
  GroupConnectivity group(pg.netlist);
  Rng rng(11);
  std::vector<CellId> cells(4'000);
  for (auto& c : cells) c = static_cast<CellId>(rng.next_below(8'000));
  for (auto _ : state) {
    group.clear();
    for (const CellId c : cells) {
      if (!group.contains(c)) group.add(c);
    }
    benchmark::DoNotOptimize(group.cut());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) * 4'000);
}
BENCHMARK(BM_GroupConnectivityAdd);

/// Many short-lived groups on one tracker, as the oracle checks and
/// score_members use it: clear() zeroes only the previous members' nets,
/// so each assign is O(Σ degree of old and new members), independent of
/// the netlist's size.
void BM_GroupAssignSmall(benchmark::State& state) {
  const PlantedGraph& pg = graph_of_size(8'000);
  GroupConnectivity group(pg.netlist);
  Rng rng(29);
  std::vector<std::vector<CellId>> families;
  for (int f = 0; f < 64; ++f) {
    std::vector<CellId>& fam = families.emplace_back();
    for (int i = 0; i < 60; ++i) {
      fam.push_back(static_cast<CellId>(rng.next_below(8'000)));
    }
    std::sort(fam.begin(), fam.end());
    fam.erase(std::unique(fam.begin(), fam.end()), fam.end());
  }
  std::size_t assigns = 0;
  for (auto _ : state) {
    for (const auto& fam : families) {
      group.assign(fam);
      benchmark::DoNotOptimize(group.absorption());
      ++assigns;
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(assigns));
}
BENCHMARK(BM_GroupAssignSmall);

/// Phase III end-to-end: refine one grown candidate (re-growths + the
/// genetic family evaluation) on reused worker scratch.
void BM_RefineCandidate(benchmark::State& state) {
  const PlantedGraph& pg = graph_of_size(8'000);
  OrderingEngine engine(pg.netlist,
                        {.max_length = 2'000, .large_net_threshold = 20});
  const ScoreContext ctx{0.7, pg.netlist.average_pins_per_cell()};
  GroupConnectivity group(pg.netlist);
  RefineArena arena;
  Candidate initial =
      score_members(pg.gtl_members[0], group, ctx, ScoreKind::kNgtlS);
  initial.seed = pg.gtl_members[0][0];
  for (auto _ : state) {
    Rng rng(41);
    const Candidate refined =
        refine_candidate(pg.netlist, initial, engine, arena, ctx,
                         ScoreKind::kNgtlS, /*extra_seeds=*/3, rng);
    benchmark::DoNotOptimize(refined.score);
  }
}
BENCHMARK(BM_RefineCandidate)->Unit(benchmark::kMillisecond);

/// Paper-scale Phase II/III workload: a planted graph large enough that
/// curve extraction and genetic refinement carry real weight, driven
/// through the session API so the same source measures any tree state.
/// Single worker: these track algorithmic cost, not parallel speedup.
const PlantedGraph& paper_scale_graph() {
  static const PlantedGraph* pg = [] {
    PlantedGraphConfig cfg;
    cfg.num_cells = 48'000;
    cfg.gtls.push_back({2'400, 2});
    cfg.gtls.push_back({1'200, 2});
    Rng rng(2026);
    return new PlantedGraph(generate_planted_graph(cfg, rng));
  }();
  return *pg;
}

FinderConfig paper_scale_config() {
  FinderConfig cfg;
  cfg.num_seeds = 40;
  cfg.max_ordering_length = 10'000;
  cfg.num_threads = 1;
  cfg.rng_seed = 7;
  return cfg;
}

/// Serving-scale workload: a Table-3-sized resident netlist (2M cells)
/// dense with small planted structures, so most seeds yield candidates
/// and Phase III carries the run — the repeated-query shape the session
/// API serves.  This is where the per-candidate O(nets+cells)
/// GroupConnectivity rebuild of the old refine path bites hardest.
const PlantedGraph& serving_scale_graph() {
  static const PlantedGraph* pg = [] {
    PlantedGraphConfig cfg;
    cfg.num_cells = 2'000'000;
    cfg.gtls.push_back({120, 8'000});
    Rng rng(2027);
    return new PlantedGraph(generate_planted_graph(cfg, rng));
  }();
  return *pg;
}

FinderConfig serving_scale_config() {
  FinderConfig cfg;
  cfg.num_seeds = 64;
  cfg.max_ordering_length = 300;
  cfg.num_threads = 1;
  cfg.rng_seed = 7;
  return cfg;
}

/// Phase II alone: score curves + clear-minimum extraction over 40
/// pre-grown 10k-cell orderings (the transcendental-heavy loop).
void BM_ScoreCurve(benchmark::State& state) {
  static Finder* finder = [] {
    auto* f = new Finder(paper_scale_graph().netlist, paper_scale_config());
    f->grow_orderings();
    return f;
  }();
  std::size_t prefixes = 0;
  for (auto _ : state) {
    const CandidateSet& cs = finder->extract_candidates();
    benchmark::DoNotOptimize(cs.candidates.data());
    for (const auto& ord : finder->orderings().orderings) {
      prefixes += ord.cells.size();
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(prefixes));
}
BENCHMARK(BM_ScoreCurve)->UseRealTime()->Unit(benchmark::kMillisecond);

/// Phase III alone: genetic refinement + pruning of the extracted
/// candidate set (inner re-growths, family set algebra, family scoring).
void BM_RefinePhase(benchmark::State& state) {
  static Finder* finder = [] {
    auto* f = new Finder(serving_scale_graph().netlist, serving_scale_config());
    f->grow_orderings();
    f->extract_candidates();
    return f;
  }();
  std::size_t refined = 0;
  for (auto _ : state) {
    const FinderResult& res = finder->refine_and_prune();
    benchmark::DoNotOptimize(res.gtls.data());
    refined += res.candidates_after_dedup;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(refined));
}
BENCHMARK(BM_RefinePhase)->UseRealTime()->Unit(benchmark::kMillisecond);

/// End-to-end Finder::run() on the serving-scale workload (the number
/// the acceptance bar tracks; session reused, so this is steady-state
/// serving cost).
void BM_FinderRun(benchmark::State& state) {
  static Finder* finder =
      new Finder(serving_scale_graph().netlist, serving_scale_config());
  for (auto _ : state) {
    const FinderResult& res = finder->run();
    benchmark::DoNotOptimize(res.gtls.data());
  }
}
BENCHMARK(BM_FinderRun)->UseRealTime()->Unit(benchmark::kMillisecond);

/// Full finder, with and without Phase III refinement (ablation).
void BM_FinderRefinementAblation(benchmark::State& state) {
  const PlantedGraph& pg = graph_of_size(8'000);
  FinderConfig cfg;
  cfg.num_seeds = 20;
  cfg.max_ordering_length = 3'200;
  cfg.num_threads = 1;
  cfg.refine_seeds = static_cast<std::size_t>(state.range(0));
  Finder finder(pg.netlist, cfg);
  for (auto _ : state) {
    const FinderResult& res = finder.run();
    benchmark::DoNotOptimize(res.gtls.data());
  }
}
BENCHMARK(BM_FinderRefinementAblation)->Arg(0)->Arg(3)
    ->UseRealTime()->Unit(benchmark::kMillisecond);

/// The repeated-query serving scenario: many small finder queries against
/// one resident netlist.  Cold start pays thread spawn plus O(|V|)
/// engine/scratch allocation on every call (the old one-shot API);
/// session reuse pays them once.
FinderConfig repeated_query_config() {
  FinderConfig cfg;
  cfg.num_seeds = 4;
  cfg.max_ordering_length = 250;
  cfg.num_threads = 4;
  cfg.rng_seed = 5;
  return cfg;
}

void BM_FinderColdStart(benchmark::State& state) {
  const PlantedGraph& pg = graph_of_size(8'000);
  const FinderConfig cfg = repeated_query_config();
  for (auto _ : state) {
    Finder finder(pg.netlist, cfg);
    benchmark::DoNotOptimize(finder.run().gtls.data());
  }
}
BENCHMARK(BM_FinderColdStart)->UseRealTime()->Unit(benchmark::kMillisecond);

void BM_FinderReuse(benchmark::State& state) {
  const PlantedGraph& pg = graph_of_size(8'000);
  Finder finder(pg.netlist, repeated_query_config());
  for (auto _ : state) {
    benchmark::DoNotOptimize(finder.run().gtls.data());
  }
}
BENCHMARK(BM_FinderReuse)->UseRealTime()->Unit(benchmark::kMillisecond);

/// The paper's Ch. II argument: GTL metrics are cheap; edge separability
/// (max-flow per pair) is not.  Same 60-cell cluster, both costs.
void BM_ClusterScoreGtl(benchmark::State& state) {
  const PlantedGraph& pg = graph_of_size(8'000);
  GroupConnectivity group(pg.netlist);
  std::vector<CellId> cluster(pg.gtl_members[0].begin(),
                              pg.gtl_members[0].begin() + 60);
  const ScoreContext ctx{0.7, pg.netlist.average_pins_per_cell()};
  for (auto _ : state) {
    group.assign(cluster);
    const GtlScores s = score_group(group, ctx);
    benchmark::DoNotOptimize(s.ngtl_s);
  }
}
BENCHMARK(BM_ClusterScoreGtl)->UseRealTime()->Unit(benchmark::kMicrosecond);

void BM_ClusterScoreAdhesion(benchmark::State& state) {
  const PlantedGraph& pg = graph_of_size(8'000);
  std::vector<CellId> cluster(pg.gtl_members[0].begin(),
                              pg.gtl_members[0].begin() + 12);
  for (auto _ : state) {
    auto a = adhesion(pg.netlist, cluster, 512);
    benchmark::DoNotOptimize(a);
  }
  state.SetLabel("12-cell cluster only; quadratic in cluster size");
}
BENCHMARK(BM_ClusterScoreAdhesion)
    ->UseRealTime()->Unit(benchmark::kMillisecond);

/// On-disk design corpus for the I/O benchmarks: a quarter-scale named
/// bigblue1 stand-in written once as Bookshelf text.  Parse throughput
/// is the entry fee every real-corpus run pays before any phase starts.
struct BookshelfCorpus {
  std::filesystem::path dir;
  std::int64_t text_bytes = 0;      // .nodes + .nets + .pl
  std::int64_t snapshot_bytes = 0;  // bench.snap
  // The corpus dir is per-process (unique nonce); clean it up at exit
  // so repeated runs do not accumulate multi-MB trees in /tmp.
  ~BookshelfCorpus() {
    if (!dir.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
    }
  }
};

const BookshelfCorpus& bookshelf_corpus() {
  static const BookshelfCorpus corpus = [] {
    BookshelfCorpus c;
    SyntheticCircuitConfig cfg = ispd_like_config("bigblue1", 0.25);
    cfg.with_names = true;
    Rng rng(2028);
    SyntheticCircuit circuit = generate_synthetic_circuit(cfg, rng);
    BookshelfDesign d;
    d.netlist = std::move(circuit.netlist);
    d.x = std::move(circuit.hint_x);
    d.y = std::move(circuit.hint_y);
    // Per-process directory: concurrent runs (or another user's leftover
    // tree in a sticky /tmp) must not share corpus files.
    const auto nonce = static_cast<unsigned long long>(
        std::chrono::steady_clock::now().time_since_epoch().count());
    c.dir = std::filesystem::temp_directory_path() /
            ("gtl_bench_bookshelf_" + std::to_string(nonce));
    write_bookshelf(d, c.dir, "bench");
    write_snapshot(d, c.dir / "bench.snap");
    for (const char* ext : {".nodes", ".nets", ".pl"}) {
      c.text_bytes += static_cast<std::int64_t>(
          std::filesystem::file_size(c.dir / ("bench" + std::string(ext))));
    }
    c.snapshot_bytes = static_cast<std::int64_t>(
        std::filesystem::file_size(c.dir / "bench.snap"));
    return c;
  }();
  return corpus;
}

/// Full .nodes/.nets/.pl text parse of the corpus design.
void BM_BookshelfParse(benchmark::State& state) {
  const BookshelfCorpus& c = bookshelf_corpus();
  for (auto _ : state) {
    const BookshelfDesign d = read_bookshelf_files(
        c.dir / "bench.nodes", c.dir / "bench.nets", c.dir / "bench.pl");
    benchmark::DoNotOptimize(d.netlist.num_pins());
  }
  state.SetBytesProcessed(state.iterations() * c.text_bytes);
}
BENCHMARK(BM_BookshelfParse)->Unit(benchmark::kMillisecond);

/// Binary snapshot reload of the same design — the cache-hit path for
/// repeated loads of a real-benchmark corpus.
void BM_SnapshotLoad(benchmark::State& state) {
  const BookshelfCorpus& c = bookshelf_corpus();
  for (auto _ : state) {
    const BookshelfDesign d = read_snapshot(c.dir / "bench.snap");
    benchmark::DoNotOptimize(d.netlist.num_pins());
  }
  state.SetBytesProcessed(state.iterations() * c.snapshot_bytes);
}
BENCHMARK(BM_SnapshotLoad)->Unit(benchmark::kMillisecond);

/// Congestion-map construction throughput.
void BM_CongestionMap(benchmark::State& state) {
  const PlantedGraph& pg = graph_of_size(8'000);
  Rng rng(3);
  std::vector<double> x(pg.netlist.num_cells()), y(pg.netlist.num_cells());
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = rng.next_double() * 100.0;
    y[i] = rng.next_double() * 100.0;
  }
  const Die die{100.0, 100.0, 1.0};
  CongestionConfig cfg;
  for (auto _ : state) {
    const CongestionMap m = estimate_congestion(pg.netlist, x, y, die, cfg);
    benchmark::DoNotOptimize(m.demand.data());
  }
}
BENCHMARK(BM_CongestionMap);

/// Jacobi-PCG on a 2D grid Laplacian (the placer's inner solver).
void BM_PcgSolve(benchmark::State& state) {
  const auto side = static_cast<std::size_t>(state.range(0));
  const std::size_t n = side * side;
  SparseMatrix a(n);
  auto id = [side](std::size_t r, std::size_t c) { return r * side + c; };
  for (std::size_t r = 0; r < side; ++r) {
    for (std::size_t c = 0; c < side; ++c) {
      double d = 1e-6;
      const std::size_t i = id(r, c);
      if (r > 0) { a.add(i, id(r - 1, c), -1.0); d += 1.0; }
      if (r + 1 < side) { a.add(i, id(r + 1, c), -1.0); d += 1.0; }
      if (c > 0) { a.add(i, id(r, c - 1), -1.0); d += 1.0; }
      if (c + 1 < side) { a.add(i, id(r, c + 1), -1.0); d += 1.0; }
      a.add(i, i, d);
    }
  }
  a.assemble();
  std::vector<double> b(n, 0.01), x(n, 0.0);
  for (auto _ : state) {
    std::fill(x.begin(), x.end(), 0.0);
    const CgResult r = solve_pcg(a, b, x, 1e-6, 500);
    benchmark::DoNotOptimize(r.iterations);
  }
}
BENCHMARK(BM_PcgSolve)->Arg(32)->Arg(64)->Unit(benchmark::kMillisecond);

/// CSR SpMV alone — the gather-heavy product dominating every PCG
/// iteration — on the same 2D grid Laplacian shape BM_PcgSolve solves.
/// Items = nonzeros streamed per second.
void BM_SpMV(benchmark::State& state) {
  const auto side = static_cast<std::size_t>(state.range(0));
  const std::size_t n = side * side;
  SparseMatrix a(n);
  std::size_t nnz = 0;
  auto id = [side](std::size_t r, std::size_t c) { return r * side + c; };
  const auto add = [&a, &nnz](std::size_t r, std::size_t c, double v) {
    a.add(r, c, v);
    ++nnz;
  };
  for (std::size_t r = 0; r < side; ++r) {
    for (std::size_t c = 0; c < side; ++c) {
      double d = 1e-6;
      const std::size_t i = id(r, c);
      if (r > 0) { add(i, id(r - 1, c), -1.0); d += 1.0; }
      if (r + 1 < side) { add(i, id(r + 1, c), -1.0); d += 1.0; }
      if (c > 0) { add(i, id(r, c - 1), -1.0); d += 1.0; }
      if (c + 1 < side) { add(i, id(r, c + 1), -1.0); d += 1.0; }
      add(i, i, d);
    }
  }
  a.assemble();
  Rng rng(17);
  std::vector<double> x(n), y(n);
  for (double& v : x) v = rng.next_double() * 2.0 - 1.0;
  for (auto _ : state) {
    a.multiply(x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(nnz));
}
BENCHMARK(BM_SpMV)->Arg(64)->Arg(160);

/// The placer end to end: clique/star assembly, anchored PCG solves,
/// spreading rounds, legalization.  A padded
/// synthetic circuit supplies the fixed anchors place_quadratic needs.
void BM_PlacerSolve(benchmark::State& state) {
  static const SyntheticCircuit* circuit = [] {
    SyntheticCircuitConfig cfg;
    cfg.num_cells = 12'000;
    cfg.num_pads = 64;
    StructureSpec s;
    s.size = 600;
    s.center_x = 0.5;
    s.center_y = 0.7;
    cfg.structures.push_back(s);
    Rng rng(2029);
    return new SyntheticCircuit(generate_synthetic_circuit(cfg, rng));
  }();
  PlacerConfig cfg;
  cfg.die = {circuit->die_width, circuit->die_height, 1.0};
  cfg.spreading_iterations = 6;
  cfg.cg_max_iterations = 200;
  cfg.cg_tolerance = 1e-5;
  for (auto _ : state) {
    const Placement p = place_quadratic(circuit->netlist, circuit->hint_x,
                                        circuit->hint_y, cfg);
    benchmark::DoNotOptimize(p.hpwl);
  }
}
BENCHMARK(BM_PlacerSolve)->UseRealTime()->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
