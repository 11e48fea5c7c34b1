#include "order/linear_ordering.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <stdexcept>
#include <unordered_set>
#include <vector>

#include "graphgen/planted_graph.hpp"
#include "metrics/group_connectivity.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace gtl {
namespace {

/// Reference gain of one frontier cell: exact connection sum.
double brute_force_conn(const Netlist& nl, const GroupConnectivity& group,
                        CellId v) {
  double conn = 0.0;
  for (const NetId e : nl.nets_of(v)) {
    if (nl.net_size(e) < 2) continue;
    if (group.pins_in(e) == 0) continue;
    conn += 1.0 / static_cast<double>(group.pins_out(e) + 1);
  }
  return conn;
}

/// Reference implementation of one Phase I step: the set of admissible
/// winners — every frontier cell whose connection gain is within
/// floating-point noise of the best.  The engine accumulates gains
/// incrementally, so mathematically equal gains can differ by an ulp from
/// a fresh summation; that perturbs *tie-breaks* (which the paper leaves
/// unspecified) but never the greedy's max-gain property, which is what
/// this reference checks.  Exact-arithmetic tie-breaking is pinned
/// separately by the MinCutBreaksTies test on 1/2-representable weights.
std::set<CellId> brute_force_best_set(const Netlist& nl,
                                      const GroupConnectivity& group) {
  constexpr double kEps = 1e-9;
  double best_conn = -1.0;
  for (CellId v = 0; v < nl.num_cells(); ++v) {
    if (group.contains(v) || nl.is_fixed(v)) continue;
    best_conn = std::max(best_conn, brute_force_conn(nl, group, v));
  }
  std::set<CellId> winners;
  for (CellId v = 0; v < nl.num_cells(); ++v) {
    if (group.contains(v) || nl.is_fixed(v)) continue;
    const double conn = brute_force_conn(nl, group, v);
    if (conn > 0.0 && conn >= best_conn - kEps) winners.insert(v);
  }
  return winners;
}

TEST(LinearOrdering, StartsAtSeed) {
  const Netlist nl = testing::make_grid3x3();
  OrderingEngine engine(nl, {.max_length = 9, .large_net_threshold = 0});
  const LinearOrdering ord = engine.grow(4);
  ASSERT_FALSE(ord.cells.empty());
  EXPECT_EQ(ord.cells[0], 4u);
  EXPECT_EQ(ord.seed, 4u);
}

TEST(LinearOrdering, CoversConnectedGraph) {
  const Netlist nl = testing::make_grid3x3();
  OrderingEngine engine(nl, {.max_length = 100, .large_net_threshold = 0});
  const LinearOrdering ord = engine.grow(0);
  EXPECT_EQ(ord.cells.size(), 9u);
  std::set<CellId> unique(ord.cells.begin(), ord.cells.end());
  EXPECT_EQ(unique.size(), 9u);  // no repeats
}

TEST(LinearOrdering, RespectsMaxLength) {
  const Netlist nl = testing::make_grid3x3();
  OrderingEngine engine(nl, {.max_length = 5, .large_net_threshold = 0});
  const LinearOrdering ord = engine.grow(0);
  EXPECT_EQ(ord.cells.size(), 5u);
}

TEST(LinearOrdering, ZeroMaxLengthIsRejected) {
  // Z = 0 cannot be honored (an ordering always holds its seed), so the
  // engine refuses it up front; Z = 1 is the seed alone.
  const Netlist nl = testing::make_grid3x3();
  EXPECT_THROW((void)OrderingEngine(nl, {.max_length = 0}), std::logic_error);
  OrderingEngine one(nl, {.max_length = 1, .large_net_threshold = 0});
  EXPECT_EQ(one.grow(4).cells, std::vector<CellId>{4});
}

TEST(LinearOrdering, StopsAtDisconnectedComponent) {
  // Two disjoint edges; ordering from 0 can only reach {0, 1}.
  const Netlist nl = testing::make_netlist(4, {{0, 1}, {2, 3}});
  OrderingEngine engine(nl, {.max_length = 10, .large_net_threshold = 0});
  const LinearOrdering ord = engine.grow(0);
  EXPECT_EQ(ord.cells.size(), 2u);
}

TEST(LinearOrdering, PrefixStatsMatchGroupConnectivity) {
  PlantedGraphConfig cfg;
  cfg.num_cells = 600;
  cfg.gtls.push_back({80, 1});
  Rng rng(17);
  const PlantedGraph pg = generate_planted_graph(cfg, rng);

  OrderingEngine engine(pg.netlist,
                        {.max_length = 200, .large_net_threshold = 0});
  const LinearOrdering ord = engine.grow(pg.gtl_members[0][0]);

  GroupConnectivity group(pg.netlist);
  for (std::size_t k = 0; k < ord.cells.size(); ++k) {
    group.add(ord.cells[k]);
    ASSERT_EQ(group.cut(), ord.prefix_cut[k]) << "prefix " << k + 1;
    ASSERT_EQ(group.pins_in_group(), ord.prefix_pins[k]) << "prefix " << k + 1;
  }
}

TEST(LinearOrdering, ExactEngineMatchesBruteForce) {
  // With the large-net trick disabled the engine must reproduce the
  // reference greedy exactly, step by step.
  PlantedGraphConfig cfg;
  cfg.num_cells = 300;
  cfg.gtls.push_back({40, 1});
  Rng rng(23);
  const PlantedGraph pg = generate_planted_graph(cfg, rng);

  OrderingEngine engine(pg.netlist,
                        {.max_length = 120, .large_net_threshold = 0});
  const CellId seed = pg.gtl_members[0][5];
  const LinearOrdering ord = engine.grow(seed);

  GroupConnectivity group(pg.netlist);
  group.add(seed);
  for (std::size_t k = 1; k < ord.cells.size(); ++k) {
    const auto winners = brute_force_best_set(pg.netlist, group);
    ASSERT_TRUE(winners.count(ord.cells[k]))
        << "step " << k << ": engine chose " << ord.cells[k];
    group.add(ord.cells[k]);
  }
}

TEST(LinearOrdering, LargeNetThresholdSkipsHugeNets) {
  // A 30-pin net above the threshold must not pull its pins into the
  // frontier; the chain below keeps growing instead.
  NetlistBuilder nb;
  std::vector<CellId> big;
  for (int i = 0; i < 30; ++i) big.push_back(nb.add_cell());
  // Chain of 5 extra cells hanging off big[0].
  std::vector<CellId> chain = {big[0]};
  for (int i = 0; i < 5; ++i) chain.push_back(nb.add_cell());
  nb.add_net(big);
  for (std::size_t i = 0; i + 1 < chain.size(); ++i) {
    nb.add_net({chain[i], chain[i + 1]});
  }
  const Netlist nl = nb.build();

  OrderingEngine skip(nl, {.max_length = 40, .large_net_threshold = 20});
  const LinearOrdering ord = skip.grow(big[0]);
  // Only the chain is reachable: the big net is never activated.
  EXPECT_EQ(ord.cells.size(), chain.size());

  OrderingEngine exact(nl, {.max_length = 40, .large_net_threshold = 0});
  const LinearOrdering ord2 = exact.grow(big[0]);
  EXPECT_EQ(ord2.cells.size(), 35u);  // everything reachable
}

TEST(LinearOrdering, PrefixCutIsExactEvenWithThreshold) {
  // The reported T(C_k) must be exact regardless of the gain skip.
  NetlistBuilder nb;
  std::vector<CellId> big;
  for (int i = 0; i < 25; ++i) big.push_back(nb.add_cell());
  nb.add_net(big);
  for (int i = 0; i + 1 < 25; ++i) {
    nb.add_net({big[i], big[i + 1]});
  }
  const Netlist nl = nb.build();

  OrderingEngine engine(nl, {.max_length = 25, .large_net_threshold = 20});
  const LinearOrdering ord = engine.grow(big[0]);
  GroupConnectivity group(nl);
  for (std::size_t k = 0; k < ord.cells.size(); ++k) {
    group.add(ord.cells[k]);
    ASSERT_EQ(group.cut(), ord.prefix_cut[k]);
  }
}

TEST(LinearOrdering, PrefersStrongerConnection) {
  // Cell 1 shares two nets with the seed, cell 2 only one: 1 wins.
  const Netlist nl =
      testing::make_netlist(3, {{0, 1}, {0, 1}, {0, 2}});
  OrderingEngine engine(nl, {.max_length = 3, .large_net_threshold = 0});
  const LinearOrdering ord = engine.grow(0);
  ASSERT_GE(ord.cells.size(), 2u);
  EXPECT_EQ(ord.cells[1], 1u);
}

TEST(LinearOrdering, NetMostlyInsideWeighsMore) {
  // Net A = {0,1}: lambda = 1 outside -> weight 1/2.
  // Net B = {0,2,3,4}: lambda = 3 -> weight 1/4 for each outside pin.
  const Netlist nl = testing::make_netlist(5, {{0, 1}, {0, 2, 3, 4}});
  OrderingEngine engine(nl, {.max_length = 5, .large_net_threshold = 0});
  const LinearOrdering ord = engine.grow(0);
  ASSERT_GE(ord.cells.size(), 2u);
  EXPECT_EQ(ord.cells[1], 1u);
}

TEST(LinearOrdering, MinCutBreaksTies) {
  // Cells 1 and 2 both connect via one 2-pin net (equal conn weight), but
  // cell 2 drags two extra untouched nets (higher cut delta) -> pick 1.
  const Netlist nl = testing::make_netlist(
      7, {{0, 1}, {0, 2}, {2, 3}, {2, 4}, {1, 5}});
  // conn(1) = conn(2) = 1/2; delta(1) = -1+1 = 0; delta(2) = -1+2 = 1.
  OrderingEngine engine(nl, {.max_length = 2, .large_net_threshold = 0});
  const LinearOrdering ord = engine.grow(0);
  ASSERT_GE(ord.cells.size(), 2u);
  EXPECT_EQ(ord.cells[1], 1u);
}

TEST(LinearOrdering, FixedSeedThrows) {
  NetlistBuilder nb;
  nb.add_cell("pad", 1, 1, true);
  nb.add_cell("gate");
  nb.add_net({CellId{0}, CellId{1}});
  const Netlist nl = nb.build();
  OrderingEngine engine(nl, {});
  EXPECT_THROW((void)engine.grow(0), std::invalid_argument);
}

TEST(LinearOrdering, FixedCellsNeverAbsorbed) {
  NetlistBuilder nb;
  const CellId pad = nb.add_cell("pad", 1, 1, true);
  std::vector<CellId> gates;
  for (int i = 0; i < 5; ++i) gates.push_back(nb.add_cell());
  for (std::size_t i = 0; i + 1 < gates.size(); ++i) {
    nb.add_net({gates[i], gates[i + 1]});
  }
  nb.add_net({pad, gates[0]});
  const Netlist nl = nb.build();

  OrderingEngine engine(nl, {.max_length = 10, .large_net_threshold = 0});
  const LinearOrdering ord = engine.grow(gates[0]);
  EXPECT_EQ(ord.cells.size(), 5u);
  EXPECT_EQ(std::count(ord.cells.begin(), ord.cells.end(), pad), 0);
}

TEST(LinearOrdering, EngineReusableAcrossRuns) {
  const Netlist nl = testing::make_grid3x3();
  OrderingEngine engine(nl, {.max_length = 9, .large_net_threshold = 0});
  const LinearOrdering a1 = engine.grow(0);
  (void)engine.grow(8);  // perturb internal state
  const LinearOrdering a2 = engine.grow(0);
  EXPECT_EQ(a1.cells, a2.cells);
  EXPECT_EQ(a1.prefix_cut, a2.prefix_cut);
}

TEST(LinearOrdering, StaysInsidePlantedGtlUntilExhausted) {
  // The core behavioral property Phase I needs: seeded inside a planted
  // GTL, the ordering absorbs (nearly) the whole GTL before leaving it.
  PlantedGraphConfig cfg;
  cfg.num_cells = 5'000;
  cfg.gtls.push_back({400, 1});
  Rng rng(31);
  const PlantedGraph pg = generate_planted_graph(cfg, rng);
  const std::unordered_set<CellId> truth(pg.gtl_members[0].begin(),
                                         pg.gtl_members[0].end());

  OrderingEngine engine(pg.netlist,
                        {.max_length = 600, .large_net_threshold = 20});
  const LinearOrdering ord = engine.grow(pg.gtl_members[0][13]);
  ASSERT_GE(ord.cells.size(), 400u);
  std::size_t inside_in_first_400 = 0;
  for (std::size_t k = 0; k < 400; ++k) {
    inside_in_first_400 += truth.count(ord.cells[k]);
  }
  // At least 95% of the first |GTL| cells belong to the GTL.
  EXPECT_GE(inside_in_first_400, 380u);
}


TEST(LinearOrdering, ConnectionFirstBeatsMinCutDelta) {
  // The paper's §3.2.1 counterexample: from seed 0, cell 1 hangs on one
  // 2-pin net and nothing else (conn 0.5, cut delta -1), while cell 2
  // shares two 2-pin nets with the seed and has two nets still outside
  // (conn 1.0, cut delta 0).  Connection first absorbs cell 2 although
  // cell 1 would cut less.
  const Netlist nl = testing::make_netlist(
      5, {{0, 1}, {0, 2}, {0, 2}, {2, 3}, {2, 4}});
  OrderingEngine engine(nl, {.max_length = 2, .large_net_threshold = 0});
  EXPECT_EQ(engine.grow(0).cells[1], 2u);
}

/// A random netlist with the engine's corner cases: 1-pin nets on movable
/// cells and on a fixed pad, the pad on shared nets, and nets both under
/// and over the large-net threshold.
Netlist pad_and_one_pin_netlist(std::uint32_t num_movable, std::uint64_t seed) {
  NetlistBuilder nb;
  for (std::uint32_t c = 0; c < num_movable; ++c) nb.add_cell();
  const CellId pad = nb.add_cell("pad", 1, 1, /*fixed=*/true);
  Rng rng(seed);
  for (CellId c = 0; c + 1 < num_movable; ++c) nb.add_net({c, c + 1});
  for (std::uint32_t i = 0; i < num_movable / 2; ++i) {
    const auto size = static_cast<std::uint32_t>(3 + rng.next_below(4));
    const std::vector<std::uint32_t> pins =
        rng.sample_distinct(num_movable, size);
    nb.add_net(std::vector<CellId>(pins.begin(), pins.end()));
  }
  for (CellId c = 0; c < num_movable; c += 7) nb.add_net({c});
  nb.add_net({pad});
  for (CellId c = 0; c < num_movable; c += 50) nb.add_net({pad, c});
  std::vector<CellId> wide = {pad};
  for (const std::uint32_t c : rng.sample_distinct(num_movable, 40)) {
    wide.push_back(c);
  }
  nb.add_net(wide);
  return nb.build();
}

TEST(LinearOrdering, MeasureMatchesGroupConnectivity) {
  // measure() is Phase III's scorer: it must give GroupConnectivity's
  // T(C) and pins(C) for any set of distinct cells, and leave the engine
  // as clean as it found it.
  PlantedGraphConfig cfg;
  cfg.num_cells = 6'000;
  cfg.gtls.push_back({600, 2});
  cfg.gtls.push_back({300, 2});
  Rng graph_rng(2026);
  const PlantedGraph pg = generate_planted_graph(cfg, graph_rng);
  const Netlist quirky = pad_and_one_pin_netlist(2'400, 5);

  for (const Netlist* nl : {&pg.netlist, &quirky}) {
    std::vector<CellId> movable;
    for (CellId c = 0; c < nl->num_cells(); ++c) {
      if (!nl->is_fixed(c)) movable.push_back(c);
    }
    const OrderingConfig ocfg{.max_length = 1'500, .large_net_threshold = 20};
    OrderingEngine engine(*nl, ocfg);
    GroupConnectivity group(*nl);
    (void)engine.grow(movable[0]);  // measures follow grows in Phase III

    Rng rng(77);
    const auto num_movable = static_cast<std::uint32_t>(movable.size());
    for (int i = 0; i < 100; ++i) {
      const auto size = static_cast<std::uint32_t>(1 + rng.next_below(2'000));
      std::vector<CellId> members;
      for (const std::uint32_t idx : rng.sample_distinct(num_movable, size)) {
        members.push_back(movable[idx]);
      }
      const GroupMeasure m = engine.measure(members);
      group.assign(members);
      ASSERT_EQ(m.cut, group.cut()) << "measure " << i;
      ASSERT_EQ(m.pins, group.pins_in_group()) << "measure " << i;
    }

    // The measures left no trace: the engine grows what a fresh one does.
    OrderingEngine fresh(*nl, ocfg);
    const CellId seeds[] = {movable[0], movable[num_movable / 2],
                            movable.back()};
    for (const CellId seed : seeds) {
      const LinearOrdering got = engine.grow(seed);
      const LinearOrdering want = fresh.grow(seed);
      EXPECT_EQ(got.cells, want.cells) << "seed " << seed;
      EXPECT_EQ(got.prefix_cut, want.prefix_cut) << "seed " << seed;
      EXPECT_EQ(got.prefix_pins, want.prefix_pins) << "seed " << seed;
    }
  }
}

}  // namespace
}  // namespace gtl
