// Property-based sweeps (parameterized gtest): invariants that must hold
// across random seeds, graph sizes and configurations.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "finder/finder.hpp"
#include "graphgen/planted_graph.hpp"
#include "metrics/group_connectivity.hpp"
#include "metrics/scores.hpp"
#include "order/linear_ordering.hpp"
#include "util/rng.hpp"

namespace gtl {
namespace {

FinderResult run_finder(const Netlist& nl, const FinderConfig& cfg) {
  Finder finder(nl, cfg);
  return finder.run();
}


// ---------- Property: ordering invariants across seeds ----------

class OrderingProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OrderingProperty, PrefixCutsAlwaysExactAndCellsUnique) {
  PlantedGraphConfig cfg;
  cfg.num_cells = 1'200;
  cfg.gtls.push_back({120, 1});
  Rng rng(GetParam());
  const PlantedGraph pg = generate_planted_graph(cfg, rng);

  OrderingEngine engine(pg.netlist,
                        {.max_length = 400, .large_net_threshold = 20});
  Rng seed_rng(GetParam() * 7 + 1);
  const auto seed =
      static_cast<CellId>(seed_rng.next_below(pg.netlist.num_cells()));
  const LinearOrdering ord = engine.grow(seed);

  // Cells unique.
  std::vector<CellId> sorted = ord.cells;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) ==
              sorted.end());

  // Prefix stats exact (cross-check with independent tracker).
  GroupConnectivity group(pg.netlist);
  for (std::size_t k = 0; k < ord.cells.size(); ++k) {
    group.add(ord.cells[k]);
    ASSERT_EQ(group.cut(), ord.prefix_cut[k]);
    ASSERT_EQ(group.pins_in_group(), ord.prefix_pins[k]);
  }

  // Prefix pins monotone nondecreasing.
  for (std::size_t k = 1; k < ord.prefix_pins.size(); ++k) {
    EXPECT_GE(ord.prefix_pins[k], ord.prefix_pins[k - 1]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OrderingProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// ---------- Property: score identities over random groups ----------

class ScoreProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ScoreProperty, ScoreIdentitiesOnRandomGroups) {
  PlantedGraphConfig cfg;
  cfg.num_cells = 900;
  cfg.gtls.push_back({90, 1});
  Rng rng(GetParam() + 100);
  const PlantedGraph pg = generate_planted_graph(cfg, rng);

  GroupConnectivity g(pg.netlist);
  Rng pick(GetParam() + 200);
  for (int i = 0; i < 50; ++i) {
    const auto c = static_cast<CellId>(pick.next_below(900));
    if (!g.contains(c)) g.add(c);
  }
  const ScoreContext ctx{0.65, pg.netlist.average_pins_per_cell()};
  const GtlScores s = score_group(g, ctx);
  const auto cut = static_cast<double>(g.cut());
  const auto size = static_cast<double>(g.size());

  // Identity: nGTL-S == GTL-S / A_G.
  EXPECT_NEAR(s.ngtl_s, s.gtl_s / ctx.avg_pins_per_cell, 1e-12);
  // Identity: GTL-SD with A_C == A_G equals nGTL-S.
  EXPECT_NEAR(gtl_sd_score(cut, size, ctx.avg_pins_per_cell, ctx), s.ngtl_s,
              1e-12);
  // Monotonicity: more cut, worse score.
  EXPECT_LT(s.ngtl_s, ngtl_score(cut + 10.0, size, ctx));
  // Scores non-negative.
  EXPECT_GE(s.gtl_s, 0.0);
  EXPECT_GE(s.gtl_sd, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScoreProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

// ---------- Property: finder output invariants across configurations ----

struct FinderCase {
  std::uint64_t graph_seed;
  std::uint32_t gtl_size;
  std::uint32_t gtl_count;
};

class FinderProperty : public ::testing::TestWithParam<FinderCase> {};

TEST_P(FinderProperty, OutputInvariants) {
  const FinderCase& param = GetParam();
  PlantedGraphConfig cfg;
  cfg.num_cells = 6'000;
  cfg.gtls.push_back({param.gtl_size, param.gtl_count});
  Rng rng(param.graph_seed);
  const PlantedGraph pg = generate_planted_graph(cfg, rng);

  FinderConfig fcfg;
  fcfg.num_seeds = 25;
  fcfg.max_ordering_length = 4 * param.gtl_size;
  fcfg.num_threads = 2;
  fcfg.rng_seed = param.graph_seed + 1;
  const FinderResult res = run_finder(pg.netlist, fcfg);

  std::vector<bool> claimed(pg.netlist.num_cells(), false);
  GroupConnectivity check(pg.netlist);
  for (const auto& g : res.gtls) {
    // Members sorted, unique, disjoint from other GTLs.
    EXPECT_TRUE(std::is_sorted(g.cells.begin(), g.cells.end()));
    for (const CellId c : g.cells) {
      EXPECT_FALSE(claimed[c]);
      claimed[c] = true;
    }
    // Reported cut matches a recomputation.
    check.assign(g.cells);
    EXPECT_EQ(check.cut(), g.cut);
    // Reported scores consistent with reported cut/size/A_C.
    const ScoreContext ctx{g.rent_exponent_used,
                           pg.netlist.average_pins_per_cell()};
    EXPECT_NEAR(g.ngtl_s,
                ngtl_score(static_cast<double>(g.cut),
                           static_cast<double>(g.size()), ctx),
                1e-9);
    // No fixed cells inside.
    for (const CellId c : g.cells) EXPECT_FALSE(pg.netlist.is_fixed(c));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, FinderProperty,
    ::testing::Values(FinderCase{11, 200, 1}, FinderCase{12, 350, 2},
                      FinderCase{13, 500, 1}, FinderCase{14, 250, 3},
                      FinderCase{15, 800, 1}));

// ---------- Property: recovery quality across GTL sizes ----------

class RecoveryProperty : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(RecoveryProperty, PlantedGtlRecoveredAcrossSizes) {
  const std::uint32_t gtl_size = GetParam();
  PlantedGraphConfig cfg;
  cfg.num_cells = std::max<std::uint32_t>(gtl_size * 10, 3'000);
  cfg.gtls.push_back({gtl_size, 1});
  Rng rng(gtl_size);
  const PlantedGraph pg = generate_planted_graph(cfg, rng);

  FinderConfig fcfg;
  fcfg.num_seeds = 80;  // paper-like seeds-per-GTL ratio
  fcfg.max_ordering_length = gtl_size * 4;
  fcfg.num_threads = 2;
  fcfg.rng_seed = 5;
  const FinderResult res = run_finder(pg.netlist, fcfg);
  ASSERT_EQ(res.gtls.size(), 1u) << "GTL size " << gtl_size;
  const auto rec = recovery_stats(pg.gtl_members[0], res.gtls[0].cells);
  // Paper Table 1: miss <= 0.14%, over <= 0.5%; we allow a loose 5%.
  EXPECT_LT(rec.miss_fraction, 0.05);
  EXPECT_LT(rec.over_fraction, 0.05);
}

INSTANTIATE_TEST_SUITE_P(Sizes, RecoveryProperty,
                         ::testing::Values(150, 300, 600, 1000));

// ---------- Property: set algebra laws ----------

class SetAlgebraProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SetAlgebraProperty, AlgebraLaws) {
  Rng rng(GetParam());
  auto random_sorted_set = [&rng]() {
    std::vector<CellId> v;
    for (int i = 0; i < 40; ++i) {
      v.push_back(static_cast<CellId>(rng.next_below(100)));
    }
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
    return v;
  };
  const auto a = random_sorted_set();
  const auto b = random_sorted_set();

  const auto u = set_union(a, b);
  const auto i = set_intersection(a, b);
  const auto d_ab = set_difference(a, b);
  const auto d_ba = set_difference(b, a);

  // |A∪B| + |A∩B| == |A| + |B|.
  EXPECT_EQ(u.size() + i.size(), a.size() + b.size());
  // A∪B == (A−B) ∪ (A∩B) ∪ (B−A).
  auto rebuilt = set_union(set_union(d_ab, i), d_ba);
  EXPECT_EQ(rebuilt, u);
  // The intersection lies in both operands.
  EXPECT_TRUE(std::includes(a.begin(), a.end(), i.begin(), i.end()));
  EXPECT_TRUE(std::includes(b.begin(), b.end(), i.begin(), i.end()));
  // Difference disjoint from the subtrahend.
  EXPECT_TRUE(set_intersection(d_ab, b).empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SetAlgebraProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace gtl
