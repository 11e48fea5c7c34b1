#include "finder/candidate.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "graphgen/planted_graph.hpp"
#include "order/linear_ordering.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace gtl {
namespace {

TEST(SetAlgebra, UnionIntersectionDifference) {
  const std::vector<CellId> a = {1, 3, 5, 7};
  const std::vector<CellId> b = {3, 4, 5, 6};
  EXPECT_EQ(set_union(a, b), (std::vector<CellId>{1, 3, 4, 5, 6, 7}));
  EXPECT_EQ(set_intersection(a, b), (std::vector<CellId>{3, 5}));
  EXPECT_EQ(set_difference(a, b), (std::vector<CellId>{1, 7}));
  EXPECT_EQ(set_difference(b, a), (std::vector<CellId>{4, 6}));
}

TEST(SetAlgebra, EmptyOperands) {
  const std::vector<CellId> a = {1, 2};
  const std::vector<CellId> empty;
  EXPECT_EQ(set_union(a, empty), a);
  EXPECT_TRUE(set_intersection(a, empty).empty());
  EXPECT_EQ(set_difference(a, empty), a);
  EXPECT_TRUE(set_difference(empty, a).empty());
}

TEST(ScoreMembers, FillsAllFields) {
  const Netlist nl = testing::make_two_cliques();
  GroupConnectivity group(nl);
  const ScoreContext ctx{0.6, nl.average_pins_per_cell()};
  const std::vector<CellId> members = {0, 1, 2, 3};
  const Candidate c = score_members(members, group, ctx, ScoreKind::kGtlSd);
  EXPECT_EQ(c.cells, members);
  EXPECT_EQ(c.cut, 1);
  EXPECT_GT(c.avg_pins, 0.0);
  EXPECT_GT(c.ngtl_s, 0.0);
  EXPECT_GT(c.gtl_sd, 0.0);
  EXPECT_DOUBLE_EQ(c.score, c.gtl_sd);
  EXPECT_DOUBLE_EQ(c.rent_exponent_used, 0.6);
}

TEST(ScoreMembers, ScoreKindSelectsPhi) {
  const Netlist nl = testing::make_two_cliques();
  GroupConnectivity group(nl);
  const ScoreContext ctx{0.6, nl.average_pins_per_cell()};
  const std::vector<CellId> members = {0, 1, 2};
  const Candidate n = score_members(members, group, ctx, ScoreKind::kNgtlS);
  EXPECT_DOUBLE_EQ(n.score, n.ngtl_s);
}

TEST(ScoreMembers, SortsUnsortedInput) {
  const Netlist nl = testing::make_two_cliques();
  GroupConnectivity group(nl);
  const ScoreContext ctx{0.6, 3.0};
  const std::vector<CellId> shuffled = {3, 0, 2, 1};
  const Candidate c = score_members(shuffled, group, ctx, ScoreKind::kGtlSd);
  EXPECT_TRUE(std::is_sorted(c.cells.begin(), c.cells.end()));
}

TEST(ScoreMembers, EmptyThrows) {
  const Netlist nl = testing::make_grid3x3();
  GroupConnectivity group(nl);
  const ScoreContext ctx{0.6, 3.0};
  EXPECT_THROW((void)score_members({}, group, ctx, ScoreKind::kGtlSd),
               std::logic_error);
}

TEST(ExtractCandidate, RecoversPlantedGtl) {
  PlantedGraphConfig cfg;
  cfg.num_cells = 8'000;
  cfg.gtls.push_back({500, 1});
  Rng rng(7);
  const PlantedGraph pg = generate_planted_graph(cfg, rng);

  OrderingEngine engine(pg.netlist,
                        {.max_length = 1500, .large_net_threshold = 20});
  const LinearOrdering ord = engine.grow(pg.gtl_members[0][3]);
  CurveScratch scratch;
  const auto cand =
      extract_candidate(pg.netlist, ord, ScoreKind::kGtlSd, scratch);
  ASSERT_TRUE(cand.has_value());
  EXPECT_NEAR(static_cast<double>(cand->size()), 500.0, 25.0);
  const auto rec = recovery_stats(pg.gtl_members[0], cand->cells);
  EXPECT_LT(rec.miss_fraction, 0.05);
  EXPECT_LT(rec.over_fraction, 0.05);
  EXPECT_EQ(cand->seed, pg.gtl_members[0][3]);
}

TEST(ExtractCandidate, BackgroundSeedYieldsNothing) {
  PlantedGraphConfig cfg;
  cfg.num_cells = 8'000;
  cfg.gtls.push_back({500, 1});
  Rng rng(7);
  const PlantedGraph pg = generate_planted_graph(cfg, rng);
  CellId bg = 0;
  while (std::binary_search(pg.gtl_members[0].begin(),
                            pg.gtl_members[0].end(), bg)) {
    ++bg;
  }
  OrderingEngine engine(pg.netlist,
                        {.max_length = 1500, .large_net_threshold = 20});
  const LinearOrdering ord = engine.grow(bg);
  CurveScratch scratch;
  EXPECT_FALSE(extract_candidate(pg.netlist, ord, ScoreKind::kGtlSd, scratch)
                   .has_value());
}

TEST(ExtractCandidate, TooShortOrderingRejected) {
  const Netlist nl = testing::make_grid3x3();
  OrderingEngine engine(nl, {.max_length = 9, .large_net_threshold = 0});
  const LinearOrdering ord = engine.grow(0);
  CurveScratch scratch;
  EXPECT_FALSE(
      extract_candidate(nl, ord, ScoreKind::kGtlSd, scratch).has_value());
}

}  // namespace
}  // namespace gtl
