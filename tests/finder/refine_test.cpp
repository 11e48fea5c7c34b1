#include "finder/refine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>

#include "graphgen/planted_graph.hpp"
#include "test_helpers.hpp"

namespace gtl {
namespace {

struct RefineFixture {
  PlantedGraph pg;
  ScoreContext ctx;

  static RefineFixture make() {
    PlantedGraphConfig cfg;
    cfg.num_cells = 6'000;
    cfg.gtls.push_back({400, 1});
    Rng rng(55);
    RefineFixture f{generate_planted_graph(cfg, rng), {}};
    f.ctx.rent_exponent = 0.7;
    f.ctx.avg_pins_per_cell = f.pg.netlist.average_pins_per_cell();
    return f;
  }

  /// The GTL minus 10% of its cells, plus 40 background cells; sorted.
  [[nodiscard]] std::vector<CellId> sloppy_members() const {
    const std::vector<CellId>& gtl = pg.gtl_members[0];
    std::vector<CellId> sloppy(gtl.begin(), gtl.end() - 40);
    for (CellId c = 0, added = 0; added < 40 && c < 6000; ++c) {
      if (!std::binary_search(gtl.begin(), gtl.end(), c)) {
        sloppy.push_back(c);
        ++added;
      }
    }
    std::sort(sloppy.begin(), sloppy.end());
    return sloppy;
  }
};

TEST(Refine, ImprovesSloppyCandidate) {
  // Start from a candidate that misses 10% of the GTL and drags in 40
  // background cells; refinement must strictly improve the score.
  const auto f = RefineFixture::make();
  GroupConnectivity group(f.pg.netlist);

  const std::vector<CellId> sloppy = f.sloppy_members();
  Candidate initial =
      score_members(sloppy, group, f.ctx, ScoreKind::kGtlSd);
  initial.seed = sloppy[0];

  OrderingEngine engine(f.pg.netlist,
                        {.max_length = 1200, .large_net_threshold = 20});
  Rng rng(9);
  RefineArena arena;
  const Candidate refined =
      refine_candidate(f.pg.netlist, initial, engine, arena, f.ctx,
                       ScoreKind::kGtlSd, 3, rng);
  EXPECT_LE(refined.score, initial.score);
  const auto rec = recovery_stats(f.pg.gtl_members[0], refined.cells);
  EXPECT_LT(rec.miss_fraction, 0.05);
  EXPECT_LT(rec.over_fraction, 0.05);
}

TEST(Refine, NeverWorsensScore) {
  // Even from a perfect candidate, the refined result is at least as good
  // (the initial candidate is a member of the family).
  const auto f = RefineFixture::make();
  GroupConnectivity group(f.pg.netlist);
  Candidate initial = score_members(f.pg.gtl_members[0], group, f.ctx,
                                    ScoreKind::kGtlSd);
  initial.seed = f.pg.gtl_members[0][0];
  OrderingEngine engine(f.pg.netlist,
                        {.max_length = 1200, .large_net_threshold = 20});
  Rng rng(10);
  RefineArena arena;
  const Candidate refined =
      refine_candidate(f.pg.netlist, initial, engine, arena, f.ctx,
                       ScoreKind::kGtlSd, 3, rng);
  EXPECT_LE(refined.score, initial.score + 1e-12);
}

TEST(Refine, KeepsSeedAttribution) {
  const auto f = RefineFixture::make();
  GroupConnectivity group(f.pg.netlist);
  Candidate initial = score_members(f.pg.gtl_members[0], group, f.ctx,
                                    ScoreKind::kGtlSd);
  initial.seed = 1234;
  OrderingEngine engine(f.pg.netlist,
                        {.max_length = 800, .large_net_threshold = 20});
  Rng rng(11);
  RefineArena arena;
  const Candidate refined =
      refine_candidate(f.pg.netlist, initial, engine, arena, f.ctx,
                       ScoreKind::kGtlSd, 3, rng);
  EXPECT_EQ(refined.seed, 1234u);
}

TEST(Refine, ZeroExtraSeedsRescoresTheCandidate) {
  // With no inner re-growths the family is the candidate and its copy;
  // the copy ties and loses on the strict <, so refinement returns the
  // candidate scored with the shared context, every field bit for bit.
  const auto f = RefineFixture::make();
  OrderingEngine engine(f.pg.netlist,
                        {.max_length = 1200, .large_net_threshold = 20});
  RefineArena arena;
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  for (const std::vector<CellId>& cells :
       {f.pg.gtl_members[0], f.sloppy_members()}) {
    for (const ScoreKind kind : {ScoreKind::kNgtlS, ScoreKind::kGtlSd}) {
      Candidate initial;
      initial.cells = cells;
      initial.seed = cells[7];
      Rng rng(12);
      const Candidate got = refine_candidate(f.pg.netlist, initial, engine,
                                             arena, f.ctx, kind, 0, rng);
      const GroupMeasure m = engine.measure(cells);
      Candidate want = scored_candidate(cells, m.cut, m.pins, f.ctx, kind);
      want.seed = initial.seed;
      EXPECT_EQ(got.cells, want.cells);
      EXPECT_EQ(got.cut, want.cut);
      EXPECT_EQ(bits(got.avg_pins), bits(want.avg_pins));
      EXPECT_EQ(bits(got.ngtl_s), bits(want.ngtl_s));
      EXPECT_EQ(bits(got.gtl_sd), bits(want.gtl_sd));
      EXPECT_EQ(bits(got.score), bits(want.score));
      EXPECT_EQ(got.seed, want.seed);
      EXPECT_EQ(bits(got.rent_exponent_used), bits(want.rent_exponent_used));
    }
  }
}

TEST(Prune, KeepsBestOfOverlappingPair) {
  std::vector<Candidate> cands(2);
  cands[0].cells = {1, 2, 3};
  cands[0].score = 0.5;
  cands[1].cells = {3, 4, 5};
  cands[1].score = 0.1;  // better
  const auto kept = prune_overlapping(std::move(cands), 10);
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_DOUBLE_EQ(kept[0].score, 0.1);
}

TEST(Prune, KeepsDisjointCandidates) {
  std::vector<Candidate> cands(3);
  cands[0].cells = {1, 2};
  cands[0].score = 0.3;
  cands[1].cells = {4, 5};
  cands[1].score = 0.2;
  cands[2].cells = {7, 8};
  cands[2].score = 0.9;
  const auto kept = prune_overlapping(std::move(cands), 10);
  EXPECT_EQ(kept.size(), 3u);
  // Sorted best-first.
  EXPECT_DOUBLE_EQ(kept[0].score, 0.2);
  EXPECT_DOUBLE_EQ(kept[2].score, 0.9);
}

TEST(Prune, ChainOfOverlapsResolvedBestFirst) {
  // a overlaps b, b overlaps c, a and c disjoint: keep best (b drops if
  // it overlaps a better one, c survives if disjoint from kept).
  std::vector<Candidate> cands(3);
  cands[0].cells = {1, 2};     // a
  cands[0].score = 0.1;
  cands[1].cells = {2, 3, 4};  // b overlaps a and c
  cands[1].score = 0.2;
  cands[2].cells = {4, 5};     // c
  cands[2].score = 0.3;
  const auto kept = prune_overlapping(std::move(cands), 10);
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_DOUBLE_EQ(kept[0].score, 0.1);
  EXPECT_DOUBLE_EQ(kept[1].score, 0.3);
}

TEST(Prune, EmptyInput) {
  EXPECT_TRUE(prune_overlapping({}, 10).empty());
}

TEST(Prune, IdenticalScoresDeterministic) {
  std::vector<Candidate> cands(2);
  cands[0].cells = {1, 2};
  cands[0].score = 0.5;
  cands[1].cells = {2, 3};
  cands[1].score = 0.5;
  const auto kept = prune_overlapping(std::move(cands), 10);
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0].cells, (std::vector<CellId>{1, 2}));  // lexicographic
}

}  // namespace
}  // namespace gtl
