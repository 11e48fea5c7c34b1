#include "metrics/group_connectivity.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include "graphgen/planted_graph.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace gtl {
namespace {

TEST(GroupConnectivity, EmptyGroup) {
  const Netlist nl = testing::make_grid3x3();
  GroupConnectivity g(nl);
  EXPECT_EQ(g.size(), 0u);
  EXPECT_EQ(g.cut(), 0);
  EXPECT_EQ(g.pins_in_group(), 0u);
  EXPECT_DOUBLE_EQ(g.avg_pins_per_cell(), 0.0);
}

TEST(GroupConnectivity, SingleCellCutEqualsDegreeOnTwoPinNets) {
  const Netlist nl = testing::make_grid3x3();
  GroupConnectivity g(nl);
  g.add(4);  // center cell: 4 incident 2-pin nets, all cut
  EXPECT_EQ(g.cut(), 4);
  EXPECT_EQ(g.pins_in_group(), 4u);
  EXPECT_TRUE(g.contains(4));
}

TEST(GroupConnectivity, AbsorbedNetLeavesCut) {
  const Netlist nl = testing::make_netlist(3, {{0, 1}, {1, 2}});
  GroupConnectivity g(nl);
  g.add(0);
  EXPECT_EQ(g.cut(), 1);
  g.add(1);  // net {0,1} fully inside; {1,2} cut
  EXPECT_EQ(g.cut(), 1);
  g.add(2);
  EXPECT_EQ(g.cut(), 0);
}

TEST(GroupConnectivity, CliqueGroupHasUnitCut) {
  const Netlist nl = testing::make_two_cliques();
  GroupConnectivity g(nl);
  for (CellId c : {0, 1, 2, 3}) g.add(c);
  EXPECT_EQ(g.cut(), 1);  // only the bridge net {3,4}
  // Absorption: 6 internal 2-pin nets fully inside -> each contributes 1.
  EXPECT_NEAR(g.absorption(), 6.0, 1e-12);
}

TEST(GroupConnectivity, MultiPinNetCutCounting) {
  // One 4-pin net; cut iff the group contains some but not all pins.
  const Netlist nl = testing::make_netlist(4, {{0, 1, 2, 3}});
  GroupConnectivity g(nl);
  EXPECT_EQ(g.cut(), 0);
  g.add(0);
  EXPECT_EQ(g.cut(), 1);
  g.add(1);
  g.add(2);
  EXPECT_EQ(g.cut(), 1);
  g.add(3);
  EXPECT_EQ(g.cut(), 0);
}

TEST(GroupConnectivity, SinglePinNetNeverCut) {
  const Netlist nl = testing::make_netlist(2, {{0}, {0, 1}});
  GroupConnectivity g(nl);
  g.add(0);
  EXPECT_EQ(g.cut(), 1);  // only the 2-pin net
}

TEST(GroupConnectivity, PinsInTracksPerNet) {
  const Netlist nl = testing::make_netlist(4, {{0, 1, 2, 3}});
  GroupConnectivity g(nl);
  g.add(1);
  g.add(3);
  EXPECT_EQ(g.pins_in(0), 2u);
  EXPECT_EQ(g.pins_out(0), 2u);
}

TEST(GroupConnectivity, ClearResetsEverything) {
  const Netlist nl = testing::make_grid3x3();
  GroupConnectivity g(nl);
  g.add(0);
  g.add(1);
  g.clear();
  EXPECT_EQ(g.size(), 0u);
  EXPECT_EQ(g.cut(), 0);
  EXPECT_EQ(g.pins_in_group(), 0u);
  EXPECT_DOUBLE_EQ(g.absorption(), 0.0);
  EXPECT_FALSE(g.contains(0));
  EXPECT_EQ(g.pins_in(0), 0u);
  // Reusable after clear.
  g.add(4);
  EXPECT_EQ(g.cut(), 4);
}

TEST(GroupConnectivity, AssignMatchesIncrementalAdds) {
  const Netlist nl = testing::make_two_cliques();
  GroupConnectivity a(nl), b(nl);
  const std::vector<CellId> members = {1, 2, 3, 4};
  a.assign(members);
  for (const CellId c : members) b.add(c);
  EXPECT_EQ(a.cut(), b.cut());
  EXPECT_EQ(a.pins_in_group(), b.pins_in_group());
  EXPECT_NEAR(a.absorption(), b.absorption(), 1e-12);
}

TEST(GroupConnectivity, DoubleAddThrows) {
  const Netlist nl = testing::make_grid3x3();
  GroupConnectivity g(nl);
  g.add(0);
  EXPECT_THROW(g.add(0), std::logic_error);
}

TEST(GroupConnectivity, MatchesBruteForceOnRandomGraph) {
  PlantedGraphConfig cfg;
  cfg.num_cells = 400;
  cfg.gtls.push_back({40, 1});
  Rng rng(9);
  const PlantedGraph pg = generate_planted_graph(cfg, rng);

  GroupConnectivity g(pg.netlist);
  std::vector<CellId> members;
  Rng pick(21);
  for (int i = 0; i < 60; ++i) {
    const auto c = static_cast<CellId>(pick.next_below(400));
    if (g.contains(c)) continue;
    g.add(c);
    members.push_back(c);
  }
  EXPECT_EQ(g.cut(), net_cut(pg.netlist, members));
}

TEST(GroupConnectivity, ReusedTrackerMatchesFreshTracker) {
  // Many clear()/assign() cycles on one tracker: per-net counts left by
  // earlier groups must never leak into later ones.
  PlantedGraphConfig cfg;
  cfg.num_cells = 300;
  cfg.gtls.push_back({37, 1});
  Rng graph_rng(9);
  const PlantedGraph pg = generate_planted_graph(cfg, graph_rng);
  const Netlist& nl = pg.netlist;
  GroupConnectivity reused(nl);
  Rng rng(31);

  for (int cycle = 0; cycle < 60; ++cycle) {
    std::set<CellId> want;
    const std::size_t target = 1 + rng.next_below(40);
    while (want.size() < target) {
      want.insert(static_cast<CellId>(rng.next_below(nl.num_cells())));
    }
    const std::vector<CellId> members(want.begin(), want.end());
    reused.assign(members);

    GroupConnectivity fresh(nl);
    for (const CellId c : members) fresh.add(c);

    ASSERT_EQ(reused.cut(), fresh.cut()) << "cycle " << cycle;
    ASSERT_EQ(reused.pins_in_group(), fresh.pins_in_group());
    ASSERT_DOUBLE_EQ(reused.absorption(), fresh.absorption());
    for (NetId e = 0; e < nl.num_nets(); ++e) {
      ASSERT_EQ(reused.pins_in(e), fresh.pins_in(e))
          << "cycle " << cycle << " net " << e;
    }
    for (CellId c = 0; c < nl.num_cells(); ++c) {
      ASSERT_EQ(reused.contains(c), want.count(c) != 0)
          << "cycle " << cycle << " cell " << c;
    }

    // Against brute-force recomputation from the member list.
    ASSERT_TRUE(std::equal(reused.members().begin(), reused.members().end(),
                           members.begin(), members.end()));
    ASSERT_EQ(reused.cut(), net_cut(nl, members));
    std::size_t pins = 0;
    for (const CellId c : members) pins += nl.cell_degree(c);
    ASSERT_EQ(reused.pins_in_group(), pins);
    double absorption = 0.0;
    for (NetId e = 0; e < nl.num_nets(); ++e) {
      const std::uint32_t size = nl.net_size(e);
      std::uint32_t inside = 0;
      for (const CellId c : nl.pins_of(e)) inside += want.count(c);
      if (size >= 2 && inside >= 1) {
        absorption +=
            static_cast<double>(inside - 1) / static_cast<double>(size - 1);
      }
    }
    ASSERT_NEAR(reused.absorption(), absorption, 1e-9);
  }
}

}  // namespace
}  // namespace gtl
