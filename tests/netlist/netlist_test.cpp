#include "netlist/netlist.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "test_helpers.hpp"

namespace gtl {
namespace {

TEST(NetlistBuilder, BuildsSimpleHypergraph) {
  NetlistBuilder nb;
  const CellId a = nb.add_cell("a");
  const CellId b = nb.add_cell("b");
  const CellId c = nb.add_cell("c");
  nb.add_net({a, b}, "n1");
  nb.add_net({a, b, c}, "n2");
  const Netlist nl = nb.build();

  EXPECT_EQ(nl.num_cells(), 3u);
  EXPECT_EQ(nl.num_nets(), 2u);
  EXPECT_EQ(nl.num_pins(), 5u);
  EXPECT_EQ(nl.net_size(0), 2u);
  EXPECT_EQ(nl.net_size(1), 3u);
  EXPECT_EQ(nl.cell_degree(a), 2u);
  EXPECT_EQ(nl.cell_degree(c), 1u);
  EXPECT_DOUBLE_EQ(nl.average_pins_per_cell(), 5.0 / 3.0);
}

TEST(NetlistBuilder, DeduplicatesPinsWithinNet) {
  NetlistBuilder nb;
  const CellId a = nb.add_cell();
  const CellId b = nb.add_cell();
  nb.add_net({a, b, a, b, a});
  const Netlist nl = nb.build();
  EXPECT_EQ(nl.net_size(0), 2u);
  EXPECT_EQ(nl.num_pins(), 2u);
}

TEST(NetlistBuilder, RejectsEmptyNet) {
  NetlistBuilder nb;
  nb.add_cell();
  EXPECT_THROW(nb.add_net(std::initializer_list<CellId>{}), std::logic_error);
}

TEST(NetlistBuilder, RejectsUnknownCell) {
  NetlistBuilder nb;
  nb.add_cell();
  EXPECT_THROW(nb.add_net({CellId{5}}), std::logic_error);
}

TEST(NetlistBuilder, RejectsNonPositiveDimensions) {
  NetlistBuilder nb;
  EXPECT_THROW(nb.add_cell("x", 0.0, 1.0), std::logic_error);
  EXPECT_THROW(nb.add_cell("x", 1.0, -2.0), std::logic_error);
}

TEST(Netlist, TransposedIncidenceIsConsistent) {
  const Netlist nl = testing::make_grid3x3();
  // Every (cell, net) incidence must appear in both directions.
  for (NetId e = 0; e < nl.num_nets(); ++e) {
    for (const CellId c : nl.pins_of(e)) {
      const auto nets = nl.nets_of(c);
      EXPECT_NE(std::find(nets.begin(), nets.end(), e), nets.end());
    }
  }
  std::size_t degree_sum = 0;
  for (CellId c = 0; c < nl.num_cells(); ++c) degree_sum += nl.cell_degree(c);
  EXPECT_EQ(degree_sum, nl.num_pins());
}

TEST(Netlist, SinglePinNetAllowed) {
  NetlistBuilder nb;
  const CellId a = nb.add_cell();
  nb.add_net({a});
  const Netlist nl = nb.build();
  EXPECT_EQ(nl.net_size(0), 1u);
  EXPECT_EQ(nl.cell_degree(a), 1u);
}

TEST(Netlist, FixedCellsTracked) {
  NetlistBuilder nb;
  nb.add_cell("pad", 1.0, 1.0, /*fixed=*/true);
  nb.add_cell("gate");
  const Netlist nl = nb.build();
  EXPECT_TRUE(nl.is_fixed(0));
  EXPECT_FALSE(nl.is_fixed(1));
  EXPECT_EQ(nl.num_movable(), 1u);
}

TEST(Netlist, NameLookup) {
  NetlistBuilder nb;
  nb.add_cell("alpha");
  nb.add_cell("beta");
  const Netlist nl = nb.build();
  EXPECT_TRUE(nl.has_names());
  EXPECT_EQ(nl.cell_name(0), "alpha");
  ASSERT_TRUE(nl.find_cell("beta").has_value());
  EXPECT_EQ(*nl.find_cell("beta"), 1u);
  EXPECT_FALSE(nl.find_cell("gamma").has_value());
}

TEST(Netlist, FindCellSkipsEmptyAndNetOnlyNames) {
  NetlistBuilder nb;
  nb.add_cell("");  // names start after an unnamed cell
  nb.add_cell("a");
  nb.add_cell("c");
  nb.add_cell("a");  // a duplicate: the lower id is found
  nb.add_net({CellId{0}, CellId{1}});
  nb.add_net({CellId{1}, CellId{2}}, "bus");
  const Netlist nl = nb.build();
  ASSERT_TRUE(nl.has_names());
  EXPECT_EQ(nl.cell_name(0), "");
  EXPECT_EQ(nl.cell_name(1), "a");
  EXPECT_EQ(nl.cell_name(3), "a");
  EXPECT_EQ(nl.net_name(0), "");
  EXPECT_EQ(nl.net_name(1), "bus");
  EXPECT_FALSE(nl.find_cell("").has_value());     // cell 0's name is ""
  EXPECT_FALSE(nl.find_cell("bus").has_value());  // only a net has it
  EXPECT_EQ(nl.find_cell("a"), std::optional<CellId>(1));
  EXPECT_EQ(nl.find_cell("c"), std::optional<CellId>(2));
  EXPECT_FALSE(nl.find_cell("b").has_value());
}

TEST(Netlist, UnnamedNetlistHasNoNames) {
  NetlistBuilder nb;
  nb.add_cell();
  const Netlist nl = nb.build();
  EXPECT_FALSE(nl.has_names());
  EXPECT_EQ(nl.cell_name(0), "");
  EXPECT_FALSE(nl.find_cell("o0").has_value());
}

TEST(Netlist, CellGeometry) {
  NetlistBuilder nb;
  nb.add_cell("w", 3.0, 2.0);
  const Netlist nl = nb.build();
  EXPECT_DOUBLE_EQ(nl.cell_width(0), 3.0);
  EXPECT_DOUBLE_EQ(nl.cell_height(0), 2.0);
  EXPECT_DOUBLE_EQ(nl.cell_area(0), 6.0);
}

TEST(NetlistBuilder, BuilderResetsAfterBuild) {
  NetlistBuilder nb;
  nb.add_cell();
  nb.add_net({CellId{0}});
  (void)nb.build();
  EXPECT_EQ(nb.num_cells(), 0u);
  EXPECT_EQ(nb.num_nets(), 0u);
}

TEST(Netlist, GridDegreesMatchStructure) {
  const Netlist nl = testing::make_grid3x3();
  EXPECT_EQ(nl.num_cells(), 9u);
  EXPECT_EQ(nl.num_nets(), 12u);
  EXPECT_EQ(nl.cell_degree(4), 4u);  // center
  EXPECT_EQ(nl.cell_degree(0), 2u);  // corner
  EXPECT_EQ(nl.cell_degree(1), 3u);  // edge
}

}  // namespace
}  // namespace gtl
