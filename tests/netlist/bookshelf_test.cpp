#include "netlist/bookshelf.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>

#include "graphgen/synthetic_circuit.hpp"

namespace gtl {
namespace {

namespace fs = std::filesystem;

class BookshelfTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("tanglefind_bookshelf_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  void write_file(const std::string& name, const std::string& content) {
    std::ofstream out(dir_ / name);
    out << content;
  }

  fs::path dir_;
};

TEST_F(BookshelfTest, ReadsHandWrittenDesign) {
  write_file("tiny.aux",
             "RowBasedPlacement : tiny.nodes tiny.nets tiny.pl\n");
  write_file("tiny.nodes",
             "UCLA nodes 1.0\n"
             "# comment line\n"
             "NumNodes : 3\n"
             "NumTerminals : 1\n"
             "a 2 1\n"
             "b 1 1\n"
             "p0 1 1 terminal\n");
  write_file("tiny.nets",
             "UCLA nets 1.0\n"
             "NumNets : 2\n"
             "NumPins : 5\n"
             "NetDegree : 3 n0\n"
             "\ta I\n"
             "\tb O\n"
             "\tp0 I\n"
             "NetDegree : 2\n"
             "\ta I\n"
             "\tb O\n");
  write_file("tiny.pl",
             "UCLA pl 1.0\n"
             "a 10 20 : N\n"
             "b 30 40 : N\n"
             "p0 0 0 : N /FIXED\n");

  const BookshelfDesign d = read_bookshelf(dir_ / "tiny.aux");
  EXPECT_EQ(d.netlist.num_cells(), 3u);
  EXPECT_EQ(d.netlist.num_nets(), 2u);
  EXPECT_EQ(d.netlist.num_pins(), 5u);
  ASSERT_TRUE(d.netlist.find_cell("a").has_value());
  const CellId a = *d.netlist.find_cell("a");
  EXPECT_DOUBLE_EQ(d.netlist.cell_width(a), 2.0);
  EXPECT_TRUE(d.netlist.is_fixed(*d.netlist.find_cell("p0")));
  EXPECT_FALSE(d.netlist.is_fixed(a));
  ASSERT_EQ(d.x.size(), 3u);
  EXPECT_DOUBLE_EQ(d.x[a], 10.0);
  EXPECT_DOUBLE_EQ(d.y[a], 20.0);
}

TEST_F(BookshelfTest, MissingFileThrows) {
  EXPECT_THROW(read_bookshelf(dir_ / "nope.aux"), std::runtime_error);
}

TEST_F(BookshelfTest, WrongNodeCountThrows) {
  write_file("bad.nodes",
             "NumNodes : 5\n"
             "a 1 1\n");
  write_file("bad.nets", "NumNets : 0\nNumPins : 0\n");
  EXPECT_THROW(
      read_bookshelf_files(dir_ / "bad.nodes", dir_ / "bad.nets"),
      std::runtime_error);
}

TEST_F(BookshelfTest, UnknownPinCellThrows) {
  write_file("bad.nodes", "NumNodes : 1\nNumTerminals : 0\na 1 1\n");
  write_file("bad.nets",
             "NumNets : 1\nNumPins : 1\nNetDegree : 1\n\tzz I\n");
  EXPECT_THROW(
      read_bookshelf_files(dir_ / "bad.nodes", dir_ / "bad.nets"),
      std::runtime_error);
}

TEST_F(BookshelfTest, RoundTripPreservesStructure) {
  SyntheticCircuitConfig cfg;
  cfg.num_cells = 500;
  cfg.num_pads = 8;
  cfg.with_names = true;
  StructureSpec s;
  s.size = 60;
  cfg.structures.push_back(s);
  Rng rng(42);
  const SyntheticCircuit circuit = generate_synthetic_circuit(cfg, rng);

  BookshelfDesign out;
  // Netlist has no copy issues: move a fresh generation in.
  out.x = circuit.hint_x;
  out.y = circuit.hint_y;
  {
    Rng rng2(42);
    out.netlist = generate_synthetic_circuit(cfg, rng2).netlist;
  }
  write_bookshelf(out, dir_, "rt");

  const BookshelfDesign back = read_bookshelf(dir_ / "rt.aux");
  EXPECT_EQ(back.netlist.num_cells(), circuit.netlist.num_cells());
  EXPECT_EQ(back.netlist.num_nets(), circuit.netlist.num_nets());
  EXPECT_EQ(back.netlist.num_pins(), circuit.netlist.num_pins());
  EXPECT_EQ(back.netlist.num_movable(), circuit.netlist.num_movable());
  ASSERT_EQ(back.x.size(), circuit.hint_x.size());
  for (std::size_t i = 0; i < back.x.size(); i += 37) {
    EXPECT_NEAR(back.x[i], circuit.hint_x[i], 1e-9);
    EXPECT_NEAR(back.y[i], circuit.hint_y[i], 1e-9);
  }
  // Per-net pin multisets must survive the round trip.
  for (NetId e = 0; e < back.netlist.num_nets(); e += 11) {
    EXPECT_EQ(back.netlist.net_size(e), circuit.netlist.net_size(e));
  }
}

TEST_F(BookshelfTest, WriteWithoutPlacementOmitsPl) {
  BookshelfDesign d;
  NetlistBuilder nb;
  nb.add_cell("a");
  nb.add_cell("b");
  nb.add_net({CellId{0}, CellId{1}});
  d.netlist = nb.build();
  write_bookshelf(d, dir_, "nopl");
  EXPECT_TRUE(fs::exists(dir_ / "nopl.nodes"));
  EXPECT_TRUE(fs::exists(dir_ / "nopl.nets"));
  EXPECT_FALSE(fs::exists(dir_ / "nopl.pl"));
  const BookshelfDesign back = read_bookshelf(dir_ / "nopl.aux");
  EXPECT_EQ(back.netlist.num_cells(), 2u);
  EXPECT_TRUE(back.x.empty());
}

TEST_F(BookshelfTest, UnnamedCellsGetStableGeneratedNames) {
  BookshelfDesign d;
  NetlistBuilder nb;
  nb.add_cell();
  nb.add_cell();
  nb.add_net({CellId{0}, CellId{1}});
  d.netlist = nb.build();
  write_bookshelf(d, dir_, "anon");
  const BookshelfDesign back = read_bookshelf(dir_ / "anon.aux");
  EXPECT_EQ(back.netlist.num_cells(), 2u);
  EXPECT_TRUE(back.netlist.find_cell("o0").has_value());
  EXPECT_TRUE(back.netlist.find_cell("o1").has_value());
}

TEST_F(BookshelfTest, PartiallyNamedDesignRoundTrips) {
  // Cell 1 is unnamed, and a named cell owns its generated name o1: it is
  // written under the first free o1_<k> (o1_1 is taken too), not as a
  // second o1 that the reader would reject as a duplicate.
  BookshelfDesign d;
  NetlistBuilder nb;
  nb.add_cell("o1");
  nb.add_cell("");
  nb.add_cell("c2", 2.0, 1.0, /*fixed=*/true);
  nb.add_cell("o1_1");
  nb.add_net({CellId{0}, CellId{1}, CellId{2}}, "n0");
  nb.add_net({CellId{1}, CellId{3}});
  d.netlist = nb.build();
  d.x = {1.0, 2.0, 3.0, 4.0};
  d.y = {5.0, 6.0, 7.0, 8.0};
  write_bookshelf(d, dir_, "part");

  BookshelfDesign back;
  const Status st = try_read_bookshelf(dir_ / "part.aux", &back);
  ASSERT_TRUE(st.is_ok()) << st.message();
  const Netlist& nl = back.netlist;
  ASSERT_EQ(nl.num_cells(), 4u);
  EXPECT_EQ(nl.cell_name(0), "o1");
  EXPECT_EQ(nl.cell_name(1), "o1_2");
  EXPECT_EQ(nl.cell_name(2), "c2");
  EXPECT_EQ(nl.cell_name(3), "o1_1");
  EXPECT_TRUE(nl.is_fixed(2));
  EXPECT_DOUBLE_EQ(nl.cell_width(2), 2.0);
  ASSERT_EQ(nl.num_nets(), 2u);
  EXPECT_EQ(nl.net_name(0), "n0");
  EXPECT_EQ(nl.net_name(1), "");
  for (NetId e = 0; e < nl.num_nets(); ++e) {
    const auto want = d.netlist.pins_of(e);
    const auto got = nl.pins_of(e);
    EXPECT_TRUE(std::equal(want.begin(), want.end(), got.begin(), got.end()))
        << "net " << e;
  }
  EXPECT_EQ(back.x, d.x);
  EXPECT_EQ(back.y, d.y);
}

}  // namespace
}  // namespace gtl
