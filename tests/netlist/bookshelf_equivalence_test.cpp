// The write->read->write fixed-point property: re-writing a re-read
// design reproduces the Bookshelf files byte for byte, and the re-read
// design equals the re-re-read one field for field.  What the reader
// makes of each input is pinned by the BookshelfGolden digests in
// bookshelf_scale_test.cpp.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "graphgen/synthetic_circuit.hpp"
#include "netlist/bookshelf.hpp"

namespace gtl {
namespace {

namespace fs = std::filesystem;

class BookshelfEquivalenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("tanglefind_bookshelf_eq_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  static std::string slurp(const fs::path& p) {
    std::ifstream in(p, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
  }

  /// Exact equality of every observable field (== on doubles: a re-read
  /// must give bit-identical values, not near ones).
  static void expect_identical(const BookshelfDesign& a,
                               const BookshelfDesign& b) {
    const Netlist& na = a.netlist;
    const Netlist& nb = b.netlist;
    ASSERT_EQ(na.num_cells(), nb.num_cells());
    ASSERT_EQ(na.num_nets(), nb.num_nets());
    ASSERT_EQ(na.num_pins(), nb.num_pins());
    EXPECT_EQ(na.num_movable(), nb.num_movable());
    EXPECT_EQ(na.has_names(), nb.has_names());
    for (CellId c = 0; c < na.num_cells(); ++c) {
      EXPECT_EQ(na.cell_width(c), nb.cell_width(c)) << "cell " << c;
      EXPECT_EQ(na.cell_height(c), nb.cell_height(c)) << "cell " << c;
      EXPECT_EQ(na.is_fixed(c), nb.is_fixed(c)) << "cell " << c;
      EXPECT_EQ(na.cell_name(c), nb.cell_name(c)) << "cell " << c;
      const auto sa = na.nets_of(c);
      const auto sb = nb.nets_of(c);
      ASSERT_EQ(sa.size(), sb.size()) << "cell " << c;
      for (std::size_t i = 0; i < sa.size(); ++i) {
        EXPECT_EQ(sa[i], sb[i]) << "cell " << c << " net slot " << i;
      }
    }
    for (NetId e = 0; e < na.num_nets(); ++e) {
      EXPECT_EQ(na.net_name(e), nb.net_name(e)) << "net " << e;
      const auto pa = na.pins_of(e);
      const auto pb = nb.pins_of(e);
      ASSERT_EQ(pa.size(), pb.size()) << "net " << e;
      for (std::size_t i = 0; i < pa.size(); ++i) {
        EXPECT_EQ(pa[i], pb[i]) << "net " << e << " pin slot " << i;
      }
    }
    ASSERT_EQ(a.x.size(), b.x.size());
    for (std::size_t i = 0; i < a.x.size(); ++i) {
      EXPECT_EQ(a.x[i], b.x[i]) << "x[" << i << "]";
      EXPECT_EQ(a.y[i], b.y[i]) << "y[" << i << "]";
    }
  }

  fs::path dir_;
};

TEST_F(BookshelfEquivalenceTest, WriteReadWriteIsAFixedPoint) {
  SyntheticCircuitConfig cfg;
  cfg.num_cells = 600;
  cfg.num_pads = 24;
  cfg.with_names = true;
  StructureSpec s;
  s.size = 60;
  cfg.structures.push_back(s);
  Rng rng(7);
  SyntheticCircuit circuit = generate_synthetic_circuit(cfg, rng);
  BookshelfDesign d;
  d.netlist = std::move(circuit.netlist);
  d.x = std::move(circuit.hint_x);
  d.y = std::move(circuit.hint_y);

  write_bookshelf(d, dir_, "fp1");
  const BookshelfDesign back = read_bookshelf(dir_ / "fp1.aux");
  EXPECT_TRUE(back.warnings.empty());
  write_bookshelf(back, dir_, "fp2");
  for (const char* ext : {".nodes", ".nets", ".pl"}) {
    const std::string a = slurp(dir_ / ("fp1" + std::string(ext)));
    const std::string b = slurp(dir_ / ("fp2" + std::string(ext)));
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(a, b) << "write->read->write changed " << ext;
  }
  // And the re-read design equals the re-re-read one field for field
  // (names, widths, fixed flags, placement).
  const BookshelfDesign back2 = read_bookshelf(dir_ / "fp2.aux");
  expect_identical(back, back2);
}

TEST_F(BookshelfEquivalenceTest, UnnamedDesignRoundTripsThroughGeneratedNames) {
  // Cells without names are written as "o<id>"; a re-read + re-write
  // must still be a fixed point.
  BookshelfDesign d;
  NetlistBuilder nb;
  for (int i = 0; i < 5; ++i) nb.add_cell();
  nb.add_net({CellId{0}, CellId{1}, CellId{2}});
  nb.add_net({CellId{3}, CellId{4}});
  d.netlist = nb.build();
  write_bookshelf(d, dir_, "anon1");
  const BookshelfDesign back = read_bookshelf(dir_ / "anon1.aux");
  write_bookshelf(back, dir_, "anon2");
  for (const char* ext : {".nodes", ".nets"}) {
    EXPECT_EQ(slurp(dir_ / ("anon1" + std::string(ext))),
              slurp(dir_ / ("anon2" + std::string(ext))));
  }
}

}  // namespace
}  // namespace gtl
