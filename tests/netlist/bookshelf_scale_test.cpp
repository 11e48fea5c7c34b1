// The Bookshelf reader at scale and against recorded digests.
//
//   * BookshelfGolden: FNV-1a digests of what the reader makes of a set of
//     generated designs and of a quirky but valid dialect (CSR, net
//     sizes, names, dimensions, fixed flags, placement), recorded while
//     an embedded copy of the seed parser still checked the reader.  They
//     hold the parse to the same bytes without an embedded reference.
//   * BookshelfScaleTest: a generated design of 120k nodes exercises the
//     node-name index and the chunked scanner: long names, names that
//     differ only in their last byte, a missing and an understated
//     NumNodes line, a duplicate node and an unknown pin near the end of
//     their files (each reported at its exact file:line), a .nodes and a
//     .nets line longer than the scanner's chunk, and a .nets file with
//     no trailing newline.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "graphgen/synthetic_circuit.hpp"
#include "netlist/bookshelf.hpp"
#include "util/rng.hpp"

namespace gtl {
namespace {

namespace fs = std::filesystem;

fs::path test_dir(const char* kind) {
  return fs::temp_directory_path() /
         (std::string("tanglefind_") + kind + "_" +
          std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
          "_" +
          ::testing::UnitTest::GetInstance()->current_test_info()->name());
}

void write_text(const fs::path& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  out << content;
}

/// FNV-1a 64 over every field a parse yields.
std::uint64_t design_digest(const BookshelfDesign& d) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 1099511628211ull;
    }
  };
  auto u64 = [&mix](std::uint64_t v) { mix(&v, sizeof(v)); };
  auto f64 = [&mix](double v) { mix(&v, sizeof(v)); };
  auto str = [&](std::string_view s) {
    u64(s.size());
    mix(s.data(), s.size());
  };
  const Netlist& nl = d.netlist;
  u64(nl.num_cells());
  u64(nl.num_nets());
  u64(nl.num_pins());
  for (NetId e = 0; e < nl.num_nets(); ++e) {
    u64(nl.net_size(e));
    for (const CellId c : nl.pins_of(e)) u64(c);
    str(nl.net_name(e));
  }
  for (CellId c = 0; c < nl.num_cells(); ++c) {
    str(nl.cell_name(c));
    f64(nl.cell_width(c));
    f64(nl.cell_height(c));
    u64(nl.is_fixed(c) ? 1 : 0);
  }
  u64(d.x.size());
  for (std::size_t i = 0; i < d.x.size(); ++i) {
    f64(d.x[i]);
    f64(d.y[i]);
  }
  return h;
}

class BookshelfGolden : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = test_dir("golden");
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::uint64_t parse_digest(const std::string& stem) const {
    fs::path pl = dir_ / (stem + ".pl");
    if (!fs::exists(pl)) pl.clear();
    return design_digest(read_bookshelf_files(
        dir_ / (stem + ".nodes"), dir_ / (stem + ".nets"), pl));
  }

  fs::path dir_;
};

TEST_F(BookshelfGolden, EquivalenceDesignsMatchRecordedDigests) {
  // Three generated shapes: plain, terminal-heavy with placement,
  // structure-rich.
  const std::uint64_t kGenerated[3] = {
      0xf17b93214d62d699ull, 0x477eb1cfbe8b1ae7ull, 0x710c1ad2779c275bull};
  for (int variant = 0; variant < 3; ++variant) {
    SyntheticCircuitConfig cfg;
    cfg.num_cells = 400 + 300 * variant;
    cfg.num_pads = variant == 1 ? 64 : 8;
    cfg.with_names = true;
    if (variant == 2) {
      StructureSpec s;
      s.size = 80;
      cfg.structures.push_back(s);
    }
    Rng rng(100 + variant);
    SyntheticCircuit circuit = generate_synthetic_circuit(cfg, rng);
    BookshelfDesign d;
    d.netlist = std::move(circuit.netlist);
    if (variant != 0) {
      d.x = std::move(circuit.hint_x);
      d.y = std::move(circuit.hint_y);
    }
    const std::string stem = "gen" + std::to_string(variant);
    write_bookshelf(d, dir_, stem);
    EXPECT_EQ(parse_digest(stem), kGenerated[variant])
        << "variant " << variant << std::hex << " digest 0x"
        << parse_digest(stem);
  }

  // Every oddity the seed tokenizer accepted: comments (full-line, and
  // token-starting mid-line), '#' inside a token, tabs and runs of
  // blanks, CRLF endings, UCLA headers mid-file, count lines without
  // ':', pin direction + offset fields, .pl orientation rows, .pl rows
  // for unknown nodes, zero-width nodes (clamped), no trailing newline.
  write_text(dir_ / "q.nodes",
             "UCLA nodes 1.0\r\n"
             "# full comment\r\n"
             "NumNodes +4\n"
             "NumTerminals : 1\n"
             "  a#1   +2.5\t3e-2\n"
             "\tb 0 1 # zero width clamps\n"
             "c -1 4.25\n"
             "UCLA is skipped anywhere\n"
             "p0 1 1 terminal");
  write_text(dir_ / "q.nets",
             "UCLA nets 1.0\n"
             "NumNets : 2\n"
             "NumPins 6\n"
             "NetDegree : 3 n#odd\n"
             " a#1 I : 0.5 -0.25\n"
             " b O\n"
             " p0 B\n"
             "# comment between nets\n"
             "NetDegree : 3\n"
             " c I\n"
             " a#1 # bare pin; '#' starts a token so the rest comments out\n"
             " a#1 O\n");
  write_text(dir_ / "q.pl",
             "UCLA pl 1.0\n"
             "a#1 +10.5 -20.25 : N\n"
             "b 1e3 +0.125 : FS\n"
             "c 3 4\n"
             "unknownrow 7 7 : N\n"
             "p0 0 0 : N /FIXED");
  EXPECT_EQ(parse_digest("q"), 0x1146044afa3cec53ull)
      << std::hex << "q digest 0x" << parse_digest("q");

  // WriteReadWriteIsAFixedPoint's design, read through its .aux.
  {
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
    const std::uint64_t h = design_digest(read_bookshelf(dir_ / "fp1.aux"));
    EXPECT_EQ(h, 0xe5b98ca6b80c955eull) << std::hex << "fp1 digest 0x" << h;
  }

  // UnnamedDesignRoundTripsThroughGeneratedNames' design, read through
  // the names o<c> the writer gives unnamed cells.
  {
    BookshelfDesign d;
    NetlistBuilder nb;
    for (int i = 0; i < 5; ++i) nb.add_cell();
    nb.add_net({CellId{0}, CellId{1}, CellId{2}});
    nb.add_net({CellId{3}, CellId{4}});
    d.netlist = nb.build();
    write_bookshelf(d, dir_, "anon1");
    const std::uint64_t h = design_digest(read_bookshelf(dir_ / "anon1.aux"));
    EXPECT_EQ(h, 0x0666b2c540f23929ull) << std::hex << "anon1 digest 0x" << h;
  }
}

// ---------------------------------------------------------------------------

constexpr std::size_t kNodes = 120'000;
constexpr std::size_t kNets = 90'000;

/// Node i's name: a 48-byte stem shared by each run of 62 nodes, then one
/// byte, so neighbours differ only in their last byte and every name is
/// longer than any short key a table could keep inline.
std::string node_name(std::size_t i) {
  static constexpr char kAlphabet[] =
      "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ";
  std::string name = "top/core/datapath/alu_block/mult_array/pp_row";
  name += std::to_string(100000 + i / 62);
  name += '/';
  name += kAlphabet[i % 62];
  return name;
}

/// The generated design as text, and the netlist it must parse to.
struct ScaleDesign {
  std::vector<std::string> node_lines;  // after the header lines
  std::vector<std::string> net_lines;   // after the header lines
  std::vector<std::vector<CellId>> nets;
  std::size_t num_pins = 0;
};

const ScaleDesign& scale_design() {
  static const ScaleDesign d = [] {
    ScaleDesign s;
    s.node_lines.reserve(kNodes);
    for (std::size_t i = 0; i < kNodes; ++i) {
      std::string line = node_name(i);
      line += i % 97 == 0 ? " 1 1 terminal" : " 2 1";
      s.node_lines.push_back(std::move(line));
    }
    Rng rng(424242);
    for (std::size_t e = 0; e < kNets; ++e) {
      const std::size_t degree = 2 + rng.next_below(4);
      std::vector<CellId> pins;
      std::string head("NetDegree : ");
      head += std::to_string(degree);
      if (e % 3 == 0) {
        head += " n";
        head += std::to_string(e);
      }
      s.net_lines.push_back(std::move(head));
      for (std::size_t k = 0; k < degree; ++k) {
        // Consecutive cells share all but the last name byte.
        const auto c = static_cast<CellId>(
            k == 0 ? rng.next_below(kNodes) : (pins[0] + k) % kNodes);
        pins.push_back(c);
        std::string pin("\t");
        pin += node_name(c);
        pin += " B";
        s.net_lines.push_back(std::move(pin));
      }
      s.num_pins += degree;
      s.nets.push_back(std::move(pins));
    }
    return s;
  }();
  return d;
}

class BookshelfScaleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = test_dir("scale");
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// Write <stem>.nodes: `num_nodes_line` (empty: none) after the format
  /// header, then the generated node lines (line k + 1 + header lines is
  /// node k), then `extra` as the last line.
  fs::path write_nodes(const std::string& stem,
                       const std::string& num_nodes_line,
                       const std::string& extra = {}) const {
    std::string text = "UCLA nodes 1.0\n";
    if (!num_nodes_line.empty()) text += num_nodes_line + "\n";
    for (const std::string& line : scale_design().node_lines) {
      text += line;
      text += '\n';
    }
    text += extra;
    const fs::path path = dir_ / (stem + ".nodes");
    write_text(path, text);
    return path;
  }

  /// Write <stem>.nets with the generated nets, `extra` appended verbatim
  /// and counted in NumNets/NumPins as `extra_nets` nets of `extra_pins`.
  fs::path write_nets(const std::string& stem, const std::string& extra = {},
                      std::size_t extra_nets = 0,
                      std::size_t extra_pins = 0) const {
    const ScaleDesign& d = scale_design();
    std::string text = "UCLA nets 1.0\nNumNets : " +
                       std::to_string(d.nets.size() + extra_nets) +
                       "\nNumPins : " +
                       std::to_string(d.num_pins + extra_pins) + "\n";
    for (const std::string& line : d.net_lines) {
      text += line;
      text += '\n';
    }
    text += extra;
    const fs::path path = dir_ / (stem + ".nets");
    write_text(path, text);
    return path;
  }

  /// The parse must be the generated design, field for field.
  static void expect_scale_design(const BookshelfDesign& got) {
    const ScaleDesign& d = scale_design();
    const Netlist& nl = got.netlist;
    ASSERT_EQ(nl.num_cells(), kNodes);
    ASSERT_EQ(nl.num_nets(), d.nets.size());
    for (CellId c = 0; c < kNodes; ++c) {
      ASSERT_EQ(nl.cell_name(c), node_name(c)) << "cell " << c;
      ASSERT_EQ(nl.is_fixed(c), c % 97 == 0) << "cell " << c;
    }
    for (NetId e = 0; e < d.nets.size(); ++e) {
      std::vector<CellId> want = d.nets[e];
      std::sort(want.begin(), want.end());
      want.erase(std::unique(want.begin(), want.end()), want.end());
      const auto pins = nl.pins_of(e);
      ASSERT_EQ(std::vector<CellId>(pins.begin(), pins.end()), want)
          << "net " << e;
      ASSERT_EQ(nl.net_name(e),
                e % 3 == 0 ? "n" + std::to_string(e) : std::string())
          << "net " << e;
    }
  }

  Status parse(const fs::path& nodes, const fs::path& nets,
               BookshelfDesign* out) const {
    return try_read_bookshelf_files(nodes, nets, {}, out);
  }

  static void expect_error_at(const Status& st, const fs::path& file,
                              std::size_t line, const std::string& what) {
    ASSERT_FALSE(st.is_ok());
    EXPECT_EQ(st.code(), StatusCode::kParseError);
    EXPECT_EQ(st.message(), "bookshelf: " + file.string() + ":" +
                                std::to_string(line) + ": " + what);
  }

  fs::path dir_;
};

TEST_F(BookshelfScaleTest, DeclaredCountParsesToTheGeneratedDesign) {
  BookshelfDesign got;
  ASSERT_TRUE(parse(write_nodes("d", "NumNodes : " + std::to_string(kNodes)),
                    write_nets("d"), &got)
                  .is_ok());
  expect_scale_design(got);
}

TEST_F(BookshelfScaleTest, MissingNumNodesGrowsTheIndex) {
  BookshelfDesign got;
  ASSERT_TRUE(parse(write_nodes("d", ""), write_nets("d"), &got).is_ok());
  expect_scale_design(got);
}

TEST_F(BookshelfScaleTest, UnderstatedNumNodesGrowsThenReportsTheCount) {
  // Every node must still be indexed (a duplicate past the declared count
  // would otherwise slip through) before the count check fires.
  const fs::path nodes =
      write_nodes("d", "NumNodes : 1000", node_name(kNodes - 3) + " 1 1\n");
  BookshelfDesign got;
  expect_error_at(parse(nodes, write_nets("d"), &got), nodes, kNodes + 3,
                  "duplicate node name '" + node_name(kNodes - 3) + "'");
  const fs::path fine = write_nodes("e", "NumNodes : 1000");
  expect_error_at(parse(fine, write_nets("e"), &got), fine, 2,
                  "NumNodes declares 1000 nodes but the file defines " +
                      std::to_string(kNodes));
}

TEST_F(BookshelfScaleTest, DuplicateNodeNearTheEndReportedAtItsLine) {
  // Same stem as node kNodes - 1, last byte of node kNodes - 2.
  const fs::path nodes =
      write_nodes("d", "NumNodes : " + std::to_string(kNodes + 1),
                  node_name(kNodes - 2) + " 3 1\n");
  BookshelfDesign got;
  // Header (1) + NumNodes (1) + kNodes node lines, then the duplicate.
  expect_error_at(parse(nodes, write_nets("d"), &got), nodes, kNodes + 3,
                  "duplicate node name '" + node_name(kNodes - 2) + "'");
}

TEST_F(BookshelfScaleTest, UnknownPinNearTheEndReportedAtItsLine) {
  const ScaleDesign& d = scale_design();
  // A name one byte past the last generated node's: same stem, a last
  // byte no node of that stem has.
  std::string unknown = node_name(kNodes - 1);
  unknown.back() = '~';
  const fs::path nodes =
      write_nodes("d", "NumNodes : " + std::to_string(kNodes));
  const fs::path nets =
      write_nets("d", "NetDegree : 2\n\t" + node_name(0) + " B\n\t" +
                          unknown + " B\n");
  BookshelfDesign got;
  // Header (3) + the generated lines + NetDegree + first pin, then it.
  expect_error_at(parse(nodes, nets, &got), nets, 3 + d.net_lines.size() + 3,
                  "pin references unknown node '" + unknown + "'");
}

TEST_F(BookshelfScaleTest, NetsLineLongerThanTheChunkParses) {
  // A net name and a comment each far longer than any read chunk.
  const std::string long_name(300'000, 'w');
  const std::string comment = "# " + std::string(200'000, 'c') + "\n";
  const fs::path nodes =
      write_nodes("d", "NumNodes : " + std::to_string(kNodes));
  const ScaleDesign& d = scale_design();
  std::string text = "UCLA nets 1.0\n" + comment + "NumNets : " +
                     std::to_string(d.nets.size() + 1) + "\nNumPins : " +
                     std::to_string(d.num_pins + 2) + "\n";
  for (const std::string& line : d.net_lines) {
    text += line;
    text += '\n';
  }
  text += "NetDegree : 2 " + long_name + "\n\t" + node_name(5) + " B\n\t" +
          node_name(6) + " B\n";
  const fs::path nets = dir_ / "d.nets";
  write_text(nets, text);
  BookshelfDesign got;
  ASSERT_TRUE(parse(nodes, nets, &got).is_ok());
  ASSERT_EQ(got.netlist.num_nets(), d.nets.size() + 1);
  EXPECT_EQ(got.netlist.net_name(static_cast<NetId>(d.nets.size())),
            long_name);
  const auto last = got.netlist.pins_of(static_cast<NetId>(d.nets.size()));
  EXPECT_EQ(std::vector<CellId>(last.begin(), last.end()),
            (std::vector<CellId>{5, 6}));

  // The same long line as a malformed NetDegree still names its line.
  write_text(nets, "UCLA nets 1.0\n" + comment + "NetDegree : 2 " +
                       long_name + " extra\n");
  expect_error_at(parse(nodes, nets, &got), nets, 3,
                  "malformed NetDegree (expected 'NetDegree : <d> [name]')");
}

TEST_F(BookshelfScaleTest, NodesLineLongerThanTheChunkParses) {
  // One more node whose name is far longer than any read chunk; a pin
  // finds it through the name the builder holds.
  const std::string long_name(300'000, 'v');
  const fs::path nodes =
      write_nodes("d", "NumNodes : " + std::to_string(kNodes + 1),
                  long_name + " 1 1\n");
  const fs::path nets = write_nets(
      "d", "NetDegree : 2\n\t" + long_name + " B\n\t" + node_name(0) + " B\n",
      1, 2);
  const ScaleDesign& d = scale_design();
  BookshelfDesign got;
  ASSERT_TRUE(parse(nodes, nets, &got).is_ok());
  ASSERT_EQ(got.netlist.num_cells(), kNodes + 1);
  EXPECT_EQ(got.netlist.cell_name(static_cast<CellId>(kNodes)), long_name);
  const auto last = got.netlist.pins_of(static_cast<NetId>(d.nets.size()));
  EXPECT_EQ(std::vector<CellId>(last.begin(), last.end()),
            (std::vector<CellId>{0, static_cast<CellId>(kNodes)}));
}

TEST_F(BookshelfScaleTest, NetsWithoutTrailingNewlineParses) {
  const fs::path nodes =
      write_nodes("d", "NumNodes : " + std::to_string(kNodes));
  fs::path nets = write_nets("d");
  {
    // Drop the final '\n': the last pin line ends the file.
    const auto size = fs::file_size(nets);
    fs::resize_file(nets, size - 1);
  }
  BookshelfDesign got;
  ASSERT_TRUE(parse(nodes, nets, &got).is_ok());
  expect_scale_design(got);

  // A net cut short by the missing tail is still reported at its line.
  const ScaleDesign& d = scale_design();
  nets = write_nets("e", "NetDegree : 3 tail\n\t" + node_name(1) + " B\n\t" +
                             node_name(2) + " B");
  expect_error_at(parse(nodes, nets, &got), nets, 3 + d.net_lines.size() + 1,
                  "net 'tail': NetDegree declares 3 pins but 2 follow");
}

}  // namespace
}  // namespace gtl
