// Binary netlist snapshots: exact round trips and the corruption
// rejection table (bad magic, foreign endianness, unknown version/flags,
// truncation at every interesting boundary, inconsistent CSR, checksum
// mismatch).  A snapshot that loads at all must be a bit-exact copy of
// the design that was written — placement and names included.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>

#include "graphgen/synthetic_circuit.hpp"
#include "netlist/netlist_io.hpp"
#include "netlist/snapshot_seal.hpp"

namespace gtl {
namespace {

namespace fs = std::filesystem;

class NetlistIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("tanglefind_snapshot_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  static std::string slurp(const fs::path& p) {
    std::ifstream in(p, std::ios::binary);
    std::string s((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
    return s;
  }
  void spit(const fs::path& p, const std::string& bytes) {
    std::ofstream out(p, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  static BookshelfDesign make_design(bool names, bool placement) {
    SyntheticCircuitConfig cfg;
    cfg.num_cells = 500;
    cfg.num_pads = 16;
    cfg.with_names = names;
    StructureSpec s;
    s.size = 50;
    cfg.structures.push_back(s);
    Rng rng(11);
    SyntheticCircuit circuit = generate_synthetic_circuit(cfg, rng);
    BookshelfDesign d;
    d.netlist = std::move(circuit.netlist);
    if (placement) {
      d.x = std::move(circuit.hint_x);
      d.y = std::move(circuit.hint_y);
    }
    return d;
  }

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
      ASSERT_EQ(na.cell_width(c), nb.cell_width(c));
      ASSERT_EQ(na.cell_height(c), nb.cell_height(c));
      ASSERT_EQ(na.is_fixed(c), nb.is_fixed(c));
      ASSERT_EQ(na.cell_name(c), nb.cell_name(c));
      ASSERT_EQ(na.cell_degree(c), nb.cell_degree(c));
    }
    for (NetId e = 0; e < na.num_nets(); ++e) {
      ASSERT_EQ(na.net_name(e), nb.net_name(e));
      const auto pa = na.pins_of(e);
      const auto pb = nb.pins_of(e);
      ASSERT_EQ(pa.size(), pb.size());
      for (std::size_t i = 0; i < pa.size(); ++i) ASSERT_EQ(pa[i], pb[i]);
    }
    ASSERT_EQ(a.x.size(), b.x.size());
    for (std::size_t i = 0; i < a.x.size(); ++i) {
      ASSERT_EQ(a.x[i], b.x[i]);
      ASSERT_EQ(a.y[i], b.y[i]);
    }
  }

  /// Write a valid snapshot, apply `mutate` to its bytes, and expect the
  /// mutant to be rejected with `needle` in the diagnostic.
  void expect_mutant_rejected(
      const std::function<void(std::string*)>& mutate,
      const std::string& needle) {
    const fs::path p = dir_ / "mutant.snap";
    write_snapshot(make_design(true, true), p);
    std::string bytes = slurp(p);
    mutate(&bytes);
    spit(p, bytes);
    BookshelfDesign out;
    const Status st = try_read_snapshot(p, &out);
    ASSERT_FALSE(st.is_ok()) << "corrupted snapshot accepted";
    EXPECT_NE(st.message().find(needle), std::string::npos)
        << "diagnostic '" << st.message() << "' lacks '" << needle << "'";
  }

  fs::path dir_;
};

TEST_F(NetlistIoTest, RoundTripNamedWithPlacement) {
  const BookshelfDesign d = make_design(true, true);
  write_snapshot(d, dir_ / "a.snap");
  expect_identical(d, read_snapshot(dir_ / "a.snap"));
}

TEST_F(NetlistIoTest, RoundTripAnonymousNoPlacement) {
  const BookshelfDesign d = make_design(false, false);
  write_snapshot(d, dir_ / "b.snap");
  const BookshelfDesign back = read_snapshot(dir_ / "b.snap");
  EXPECT_FALSE(back.netlist.has_names());
  EXPECT_TRUE(back.x.empty());
  expect_identical(d, back);
}

TEST_F(NetlistIoTest, RoundTripTinyHandBuiltNetlist) {
  BookshelfDesign d;
  NetlistBuilder nb;
  nb.add_cell("alpha", 2.0, 3.0, true);
  nb.add_cell("", 1.0, 1.0, false);  // empty name among named cells
  nb.add_cell("gamma");
  nb.add_net({CellId{0}, CellId{2}}, "bus");
  nb.add_net({CellId{0}, CellId{1}, CellId{2}});
  d.netlist = nb.build();
  write_snapshot(d, dir_ / "tiny.snap");
  const BookshelfDesign back = read_snapshot(dir_ / "tiny.snap");
  expect_identical(d, back);
  EXPECT_EQ(back.netlist.find_cell("alpha"), std::optional<CellId>(0));
  EXPECT_EQ(back.netlist.net_name(0), "bus");
}

TEST_F(NetlistIoTest, SnapshotBytesMatchRecordedDigest) {
  // A fixed design that fills every section of the format: cell names
  // (one of them empty), net names (one empty), a fixed cell and a
  // placement.  kV1 is the file format v1 wrote for it (303 bytes,
  // FNV-1a 0xbb95b271a04db38e, recorded when each name was still its own
  // std::string): v1 caches must keep loading to the same design, and v2
  // must write the same bytes apart from the version word and the seal.
  static constexpr unsigned char kV1[] = {
      0x47, 0x54, 0x4c, 0x53, 0x4e, 0x41, 0x50, 0x00, 0x04, 0x03, 0x02, 0x01,
      0x01, 0x00, 0x00, 0x00, 0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x08, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x0f, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x08, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00,
      0x05, 0x00, 0x00, 0x00, 0x08, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x01, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,
      0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00,
      0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x40,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf0, 0x3f, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x0c, 0x40, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf0, 0x3f,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf0, 0x3f, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0xf0, 0x3f, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf0, 0x3f,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x40, 0x01, 0x00, 0x00, 0x00,
      0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x0b, 0x00, 0x00, 0x00,
      0x01, 0x00, 0x00, 0x00, 0x69, 0x6e, 0x30, 0x75, 0x5f, 0x61, 0x6c, 0x75,
      0x2f, 0x61, 0x64, 0x64, 0x5f, 0x37, 0x7a, 0x05, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x6e, 0x5f, 0x62, 0x75, 0x73,
      0x63, 0x6c, 0x6b, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x25, 0x40, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x0a, 0xc0, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x1c, 0x40, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0xf0, 0x3f, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x40, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x08, 0x40, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x12, 0x40, 0x51, 0x39, 0x3c, 0x1a, 0x6e,
      0x06, 0x51, 0x4e};
  const std::string v1(reinterpret_cast<const char*>(kV1), sizeof(kV1));
  ASSERT_EQ(v1.size(), 303u);
  ASSERT_EQ(gtl::testing::fnv1a_seal(v1), 0xbb95b271a04db38eull);

  BookshelfDesign d;
  NetlistBuilder nb;
  nb.add_cell("in0", 2.0, 1.0, /*fixed=*/true);
  nb.add_cell("", 1.0, 1.0);
  nb.add_cell("u_alu/add_7", 3.5, 1.0);
  nb.add_cell("z", 1.0, 2.0);
  nb.add_net({CellId{0}, CellId{1}, CellId{2}}, "n_bus");
  nb.add_net({CellId{1}, CellId{3}});
  nb.add_net({CellId{2}, CellId{3}, CellId{0}}, "clk");
  d.netlist = nb.build();
  d.x = {0.0, 10.5, -3.25, 7.0};
  d.y = {1.0, 2.0, 3.0, 4.5};

  spit(dir_ / "v1.snap", v1);
  expect_identical(d, read_snapshot(dir_ / "v1.snap"));

  write_snapshot(d, dir_ / "golden.snap");
  const std::string v2 = slurp(dir_ / "golden.snap");
  ASSERT_EQ(v2.size(), v1.size());
  for (std::size_t i = 0; i < v2.size(); ++i) {
    if (i == 12) {
      EXPECT_EQ(v2[i], 2) << "the version word";
    } else if (i < v2.size() - 8) {
      EXPECT_EQ(v2[i], v1[i]) << "v2 changed byte " << i;
    }
  }
  EXPECT_EQ(gtl::testing::reseal(v2), v2) << "v2 is sealed with its seal";
  EXPECT_EQ(gtl::testing::fnv1a_seal(v2), 0xd5f08ace5ee4bb1aull);
  expect_identical(d, read_snapshot(dir_ / "golden.snap"));
}

TEST_F(NetlistIoTest, SnapshotOfSnapshotIsByteIdentical) {
  const BookshelfDesign d = make_design(true, true);
  write_snapshot(d, dir_ / "s1.snap");
  write_snapshot(read_snapshot(dir_ / "s1.snap"), dir_ / "s2.snap");
  EXPECT_EQ(slurp(dir_ / "s1.snap"), slurp(dir_ / "s2.snap"));
}

// --- rejection table -------------------------------------------------------

TEST_F(NetlistIoTest, MissingFile) {
  BookshelfDesign out;
  const Status st = try_read_snapshot(dir_ / "nope.snap", &out);
  ASSERT_FALSE(st.is_ok());
  EXPECT_EQ(st.code(), StatusCode::kNotFound);
}

TEST_F(NetlistIoTest, BadMagic) {
  expect_mutant_rejected([](std::string* b) { (*b)[0] = 'X'; }, "bad magic");
}

TEST_F(NetlistIoTest, ForeignEndianness) {
  expect_mutant_rejected(
      [](std::string* b) {
        std::swap((*b)[8], (*b)[11]);  // byte-order marker reversed
        std::swap((*b)[9], (*b)[10]);
      },
      "byte-order");
}

TEST_F(NetlistIoTest, UnsupportedVersion) {
  expect_mutant_rejected([](std::string* b) { (*b)[12] = 99; },
                         "unsupported snapshot version");
}

TEST_F(NetlistIoTest, UnknownFlagBits) {
  expect_mutant_rejected([](std::string* b) { (*b)[17] |= 0x80; },
                         "unknown flag bits");
}

TEST_F(NetlistIoTest, TruncatedEverywhere) {
  const fs::path p = dir_ / "trunc.snap";
  write_snapshot(make_design(true, true), p);
  const std::string bytes = slurp(p);
  // Below the header, mid-arrays, and just one byte short.
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{17}, std::size_t{63}, std::size_t{64},
        bytes.size() / 2, bytes.size() - 1}) {
    spit(p, bytes.substr(0, keep));
    BookshelfDesign out;
    const Status st = try_read_snapshot(p, &out);
    ASSERT_FALSE(st.is_ok()) << "accepted truncation to " << keep << " bytes";
  }
}

TEST_F(NetlistIoTest, TrailingGarbage) {
  expect_mutant_rejected([](std::string* b) { b->append("extra"); },
                         "does not match");
}

TEST_F(NetlistIoTest, FlippedPayloadByteFailsChecksum) {
  expect_mutant_rejected(
      [](std::string* b) {
        // Flip one bit in a placement coordinate near the file tail
        // (size still matches; only the checksum can catch it).
        (*b)[b->size() - 16] ^= 0x01;
      },
      "checksum mismatch");
}

TEST_F(NetlistIoTest, OversizedCellCountRejectedBeforeAllocation) {
  expect_mutant_rejected(
      [](std::string* b) {
        const std::uint64_t huge = 0x00000001'00000000ull;  // 2^32
        std::memcpy(b->data() + 24, &huge, sizeof(huge));  // num_cells
      },
      "32-bit cell-id limit");
}

TEST_F(NetlistIoTest, DeclaredNameBlobBeyondFileRejected) {
  expect_mutant_rejected(
      [](std::string* b) {
        const std::uint64_t huge = 0x7fffffffull;
        std::memcpy(b->data() + 48, &huge, sizeof(huge));  // cell_name_bytes
      },
      "name blob exceeds");
  // Past 2^32 - 1 bytes a blob cannot be indexed by 32-bit offsets.
  expect_mutant_rejected(
      [](std::string* b) {
        const std::uint64_t huge = 0x00000001'00000000ull;  // 2^32
        std::memcpy(b->data() + 56, &huge, sizeof(huge));  // net_name_bytes
      },
      "32-bit name-offset limit");
}

TEST_F(NetlistIoTest, InconsistentOffsetsRejected) {
  // Corrupt net_pin_offset[1] (first offset after the leading 0) to be
  // non-monotonic and re-seal the file, so the CSR validator, not the
  // checksum, must catch it.
  const fs::path p = dir_ / "csr.snap";
  write_snapshot(make_design(false, false), p);
  std::string bytes = slurp(p);
  // offsets start right after the 64-byte header; offset[1] at +4.
  std::uint32_t evil = 0xffff0000u;
  std::memcpy(bytes.data() + 64 + 4, &evil, sizeof(evil));
  spit(p, gtl::testing::reseal(bytes));
  BookshelfDesign out;
  const Status st = try_read_snapshot(p, &out);
  ASSERT_FALSE(st.is_ok());
  EXPECT_NE(st.message().find("net_pin_offset not monotonic at net 1"),
            std::string::npos)
      << st.message();
}

TEST_F(NetlistIoTest, EmptyDesignRoundTrips) {
  BookshelfDesign d;  // default: zero cells, zero nets
  write_snapshot(d, dir_ / "empty.snap");
  const BookshelfDesign back = read_snapshot(dir_ / "empty.snap");
  EXPECT_EQ(back.netlist.num_cells(), 0u);
  EXPECT_EQ(back.netlist.num_nets(), 0u);
  EXPECT_TRUE(back.x.empty());
}

TEST_F(NetlistIoTest, PlacementSizeMismatchRefusedOnWrite) {
  BookshelfDesign d = make_design(false, false);
  d.x.assign(3, 0.0);
  d.y.assign(3, 0.0);
  const Status st = try_write_snapshot(d, dir_ / "bad.snap");
  ASSERT_FALSE(st.is_ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace gtl
