// Snapshot corruption resilience sweep — the adversarial counterpart to
// netlist_io_test's rejection table.  Contract under ANY corruption:
// try_read_snapshot returns a clean Status (never crashes, never throws,
// never OOMs on a hostile count), and whenever it *does* accept a file,
// the loaded design is bit-identical to the one that was written.
//
// Three sweeps:
//   * truncation at every section boundary and every header byte;
//   * single-byte corruption at every offset in the file;
//   * structurally-targeted patches (oversized counts, non-monotonic
//     CSR, duplicate pins) re-sealed with the seal of the file's version,
//     so the corruption reaches the validator it targets instead of being
//     stopped at the cheap checksum gate; each asserts that validator's
//     message.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "graphgen/synthetic_circuit.hpp"
#include "netlist/netlist_io.hpp"
#include "netlist/snapshot_seal.hpp"

namespace gtl {
namespace {

namespace fs = std::filesystem;

// Mirrors the on-disk layout documented in netlist_io.hpp.
constexpr std::size_t kHeaderBytes = 8 + 4 * 4 + 5 * 8;  // 64
constexpr std::size_t kNumCellsOffset = 8 + 4 * 4;       // 24
constexpr std::size_t kNumNetsOffset = kNumCellsOffset + 8;
constexpr std::size_t kNumPinsOffset = kNumNetsOffset + 8;
constexpr std::size_t kCellNameBytesOffset = kNumPinsOffset + 8;

class SnapshotCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("tanglefind_corrupt_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    fs::create_directories(dir_);

    SyntheticCircuitConfig cfg;
    cfg.num_cells = 120;
    cfg.num_pads = 8;
    cfg.with_names = true;  // exercise the name sections too
    StructureSpec s;
    s.size = 24;
    cfg.structures.push_back(s);
    Rng rng(7);
    SyntheticCircuit circuit = generate_synthetic_circuit(cfg, rng);
    design_.netlist = std::move(circuit.netlist);
    design_.x = std::move(circuit.hint_x);
    design_.y = std::move(circuit.hint_y);

    pristine_path_ = dir_ / "pristine.snap";
    ASSERT_TRUE(try_write_snapshot(design_, pristine_path_).is_ok());
    pristine_ = slurp(pristine_path_);
    ASSERT_GT(pristine_.size(), kHeaderBytes + 8);
  }
  void TearDown() override { fs::remove_all(dir_); }

  static std::string slurp(const fs::path& p) {
    std::ifstream in(p, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  }
  void spit(const fs::path& p, const std::string& bytes) {
    std::ofstream out(p, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  /// The resilience contract for one corrupted byte string: a clean
  /// Status or a load that is provably the original design.
  void expect_clean(const std::string& bytes, const std::string& what) {
    const fs::path path = dir_ / "corrupt.snap";
    spit(path, bytes);
    BookshelfDesign loaded;
    const Status st = try_read_snapshot(path, &loaded);
    if (st.is_ok()) {
      // Accepted — then it must be the pristine design, byte-for-byte
      // (re-snapshot and compare; the writer is deterministic).
      const fs::path echo = dir_ / "echo.snap";
      ASSERT_TRUE(try_write_snapshot(loaded, echo).is_ok()) << what;
      EXPECT_EQ(slurp(echo), pristine_)
          << what << ": accepted a corrupted snapshot as a different design";
    }
  }

  /// Re-seal a patched file and load it: it must be rejected by the
  /// validator whose message contains `needle`, never at the checksum.
  void expect_resealed_rejected(const std::string& patched,
                                const std::string& needle,
                                const std::string& what) {
    const fs::path path = dir_ / "resealed.snap";
    spit(path, gtl::testing::reseal(patched));
    BookshelfDesign loaded;
    const Status st = try_read_snapshot(path, &loaded);
    ASSERT_FALSE(st.is_ok()) << what;
    EXPECT_EQ(st.message().find("checksum mismatch"), std::string::npos)
        << what << ": stopped at the seal: " << st.message();
    EXPECT_NE(st.message().find(needle), std::string::npos)
        << what << ": '" << st.message() << "' lacks '" << needle << "'";
  }

  static std::string patch_u64(std::string bytes, std::size_t offset,
                               std::uint64_t value) {
    std::memcpy(bytes.data() + offset, &value, 8);
    return bytes;
  }

  static std::string patch_u32(std::string bytes, std::size_t offset,
                               std::uint32_t value) {
    std::memcpy(bytes.data() + offset, &value, 4);
    return bytes;
  }

  /// Section boundaries implied by the design (name blobs folded into
  /// one region whose extent is derived from the file size).
  std::vector<std::size_t> section_boundaries() const {
    const std::size_t cells = design_.netlist.num_cells();
    const std::size_t nets = design_.netlist.num_nets();
    const std::size_t pins = design_.netlist.num_pins();
    std::vector<std::size_t> b;
    b.push_back(8);                      // magic
    b.push_back(kHeaderBytes);           // header words
    b.push_back(b.back() + (nets + 1) * 4);  // net_pin_offset
    b.push_back(b.back() + pins * 4);        // net_pins
    b.push_back(b.back() + cells * 8);       // widths
    b.push_back(b.back() + cells * 8);       // heights
    b.push_back(b.back() + cells);           // fixed flags
    // Names region ends where placement begins.
    b.push_back(pristine_.size() - 8 - cells * 16);  // names end
    b.push_back(pristine_.size() - 8 - cells * 8);   // x end
    b.push_back(pristine_.size() - 8);               // y end / checksum
    return b;
  }

  fs::path dir_;
  fs::path pristine_path_;
  BookshelfDesign design_;
  std::string pristine_;
};

TEST_F(SnapshotCorruptionTest, PristineLoadsAndEchoesExactly) {
  BookshelfDesign loaded;
  ASSERT_TRUE(try_read_snapshot(pristine_path_, &loaded).is_ok());
  const fs::path echo = dir_ / "echo.snap";
  ASSERT_TRUE(try_write_snapshot(loaded, echo).is_ok());
  EXPECT_EQ(slurp(echo), pristine_);
}

TEST_F(SnapshotCorruptionTest, TruncationAtEverySectionBoundary) {
  for (const std::size_t cut : section_boundaries()) {
    ASSERT_LT(cut, pristine_.size());
    BookshelfDesign loaded;
    const fs::path path = dir_ / "trunc.snap";
    spit(path, pristine_.substr(0, cut));
    const Status st = try_read_snapshot(path, &loaded);
    EXPECT_FALSE(st.is_ok()) << "a file cut at byte " << cut
                             << " can never be a whole snapshot";
    // One byte either side of the boundary as well.
    for (const std::size_t off : {cut - 1, cut + 1}) {
      spit(path, pristine_.substr(0, off));
      EXPECT_FALSE(try_read_snapshot(path, &loaded).is_ok())
          << "cut at byte " << off;
    }
  }
}

TEST_F(SnapshotCorruptionTest, TruncationAtEveryHeaderByte) {
  BookshelfDesign loaded;
  const fs::path path = dir_ / "trunc.snap";
  for (std::size_t cut = 0; cut <= kHeaderBytes + 8; ++cut) {
    spit(path, pristine_.substr(0, cut));
    EXPECT_FALSE(try_read_snapshot(path, &loaded).is_ok())
        << "cut at byte " << cut;
  }
}

TEST_F(SnapshotCorruptionTest, SingleByteCorruptionAtEveryOffset) {
  // Every byte matters: the checksum (or an earlier validator) must
  // catch a flip anywhere in the file — header, payload, or trailer.
  for (std::size_t off = 0; off < pristine_.size(); ++off) {
    std::string bytes = pristine_;
    bytes[off] = static_cast<char>(static_cast<unsigned char>(bytes[off]) ^
                                   0xA5u);
    expect_clean(bytes, "flip at byte " + std::to_string(off));
  }
}

TEST_F(SnapshotCorruptionTest, PristineIsSealedWithItsVersionsSeal) {
  // The helper's seal must be the writer's, or every re-sealed case below
  // would stop at the checksum.
  EXPECT_EQ(gtl::testing::reseal(pristine_), pristine_);
}

TEST_F(SnapshotCorruptionTest, OversizedCountsRejectedBeforeAllocation) {
  // Hostile counts must die at validation, not in a giant allocation.
  const std::uint64_t kHuge = std::uint64_t{1} << 32;
  const std::pair<std::size_t, const char*> kLimits[] = {
      {kNumCellsOffset, "exceeds the 32-bit cell-id limit"},
      {kNumNetsOffset, "exceeds the 32-bit net-id limit"},
      {kNumPinsOffset, "exceeds the 32-bit CSR offset limit"}};
  for (const auto& [off, needle] : kLimits) {
    expect_resealed_rejected(patch_u64(pristine_, off, kHuge), needle,
                             "u64 at offset " + std::to_string(off));
  }
  // A plausible-but-wrong count trips the exact-file-size cross-check.
  for (const std::size_t off :
       {kNumCellsOffset, kNumNetsOffset, kNumPinsOffset}) {
    std::uint64_t count = 0;
    std::memcpy(&count, pristine_.data() + off, 8);
    expect_resealed_rejected(patch_u64(pristine_, off, count + 1),
                             "bytes implied by the header",
                             "count+1 at offset " + std::to_string(off));
  }
}

TEST_F(SnapshotCorruptionTest, OversizedNameBlobRejected) {
  expect_resealed_rejected(
      patch_u64(pristine_, kCellNameBytesOffset, pristine_.size() * 2),
      "declared name blob exceeds the file size", "cell name blob");
}

TEST_F(SnapshotCorruptionTest, ResealedStructuralDamageStillRejected) {
  // Patch the CSR itself and re-seal the checksum: the structural
  // validators are the last line of defense and must hold alone.
  const std::size_t offsets_base = kHeaderBytes;
  // Non-monotonic net_pin_offset: offset[1] beyond offset[2].
  std::uint32_t second = 0;
  std::memcpy(&second, pristine_.data() + offsets_base + 8, 4);
  expect_resealed_rejected(
      patch_u32(pristine_, offsets_base + 4, second + 1),
      "net_pin_offset not monotonic at net 1", "non-monotonic CSR");
  // A duplicated pin inside a multi-pin net breaks the
  // strictly-increasing-per-net invariant.
  const std::size_t nets = design_.netlist.num_nets();
  const std::size_t pins_base = offsets_base + (nets + 1) * 4;
  {
    // Find a net with >= 2 pins from the on-disk CSR itself.
    std::size_t dup_at = 0;
    for (std::size_t n = 0; n < nets && dup_at == 0; ++n) {
      std::uint32_t lo = 0, hi = 0;
      std::memcpy(&lo, pristine_.data() + offsets_base + n * 4, 4);
      std::memcpy(&hi, pristine_.data() + offsets_base + (n + 1) * 4, 4);
      if (hi - lo >= 2) dup_at = pins_base + lo * 4;
    }
    ASSERT_NE(dup_at, 0u) << "fixture must contain a multi-pin net";
    std::uint32_t first_pin = 0;
    std::memcpy(&first_pin, pristine_.data() + dup_at, 4);
    expect_resealed_rejected(patch_u32(pristine_, dup_at + 4, first_pin),
                             "pins are not strictly increasing",
                             "duplicate pin in a net");
  }
  // A pin referencing a cell id past num_cells.
  expect_resealed_rejected(
      patch_u32(pristine_, pins_base,
                static_cast<std::uint32_t>(design_.netlist.num_cells() + 1000)),
      "references cell id", "pin past num_cells");
}

TEST_F(SnapshotCorruptionTest, EmptyAndTinyFilesRejected) {
  BookshelfDesign loaded;
  const fs::path path = dir_ / "tiny.snap";
  spit(path, "");
  EXPECT_FALSE(try_read_snapshot(path, &loaded).is_ok());
  spit(path, "GTLSNAP");
  EXPECT_FALSE(try_read_snapshot(path, &loaded).is_ok());
  spit(path, std::string(kHeaderBytes + 8, '\0'));
  EXPECT_FALSE(try_read_snapshot(path, &loaded).is_ok());
}

}  // namespace
}  // namespace gtl
