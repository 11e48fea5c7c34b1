#include "netlist/netlist_io.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "util/failpoint.hpp"
#include "util/fileio.hpp"

namespace gtl {

/// Friend of Netlist: raw member access for bulk (de)serialization.  The
/// load path fills the forward CSR directly and rebuilds the derived
/// structures once, skipping the builder's per-net sort/dedup (a written
/// snapshot already satisfies those invariants; the reader re-validates
/// them before assembly).
struct NetlistSnapshotAccess {
  using PackedNames = Netlist::PackedNames;

  static const std::vector<std::uint32_t>& net_pin_offset(const Netlist& n) {
    return n.net_pin_offset_;
  }
  static const std::vector<CellId>& net_pins(const Netlist& n) {
    return n.net_pins_;
  }
  static const std::vector<double>& cell_width(const Netlist& n) {
    return n.cell_width_;
  }
  static const std::vector<double>& cell_height(const Netlist& n) {
    return n.cell_height_;
  }
  static const std::vector<std::uint8_t>& cell_fixed(const Netlist& n) {
    return n.cell_fixed_;
  }
  static const PackedNames& cell_names(const Netlist& n) {
    return n.cell_names_;
  }
  static const PackedNames& net_names(const Netlist& n) { return n.net_names_; }

  static Netlist assemble(std::vector<std::uint32_t>&& net_pin_offset,
                          std::vector<CellId>&& net_pins,
                          std::vector<double>&& widths,
                          std::vector<double>&& heights,
                          std::vector<std::uint8_t>&& fixed,
                          PackedNames&& cell_names, PackedNames&& net_names) {
    Netlist nl;
    nl.net_pin_offset_ = std::move(net_pin_offset);
    nl.net_pins_ = std::move(net_pins);
    nl.cell_width_ = std::move(widths);
    nl.cell_height_ = std::move(heights);
    nl.cell_fixed_ = std::move(fixed);
    nl.cell_names_ = std::move(cell_names);
    nl.net_names_ = std::move(net_names);
    nl.finalize_from_forward_csr();
    return nl;
  }
};

namespace {

constexpr char kMagic[8] = {'G', 'T', 'L', 'S', 'N', 'A', 'P', '\0'};
constexpr std::uint32_t kByteOrder = 0x01020304u;
constexpr std::uint32_t kFlagCellNames = 1u << 0;
constexpr std::uint32_t kFlagNetNames = 1u << 1;
constexpr std::uint32_t kFlagPlacement = 1u << 2;
constexpr std::uint32_t kKnownFlags =
    kFlagCellNames | kFlagNetNames | kFlagPlacement;
constexpr std::size_t kHeaderBytes = 8 + 4 * 4 + 5 * 8;  // 64

Status fail(const std::filesystem::path& path, const std::string& what) {
  return Status::parse_error("snapshot: " + path.string() + ": " + what);
}

/// The v1 seal, FNV-1a 64: order-sensitive, and catches the truncation
/// and bit-rot cases a size check alone cannot, at one multiply per byte.
struct Fnv1a {
  std::uint64_t h = 1469598103934665603ull;
  void mix(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 1099511628211ull;
    }
  }
};

/// The v2 seal: the bytes as little-endian 64-bit words, word i folded
/// into lane i mod 4 by `lane = (lane ^ word) * K; lane ^= lane >> 32`,
/// the last partial word zero-padded, then the byte count and the four
/// lanes folded into one word.  Each step is a bijection of its lane for
/// a fixed word, and the fold one of each lane for fixed others, so a
/// change confined to one word always changes the seal, as a single-byte
/// change always changes FNV-1a; four independent multiply chains run at
/// memory speed.  mix() may split the bytes anywhere.
class WordSeal {
 public:
  void mix(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    total_ += n;
    if (pending_ != 0) {
      const std::size_t take = std::min(n, kBlock - pending_);
      std::memcpy(block_ + pending_, p, take);
      pending_ += take;
      p += take;
      n -= take;
      if (pending_ < kBlock) return;
      fold_block(block_);
      pending_ = 0;
    }
    for (; n >= kBlock; p += kBlock, n -= kBlock) fold_block(p);
    std::memcpy(block_, p, n);
    pending_ = n;
  }

  [[nodiscard]] std::uint64_t value() const {
    std::uint64_t lanes[4] = {lanes_[0], lanes_[1], lanes_[2], lanes_[3]};
    for (std::size_t i = 0; 8 * i < pending_; ++i) {
      std::uint64_t w = 0;
      std::memcpy(&w, block_ + 8 * i,
                  std::min<std::size_t>(8, pending_ - 8 * i));
      fold(&lanes[i], w);
    }
    std::uint64_t h = total_ * kMul;
    for (const std::uint64_t lane : lanes) {
      h = (h ^ avalanche(lane)) * kMul;
      h ^= h >> 29;
    }
    return avalanche(h);
  }

 private:
  static constexpr std::size_t kBlock = 32;
  static constexpr std::uint64_t kMul = 0x9E37'79B9'7F4A'7C15ull;

  static void fold(std::uint64_t* lane, std::uint64_t w) {
    *lane = (*lane ^ w) * kMul;
    *lane ^= *lane >> 32;
  }
  static std::uint64_t avalanche(std::uint64_t x) {
    x ^= x >> 33;
    x *= 0xFF51'AFD7'ED55'8CCDull;
    x ^= x >> 33;
    return x;
  }
  void fold_block(const unsigned char* p) {
    for (std::size_t i = 0; i < 4; ++i) {
      std::uint64_t w = 0;
      std::memcpy(&w, p + 8 * i, 8);
      fold(&lanes_[i], w);
    }
  }

  std::uint64_t lanes_[4] = {
      0x243F'6A88'85A3'08D3ull, 0x1319'8A2E'0370'7344ull,
      0xA409'3822'299F'31D0ull, 0x082E'FA98'EC4E'6C89ull};
  unsigned char block_[kBlock] = {};
  std::size_t pending_ = 0;
  std::uint64_t total_ = 0;
};

/// The seal of the file's format version (v1: FNV-1a, v2: WordSeal).
class Seal {
 public:
  explicit Seal(std::uint32_t version) : v1_(version == 1) {}
  void mix(const void* data, std::size_t n) {
    if (v1_) {
      fnv_.mix(data, n);
    } else {
      word_.mix(data, n);
    }
  }
  [[nodiscard]] std::uint64_t value() const {
    return v1_ ? fnv_.h : word_.value();
  }

 private:
  bool v1_;
  Fnv1a fnv_;
  WordSeal word_;
};

/// Buffered sealing writer: every byte written is folded into the
/// running seal so the trailer can seal the whole file.
class SnapshotWriter {
 public:
  explicit SnapshotWriter(const std::filesystem::path& path)
      : out_(path, std::ios::binary) {}

  [[nodiscard]] bool ok() const { return static_cast<bool>(out_); }

  void write(const void* data, std::size_t n) {
    seal_.mix(data, n);
    out_.write(static_cast<const char*>(data),
               static_cast<std::streamsize>(n));
  }
  template <typename T>
  void write_pod(const T& v) {
    write(&v, sizeof(T));
  }
  template <typename T>
  void write_array(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (!v.empty()) write(v.data(), v.size() * sizeof(T));
  }
  void seal() {
    // The trailer itself is not part of its own hash.
    const std::uint64_t h = seal_.value();
    out_.write(reinterpret_cast<const char*>(&h), sizeof(h));
    out_.flush();
  }

  /// Poison the stream as if a write had failed (failpoint support):
  /// every later ok() check sees the failure, so the normal error path
  /// — remove the temp file, report a Status — runs unchanged.
  void poison() { out_.setstate(std::ios::badbit); }

 private:
  std::ofstream out_;
  Seal seal_{kSnapshotVersion};
};

/// Reads the sections after the header in file order, straight from the
/// file into the arrays they fill, folding each into the seal.
class SnapshotReader {
 public:
  SnapshotReader(const std::filesystem::path& path, FileReader* in,
                 Seal* seal, std::size_t pos)
      : path_(path), in_(in), seal_(seal), pos_(pos) {}

  Status read(void* out, std::size_t n) {
    if (n == 0) return Status::ok();  // empty arrays have no storage
    std::size_t got = 0;
    if (const Status st = in_->read_full(out, n, &got); !st.is_ok()) {
      return Status::parse_error("snapshot: " + st.message());
    }
    if (got != n) {
      return fail(path_, "truncated (need " + std::to_string(n) +
                             " bytes at offset " + std::to_string(pos_) +
                             ", have " + std::to_string(got) + ")");
    }
    seal_->mix(out, n);
    pos_ += n;
    return Status::ok();
  }
  template <typename T>
  Status read_array(std::vector<T>* out, std::size_t count) {
    static_assert(std::is_trivially_copyable_v<T>);
    out->resize(count);
    return read(out->data(), count * sizeof(T));
  }

 private:
  const std::filesystem::path& path_;
  FileReader* in_;
  Seal* seal_;
  std::size_t pos_;
};

/// Read `count` name lengths and the blob they cover into a packed table:
/// the lengths land in offsets[1..count] and become offsets in place, and
/// the blob is read into place.  Zero names leave the table empty (unnamed),
/// as a netlist with no cells or nets has no names to carry.
Status read_names(SnapshotReader& r, const std::filesystem::path& path,
                  const char* kind, std::size_t count,
                  std::uint64_t blob_bytes,
                  NetlistSnapshotAccess::PackedNames* out) {
  std::vector<std::uint32_t>& offsets = out->offsets;
  offsets.resize(count + 1);
  offsets[0] = 0;
  GTL_RETURN_IF_ERROR(
      r.read(offsets.data() + 1, count * sizeof(std::uint32_t)));
  std::uint64_t total = 0;  // <= count * 2^32: no overflow
  for (std::size_t i = 1; i <= count; ++i) {
    total += offsets[i];
    // Wraps only when total passes 2^32 - 1, and then the check below
    // fails: the header's blob size is at most 2^32 - 1.
    offsets[i] = static_cast<std::uint32_t>(total);
  }
  if (total != blob_bytes) {
    return fail(path, std::string(kind) + " name lengths sum to " +
                          std::to_string(total) + " but the header declares " +
                          std::to_string(blob_bytes) + " blob bytes");
  }
  if (count == 0) {
    *out = {};  // and the blob is empty: its size is the lengths' sum
    return Status::ok();
  }
  out->blob.resize(static_cast<std::size_t>(blob_bytes));
  return r.read(out->blob.data(), out->blob.size());
}

/// The lengths (offset differences), then the blob in one write.
void write_names(SnapshotWriter& w,
                 const NetlistSnapshotAccess::PackedNames& names) {
  std::vector<std::uint32_t> lengths(names.offsets.size() - 1);
  for (std::size_t i = 0; i < lengths.size(); ++i) {
    lengths[i] = names.offsets[i + 1] - names.offsets[i];
  }
  w.write_array(lengths);
  w.write(names.blob.data(), names.blob.size());
}

}  // namespace

Status try_write_snapshot(const BookshelfDesign& design,
                          const std::filesystem::path& path) {
  using A = NetlistSnapshotAccess;
  const Netlist& nl = design.netlist;
  const std::vector<std::uint32_t>& offsets = A::net_pin_offset(nl);

  const std::uint64_t num_cells = A::cell_width(nl).size();
  const std::uint64_t num_nets = offsets.empty() ? 0 : offsets.size() - 1;
  const std::uint64_t num_pins = A::net_pins(nl).size();

  if ((!design.x.empty() || !design.y.empty()) &&
      (design.x.size() != num_cells || design.y.size() != num_cells)) {
    return Status::invalid_argument(
        "snapshot: " + path.string() +
        ": placement arrays do not match the cell count");
  }

  std::uint32_t flags = 0;
  if (!A::cell_names(nl).empty()) flags |= kFlagCellNames;
  if (!A::net_names(nl).empty()) flags |= kFlagNetNames;
  if (!design.x.empty()) flags |= kFlagPlacement;
  const std::uint64_t cell_name_bytes = A::cell_names(nl).blob.size();
  const std::uint64_t net_name_bytes = A::net_names(nl).blob.size();

  // Write to a uniquely-named sibling temp file and rename into place:
  // an interrupted or failed write must never leave a partial file at
  // the cache path (a poisoned cache would shadow the valid text source
  // on every subsequent run), and two processes filling the same cache
  // concurrently must not interleave into one temp file — each writes
  // its own and the last rename wins whole.
  const auto nonce = static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count()) ^
      (reinterpret_cast<std::uintptr_t>(&design) << 16);
  const std::filesystem::path tmp =
      path.string() + ".tmp." + std::to_string(nonce);
  SnapshotWriter w(tmp);
  // Failpoint "snapshot.write.open": fail = injected open failure for
  // the temp file (read-only cache directory, exhausted fds, ...).
  if (failpoint::Action fp;
      failpoint::check("snapshot.write.open", &fp) &&
      fp.kind == failpoint::Action::Kind::kFail) {
    std::error_code ec;
    std::filesystem::remove(tmp, ec);
    return Status::not_found("snapshot: cannot write " + tmp.string() +
                             " (injected failpoint)");
  }
  if (!w.ok()) {
    return Status::not_found("snapshot: cannot write " + tmp.string());
  }
  w.write(kMagic, sizeof(kMagic));
  w.write_pod(kByteOrder);
  w.write_pod(kSnapshotVersion);
  w.write_pod(flags);
  w.write_pod(std::uint32_t{0});  // reserved
  w.write_pod(num_cells);
  w.write_pod(num_nets);
  w.write_pod(num_pins);
  w.write_pod(cell_name_bytes);
  w.write_pod(net_name_bytes);

  if (offsets.empty()) {
    w.write_pod(std::uint32_t{0});  // canonical empty forward CSR
  } else {
    w.write_array(offsets);
  }
  w.write_array(A::net_pins(nl));
  w.write_array(A::cell_width(nl));
  w.write_array(A::cell_height(nl));
  w.write_array(A::cell_fixed(nl));
  if ((flags & kFlagCellNames) != 0) write_names(w, A::cell_names(nl));
  if ((flags & kFlagNetNames) != 0) write_names(w, A::net_names(nl));
  if ((flags & kFlagPlacement) != 0) {
    w.write_array(design.x);
    w.write_array(design.y);
  }
  // Failpoint "snapshot.write": fail = injected mid-write error (disk
  // full); short_io = torn write, the temp file is cut to `param` bytes.
  // Both poison the writer, so the regular remove-the-temp error path
  // below runs — the cache path must never gain a partial file.
  if (failpoint::Action fp; failpoint::check("snapshot.write", &fp)) {
    if (fp.kind == failpoint::Action::Kind::kFail ||
        fp.kind == failpoint::Action::Kind::kShortIo) {
      if (fp.kind == failpoint::Action::Kind::kShortIo) {
        std::error_code ec;
        const auto size = std::filesystem::file_size(tmp, ec);
        if (!ec && size > fp.param) {
          std::filesystem::resize_file(tmp, fp.param, ec);
        }
      }
      w.poison();
    }
  }
  w.seal();
  if (!w.ok()) {
    std::error_code ec;
    std::filesystem::remove(tmp, ec);
    return Status::parse_error("snapshot: write failed for " + tmp.string());
  }
  // Failpoint "snapshot.rename": fail = injected rename failure (cache
  // path vanished, cross-device move, ...).  The temp file is removed.
  if (failpoint::Action fp;
      failpoint::check("snapshot.rename", &fp) &&
      fp.kind == failpoint::Action::Kind::kFail) {
    std::error_code ec;
    std::filesystem::remove(tmp, ec);
    return Status::parse_error("snapshot: cannot move " + tmp.string() +
                               " into place (injected failpoint)");
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    const std::string why = ec.message();
    std::filesystem::remove(tmp, ec);
    return Status::parse_error("snapshot: cannot move " + tmp.string() +
                               " into place: " + why);
  }
  return Status::ok();
}

Status try_read_snapshot(const std::filesystem::path& path,
                         BookshelfDesign* out) {
  FileReader in;
  if (const Status st = in.open(path); !st.is_ok()) {
    return Status::not_found("snapshot: cannot open " + path.string());
  }
  const std::uint64_t file_size = in.size();
  if (file_size < kHeaderBytes + sizeof(std::uint64_t)) {
    return fail(path, "file too small to be a snapshot (" +
                          std::to_string(file_size) + " bytes)");
  }
  // The header is read whole first: its version picks the seal that
  // covers it and everything after it.
  unsigned char header[kHeaderBytes];
  std::size_t got = 0;
  if (const Status st = in.read_full(header, sizeof(header), &got);
      !st.is_ok()) {
    return Status::parse_error("snapshot: " + st.message());
  }
  if (got != sizeof(header)) {
    return fail(path, "truncated (need " + std::to_string(kHeaderBytes) +
                          " header bytes, have " + std::to_string(got) + ")");
  }
  std::size_t at = 0;
  auto take = [&](void* out, std::size_t n) {
    std::memcpy(out, header + at, n);
    at += n;
  };
  char magic[8];
  take(magic, sizeof(magic));
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return fail(path, "bad magic (not a GTL netlist snapshot)");
  }
  std::uint32_t byte_order = 0, version = 0, flags = 0, reserved = 0;
  take(&byte_order, 4);
  take(&version, 4);
  take(&flags, 4);
  take(&reserved, 4);
  if (byte_order != kByteOrder) {
    return fail(path, "byte-order marker mismatch (snapshot written on a "
                      "different-endian machine)");
  }
  if (version == 0 || version > kSnapshotVersion) {
    return fail(path, "unsupported snapshot version " +
                          std::to_string(version) + " (this reader knows <= " +
                          std::to_string(kSnapshotVersion) + ")");
  }
  if ((flags & ~kKnownFlags) != 0) {
    return fail(path, "unknown flag bits " + std::to_string(flags) +
                          " (file from a newer writer?)");
  }
  std::uint64_t num_cells = 0, num_nets = 0, num_pins = 0;
  std::uint64_t cell_name_bytes = 0, net_name_bytes = 0;
  take(&num_cells, 8);
  take(&num_nets, 8);
  take(&num_pins, 8);
  take(&cell_name_bytes, 8);
  take(&net_name_bytes, 8);

  // Reject id overflow before any size arithmetic: with every count
  // bounded by 2^32 the per-array byte totals below stay far from u64
  // overflow.
  if (num_cells >= kInvalidCell) {
    return fail(path, "num_cells " + std::to_string(num_cells) +
                          " exceeds the 32-bit cell-id limit");
  }
  if (num_nets >= kInvalidNet) {
    return fail(path, "num_nets " + std::to_string(num_nets) +
                          " exceeds the 32-bit net-id limit");
  }
  if (num_pins >= kInvalidCell) {
    return fail(path, "num_pins " + std::to_string(num_pins) +
                          " exceeds the 32-bit CSR offset limit");
  }
  // Names are indexed by 32-bit offsets.
  if (cell_name_bytes > 0xFFFF'FFFFu || net_name_bytes > 0xFFFF'FFFFu) {
    return fail(path, "declared name blob exceeds the 32-bit name-offset "
                      "limit");
  }
  if (cell_name_bytes > file_size || net_name_bytes > file_size) {
    return fail(path, "declared name blob exceeds the file size");
  }

  // The header pins the exact file size; a mismatch is truncation or
  // trailing garbage, caught before any array is materialized.
  std::uint64_t expected = kHeaderBytes;
  expected += (num_nets + 1) * 4;  // net_pin_offset
  expected += num_pins * 4;        // net_pins
  expected += num_cells * 8 * 2;   // widths + heights
  expected += num_cells;           // fixed flags
  if ((flags & kFlagCellNames) != 0)
    expected += num_cells * 4 + cell_name_bytes;
  if ((flags & kFlagNetNames) != 0) expected += num_nets * 4 + net_name_bytes;
  if ((flags & kFlagPlacement) != 0) expected += num_cells * 8 * 2;
  expected += 8;  // checksum trailer
  if (expected != file_size) {
    return fail(path, "file size " + std::to_string(file_size) +
                          " does not match the " + std::to_string(expected) +
                          " bytes implied by the header (truncated or "
                          "corrupted snapshot)");
  }

  Seal seal(version);
  seal.mix(header, sizeof(header));
  SnapshotReader r(path, &in, &seal, kHeaderBytes);
  std::vector<std::uint32_t> offsets;
  std::vector<CellId> pins;
  std::vector<double> widths, heights, x, y;
  std::vector<std::uint8_t> fixed;
  NetlistSnapshotAccess::PackedNames cell_names, net_names;

  GTL_RETURN_IF_ERROR(
      r.read_array(&offsets, static_cast<std::size_t>(num_nets) + 1));
  GTL_RETURN_IF_ERROR(r.read_array(&pins, static_cast<std::size_t>(num_pins)));
  GTL_RETURN_IF_ERROR(
      r.read_array(&widths, static_cast<std::size_t>(num_cells)));
  GTL_RETURN_IF_ERROR(
      r.read_array(&heights, static_cast<std::size_t>(num_cells)));
  GTL_RETURN_IF_ERROR(
      r.read_array(&fixed, static_cast<std::size_t>(num_cells)));
  if ((flags & kFlagCellNames) != 0) {
    GTL_RETURN_IF_ERROR(read_names(r, path, "cell",
                                   static_cast<std::size_t>(num_cells),
                                   cell_name_bytes, &cell_names));
  }
  if ((flags & kFlagNetNames) != 0) {
    GTL_RETURN_IF_ERROR(read_names(r, path, "net",
                                   static_cast<std::size_t>(num_nets),
                                   net_name_bytes, &net_names));
  }
  if ((flags & kFlagPlacement) != 0) {
    GTL_RETURN_IF_ERROR(r.read_array(&x, static_cast<std::size_t>(num_cells)));
    GTL_RETURN_IF_ERROR(r.read_array(&y, static_cast<std::size_t>(num_cells)));
  }

  // Seal check: everything before the trailer must hash to the trailer.
  // (Reading the trailer folds it in too, after the value is taken.)
  const std::uint64_t sealed = seal.value();
  std::uint64_t stored = 0;
  GTL_RETURN_IF_ERROR(r.read(&stored, sizeof(stored)));
  if (sealed != stored) {
    return fail(path, "checksum mismatch (corrupted snapshot)");
  }

  // Structural validation: the loaded arrays must satisfy every Netlist
  // invariant the builder would have enforced.
  if (offsets[0] != 0) return fail(path, "net_pin_offset[0] != 0");
  for (std::size_t e = 0; e < num_nets; ++e) {
    if (offsets[e + 1] < offsets[e]) {
      return fail(path, "net_pin_offset not monotonic at net " +
                            std::to_string(e));
    }
    if (offsets[e + 1] == offsets[e]) {
      return fail(path, "net " + std::to_string(e) + " is empty");
    }
  }
  if (offsets[static_cast<std::size_t>(num_nets)] != num_pins) {
    return fail(path, "net_pin_offset ends at " +
                          std::to_string(offsets.back()) + " but " +
                          std::to_string(num_pins) + " pins are declared");
  }
  for (std::size_t e = 0; e < num_nets; ++e) {
    for (std::uint32_t p = offsets[e]; p < offsets[e + 1]; ++p) {
      if (pins[p] >= num_cells) {
        return fail(path, "net " + std::to_string(e) +
                              " references cell id " + std::to_string(pins[p]) +
                              " >= num_cells " + std::to_string(num_cells));
      }
      if (p > offsets[e] && pins[p] <= pins[p - 1]) {
        return fail(path, "net " + std::to_string(e) +
                              " pins are not strictly increasing (duplicate "
                              "or unsorted pin)");
      }
    }
  }
  for (std::size_t c = 0; c < num_cells; ++c) {
    if (!std::isfinite(widths[c]) || widths[c] <= 0.0 ||
        !std::isfinite(heights[c]) || heights[c] <= 0.0) {
      return fail(path, "cell " + std::to_string(c) +
                            " has a non-positive or non-finite dimension");
    }
    if (fixed[c] > 1) {
      return fail(path, "cell " + std::to_string(c) +
                            " has a fixed flag outside {0, 1}");
    }
  }
  for (std::size_t c = 0; c < x.size(); ++c) {
    if (!std::isfinite(x[c]) || !std::isfinite(y[c])) {
      return fail(path, "cell " + std::to_string(c) +
                            " has a non-finite placement coordinate");
    }
  }

  out->netlist = NetlistSnapshotAccess::assemble(
      std::move(offsets), std::move(pins), std::move(widths),
      std::move(heights), std::move(fixed), std::move(cell_names),
      std::move(net_names));
  out->x = std::move(x);
  out->y = std::move(y);
  out->warnings.clear();
  return Status::ok();
}

Status load_with_snapshot_cache(
    const std::filesystem::path& snapshot,
    const std::function<Status(BookshelfDesign*)>& load_source,
    BookshelfDesign* out, SnapshotCacheResult* result) {
  result->hit = false;
  result->fill_failed = false;
  result->notes.clear();
  if (!snapshot.empty() && std::filesystem::exists(snapshot)) {
    GTL_RETURN_IF_ERROR(try_read_snapshot(snapshot, out));
    result->hit = true;
    return Status::ok();
  }
  GTL_RETURN_IF_ERROR(load_source(out));
  if (!snapshot.empty()) {
    // Cache fill is an optimization: record, never fail.
    if (const Status st = try_write_snapshot(*out, snapshot); !st.is_ok()) {
      result->fill_failed = true;
      result->notes.push_back("warning: " + st.to_string());
    } else {
      result->notes.push_back("snapshot written to " + snapshot.string());
    }
  }
  return Status::ok();
}

void write_snapshot(const BookshelfDesign& design,
                    const std::filesystem::path& path) {
  if (const Status st = try_write_snapshot(design, path); !st.is_ok()) {
    throw std::runtime_error(st.message());
  }
}

BookshelfDesign read_snapshot(const std::filesystem::path& path) {
  BookshelfDesign d;
  if (const Status st = try_read_snapshot(path, &d); !st.is_ok()) {
    throw std::runtime_error(st.message());
  }
  return d;
}

}  // namespace gtl
