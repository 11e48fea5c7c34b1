#pragma once
// Versioned binary netlist snapshots — the O(read) load path for the
// real-benchmark corpus.  Parsing a Bookshelf design validates and
// re-deduplicates every net; a snapshot is written from an
// already-validated Netlist, so reloading is a handful of bulk array
// reads plus the derived-structure rebuild (transposed CSR, net sizes,
// movable count).  Names load as the Netlist stores them: each name blob
// is read into place and its lengths become 32-bit offsets in place, with
// no per-name object and no name index.
//
// Format v2, little-endian, in file order:
//
//   magic            8 bytes  "GTLSNAP\0"
//   byte_order       u32      0x01020304 (refuses foreign-endian files)
//   version          u32      2 (1: the same layout with an FNV-1a seal)
//   flags            u32      bit0 cell names, bit1 net names,
//                             bit2 placement; unknown bits are an error
//   reserved         u32      0
//   num_cells        u64
//   num_nets         u64
//   num_pins         u64      == net_pin_offset[num_nets]
//   cell_name_bytes  u64      total cell-name blob size (0 if no names)
//   net_name_bytes   u64      total net-name blob size (0 if no names)
//   net_pin_offset   (num_nets+1) x u32   monotonic, starts at 0
//   net_pins         num_pins x u32       strictly increasing per net
//   cell_width       num_cells x f64      finite, > 0
//   cell_height      num_cells x f64      finite, > 0
//   cell_fixed       num_cells x u8       0 or 1
//   [cell name lengths num_cells x u32][cell name blob]   if flag bit0
//   [net  name lengths num_nets  x u32][net  name blob]   if flag bit1
//   [x num_cells x f64][y num_cells x f64]                if flag bit2
//   seal             u64      over every preceding byte: v2 folds the
//                             bytes as little-endian 64-bit words, word i
//                             into lane i mod 4 of a multiply–xorshift
//                             hash (last word zero-padded), then the byte
//                             count and the lanes into one word; v1 is
//                             FNV-1a 64
//
// The writer emits v2; the reader accepts v1 and v2, so v1 caches keep
// loading, and a reader that knows only v1 refuses a v2 file with
// "unsupported snapshot version 2".  Both seals catch any change confined
// to one byte (v2: to one word); v2 runs at memory speed, where FNV-1a
// costs a multiply per byte (~3.3 ms of a 5.9 ms load of the 2.2 MB
// paper design).  The reader streams: it checks the header against the
// file's size, then reads each section straight into the array it fills
// while folding the seal, so a load holds no copy of the file.
//
// Every count is validated against the 32-bit id limits, each name blob
// against the 32-bit name-offset limit, every offset against
// monotonicity and the pin count, and the file size against the
// exact total implied by the header before any array is materialized, so
// a truncated or corrupted snapshot fails loudly instead of loading a
// malformed hypergraph.  Versioning rule: any layout change bumps
// `version`; readers reject versions they do not know.

#include <cstdint>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "netlist/bookshelf.hpp"
#include "util/status.hpp"

namespace gtl {

inline constexpr std::uint32_t kSnapshotVersion = 2;

/// Write `design` (netlist + optional placement) as a binary snapshot.
[[nodiscard]] Status try_write_snapshot(const BookshelfDesign& design,
                                        const std::filesystem::path& path);

/// Load a snapshot.  On error `*out` is left in an unspecified state;
/// the Status message carries "snapshot: <file>: <what>".
[[nodiscard]] Status try_read_snapshot(const std::filesystem::path& path,
                                       BookshelfDesign* out);

/// Throwing wrappers (std::runtime_error), mirroring read_bookshelf.
void write_snapshot(const BookshelfDesign& design,
                    const std::filesystem::path& path);
[[nodiscard]] BookshelfDesign read_snapshot(const std::filesystem::path& path);

/// The cache protocol every CLI main shares.  `snapshot` may be empty
/// (no caching).  When it names an existing file, the snapshot is
/// loaded (`result->hit = true`); a load failure is returned as-is so
/// the caller can suggest deleting the stale file.  Otherwise
/// `load_source` fills `*out` (parse text, generate, ...), and on
/// success the cache is filled best-effort: a failed write lands in
/// `result->notes`, never in the returned Status.  `notes` also records
/// a "snapshot written to ..." line on a successful fill.
struct SnapshotCacheResult {
  bool hit = false;
  /// True when the best-effort cache fill failed (the warning is in
  /// `notes`).  The cache path holds no partial file in that case — the
  /// writer stages through a temp file and removes it on any failure —
  /// so the next load simply re-parses the source and retries the fill.
  bool fill_failed = false;
  std::vector<std::string> notes;
};
[[nodiscard]] Status load_with_snapshot_cache(
    const std::filesystem::path& snapshot,
    const std::function<Status(BookshelfDesign*)>& load_source,
    BookshelfDesign* out, SnapshotCacheResult* result);

}  // namespace gtl
