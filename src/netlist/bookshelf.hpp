#pragma once
// Bookshelf placement format I/O (the format of the ISPD 2005/2006
// placement benchmarks the paper evaluates on: .aux / .nodes / .nets / .pl).
//
// The real benchmark files drop straight into this reader; since they are
// not redistributable, graphgen/ synthesizes circuits with matched
// statistics and this writer emits them in the same format.
//
// The reader is a strictly-validating, zero-copy scanner: tokens are
// std::string_views into the bytes read and numbers go through
// std::from_chars.  Every file (.aux, .nodes, .nets, .pl) streams through
// one 64 KiB chunk.  .nodes adds each cell straight to the
// NetlistBuilder, whose packed name table (the one the Netlist keeps) is
// the only copy of the names: the node-name index, one open-addressing
// table, keeps names of up to 8 bytes inside its slots and reads longer
// ones through the builder, and .pl merges /FIXED into the builder's
// flags.  Measured one cold process per parse, medians of 10-25
// alternating runs, 4-vCPU Xeon VM, GCC 12 Release (text = .nodes +
// .nets; peak = VmHWM), with .nodes read whole -> streamed:
//
//   design (cells, text)            parse ms     peak MB       .aux+.pl MB
//   paper, planted (48k, 3.0 MB)    34 -> 34     9.4 -> 7.4    10.2 -> 8.3
//   adaptec1-like (212k, 13.7 MB)   273 -> 260   34.7 -> 25.7  38.0 -> 29.0
//   bigblue3-like (1.1M, 75.8 MB)   1807 -> 1799 160.5 -> 113.2 177.5 -> 130.4
//
// (the parse times overlap within their quartiles; a node-based hash map
// with whole-file buffers for every file took 51-55, 488-555 and
// 3450-4383 ms at 12.2, 43.7 and 218.4 MB).  Per pin the parse costs a
// hash probe and a name compare, random accesses that stop fitting in
// cache as designs grow, so large designs parse slower per byte.  Every
// malformed input is rejected with a "bookshelf: <file>:<line>: <what>"
// diagnostic — short nets, duplicate node names, unknown pins, count
// mismatches, truncated files, and unparsable numbers all name their
// exact location — and a failed read with "bookshelf: read failed for
// <file>".  Non-fatal oddities (a node /FIXED in .pl but not terminal in
// .nodes, .pl rows for unknown nodes) are recorded in
// BookshelfDesign::warnings.
//
// For repeated loads of the same design, prefer the binary snapshot
// format in netlist_io.hpp, which reloads at 290-490 MB/s (the same
// designs: 4.5-5.4, 26-27 and 140-177 ms).

#include <filesystem>
#include <string>
#include <vector>

#include "netlist/netlist.hpp"
#include "util/status.hpp"

namespace gtl {

/// A netlist plus (optional) placement coordinates, as stored on disk.
struct BookshelfDesign {
  Netlist netlist;
  /// Lower-left placement coordinates per cell; empty if no .pl file.
  std::vector<double> x;
  std::vector<double> y;
  /// Non-fatal parse diagnostics ("<file>:<line>: <what>"), e.g. a node
  /// marked /FIXED in .pl that .nodes did not declare terminal (the flag
  /// is merged: the cell ends up fixed either way).
  std::vector<std::string> warnings;
};

/// Load a design from a Bookshelf .aux file (which names the .nodes, .nets
/// and .pl files).  Throws std::runtime_error on malformed input.
[[nodiscard]] BookshelfDesign read_bookshelf(const std::filesystem::path& aux);

/// Load from explicit .nodes/.nets paths (and optional .pl).
[[nodiscard]] BookshelfDesign read_bookshelf_files(
    const std::filesystem::path& nodes, const std::filesystem::path& nets,
    const std::filesystem::path& pl = {});

/// Status-returning variants for services/CLIs that must reject bad input
/// without exceptions.  On error `*out` is left in an unspecified state;
/// the Status message carries the "<file>:<line>: <what>" diagnostic.
[[nodiscard]] Status try_read_bookshelf(const std::filesystem::path& aux,
                                        BookshelfDesign* out);
[[nodiscard]] Status try_read_bookshelf_files(
    const std::filesystem::path& nodes, const std::filesystem::path& nets,
    const std::filesystem::path& pl, BookshelfDesign* out);

/// Write `design` as <stem>.aux/.nodes/.nets/.pl in `dir`.
/// Placement files are written only when design.x/y are non-empty.
/// Unnamed cell c is written as o<c>, or as the first free o<c>_<k>
/// (k = 1, 2, ...) when a named cell owns o<c>, so the files read back.
void write_bookshelf(const BookshelfDesign& design,
                     const std::filesystem::path& dir,
                     const std::string& stem);

}  // namespace gtl
