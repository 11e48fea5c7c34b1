#pragma once
// Bookshelf placement format I/O (the format of the ISPD 2005/2006
// placement benchmarks the paper evaluates on: .aux / .nodes / .nets / .pl).
//
// The real benchmark files drop straight into this reader; since they are
// not redistributable, graphgen/ synthesizes circuits with matched
// statistics and this writer emits them in the same format.
//
// The reader is a strictly-validating, zero-copy scanner: each file is
// read in one buffered gulp and tokenized in place (std::string_view +
// std::from_chars), so parse cost is ~memory bandwidth, not per-line
// istringstream churn.  Every malformed input is rejected with a
// "bookshelf: <file>:<line>: <what>" diagnostic — short nets, duplicate
// node names, unknown pins, count mismatches, truncated files, and
// unparsable numbers all name their exact location.  Non-fatal oddities
// (a node /FIXED in .pl but not terminal in .nodes, .pl rows for unknown
// nodes) are recorded in BookshelfDesign::warnings.
//
// For repeated loads of the same design, prefer the binary snapshot
// format in netlist_io.hpp, which reloads in ~O(read) time.

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
