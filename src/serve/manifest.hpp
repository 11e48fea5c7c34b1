#pragma once
// Crash-safe design manifest for gtl_serve.
//
// The manifest is a small JSON file recording which designs the server
// has acknowledged loading and from which sources:
//
//   {"version": 1,
//    "designs": {"ibm01": {"aux": "/corpus/ibm01.aux",
//                          "snapshot": "/cache/ibm01.snap"}}}
//
// Discipline: the server updates the manifest *after* registering a
// design but *before* acknowledging the load (and symmetrically removes
// the entry before acknowledging an unload), writing through a unique
// temp file + rename — the same atomicity discipline as the snapshot
// cache.  A reader therefore always sees either the old or the new
// manifest, never a torn one, and every design a client was told is
// loaded (and whose load gave recoverable sources) is either in the
// manifest or was since unloaded/evicted.  On restart the server replays
// the manifest (Server::recover_from_manifest), re-loading each design
// from its recorded sources; entries whose sources have vanished are
// dropped with a note, never fatal.
//
// Only designs loaded via load_design with on-disk sources appear here;
// preloaded in-process designs have nothing to re-load from.
//
// Concurrency: the functions below are pure file I/O with no internal
// locking.  The server's in-memory mirror (`Server::manifest_`) is
// GTL_GUARDED_BY(manifest_mu_) (rank 3 in the lock order, see
// server.hpp), and the lock is held across the map update and the
// write_manifest_atomic call so the file always serializes a consistent
// state.

#include <filesystem>
#include <map>
#include <string>

#include "util/status.hpp"

namespace gtl::serve {

inline constexpr std::uint32_t kManifestVersion = 1;

struct ManifestEntry {
  std::string aux;       ///< Bookshelf .aux source path ("" if none)
  std::string snapshot;  ///< binary snapshot path ("" if none)

  bool operator==(const ManifestEntry&) const = default;
};

/// Design name -> sources, name-sorted (deterministic serialization).
using Manifest = std::map<std::string, ManifestEntry>;

/// Read and validate a manifest file.  kNotFound when the file does not
/// exist (a fresh server), kParseError/kInvalidArgument when it exists
/// but is not a valid manifest.
[[nodiscard]] Status read_manifest(const std::filesystem::path& path,
                                   Manifest* out);

/// Serialize `manifest` and atomically replace `path` (unique temp file
/// in the same directory + rename; any failure removes the temp file and
/// leaves the previous manifest intact).
///
/// Failpoint "manifest.write": fail = injected write/rename failure.
[[nodiscard]] Status write_manifest_atomic(const Manifest& manifest,
                                           const std::filesystem::path& path);

}  // namespace gtl::serve
