#pragma once
// Registry of immutable, shared netlists for the query server.
//
// Each entry is a ref-counted `shared_ptr<const DesignEntry>`: lookups
// hand out the pointer, so eviction/unload never invalidates a design
// that in-flight queries (or their leased Finder sessions) still
// reference — the memory is reclaimed when the last holder drops it.
// Each entry owns the pool of warm sessions bound to its netlist, so
// dropping the entry drops its parked sessions too.  Residency is
// bounded by `max_resident_bytes` with LRU eviction: loading a design
// that would push the total over the cap evicts least-recently-used
// entries first.  A single design larger than the whole cap is still
// admitted (after evicting everything else) — the cap bounds the
// *steady state*, refusing the workload entirely would help nobody.
//
// Loads go through the PR 5 snapshot-cache protocol
// (load_with_snapshot_cache): an existing snapshot is the O(read) fast
// path, otherwise the Bookshelf text is parsed and the snapshot filled
// best-effort.  NOTE the cache is keyed by path only (see
// netlist_io.hpp): a snapshot path that exists wins over the aux path.
//
// Thread-safe; every method takes the internal lock.

#include <cstddef>
#include <filesystem>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "netlist/bookshelf.hpp"
#include "serve/session_pool.hpp"
#include "util/status.hpp"
#include "util/sync.hpp"

namespace gtl::serve {

/// One loaded design; immutable after registration except for its
/// thread-safe session pool.  `source_aux` / `source_snapshot` record
/// where DesignRegistry::load() read it from (both empty for insert()ed
/// designs) — the key for idempotent reloads and the payload of the
/// server's recovery manifest.
struct DesignEntry {
  explicit DesignEntry(std::size_t max_idle_sessions)
      : sessions(max_idle_sessions) {}

  std::string name;
  BookshelfDesign design;
  std::size_t resident_bytes = 0;
  std::string source_aux;
  std::string source_snapshot;
  /// Warm sessions bound to `design.netlist`.  Declared last, so they are
  /// destroyed before the netlist they borrow.
  mutable SessionPool sessions;
};

class DesignRegistry {
 public:
  using EntryPtr = std::shared_ptr<const DesignEntry>;

  /// `max_resident_bytes` is the watermark: loading past it evicts LRU
  /// entries to make room (a single oversized design is still admitted —
  /// see above).  Each entry's session pool keeps up to
  /// `max_idle_sessions` warm sessions.
  explicit DesignRegistry(std::size_t max_resident_bytes,
                          std::size_t max_idle_sessions = 4);

  /// What a load did, for the response/metrics.
  struct LoadInfo {
    EntryPtr entry;
    bool snapshot_hit = false;
    bool fill_failed = false;          ///< best-effort cache fill failed
    std::vector<std::string> notes;    ///< snapshot-cache fill notes
    std::vector<std::string> evicted;  ///< names evicted to make room
  };

  /// Load from `aux` and/or `snapshot` (see the cache protocol above)
  /// and register under `name`.  Fails with kInvalidArgument if the name
  /// is already registered ("already loaded" — unload first to replace).
  [[nodiscard]] Status load(const std::string& name,
                            const std::filesystem::path& aux,
                            const std::filesystem::path& snapshot,
                            LoadInfo* info) GTL_EXCLUDES(mu_);

  /// Register an already-built design (preload / demo / tests).
  [[nodiscard]] Status insert(const std::string& name, BookshelfDesign design,
                              LoadInfo* info) GTL_EXCLUDES(mu_);

  /// Look up by name; bumps the entry to most-recently-used.  Null when
  /// absent.
  [[nodiscard]] EntryPtr find(const std::string& name) GTL_EXCLUDES(mu_);

  /// Drop the registry's reference.  True if the name was present.
  bool erase(const std::string& name) GTL_EXCLUDES(mu_);

  struct DesignInfo {
    std::string name;
    std::size_t cells = 0;
    std::size_t nets = 0;
    std::size_t pins = 0;
    std::size_t resident_bytes = 0;
  };
  /// Snapshot of the current entries, most recently used first.
  [[nodiscard]] std::vector<DesignInfo> list() const GTL_EXCLUDES(mu_);

  [[nodiscard]] std::size_t total_resident_bytes() const GTL_EXCLUDES(mu_);
  [[nodiscard]] std::size_t max_resident_bytes() const { return max_bytes_; }
  [[nodiscard]] std::size_t size() const GTL_EXCLUDES(mu_);

 private:
  /// Register `entry`, evicting LRU entries until the total fits (the
  /// new entry itself is never evicted).  Returns names evicted.
  std::vector<std::string> insert_locked(EntryPtr entry) GTL_REQUIRES(mu_);

  struct Slot {
    EntryPtr entry;
    std::list<std::string>::iterator lru_pos;
  };

  mutable Mutex mu_;
  // The watermark and the pool size are fixed at construction; only the
  // guarded state below is shared.
  const std::size_t max_bytes_;
  const std::size_t max_idle_sessions_;
  std::size_t total_bytes_ GTL_GUARDED_BY(mu_) = 0;
  /// Front = most recently used.
  std::list<std::string> lru_ GTL_GUARDED_BY(mu_);
  std::unordered_map<std::string, Slot> entries_ GTL_GUARDED_BY(mu_);
};

/// Approximate heap bytes of a loaded design (netlist + placement +
/// warnings) — the unit of the registry's residency accounting.
[[nodiscard]] std::size_t design_resident_bytes(const BookshelfDesign& design);

}  // namespace gtl::serve
