#pragma once
// Pool of reusable Finder sessions for one loaded design.
//
// A Finder session owns sizable workspace (a thread pool, per-worker
// ordering engines, curve and refine scratch) that is reusable across
// runs; the pool keeps finished sessions warm so repeated queries
// against the same design skip the allocation storm.  Sessions are keyed
// by a config fingerprint: the key-sorted JSON dump of the FinderConfig
// with rng_seed cleared.  A Finder binds its config at construction, but
// its seed can change (Finder::set_rng_seed), so one warm session serves
// every seed of a config; acquire re-seeds it on checkout.
//
// At most `max_idle` sessions stay parked per design, across all
// configs.  When a returned session finds the pool full, the least
// recently parked one is evicted to make room, and a checkout takes the
// most recently parked match — so the configs in current use stay warm.
//
// Ownership: each registry entry (design_registry.hpp) owns the pool of
// its netlist, and every Lease holds the entry — so a design evicted or
// unloaded mid-query stays alive, with its pool and parked sessions,
// until the last lease drops.  A reloaded name is a new entry with an
// empty pool, so it never leases a session bound to the old netlist.  A
// Finder session is NOT thread-safe; a Lease hands exclusive ownership
// to one serving thread and returns the session on destruction.

#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "finder/finder.hpp"
#include "util/status.hpp"
#include "util/sync.hpp"

namespace gtl::serve {

struct DesignEntry;

/// Exclusive ownership of one Finder session, returned to its pool on
/// destruction.  Movable, not copyable.  A default-constructed lease is
/// empty (`valid()` false).
class SessionLease {
 public:
  SessionLease() = default;
  SessionLease(SessionLease&&) noexcept = default;
  SessionLease& operator=(SessionLease&& other) noexcept;
  SessionLease(const SessionLease&) = delete;
  SessionLease& operator=(const SessionLease&) = delete;
  ~SessionLease() { release(); }

  [[nodiscard]] bool valid() const { return finder_ != nullptr; }
  [[nodiscard]] Finder& finder() { return *finder_; }

  /// Return the session to the pool now (idempotent).  Clears the
  /// sticky observer/cancel-token bindings first so a recycled session
  /// never fires into a dead request's state.
  void release();

 private:
  friend class SessionPool;
  SessionLease(std::shared_ptr<const DesignEntry> entry,
               std::unique_ptr<Finder> f, std::string fingerprint)
      : entry_(std::move(entry)),
        finder_(std::move(f)),
        fingerprint_(std::move(fingerprint)) {}

  /// Keeps the netlist, the pool and its parked sessions alive.
  std::shared_ptr<const DesignEntry> entry_;
  std::unique_ptr<Finder> finder_;
  std::string fingerprint_;
};

class SessionPool {
 public:
  /// `max_idle` bounds warm sessions kept across all configs (0 keeps
  /// none).
  explicit SessionPool(std::size_t max_idle) : max_idle_(max_idle) {}

  /// Check out a session of `entry`'s pool for `cfg`: a warm one when
  /// the fingerprint matches (*reused = true), re-seeded to
  /// cfg.rng_seed, else a freshly constructed one bound to `entry`'s
  /// netlist.  Fails (kInvalidArgument) when the config does not
  /// validate — the service rejection path; nothing is constructed on
  /// failure.
  [[nodiscard]] static Status acquire(std::shared_ptr<const DesignEntry> entry,
                                      const FinderConfig& cfg,
                                      SessionLease* out, bool* reused);

 private:
  friend class SessionLease;

  struct Parked {
    std::string fingerprint;
    std::unique_ptr<Finder> finder;
  };

  /// Unpark the most recently parked session for `fingerprint`, or null.
  std::unique_ptr<Finder> take(const std::string& fingerprint)
      GTL_EXCLUDES(mu_);
  /// Park a returned session, evicting the least recently parked one
  /// when `max_idle_` are parked already.
  void put_back(std::unique_ptr<Finder> finder, std::string fingerprint)
      GTL_EXCLUDES(mu_);

  const std::size_t max_idle_;
  Mutex mu_;
  /// Parked sessions, least recently parked first.
  std::vector<Parked> idle_ GTL_GUARDED_BY(mu_);
};

/// The pooling key: key-sorted compact JSON of the config with rng_seed
/// cleared, so two configs fingerprint equal iff every other field is
/// equal.
[[nodiscard]] std::string config_fingerprint(const FinderConfig& cfg);

}  // namespace gtl::serve
