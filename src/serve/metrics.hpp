#pragma once
// Server-side metrics for gtl_serve, returned by the `stats` op.
//
// Latency percentiles come from a fixed-size reservoir of the most
// recent run_finder latencies per design (nearest-rank on a sorted copy,
// computed only when stats is requested — the hot path pays one ring
// store).  Counters are plain integers; the Server guards the whole
// block with one mutex since every touch is O(1) and the finder run it
// brackets is milliseconds at minimum.  That guard is a compile-time
// contract: the owning field is `Server::metrics_` with
// GTL_GUARDED_BY(metrics_mu_) (rank 4, the leaf of the lock order — see
// server.hpp), so under Clang any unlocked touch fails the build.

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/json.hpp"

namespace gtl::serve {

/// Ring buffer of the most recent `capacity` latency samples.
class LatencyReservoir {
 public:
  explicit LatencyReservoir(std::size_t capacity = 512);

  void add(double seconds);

  struct Percentiles {
    double p50_seconds = 0.0;
    double p95_seconds = 0.0;
    double p99_seconds = 0.0;
    /// Samples currently resident (<= capacity).
    std::size_t window = 0;
  };

  /// Nearest-rank percentiles over the resident window (zeros if empty).
  [[nodiscard]] Percentiles percentiles() const;

 private:
  std::vector<double> samples_;
  std::size_t capacity_;
  std::size_t next_ = 0;
};

/// Per-design counters + latency window.
struct DesignMetrics {
  std::uint64_t queries = 0;            ///< run_finder completed OK
  std::uint64_t errors = 0;             ///< run_finder failed (any code)
  std::uint64_t cancelled = 0;          ///< ... of which client cancels
  std::uint64_t deadline_exceeded = 0;  ///< ... of which deadline expiries
  std::uint64_t sessions_created = 0;   ///< cold Finder constructions
  std::uint64_t sessions_reused = 0;    ///< warm pool checkouts
  LatencyReservoir latency;
};

/// Whole-server metrics block (guard externally — in the Server via
/// GTL_GUARDED_BY(metrics_mu_)).
struct ServerMetrics {
  std::uint64_t received = 0;           ///< request lines seen
  std::uint64_t rejected_invalid = 0;   ///< parse/validation rejections
  std::uint64_t rejected_overload = 0;  ///< queue-full sheds
  std::uint64_t completed_ok = 0;       ///< any op answered ok=true
  std::uint64_t snapshot_hits = 0;      ///< load_design served from cache
  std::uint64_t snapshot_fill_failures = 0;  ///< best-effort fill failed
  std::uint64_t designs_loaded = 0;
  std::uint64_t designs_evicted = 0;
  std::uint64_t designs_recovered = 0;  ///< manifest replay re-loads
  std::uint64_t loads_idempotent = 0;   ///< load_design same-source replays
  std::uint64_t manifest_write_failures = 0;
  std::uint64_t cancel_requests = 0;
  std::map<std::string, DesignMetrics> per_design;

  [[nodiscard]] DesignMetrics& design(const std::string& name) {
    return per_design[name];
  }

  /// The `stats` result block (latency in milliseconds for readability).
  [[nodiscard]] JsonValue to_json() const;
};

}  // namespace gtl::serve
