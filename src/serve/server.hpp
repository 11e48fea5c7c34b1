#pragma once
// The gtl_serve query server: a long-lived daemon answering JSON-lines
// requests (see protocol.hpp) against a registry of loaded designs.
//
// Threading model
//   * Cheap ops (status, stats, cancel, unload_design) execute inline on
//     the calling/connection thread — in particular `cancel` must never
//     wait behind the very queue holding its target.
//   * Heavy ops (run_finder, load_design) pass admission control (a
//     bounded FIFO; full -> "overloaded") and run on a fixed worker
//     pool.  Each worker checks out an exclusive Finder session from the
//     pool its design's registry entry owns, so concurrent queries never
//     share session state.
//   * A watchdog thread keeps the per-request deadlines: when one
//     expires it trips the request's CancelToken, and the finder's
//     cooperative cancellation unwinds at the next seed boundary.
//
// Determinism: the "result" block of every run_finder response is
// byte-identical to a direct single-threaded Finder::run() with the same
// (design, config) — wall-clock only ever appears in the "server"
// envelope and in status/stats.
//
// The Server is usable without a socket (submit()/handle_line(), as the
// tests do) or as a daemon via serve(), which owns the Unix-socket
// accept loop and one reader thread per open connection; the accept loop
// joins a reader once its connection has closed.
//
// Lock ordering (enforced by GTL_ACQUIRED_AFTER under Clang
// -Wthread-safety-beta; see README "Code quality"):
//
//   rank 1  queue_mu_     — admission queue + stopping flag
//   rank 2  inflight_mu_  — in-flight run table + deadline heap
//   rank 3  manifest_mu_  — manifest mirror + file write
//   rank 4  metrics_mu_   — counters/latency (leaf: nested by
//                           manifest_apply and recover_from_manifest)
//
// A thread may only acquire a mutex of HIGHER rank than any it already
// holds.  In practice almost every path holds a single lock at a time;
// the one real nesting is manifest_mu_ -> metrics_mu_ (recording a
// manifest write failure).  Each design's SessionPool has its own
// unranked lock, taken with no server lock held.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "finder/progress.hpp"
#include "serve/design_registry.hpp"
#include "serve/manifest.hpp"
#include "serve/metrics.hpp"
#include "serve/protocol.hpp"
#include "util/socket.hpp"
#include "util/sync.hpp"
#include "util/timer.hpp"

namespace gtl::serve {

struct ServerConfig {
  /// Socket path for serve(); unused by submit()/handle_line().
  std::filesystem::path socket_path;
  /// Worker threads executing queued ops.
  std::size_t workers = 2;
  /// Admission-queue bound; a request arriving when `queue_capacity`
  /// jobs are already waiting is rejected with "overloaded".
  std::size_t queue_capacity = 16;
  /// Registry residency watermark (LRU eviction above this).
  std::size_t max_resident_bytes = std::size_t{512} << 20;
  /// Backoff hint stamped on shed responses (queue full).
  std::uint64_t retry_after_ms = 1000;
  /// Crash-safe design manifest path; empty = no manifest.  See
  /// manifest.hpp for the write-ahead discipline and
  /// recover_from_manifest() for restart replay.
  std::filesystem::path manifest_path;
  /// Applied to run_finder requests that give no deadline_ms (0 = none).
  std::uint64_t default_deadline_ms = 0;
  /// Cap on FinderConfig::num_threads per query; 0 leaves configs alone.
  /// (num_threads never changes results, only machine load.)
  std::size_t max_threads_per_query = 0;
  /// Warm Finder sessions kept per design (each registry entry's pool).
  std::size_t max_idle_sessions = 4;
};

class Server {
 public:
  /// Response sink: called exactly once per submitted line with the
  /// response (compact JSON, no trailing newline).  Inline ops invoke it
  /// before submit() returns; queued ops from a worker thread later.
  using ResponseFn = std::function<void(const std::string&)>;

  explicit Server(ServerConfig cfg);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Register an already-built design (preload / demo / tests), bypassing
  /// the wire protocol.  Same registry semantics as load_design, but the
  /// design records no sources (so it is neither manifested nor
  /// idempotently reloadable).  A restart names its preloads to
  /// recover_from_manifest(), which leaves them unloaded (both
  /// overloads).
  [[nodiscard]] Status preload(const std::string& name, BookshelfDesign design)
      GTL_EXCLUDES(manifest_mu_, metrics_mu_);

  /// Load a design from `aux` and/or `snapshot` (gtl_serve --preload-*)
  /// with load_design's registry, eviction and stats bookkeeping, and
  /// report the load in `info`.  Designs it evicts leave the manifest;
  /// the preload itself stays out of it, since its flags re-preload it
  /// on restart.
  [[nodiscard]] Status preload(const std::string& name,
                               const std::filesystem::path& aux,
                               const std::filesystem::path& snapshot,
                               DesignRegistry::LoadInfo* info)
      GTL_EXCLUDES(manifest_mu_, metrics_mu_);

  /// What a manifest replay did.
  struct RecoveryReport {
    std::size_t attempted = 0;  ///< manifest entries replayed
    std::size_t recovered = 0;  ///< designs re-loaded successfully
    std::vector<std::string> notes;  ///< one line per dropped entry
  };

  /// Replay `cfg.manifest_path`: re-load every recorded design from its
  /// recorded sources, then rewrite the manifest with the survivors
  /// (entries whose sources vanished are dropped with a note, not
  /// fatal).  An entry named in `preloads` is dropped without a load:
  /// the preload that follows owns that name (a client that unloaded a
  /// preloaded design and loaded it again over the wire left it in the
  /// manifest).  A missing manifest is a fresh server (OK, zero
  /// attempted); a corrupt one is reported as an error and otherwise
  /// ignored — the next successful load overwrites it.  Call before
  /// serving traffic and before the preloads.
  [[nodiscard]] Status recover_from_manifest(
      RecoveryReport* report, const std::vector<std::string>& preloads = {})
      GTL_EXCLUDES(manifest_mu_, metrics_mu_);

  /// Feed one request line into the server.  Inline-lane entry point:
  /// must be called with NO server lock held — inline ops (cancel in
  /// particular) acquire locks of their own and must never wait behind
  /// the worker lane.
  void submit(std::string line, ResponseFn reply)
      GTL_EXCLUDES(queue_mu_, inflight_mu_, manifest_mu_, metrics_mu_);

  /// Blocking convenience: submit and wait for the response line.
  [[nodiscard]] std::string handle_line(std::string_view line)
      GTL_EXCLUDES(queue_mu_, inflight_mu_, manifest_mu_, metrics_mu_);

  /// Bind `cfg.socket_path` and serve connections until `stop_flag`
  /// becomes true (checked ~10x/second) or stop() is called.  Prints
  /// nothing; the caller owns logging.  `on_listening` (if set) runs
  /// once, on the calling thread, after the socket is bound and
  /// listening and before the first accept — a client that connects
  /// once it has fired is never refused.  A bind failure returns the
  /// error without firing it.
  [[nodiscard]] Status serve(const std::atomic<bool>& stop_flag,
                             const std::function<void()>& on_listening = {})
      GTL_EXCLUDES(queue_mu_);

  /// Shut down: reject new work, cancel in-flight runs, drain the queue
  /// (each waiting job answered "cancelled"), join all threads.
  /// Idempotent; also called by the destructor.
  void stop() GTL_EXCLUDES(queue_mu_, inflight_mu_);

  [[nodiscard]] const ServerConfig& config() const { return cfg_; }

 private:
  /// A run_finder in flight (queued or executing); `cancel` and the
  /// deadline watchdog race for `reason` — first writer decides how a
  /// cancelled run is reported.
  struct InFlight {
    CancelToken token;
    static constexpr int kNone = 0, kDeadline = 1, kClient = 2;
    std::atomic<int> reason{kNone};
    /// Set the reason if unset and trip the token; true if we won.  One
    /// compare-and-swap and one store, no lock: the watchdog and stop()
    /// call it under inflight_mu_.
    bool cancel(int why) {
      int expected = kNone;
      const bool won = reason.compare_exchange_strong(expected, why);
      token.request_cancel();  // idempotent; trip even if we lost
      return won;
    }
  };
  using InFlightPtr = std::shared_ptr<InFlight>;

  struct Job {
    Request req;
    ResponseFn reply;
    InFlightPtr inflight;  ///< run_finder only
    std::chrono::steady_clock::time_point enqueued{};
  };

  struct DeadlineEntry {
    std::chrono::steady_clock::time_point when;
    std::weak_ptr<InFlight> target;
    bool operator>(const DeadlineEntry& other) const {
      return when > other.when;
    }
  };

  /// Worker lane: drains the admission queue; acquires every lock rank
  /// in turn while executing, so it must start with none held.
  void worker_loop()
      GTL_EXCLUDES(queue_mu_, inflight_mu_, manifest_mu_, metrics_mu_);
  /// Watchdog lane: sleeps on inflight_mu_ until the earliest deadline
  /// and trips expired runs' tokens without dropping it (a trip takes
  /// no lock).
  void watchdog_loop() GTL_EXCLUDES(inflight_mu_);
  void execute(Job job)
      GTL_EXCLUDES(queue_mu_, inflight_mu_, manifest_mu_, metrics_mu_);
  void execute_run(Job& job) GTL_EXCLUDES(inflight_mu_, metrics_mu_);
  void execute_load(Job& job) GTL_EXCLUDES(manifest_mu_, metrics_mu_);
  /// Inline lane: status/stats/cancel/unload on the calling thread.
  /// `cancel` must never wait behind the worker queue, so the inline
  /// lane as a whole is contracted lock-free on entry.
  void run_inline(const Request& req, const ResponseFn& reply)
      GTL_EXCLUDES(queue_mu_, inflight_mu_, manifest_mu_, metrics_mu_);
  JsonValue status_json() GTL_EXCLUDES(queue_mu_, inflight_mu_);

  void reply_error(const Job& job, ErrorCode code, const std::string& msg,
                   std::uint64_t retry_after_ms = 0);
  /// Count one registry load in the stats: the load itself, its snapshot
  /// hit or fill failure, and the designs it evicted.
  void count_load(const DesignRegistry::LoadInfo& info)
      GTL_REQUIRES(metrics_mu_);
  /// Record (`record` non-null) and/or forget manifest entries, then
  /// persist atomically.  No-op without a manifest path.  A failed write
  /// bumps manifest_write_failures and is returned for the caller's
  /// notes — availability beats durability, the op still succeeds.
  [[nodiscard]] Status manifest_apply(const std::string& record_name,
                                      const ManifestEntry* record,
                                      const std::vector<std::string>& forget)
      GTL_EXCLUDES(manifest_mu_, metrics_mu_);
  void finish_inflight(std::uint64_t id) GTL_EXCLUDES(inflight_mu_);

  ServerConfig cfg_;
  DesignRegistry registry_;
  Timer uptime_;

  // --- rank 1 -------------------------------------------------------------
  Mutex queue_mu_;
  CondVar queue_cv_;
  std::deque<Job> queue_ GTL_GUARDED_BY(queue_mu_);
  bool stopping_ GTL_GUARDED_BY(queue_mu_) = false;
  /// Spawned in the constructor, joined by stop(); not itself guarded.
  std::vector<std::thread> workers_;

  // --- rank 2 -------------------------------------------------------------
  /// Also guards the deadline heap, a second index over the same runs:
  /// submit registers a run and its deadline in one critical section.
  Mutex inflight_mu_ GTL_ACQUIRED_AFTER(queue_mu_);
  std::unordered_map<std::uint64_t, InFlightPtr> inflight_
      GTL_GUARDED_BY(inflight_mu_);
  CondVar watchdog_cv_;
  std::priority_queue<DeadlineEntry, std::vector<DeadlineEntry>,
                      std::greater<DeadlineEntry>>
      deadlines_ GTL_GUARDED_BY(inflight_mu_);
  bool watchdog_stop_ GTL_GUARDED_BY(inflight_mu_) = false;
  std::thread watchdog_;

  // --- rank 3 -------------------------------------------------------------
  /// In-memory mirror of the manifest file; the lock is held across the
  /// map update *and* the file write so the file always serializes a
  /// consistent state.
  Mutex manifest_mu_ GTL_ACQUIRED_AFTER(queue_mu_, inflight_mu_);
  Manifest manifest_ GTL_GUARDED_BY(manifest_mu_);

  // --- rank 4 (leaf) ------------------------------------------------------
  Mutex metrics_mu_
      GTL_ACQUIRED_AFTER(queue_mu_, inflight_mu_, manifest_mu_);
  ServerMetrics metrics_ GTL_GUARDED_BY(metrics_mu_);

  std::once_flag stop_once_;
};

}  // namespace gtl::serve
