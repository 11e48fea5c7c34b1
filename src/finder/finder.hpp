#pragma once
// gtl::Finder — the session API over the paper's three-phase detector
// (DAC 2010, Ch. IV).  A Finder session
//
//   * decomposes the pipeline into individually callable phases with
//     inspectable intermediate artifacts:
//
//       grow_orderings()      -> OrderingSet   (Phase I)
//       extract_candidates()  -> CandidateSet  (Phase II)
//       refine_and_prune()    -> FinderResult  (Phase III)
//       run()                 -> FinderResult  (all three; Phase I
//                                streams into Phase II, same bytes)
//
//   * reports progress through a ProgressObserver and honors a
//     cooperative CancelToken at seed granularity, returning partial
//     results whose completed seeds are byte-identical to a full run;
//
//   * owns reusable scratch: a ThreadPool and, per worker, one
//     OrderingEngine (8 B per cell and 4 B per net; it grows Phase I's
//     orderings and Phase III's re-growths and measures Phase III's
//     family members), the curve buffers and the refine arena.  Repeated
//     run() calls on the same netlist skip thread spawn and O(|V|)
//     allocations — the win for repeated-query serving is perfbench's
//     finder.cold_penalty_ms.
//
// Lifetimes: the session borrows the Netlist (and, if set, the observer
// and cancel token); all must outlive the Finder.  A session is bound to
// one netlist and one validated config, of which only rng_seed may
// change (set_rng_seed); make a new session to change anything else.
// Finder is not thread-safe — one session per serving thread — but
// different sessions never share state.
//
// Determinism: results depend only on FinderConfig (notably rng_seed),
// never on num_threads, on which worker ran which work item, or on how
// many times (or under which earlier seeds) the session has been
// reused.  Every work item writes only its own slot and derives its RNG
// from its index (pinned by tests/finder/finder_scheduling_test.cpp).

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "finder/candidate.hpp"
#include "finder/progress.hpp"
#include "finder/refine.hpp"
#include "netlist/netlist.hpp"
#include "order/linear_ordering.hpp"
#include "util/status.hpp"
#include "util/sync.hpp"
#include "util/thread_pool.hpp"

namespace gtl {

/// The settable parameters of a run.  The clear-minimum test, the Rent
/// estimate's floor and Phase III's size floor are fixed constants
/// (score_curve.hpp), not settings, and Phase I always ranks by
/// connection first (paper §3.2.1; see linear_ordering.hpp).
struct FinderConfig {
  /// m: number of random starting seeds.
  std::size_t num_seeds = 100;
  /// Z: maximum linear ordering length.
  std::size_t max_ordering_length = 100'000;
  /// Paper's large-net update skip (0 = exact).
  std::uint32_t large_net_threshold = 20;
  /// Φ used for selection and pruning (paper's final choice: GTL-SD).
  ScoreKind score = ScoreKind::kGtlSd;
  /// l: inner re-growths per candidate in Phase III; 0 skips refinement
  /// (ablation knob).
  std::size_t refine_seeds = 3;
  /// Worker threads; 0 = hardware concurrency.
  std::size_t num_threads = 0;
  std::uint64_t rng_seed = 1;

  /// Check every field against its documented domain.  Returns OK or an
  /// invalid-argument Status naming the offending field — never throws,
  /// so services can reject bad request configs gracefully.  See
  /// finder_json.hpp for JSON (de)serialization.
  [[nodiscard]] Status validate() const;
};

struct FinderResult {
  /// Final disjoint GTLs, best (lowest) Φ first.
  std::vector<Candidate> gtls;
  /// The shared scoring context (global Rent exponent = mean over all m
  /// ordering estimates; A_G from the netlist).
  ScoreContext context;
  std::size_t orderings_grown = 0;
  std::size_t candidates_before_refine = 0;
  std::size_t candidates_after_dedup = 0;
  double phase1_2_seconds = 0.0;
  double phase3_seconds = 0.0;
  double total_seconds = 0.0;
  /// True when a CancelToken cut the run short; `gtls` then covers only
  /// the seeds/candidates completed before the cancellation point (each
  /// byte-identical to its full-run counterpart).
  bool cancelled = false;
};

/// Phase I artifact: one grown ordering per selected seed.  When the
/// phases are stepped individually, the orderings stay resident so
/// Phase II is re-runnable and inspectable — budget ~20 bytes x
/// num_seeds x max_ordering_length in the worst case.  run() never
/// stores them: it extracts each ordering as soon as it has grown, from
/// a per-worker buffer, so after run() only `seeds` and `completed` are
/// filled and `orderings` is empty.
struct OrderingSet {
  /// The m seed cells drawn from the movable set (I.1).
  std::vector<CellId> seeds;
  /// orderings[i] grew from seeds[i]; untouched (empty) when the seed was
  /// skipped by cancellation.
  std::vector<LinearOrdering> orderings;
  /// completed[i] != 0 iff orderings[i] was actually grown.
  std::vector<std::uint8_t> completed;
  double seconds = 0.0;

  [[nodiscard]] std::size_t num_completed() const {
    std::size_t n = 0;
    for (const std::uint8_t c : completed) n += c != 0;
    return n;
  }
};

/// Phase II artifact: candidates extracted from the score curves.
struct CandidateSet {
  /// Candidates in seed order with identical member lists dropped (they
  /// would refine to overlapping results that pruning discards); exactly
  /// what Phase III will refine.
  std::vector<Candidate> candidates;
  /// Candidates extracted before deduplication.
  std::size_t extracted = 0;
  /// Shared scoring context: global Rent exponent (mean of per-ordering
  /// estimates, paper §3.2.2) plus A_G.
  ScoreContext context;
  double seconds = 0.0;
};

class Finder {
 public:
  /// Binds the session to `nl` with a validated config.  Precondition:
  /// cfg.validate().is_ok() — call it first for a throw-free rejection
  /// path; the constructor itself GTL_REQUIREs validity.  Services should
  /// prefer the Status-returning create() factory below.
  explicit Finder(const Netlist& nl, FinderConfig cfg = {});

  /// Throw-free session construction: validates `cfg` and, on success,
  /// binds a new session to `nl` in *out.  On failure *out is untouched
  /// and the Status names the offending config field — the rejection
  /// path a server needs for untrusted request configs (the throwing
  /// constructor is now a thin wrapper over the same validation).
  [[nodiscard]] static Status create(const Netlist& nl, FinderConfig cfg,
                                     std::unique_ptr<Finder>* out);

  Finder(const Finder&) = delete;
  Finder& operator=(const Finder&) = delete;

  [[nodiscard]] const Netlist& netlist() const { return *nl_; }
  [[nodiscard]] const FinderConfig& config() const { return cfg_; }

  /// Observe progress (nullptr disables).  Sticky across runs.
  void set_observer(ProgressObserver* observer) { observer_ = observer; }
  /// Cooperate with cancellation (nullptr disables).  Sticky across runs.
  void set_cancel_token(const CancelToken* token) { cancel_ = token; }

  /// Re-seed the session: the next run equals that of a fresh session
  /// built with this seed (the workspace holds nothing that depends on
  /// it).  The current run's artifacts become unavailable and
  /// cancelled() reads false, as before a first run, so the stepped
  /// phases start again at grow_orderings().
  void set_rng_seed(std::uint64_t seed) {
    cfg_.rng_seed = seed;
    stage_ = Stage::kIdle;
    cancelled_ = false;
  }

  // --- the phase-decomposed pipeline ---

  /// Phase I: select seeds and grow one linear ordering per seed.
  /// Starts a fresh run (drops prior phase artifacts and result).
  const OrderingSet& grow_orderings();

  /// Phase II: score curves + clear-minimum extraction over the grown
  /// orderings.  Precondition: grow_orderings() ran this session run.
  const CandidateSet& extract_candidates();

  /// Phase III: genetic refinement then best-first pruning.
  /// Precondition: extract_candidates() ran this session run.
  const FinderResult& refine_and_prune();

  /// All three phases; byte-identical to stepping them, cancelled runs
  /// included (pinned by tests/finder/finder_equivalence_test.cpp).
  /// Phase I streams into Phase II: each work item grows one ordering
  /// into its worker's buffer and extracts from it at once, so peak
  /// memory holds O(workers x Z) of orderings instead of O(m x Z), and
  /// no ordering is kept (see OrderingSet); step the phases to keep
  /// them.  The Rent mean and the dedup stay one serial pass in seed
  /// order, shared with extract_candidates().  Observer events come in
  /// the stepped order: Phase I's (one on_ordering_grown per seed), then
  /// Phase II's around the serial pass, then Phase III's.
  const FinderResult& run();

  // --- artifact access (valid once the producing phase has run) ---

  [[nodiscard]] bool has_orderings() const { return stage_ >= Stage::kGrown; }
  [[nodiscard]] bool has_candidates() const {
    return stage_ >= Stage::kExtracted;
  }
  [[nodiscard]] bool has_result() const { return stage_ >= Stage::kDone; }

  [[nodiscard]] const OrderingSet& orderings() const;
  [[nodiscard]] const CandidateSet& candidates() const;
  [[nodiscard]] const FinderResult& result() const;

  /// True when the current run's artifacts were truncated by the token.
  [[nodiscard]] bool cancelled() const { return cancelled_; }

 private:
  enum class Stage { kIdle, kGrown, kExtracted, kDone };

  /// Per-worker reusable scratch; allocated lazily, kept across runs.
  /// Ownership rule: scratch_[w] is touched only by the task holding
  /// worker slot w of the current parallel_for, and no phase reads
  /// scratch contents written for another work item — which is why reuse
  /// across items and runs cannot change results.
  struct WorkerScratch {
    std::unique_ptr<OrderingEngine> engine;
    /// Phase II curve buffers (selected-Φ values + shared ln tables).
    CurveScratch curve;
    /// Phase III genetic-family merge buffers, inner-regrowth ordering
    /// and curves.  run()'s streamed Phase I grows into the same
    /// ordering buffer: the phases never overlap.
    RefineArena arena;
  };

  /// Phase II's per-seed results before its serial pass: slot i holds
  /// ordering i's candidate and Rent estimate (-1 when it had no curve).
  struct ExtractionSlots {
    explicit ExtractionSlots(std::size_t m) : candidate(m), rent(m, -1.0) {}
    std::vector<std::optional<Candidate>> candidate;
    std::vector<double> rent;
  };

  /// Start a fresh run: drop prior artifacts, draw the seeds (I.1) and
  /// clear their completion flags.
  void begin_run();
  /// Phase II on one ordering, the one grown from seeds[i]: fills slot i
  /// using worker w's curve scratch.
  void extract_one(std::size_t i, std::size_t w,
                   const LinearOrdering& ordering, ExtractionSlots& slots);
  /// Phase II's serial pass in seed order (global Rent mean, dedup) into
  /// candidates_, then the phase's end events.  `seconds` is the phase's
  /// time before the pass.
  void finish_extraction(ExtractionSlots& slots, double seconds)
      GTL_EXCLUDES(observer_mu_);

  [[nodiscard]] bool cancel_requested() const {
    return cancel_ != nullptr && cancel_->cancel_requested();
  }
  [[nodiscard]] OrderingEngine& engine_for(std::size_t worker);

  void notify_phase_start(FinderPhase phase, std::size_t work_items)
      GTL_EXCLUDES(observer_mu_);
  void notify_phase_end(FinderPhase phase, double seconds)
      GTL_EXCLUDES(observer_mu_);
  void notify_ordering_grown(std::size_t total) GTL_EXCLUDES(observer_mu_);
  void notify_candidate_refined(std::size_t total) GTL_EXCLUDES(observer_mu_);

  const Netlist* nl_;
  FinderConfig cfg_;
  OrderingConfig ocfg_;
  ProgressObserver* observer_ = nullptr;
  const CancelToken* cancel_ = nullptr;

  // Session-owned, reused across runs.
  ThreadPool pool_;
  std::vector<WorkerScratch> scratch_;
  std::vector<CellId> movable_;

  // Current run's artifacts.
  Stage stage_ = Stage::kIdle;
  bool cancelled_ = false;
  OrderingSet orderings_;
  CandidateSet candidates_;
  FinderResult result_;

  // Observer serialization (callbacks fire from worker threads).  The
  // progress counter is atomic so the no-observer fast path never takes
  // the mutex; with an observer attached, count-and-callback happen
  // under the lock, keeping the delivered counts strictly increasing.
  // observer_mu_ is a serialization capability, not a data guard:
  // observer_ itself is only written between runs (set_observer contract)
  // and so carries no GTL_GUARDED_BY.
  Mutex observer_mu_;
  std::atomic<std::size_t> progress_counter_{0};
};

}  // namespace gtl
