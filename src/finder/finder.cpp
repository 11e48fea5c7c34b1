#include "finder/finder.hpp"

#include <optional>
#include <unordered_map>

#include "util/require.hpp"
#include "util/rng.hpp"
// gtl-lint: allow(det-wall-clock): timing metadata; zeroed in results
#include "util/timer.hpp"

namespace gtl {
namespace {

/// Stable 64-bit mix for deriving per-index RNG streams.
std::uint64_t mix_seed(std::uint64_t base, std::uint64_t index) {
  std::uint64_t x =
      base ^ (0x9E3779B97F4A7C15ULL + index * 0xBF58476D1CE4E5B9ULL);
  x ^= x >> 30;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 27;
  return x;
}

/// FNV-style hash of a member list, for candidate deduplication.
std::uint64_t hash_members(const std::vector<CellId>& cells) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const CellId c : cells) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

Status invalid_field(const char* field, const std::string& why) {
  return Status::invalid_argument(std::string("FinderConfig::") + field +
                                  " " + why);
}

}  // namespace

Status FinderConfig::validate() const {
  // Caps are generous sanity bounds: they catch corrupted or hostile
  // request configs (a service must not allocate per-seed state for
  // "num_seeds": 1e18) while admitting far more than the paper ever uses.
  constexpr std::size_t kMaxSeeds = 1u << 24;          // paper: 100
  constexpr std::size_t kMaxRefineSeeds = 64;          // paper: 3
  constexpr std::size_t kMaxThreads = 4096;
  if (num_seeds > kMaxSeeds) {
    return invalid_field("num_seeds", "exceeds the 2^24 sanity cap");
  }
  if (max_ordering_length < 2) {
    return invalid_field("max_ordering_length",
                         "must be >= 2 (a one-cell ordering has no curve)");
  }
  if (score != ScoreKind::kNgtlS && score != ScoreKind::kGtlSd) {
    return invalid_field("score", "is not a known ScoreKind");
  }
  if (refine_seeds > kMaxRefineSeeds) {
    return invalid_field("refine_seeds",
                         "exceeds the sanity cap of 64 (genetic family "
                         "size is quadratic in l)");
  }
  if (num_threads > kMaxThreads) {
    return invalid_field("num_threads", "exceeds the 4096 sanity cap");
  }
  return Status::ok();
}

namespace {

/// Reject an invalid config before any member that depends on it (the
/// thread pool spawns cfg.num_threads workers) is constructed.
const FinderConfig& validated(const FinderConfig& cfg) {
  const Status st = cfg.validate();
  GTL_REQUIRE(st.is_ok(), st.to_string());
  return cfg;
}

}  // namespace

Finder::Finder(const Netlist& nl, FinderConfig cfg)
    : nl_(&nl), cfg_(std::move(cfg)), pool_(validated(cfg_).num_threads) {
  ocfg_.max_length = cfg_.max_ordering_length;
  ocfg_.large_net_threshold = cfg_.large_net_threshold;
  scratch_.resize(pool_.size());
  // Movable cells (fixed pads never seed or join a GTL) — the netlist is
  // bound for the session's lifetime, so collect them once.
  movable_.reserve(nl_->num_movable());
  for (CellId c = 0; c < nl_->num_cells(); ++c) {
    if (!nl_->is_fixed(c)) movable_.push_back(c);
  }
}

Status Finder::create(const Netlist& nl, FinderConfig cfg,
                      std::unique_ptr<Finder>* out) {
  GTL_RETURN_IF_ERROR(cfg.validate());
  // The constructor re-validates (its contract for direct users); that
  // second pass is a handful of comparisons and can no longer fail.
  out->reset(new Finder(nl, std::move(cfg)));
  return Status::ok();
}

OrderingEngine& Finder::engine_for(std::size_t worker) {
  WorkerScratch& ws = scratch_[worker];
  if (!ws.engine) ws.engine = std::make_unique<OrderingEngine>(*nl_, ocfg_);
  return *ws.engine;
}

void Finder::notify_phase_start(FinderPhase phase, std::size_t work_items) {
  // Called between dispatches (no workers running), so the relaxed reset
  // cannot race with the per-item increments below.
  progress_counter_.store(0, std::memory_order_relaxed);
  if (observer_ == nullptr) return;
  MutexLock lk(observer_mu_);
  observer_->on_phase_start(phase, work_items);
}

void Finder::notify_phase_end(FinderPhase phase, double seconds) {
  if (observer_ == nullptr) return;
  MutexLock lk(observer_mu_);
  observer_->on_phase_end(phase, seconds);
}

// The two per-item notifications are the hottest synchronization points
// in the pipeline (every seed, every candidate, every worker).  With no
// observer attached they must not serialize the workers through
// observer_mu_ — one relaxed atomic increment and out.  With an observer
// the increment moves under the lock, so delivered (done, total) pairs
// stay strictly increasing exactly as before.

void Finder::notify_ordering_grown(std::size_t total) {
  if (observer_ == nullptr) {
    progress_counter_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  MutexLock lk(observer_mu_);
  const std::size_t done =
      progress_counter_.fetch_add(1, std::memory_order_relaxed) + 1;
  observer_->on_ordering_grown(done, total);
}

void Finder::notify_candidate_refined(std::size_t total) {
  if (observer_ == nullptr) {
    progress_counter_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  MutexLock lk(observer_mu_);
  const std::size_t done =
      progress_counter_.fetch_add(1, std::memory_order_relaxed) + 1;
  observer_->on_candidate_refined(done, total);
}

void Finder::begin_run() {
  stage_ = Stage::kIdle;
  cancelled_ = false;
  orderings_ = OrderingSet{};
  candidates_ = CandidateSet{};
  result_ = FinderResult{};

  // I.1: random seeds (distinct when the design is large enough).  Drawn
  // from cfg_.rng_seed exactly as the one-shot pipeline draws them, so a
  // reused session replays identical runs.
  if (!movable_.empty() && cfg_.num_seeds > 0) {
    Rng master(cfg_.rng_seed);
    orderings_.seeds.reserve(cfg_.num_seeds);
    if (cfg_.num_seeds <= movable_.size()) {
      for (const std::uint32_t idx : master.sample_distinct(
               static_cast<std::uint32_t>(movable_.size()),
               static_cast<std::uint32_t>(cfg_.num_seeds))) {
        orderings_.seeds.push_back(movable_[idx]);
      }
    } else {
      for (std::size_t i = 0; i < cfg_.num_seeds; ++i) {
        orderings_.seeds.push_back(
            movable_[master.next_below(movable_.size())]);
      }
    }
  }
  orderings_.completed.assign(orderings_.seeds.size(), 0);
}

const OrderingSet& Finder::grow_orderings() {
  // gtl-lint: allow(det-wall-clock): timing metadata; zeroed in results
  Timer timer;
  begin_run();
  const std::size_t m = orderings_.seeds.size();
  orderings_.orderings.resize(m);
  notify_phase_start(FinderPhase::kGrowOrderings, m);

  // Seed i writes only slot i, so results are independent of which
  // worker pulls which ticket.
  pool_.parallel_for(m, [&](std::size_t i, std::size_t w) {
    if (cancel_requested()) return;
    orderings_.orderings[i] = engine_for(w).grow(orderings_.seeds[i]);
    orderings_.completed[i] = 1;
    notify_ordering_grown(m);
  });
  if (cancel_requested()) cancelled_ = true;

  orderings_.seconds = timer.seconds();
  stage_ = Stage::kGrown;
  notify_phase_end(FinderPhase::kGrowOrderings, orderings_.seconds);
  return orderings_;
}

void Finder::extract_one(std::size_t i, std::size_t w,
                         const LinearOrdering& ordering,
                         ExtractionSlots& slots) {
  if (ordering.cells.size() < 2) return;
  // The curve lives in this worker's reusable scratch.
  const SelectedScoreCurve curve =
      compute_selected_curve(*nl_, ordering, cfg_.score, scratch_[w].curve);
  slots.rent[i] = curve.rent_exponent;
  slots.candidate[i] = candidate_at_minimum(ordering, curve, cfg_.score);
}

void Finder::finish_extraction(ExtractionSlots& slots, double seconds) {
  // gtl-lint: allow(det-wall-clock): timing metadata; zeroed in results
  Timer timer;
  candidates_.context.avg_pins_per_cell = nl_->average_pins_per_cell();

  // Global Rent exponent: mean of the per-ordering estimates (paper
  // §3.2.2), summed in seed order; all Phase III scoring uses this
  // shared context.
  double rent_sum = 0.0;
  std::size_t rent_count = 0;
  for (const double p : slots.rent) {
    if (p < 0.0) continue;
    rent_sum += p;
    ++rent_count;
  }
  candidates_.context.rent_exponent = mean_rent_exponent(rent_sum, rent_count);

  // Deduplicate identical candidates in seed order (same member list =>
  // same refined outcome; pruning would discard the duplicates anyway).
  // Seed order makes a cancelled run's candidate list a prefix of the
  // full run's: membership here depends only on earlier entries.
  std::unordered_map<std::uint64_t, std::size_t> seen;
  for (std::optional<Candidate>& c : slots.candidate) {
    if (!c) continue;
    ++candidates_.extracted;
    const std::uint64_t h = hash_members(c->cells);
    const auto it = seen.find(h);
    if (it != seen.end() &&
        candidates_.candidates[it->second].cells == c->cells) {
      continue;
    }
    seen.emplace(h, candidates_.candidates.size());
    candidates_.candidates.push_back(std::move(*c));
  }

  candidates_.seconds = seconds + timer.seconds();
  stage_ = Stage::kExtracted;
  if (observer_ != nullptr) {
    MutexLock lk(observer_mu_);
    observer_->on_candidates_extracted(candidates_.extracted,
                                       candidates_.candidates.size());
  }
  notify_phase_end(FinderPhase::kExtractCandidates, candidates_.seconds);
}

const CandidateSet& Finder::extract_candidates() {
  GTL_REQUIRE(stage_ >= Stage::kGrown,
              "extract_candidates before grow_orderings");
  GTL_REQUIRE(orderings_.orderings.size() == orderings_.seeds.size(),
              "extract_candidates after run(): run() keeps no orderings");
  // gtl-lint: allow(det-wall-clock): timing metadata; zeroed in results
  Timer timer;
  candidates_ = CandidateSet{};
  result_ = FinderResult{};

  const std::size_t m = orderings_.seeds.size();
  notify_phase_start(FinderPhase::kExtractCandidates, m);
  // Partial-result semantics: a trip already accounted for by an earlier
  // phase truncated our *input*; this phase must still process the
  // completed prefix in full, and only stops on a fresh trip.
  const bool honor_token = !cancelled_;

  // Per-seed slots so parallel extraction stays deterministic: the curve
  // of seed i depends only on ordering i, and all cross-seed reductions
  // run serially in seed order.
  ExtractionSlots slots(m);
  pool_.parallel_for(m, [&](std::size_t i, std::size_t w) {
    if (honor_token && cancel_requested()) return;
    if (!orderings_.completed[i]) return;
    extract_one(i, w, orderings_.orderings[i], slots);
  });
  if (honor_token && cancel_requested()) cancelled_ = true;

  finish_extraction(slots, timer.seconds());
  return candidates_;
}

const FinderResult& Finder::refine_and_prune() {
  GTL_REQUIRE(stage_ >= Stage::kExtracted,
              "refine_and_prune before extract_candidates");
  // gtl-lint: allow(det-wall-clock): timing metadata; zeroed in results
  Timer timer;
  result_ = FinderResult{};
  result_.context = candidates_.context;
  result_.orderings_grown = orderings_.num_completed();
  result_.candidates_before_refine = candidates_.extracted;
  result_.candidates_after_dedup = candidates_.candidates.size();

  const std::vector<Candidate>& initial = candidates_.candidates;
  const std::size_t n = initial.size();
  notify_phase_start(FinderPhase::kRefineAndPrune, n);
  // See extract_candidates: only a fresh trip stops this phase.
  const bool honor_token = !cancelled_;

  std::vector<Candidate> refined(n);
  std::vector<std::uint8_t> refine_done(n, 0);
  pool_.parallel_for(n, [&](std::size_t i, std::size_t w) {
    if (honor_token && cancel_requested()) return;
    // Refinement runs entirely on this worker's reused scratch: its
    // engine (re-growths and the family's measures) and the family
    // arena.  The RNG still derives from the item index, so results are
    // schedule-independent.
    Rng rng(mix_seed(cfg_.rng_seed, 0x5EEDBEEF + i));
    refined[i] = refine_candidate(*nl_, initial[i], engine_for(w),
                                  scratch_[w].arena, result_.context,
                                  cfg_.score, cfg_.refine_seeds, rng);
    refine_done[i] = 1;
    notify_candidate_refined(n);
  });
  if (honor_token && cancel_requested()) cancelled_ = true;

  // Keep only candidates whose refinement completed (all of them unless
  // cancelled), in seed order, then prune best-first.
  std::vector<Candidate> survivors;
  survivors.reserve(n);
  std::size_t refined_count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (refine_done[i]) {
      ++refined_count;
      survivors.push_back(std::move(refined[i]));
    }
  }
  result_.gtls = prune_overlapping(std::move(survivors), nl_->num_cells());
  result_.cancelled = cancelled_;
  result_.phase3_seconds = timer.seconds();
  result_.phase1_2_seconds = orderings_.seconds + candidates_.seconds;
  result_.total_seconds = result_.phase1_2_seconds + result_.phase3_seconds;
  stage_ = Stage::kDone;
  if (observer_ != nullptr) {
    MutexLock lk(observer_mu_);
    observer_->on_pruned(result_.gtls.size(), refined_count);
  }
  notify_phase_end(FinderPhase::kRefineAndPrune, result_.phase3_seconds);
  return result_;
}

const FinderResult& Finder::run() {
  // gtl-lint: allow(det-wall-clock): timing metadata; zeroed in results
  Timer total;
  begin_run();
  const std::size_t m = orderings_.seeds.size();
  notify_phase_start(FinderPhase::kGrowOrderings, m);

  // Phases I and II streamed: item i grows ordering i into its worker's
  // buffer and extracts from it at once, so the run holds one ordering
  // per worker instead of m, each scored while still in cache.  The
  // token is checked only before the grow: a grown ordering is always
  // extracted, as the stepped path extracts every ordering grown before
  // a trip.  Slot i depends only on seed i, so the bytes are the
  // stepped path's.
  ExtractionSlots slots(m);
  pool_.parallel_for(m, [&](std::size_t i, std::size_t w) {
    if (cancel_requested()) return;
    LinearOrdering& ordering = scratch_[w].arena.ordering;
    engine_for(w).grow(orderings_.seeds[i], ordering);
    orderings_.completed[i] = 1;
    notify_ordering_grown(m);
    extract_one(i, w, ordering, slots);
  });
  if (cancel_requested()) cancelled_ = true;

  orderings_.seconds = total.seconds();
  stage_ = Stage::kGrown;
  notify_phase_end(FinderPhase::kGrowOrderings, orderings_.seconds);

  notify_phase_start(FinderPhase::kExtractCandidates, m);
  finish_extraction(slots, 0.0);
  refine_and_prune();
  result_.total_seconds = total.seconds();
  return result_;
}

const OrderingSet& Finder::orderings() const {
  GTL_REQUIRE(has_orderings(), "orderings() before grow_orderings()");
  return orderings_;
}

const CandidateSet& Finder::candidates() const {
  GTL_REQUIRE(has_candidates(), "candidates() before extract_candidates()");
  return candidates_;
}

const FinderResult& Finder::result() const {
  GTL_REQUIRE(has_result(), "result() before refine_and_prune()");
  return result_;
}

}  // namespace gtl
