// Session-API behavior: progress observation, cooperative cancellation
// (with the determinism guarantee for completed seeds), and artifact
// lifecycle/preconditions.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

#include "finder/expect_identical.hpp"
#include "finder/finder.hpp"
#include "graphgen/planted_graph.hpp"
#include "util/rng.hpp"

namespace gtl {
namespace {

PlantedGraph make_graph(std::uint64_t seed) {
  PlantedGraphConfig gcfg;
  gcfg.num_cells = 2'000;
  gcfg.gtls.push_back({150, 2});
  Rng rng(seed);
  return generate_planted_graph(gcfg, rng);
}

FinderConfig small_config() {
  FinderConfig cfg;
  cfg.num_seeds = 20;
  cfg.max_ordering_length = 600;
  cfg.num_threads = 1;
  cfg.rng_seed = 11;
  return cfg;
}

/// Records every event (callbacks are serialized by contract, so plain
/// members suffice).
class RecordingObserver : public ProgressObserver {
 public:
  void on_phase_start(FinderPhase phase, std::size_t items) override {
    phases_started.push_back(phase);
    phase_items.push_back(items);
  }
  void on_phase_end(FinderPhase phase, double seconds) override {
    phases_ended.push_back(phase);
    EXPECT_GE(seconds, 0.0);
  }
  void on_ordering_grown(std::size_t done, std::size_t total) override {
    grown.push_back(done);
    grow_total = total;
  }
  void on_candidates_extracted(std::size_t extracted,
                               std::size_t deduped) override {
    extracted_count = extracted;
    deduped_count = deduped;
  }
  void on_candidate_refined(std::size_t done, std::size_t total) override {
    refined.push_back(done);
    refine_total = total;
  }
  void on_pruned(std::size_t kept_, std::size_t refined_) override {
    kept = kept_;
    refined_survivors = refined_;
  }

  std::vector<FinderPhase> phases_started;
  std::vector<FinderPhase> phases_ended;
  std::vector<std::size_t> phase_items;
  std::vector<std::size_t> grown;
  std::vector<std::size_t> refined;
  std::size_t grow_total = 0;
  std::size_t refine_total = 0;
  std::size_t extracted_count = 0;
  std::size_t deduped_count = 0;
  std::size_t kept = 0;
  std::size_t refined_survivors = 0;
};

/// Trips the token once `k` orderings have completed.
class CancelAfterSeeds : public ProgressObserver {
 public:
  CancelAfterSeeds(CancelToken* token, std::size_t k) : token_(token), k_(k) {}
  void on_ordering_grown(std::size_t done, std::size_t) override {
    if (done >= k_) token_->request_cancel();
  }

 private:
  CancelToken* token_;
  std::size_t k_;
};

/// Trips the token once `k` candidates have been refined.
class CancelAfterRefines : public ProgressObserver {
 public:
  CancelAfterRefines(CancelToken* token, std::size_t k)
      : token_(token), k_(k) {}
  void on_candidate_refined(std::size_t done, std::size_t) override {
    if (done >= k_) token_->request_cancel();
  }

 private:
  CancelToken* token_;
  std::size_t k_;
};

TEST(FinderSession, ObserverSeesEveryEventInOrder) {
  const PlantedGraph pg = make_graph(31);
  Finder finder(pg.netlist, small_config());
  RecordingObserver obs;
  finder.set_observer(&obs);
  const FinderResult& res = finder.run();

  ASSERT_EQ(obs.phases_started.size(), 3u);
  EXPECT_EQ(obs.phases_started[0], FinderPhase::kGrowOrderings);
  EXPECT_EQ(obs.phases_started[1], FinderPhase::kExtractCandidates);
  EXPECT_EQ(obs.phases_started[2], FinderPhase::kRefineAndPrune);
  EXPECT_EQ(obs.phases_ended, obs.phases_started);

  // One grow callback per seed; counts reach exactly m.
  EXPECT_EQ(obs.grown.size(), 20u);
  EXPECT_EQ(obs.grow_total, 20u);
  std::vector<std::size_t> sorted = obs.grown;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < sorted.size(); ++i) EXPECT_EQ(sorted[i], i + 1);

  EXPECT_EQ(obs.extracted_count, res.candidates_before_refine);
  EXPECT_EQ(obs.deduped_count, res.candidates_after_dedup);
  EXPECT_EQ(obs.refined.size(), res.candidates_after_dedup);
  EXPECT_EQ(obs.kept, res.gtls.size());
  EXPECT_EQ(obs.refined_survivors, res.candidates_after_dedup);
}

TEST(FinderSession, CancelAfterKSeedsIsPrefixOfFullRun) {
  const PlantedGraph pg = make_graph(32);
  const FinderConfig cfg = small_config();  // num_threads = 1: sequential
  constexpr std::size_t kCancelAt = 7;

  // Step the phases (run() releases the orderings after Phase II).
  Finder full(pg.netlist, cfg);
  full.grow_orderings();
  full.extract_candidates();
  full.refine_and_prune();
  const OrderingSet& full_orderings = full.orderings();
  const CandidateSet& full_candidates = full.candidates();

  Finder cancelled(pg.netlist, cfg);
  CancelToken token;
  CancelAfterSeeds trip(&token, kCancelAt);
  cancelled.set_observer(&trip);
  cancelled.set_cancel_token(&token);
  cancelled.grow_orderings();
  cancelled.extract_candidates();
  const FinderResult& res = cancelled.refine_and_prune();

  EXPECT_TRUE(cancelled.cancelled());
  EXPECT_TRUE(res.cancelled);

  // With one worker, seeds run in order: exactly the first k completed.
  const OrderingSet& part = cancelled.orderings();
  ASSERT_EQ(part.seeds, full_orderings.seeds);
  ASSERT_EQ(part.completed.size(), full_orderings.completed.size());
  EXPECT_EQ(part.num_completed(), kCancelAt);
  for (std::size_t i = 0; i < part.completed.size(); ++i) {
    EXPECT_EQ(part.completed[i] != 0, i < kCancelAt) << "seed " << i;
  }

  // Determinism for completed seeds: byte-identical orderings.
  for (std::size_t i = 0; i < kCancelAt; ++i) {
    EXPECT_EQ(part.orderings[i].cells, full_orderings.orderings[i].cells)
        << "seed " << i;
    EXPECT_EQ(part.orderings[i].prefix_cut,
              full_orderings.orderings[i].prefix_cut)
        << "seed " << i;
  }

  // Candidates are extracted and deduplicated in seed order, so the
  // partial candidate list is a prefix of the full one.
  const CandidateSet& part_candidates = cancelled.candidates();
  ASSERT_LE(part_candidates.candidates.size(),
            full_candidates.candidates.size());
  for (std::size_t i = 0; i < part_candidates.candidates.size(); ++i) {
    EXPECT_EQ(part_candidates.candidates[i].cells,
              full_candidates.candidates[i].cells)
        << "candidate " << i;
  }
  EXPECT_EQ(res.orderings_grown, kCancelAt);
}

TEST(FinderSession, CancelledRunsAreDeterministic) {
  const PlantedGraph pg = make_graph(33);
  const FinderConfig cfg = small_config();
  constexpr std::size_t kCancelAt = 5;

  auto run_cancelled = [&](Finder& finder) -> FinderResult {
    CancelToken token;
    CancelAfterSeeds trip(&token, kCancelAt);
    finder.set_observer(&trip);
    finder.set_cancel_token(&token);
    return finder.run();
  };
  Finder a(pg.netlist, cfg);
  Finder b(pg.netlist, cfg);
  const FinderResult ra = run_cancelled(a);
  const FinderResult rb = run_cancelled(b);
  ASSERT_EQ(ra.gtls.size(), rb.gtls.size());
  for (std::size_t i = 0; i < ra.gtls.size(); ++i) {
    EXPECT_EQ(ra.gtls[i].cells, rb.gtls[i].cells);
    EXPECT_EQ(ra.gtls[i].score, rb.gtls[i].score);
  }
}

TEST(FinderSession, PreCancelledTokenYieldsEmptyPartialResult) {
  const PlantedGraph pg = make_graph(34);
  Finder finder(pg.netlist, small_config());
  CancelToken token;
  token.request_cancel();
  finder.set_cancel_token(&token);
  const FinderResult& res = finder.run();
  EXPECT_TRUE(res.cancelled);
  EXPECT_TRUE(res.gtls.empty());
  EXPECT_EQ(res.orderings_grown, 0u);
  EXPECT_EQ(finder.orderings().num_completed(), 0u);
}

TEST(FinderSession, TokenResetAllowsFullRerun) {
  const PlantedGraph pg = make_graph(35);
  const FinderConfig cfg = small_config();
  Finder finder(pg.netlist, cfg);
  CancelToken token;
  token.request_cancel();
  finder.set_cancel_token(&token);
  EXPECT_TRUE(finder.run().cancelled);

  token.reset();
  const FinderResult rerun = finder.run();
  EXPECT_FALSE(rerun.cancelled);

  Finder reference(pg.netlist, cfg);
  const FinderResult& expected = reference.run();
  ASSERT_EQ(rerun.gtls.size(), expected.gtls.size());
  for (std::size_t i = 0; i < rerun.gtls.size(); ++i) {
    EXPECT_EQ(rerun.gtls[i].cells, expected.gtls[i].cells);
  }
}

TEST(FinderSession, CancelDuringRefinePrunesOnlyCompletedCandidates) {
  const PlantedGraph pg = make_graph(36);
  FinderConfig cfg = small_config();
  cfg.num_seeds = 30;  // enough candidates that refine has >= 2 items

  Finder full(pg.netlist, cfg);
  full.run();
  ASSERT_GE(full.result().candidates_after_dedup, 2u);

  Finder cancelled(pg.netlist, cfg);
  CancelToken token;
  CancelAfterRefines trip(&token, 1);
  cancelled.set_observer(&trip);
  cancelled.set_cancel_token(&token);
  const FinderResult& res = cancelled.run();
  EXPECT_TRUE(res.cancelled);
  EXPECT_LT(res.gtls.size() + 1, full.result().candidates_after_dedup + 1);
  // The one refined candidate is byte-identical to the full run's first.
  ASSERT_EQ(res.gtls.size(), 1u);
}

TEST(FinderSession, MultiThreadCancellationKeepsCompletedSeedsIdentical) {
  const PlantedGraph pg = make_graph(37);
  FinderConfig cfg = small_config();
  cfg.num_threads = 4;

  Finder full(pg.netlist, cfg);
  full.grow_orderings();

  Finder cancelled(pg.netlist, cfg);
  CancelToken token;
  CancelAfterSeeds trip(&token, 3);
  cancelled.set_observer(&trip);
  cancelled.set_cancel_token(&token);
  cancelled.grow_orderings();

  const OrderingSet& part = cancelled.orderings();
  const OrderingSet& whole = full.orderings();
  ASSERT_EQ(part.seeds, whole.seeds);
  for (std::size_t i = 0; i < part.completed.size(); ++i) {
    if (!part.completed[i]) continue;
    EXPECT_EQ(part.orderings[i].cells, whole.orderings[i].cells)
        << "seed " << i;
  }
}

TEST(FinderSession, ArtifactAccessorsGuardPhaseOrder) {
  const PlantedGraph pg = make_graph(38);
  Finder finder(pg.netlist, small_config());
  EXPECT_FALSE(finder.has_orderings());
  EXPECT_THROW((void)finder.orderings(), std::logic_error);
  EXPECT_THROW((void)finder.candidates(), std::logic_error);
  EXPECT_THROW((void)finder.result(), std::logic_error);
  EXPECT_THROW((void)finder.extract_candidates(), std::logic_error);
  EXPECT_THROW((void)finder.refine_and_prune(), std::logic_error);

  finder.grow_orderings();
  EXPECT_TRUE(finder.has_orderings());
  EXPECT_FALSE(finder.has_candidates());
  EXPECT_THROW((void)finder.refine_and_prune(), std::logic_error);

  finder.extract_candidates();
  finder.refine_and_prune();
  EXPECT_TRUE(finder.has_result());

  // Starting a new run invalidates downstream artifacts.
  finder.grow_orderings();
  EXPECT_FALSE(finder.has_candidates());
  EXPECT_FALSE(finder.has_result());
}

TEST(FinderSession, RunReleasesOrderingsButSteppingKeepsThem) {
  const PlantedGraph pg = make_graph(40);
  Finder composed(pg.netlist, small_config());
  composed.run();
  // Composed path: heavy Phase I storage is released after Phase II...
  EXPECT_TRUE(composed.orderings().orderings.empty());
  // ...but the cheap bookkeeping survives.
  EXPECT_EQ(composed.orderings().num_completed(), 20u);
  EXPECT_EQ(composed.orderings().seeds.size(), 20u);
  // With no orderings kept, Phase II cannot be stepped after run().
  EXPECT_THROW((void)composed.extract_candidates(), std::logic_error);

  Finder stepped(pg.netlist, small_config());
  stepped.grow_orderings();
  stepped.extract_candidates();
  stepped.refine_and_prune();
  for (std::size_t i = 0; i < stepped.orderings().orderings.size(); ++i) {
    EXPECT_FALSE(stepped.orderings().orderings[i].cells.empty()) << i;
  }
}

TEST(FinderSession, InvalidConfigRejectedAtConstruction) {
  const PlantedGraph pg = make_graph(39);
  FinderConfig bad = small_config();
  bad.max_ordering_length = 0;
  ASSERT_FALSE(bad.validate().is_ok());
  EXPECT_THROW(Finder(pg.netlist, bad), std::logic_error);
}

TEST(FinderSession, ReseededSessionMatchesFreshSession) {
  // A server keeps one warm session per config and re-seeds it for each
  // query, so a re-seeded session must answer exactly as a fresh one.
  const PlantedGraph pg = make_graph(41);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    FinderConfig at_a = small_config();
    at_a.num_threads = threads;
    FinderConfig at_b = at_a;
    at_b.rng_seed = at_a.rng_seed + 1;

    Finder session(pg.netlist, at_a);
    const FinderResult first = session.run();

    session.set_rng_seed(at_b.rng_seed);
    EXPECT_EQ(session.config().rng_seed, at_b.rng_seed);
    EXPECT_FALSE(session.has_result());  // the seed-A artifacts are gone
    Finder fresh_b(pg.netlist, at_b);
    testing::expect_identical(session.run(), fresh_b.run());

    // A cancelled run under a third seed leaves no trace.
    CancelToken token;
    CancelAfterSeeds trip(&token, 3);
    session.set_rng_seed(at_a.rng_seed + 2);
    session.set_observer(&trip);
    session.set_cancel_token(&token);
    EXPECT_TRUE(session.run().cancelled);
    EXPECT_TRUE(session.cancelled());
    session.set_observer(nullptr);
    session.set_cancel_token(nullptr);

    session.set_rng_seed(at_a.rng_seed);
    EXPECT_FALSE(session.cancelled());  // as in a fresh session
    EXPECT_FALSE(session.has_result());
    testing::expect_identical(session.run(), first);
  }
}

}  // namespace
}  // namespace gtl
