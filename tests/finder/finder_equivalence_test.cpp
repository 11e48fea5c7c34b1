// Pins the session contract: Finder sessions produce byte-identical
// results — across configs, seeds, thread counts, stepped vs composed
// phases, and (critically) across *reuses* of one session, whose
// per-worker scratch persists between run() calls.

#include <gtest/gtest.h>

#include <vector>

#include "finder/expect_identical.hpp"
#include "finder/finder.hpp"
#include "graphgen/planted_graph.hpp"
#include "util/rng.hpp"

namespace gtl {
namespace {

PlantedGraph make_graph(std::uint64_t seed) {
  PlantedGraphConfig gcfg;
  gcfg.num_cells = 3'000;
  gcfg.gtls.push_back({250, 1});
  Rng rng(seed);
  return generate_planted_graph(gcfg, rng);
}

using testing::expect_identical;

TEST(FinderEquivalence, FreshSessionsAgreeAcrossConfigs) {
  const PlantedGraph pg = make_graph(21);
  std::vector<FinderConfig> configs;
  for (const std::uint64_t rng_seed : {1ull, 13ull}) {
    for (const ScoreKind score : {ScoreKind::kGtlSd, ScoreKind::kNgtlS}) {
      FinderConfig cfg;
      cfg.num_seeds = 30;
      cfg.max_ordering_length = 900;
      cfg.num_threads = 2;
      cfg.rng_seed = rng_seed;
      cfg.score = score;
      configs.push_back(cfg);
    }
  }
  {
    FinderConfig no_refine = configs[0];
    no_refine.refine_seeds = 0;
    configs.push_back(no_refine);
  }

  for (std::size_t i = 0; i < configs.size(); ++i) {
    SCOPED_TRACE("config " + std::to_string(i));
    FinderConfig serial = configs[i];
    serial.num_threads = 1;
    Finder one(pg.netlist, serial);
    Finder two(pg.netlist, configs[i]);
    expect_identical(one.run(), two.run());
  }
}

TEST(FinderEquivalence, ReusedSessionReplaysIdenticalRuns) {
  const PlantedGraph pg = make_graph(22);
  FinderConfig cfg;
  cfg.num_seeds = 40;
  cfg.max_ordering_length = 900;
  cfg.num_threads = 2;
  cfg.rng_seed = 3;

  Finder session(pg.netlist, cfg);
  const FinderResult first = session.run();   // copy: run() reuses storage
  const FinderResult second = session.run();
  const FinderResult third = session.run();
  expect_identical(first, second);
  expect_identical(first, third);
  Finder fresh(pg.netlist, cfg);
  expect_identical(first, fresh.run());
}

TEST(FinderEquivalence, PhaseDecompositionMatchesRun) {
  const PlantedGraph pg = make_graph(23);
  FinderConfig cfg;
  cfg.num_seeds = 25;
  cfg.max_ordering_length = 900;
  cfg.num_threads = 1;
  cfg.rng_seed = 9;

  Finder composed(pg.netlist, cfg);
  const FinderResult via_run = composed.run();

  Finder stepped(pg.netlist, cfg);
  stepped.grow_orderings();
  stepped.extract_candidates();
  expect_identical(via_run, stepped.refine_and_prune());
}

/// Trips the token once `k` orderings have grown.
class TripAfterOrderings : public ProgressObserver {
 public:
  TripAfterOrderings(CancelToken* token, std::size_t k)
      : token_(token), k_(k) {}
  void on_ordering_grown(std::size_t done, std::size_t) override {
    if (done >= k_) token_->request_cancel();
  }

 private:
  CancelToken* token_;
  std::size_t k_;
};

TEST(FinderEquivalence, CancelledRunMatchesCancelledSteppedRun) {
  // run() extracts each ordering as soon as it grows; a trip in Phase I
  // must still leave exactly the stepped path's partial result.
  const PlantedGraph pg = make_graph(25);
  FinderConfig cfg;
  cfg.num_seeds = 20;
  cfg.max_ordering_length = 900;
  cfg.num_threads = 1;  // seeds run in order: exactly the first k grow
  cfg.rng_seed = 28;    // two of the first 7 seeds give candidates
  constexpr std::size_t kTripAt = 7;

  CancelToken stepped_token;
  TripAfterOrderings stepped_trip(&stepped_token, kTripAt);
  Finder stepped(pg.netlist, cfg);
  stepped.set_observer(&stepped_trip);
  stepped.set_cancel_token(&stepped_token);
  stepped.grow_orderings();
  stepped.extract_candidates();
  const FinderResult& via_steps = stepped.refine_and_prune();

  CancelToken run_token;
  TripAfterOrderings run_trip(&run_token, kTripAt);
  Finder composed(pg.netlist, cfg);
  composed.set_observer(&run_trip);
  composed.set_cancel_token(&run_token);
  const FinderResult& via_run = composed.run();

  EXPECT_TRUE(via_run.cancelled);
  EXPECT_EQ(via_run.orderings_grown, kTripAt);
  EXPECT_EQ(via_run.candidates_before_refine, 2u);
  EXPECT_TRUE(composed.orderings().orderings.empty());
  expect_identical(via_steps, via_run);
}

TEST(FinderEquivalence, SessionDeterministicAcrossThreadCounts) {
  const PlantedGraph pg = make_graph(24);
  FinderConfig one;
  one.num_seeds = 24;
  one.max_ordering_length = 800;
  one.rng_seed = 5;
  one.num_threads = 1;
  FinderConfig four = one;
  four.num_threads = 4;

  Finder a(pg.netlist, one);
  Finder b(pg.netlist, four);
  expect_identical(a.run(), b.run());
}

}  // namespace
}  // namespace gtl
