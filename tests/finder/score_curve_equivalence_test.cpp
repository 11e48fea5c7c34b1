// Pins the Phase II/III fast paths bit-for-bit to the pre-optimization
// implementations, which are embedded here verbatim as references (the
// same discipline as tests/order/ordering_frontier_equivalence_test.cpp):
//
//   * compute_selected_curve (scratch-backed, single-Φ, memoized ln
//     tables) vs the allocating three-curve reference;
//   * extract_candidate vs a reference extraction reading every field
//     off the reference curve;
//   * refine_candidate (family arena, every member measured by the
//     ordering engine, losers scored without materialization) vs the
//     allocating reference that builds a fresh GroupConnectivity and a
//     fresh vector per set-op — an oracle for the engine's measure.
//
// "Equal" below always means exact double equality — these are meant to
// be the same arithmetic, not approximately the same answer.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <optional>
#include <vector>

#include "finder/candidate.hpp"
#include "finder/refine.hpp"
#include "finder/score_curve.hpp"
#include "graphgen/planted_graph.hpp"
#include "metrics/group_connectivity.hpp"
#include "metrics/scores.hpp"
#include "order/linear_ordering.hpp"
#include "util/rng.hpp"

namespace gtl {
namespace {

// ---------------------------------------------------------------------
// Reference implementations (pre-PR4 src/finder/{score_curve,candidate,
// refine}.cpp, verbatim modulo names).
// ---------------------------------------------------------------------

ScoreCurve reference_score_curve(const Netlist& nl,
                                 const LinearOrdering& ordering) {
  const std::size_t n = ordering.cells.size();

  ScoreCurve out;
  out.context.avg_pins_per_cell = nl.average_pins_per_cell();

  double p_sum = 0.0;
  std::size_t p_count = 0;
  for (std::size_t k = kRentMinK; k <= n; ++k) {
    const auto cut = static_cast<double>(ordering.prefix_cut[k - 1]);
    const double a_c = static_cast<double>(ordering.prefix_pins[k - 1]) /
                       static_cast<double>(k);
    p_sum += group_rent_exponent(cut, static_cast<double>(k), a_c);
    ++p_count;
  }
  out.rent_exponent = p_count > 0 ? p_sum / static_cast<double>(p_count) : 0.6;
  out.rent_exponent = std::clamp(out.rent_exponent, 0.1, 1.0);
  out.context.rent_exponent = out.rent_exponent;

  out.ngtl_s.resize(n);
  out.gtl_sd.resize(n);
  out.ratio_cut.resize(n);
  for (std::size_t k = 1; k <= n; ++k) {
    const auto cut = static_cast<double>(ordering.prefix_cut[k - 1]);
    const auto size = static_cast<double>(k);
    const double a_c =
        static_cast<double>(ordering.prefix_pins[k - 1]) / size;
    out.ngtl_s[k - 1] = ngtl_score(cut, size, out.context);
    out.gtl_sd[k - 1] = gtl_sd_score(cut, size, a_c, out.context);
    out.ratio_cut[k - 1] = ratio_cut(cut, size);
  }
  return out;
}

std::optional<Candidate> reference_extract_candidate(
    const Netlist& nl, const LinearOrdering& ordering, ScoreKind kind) {
  if (ordering.cells.size() < kMinCandidateSize) return std::nullopt;
  const ScoreCurve curve = reference_score_curve(nl, ordering);
  const auto minimum = find_clear_minimum(curve.values(kind));
  if (!minimum) return std::nullopt;

  const std::size_t k = minimum->prefix_size;
  Candidate c;
  c.cells.assign(ordering.cells.begin(),
                 ordering.cells.begin() + static_cast<std::ptrdiff_t>(k));
  std::sort(c.cells.begin(), c.cells.end());
  c.cut = ordering.prefix_cut[k - 1];
  c.avg_pins = static_cast<double>(ordering.prefix_pins[k - 1]) /
               static_cast<double>(k);
  c.ngtl_s = curve.ngtl_s[k - 1];
  c.gtl_sd = curve.gtl_sd[k - 1];
  c.score = curve.values(kind)[k - 1];
  c.seed = ordering.seed;
  c.rent_exponent_used = curve.rent_exponent;
  return c;
}

Candidate reference_refine_candidate(const Netlist& nl,
                                     const Candidate& initial,
                                     OrderingEngine& engine,
                                     const ScoreContext& ctx, ScoreKind kind,
                                     std::size_t extra_seeds, Rng& rng) {
  GroupConnectivity group(nl);

  std::vector<std::vector<CellId>> base;
  base.push_back(initial.cells);
  for (std::size_t i = 0; i < extra_seeds; ++i) {
    const CellId inner_seed =
        initial.cells[rng.next_below(initial.cells.size())];
    const LinearOrdering ordering = engine.grow(inner_seed);
    auto cand = reference_extract_candidate(nl, ordering, kind);
    if (cand) base.push_back(std::move(cand->cells));
  }

  std::vector<std::vector<CellId>> family = base;
  for (std::size_t i = 0; i < base.size(); ++i) {
    for (std::size_t j = i + 1; j < base.size(); ++j) {
      auto inter = set_intersection(base[i], base[j]);
      family.push_back(set_union(base[i], base[j]));
      family.push_back(set_difference(base[i], base[j]));
      family.push_back(set_difference(base[j], base[i]));
      family.push_back(std::move(inter));
    }
  }

  Candidate best = score_members(initial.cells, group, ctx, kind);
  best.seed = initial.seed;
  for (const auto& members : family) {
    if (members.size() < kMinCandidateSize) continue;
    Candidate cand = score_members(members, group, ctx, kind);
    if (cand.score < best.score) {
      cand.seed = initial.seed;
      best = std::move(cand);
    }
  }
  return best;
}

// ---------------------------------------------------------------------
// Fixtures
// ---------------------------------------------------------------------

struct Workload {
  PlantedGraph pg;
  std::vector<LinearOrdering> orderings;
};

Workload make_workload(std::uint64_t seed, std::uint32_t num_cells,
                       std::uint32_t gtl_size, std::size_t max_length) {
  PlantedGraphConfig gcfg;
  gcfg.num_cells = num_cells;
  gcfg.gtls.push_back({gtl_size, 2});
  Rng rng(seed);
  Workload w{generate_planted_graph(gcfg, rng), {}};

  OrderingEngine engine(
      w.pg.netlist,
      {.max_length = max_length, .large_net_threshold = 20});
  // Mix of seeds inside the planted structures (clear minima) and
  // background seeds (monotone curves, usually no candidate).
  std::vector<CellId> seeds = {w.pg.gtl_members[0][0],
                               w.pg.gtl_members[1][gtl_size / 2]};
  for (int i = 0; i < 3; ++i) {
    CellId c = static_cast<CellId>(rng.next_below(num_cells));
    while (std::binary_search(w.pg.gtl_members[0].begin(),
                              w.pg.gtl_members[0].end(), c)) {
      c = static_cast<CellId>(rng.next_below(num_cells));
    }
    seeds.push_back(c);
  }
  for (const CellId s : seeds) w.orderings.push_back(engine.grow(s));
  return w;
}

void expect_candidate_identical(const std::optional<Candidate>& got,
                                const std::optional<Candidate>& want,
                                const char* what) {
  ASSERT_EQ(got.has_value(), want.has_value()) << what;
  if (!got) return;
  EXPECT_EQ(got->cells, want->cells) << what;
  EXPECT_EQ(got->cut, want->cut) << what;
  EXPECT_EQ(got->avg_pins, want->avg_pins) << what;
  EXPECT_EQ(got->ngtl_s, want->ngtl_s) << what;
  EXPECT_EQ(got->gtl_sd, want->gtl_sd) << what;
  EXPECT_EQ(got->score, want->score) << what;
  EXPECT_EQ(got->seed, want->seed) << what;
  EXPECT_EQ(got->rent_exponent_used, want->rent_exponent_used) << what;
}

// ---------------------------------------------------------------------
// Curve equivalence
// ---------------------------------------------------------------------

TEST(ScoreCurveEquivalence, SelectedCurveMatchesReferenceBitwise) {
  const Workload w = make_workload(101, 4'000, 300, 1'200);
  CurveScratch scratch;  // deliberately shared across every call below
  for (const ScoreKind kind : {ScoreKind::kGtlSd, ScoreKind::kNgtlS}) {
    for (std::size_t oi = 0; oi < w.orderings.size(); ++oi) {
      const LinearOrdering& ord = w.orderings[oi];
      const ScoreCurve ref = reference_score_curve(w.pg.netlist, ord);
      const SelectedScoreCurve sel =
          compute_selected_curve(w.pg.netlist, ord, kind, scratch);

      ASSERT_EQ(sel.values.size(), ord.cells.size());
      EXPECT_EQ(sel.rent_exponent, ref.rent_exponent) << "ordering " << oi;
      EXPECT_EQ(sel.context.rent_exponent, ref.context.rent_exponent);
      EXPECT_EQ(sel.context.avg_pins_per_cell, ref.context.avg_pins_per_cell);
      const std::vector<double>& want = ref.values(kind);
      for (std::size_t k = 0; k < sel.values.size(); ++k) {
        ASSERT_EQ(sel.values[k], want[k])
            << "ordering " << oi << " k " << (k + 1);
      }
    }
  }
}

TEST(ScoreCurveEquivalence, ProductionFullCurveStillMatchesReference) {
  // compute_score_curve (the three-curve API figs/tools use) must keep
  // matching the embedded reference too — it is the contract the fast
  // path is pinned against.
  const Workload w = make_workload(102, 3'000, 250, 900);
  for (const LinearOrdering& ord : w.orderings) {
    const ScoreCurve ref = reference_score_curve(w.pg.netlist, ord);
    const ScoreCurve got = compute_score_curve(w.pg.netlist, ord);
    EXPECT_EQ(got.rent_exponent, ref.rent_exponent);
    EXPECT_EQ(got.ngtl_s, ref.ngtl_s);
    EXPECT_EQ(got.gtl_sd, ref.gtl_sd);
    EXPECT_EQ(got.ratio_cut, ref.ratio_cut);
  }
}

TEST(ScoreCurveEquivalence, ScratchReuseAcrossShrinkingOrderings) {
  // Reuse the same scratch on a long ordering, then a short one, then
  // long again: stale buffer contents must never leak into results.
  const Workload w = make_workload(103, 4'000, 300, 1'500);
  OrderingEngine engine(w.pg.netlist,
                        {.max_length = 60, .large_net_threshold = 20});
  const LinearOrdering short_ord = engine.grow(w.pg.gtl_members[0][3]);

  CurveScratch scratch;
  const LinearOrdering& long_ord = w.orderings[0];
  for (const LinearOrdering* ord : {&long_ord, &short_ord, &long_ord}) {
    const ScoreCurve ref = reference_score_curve(w.pg.netlist, *ord);
    const SelectedScoreCurve sel =
        compute_selected_curve(w.pg.netlist, *ord, ScoreKind::kGtlSd, scratch);
    ASSERT_EQ(sel.values.size(), ord->cells.size());
    for (std::size_t k = 0; k < sel.values.size(); ++k) {
      ASSERT_EQ(sel.values[k], ref.gtl_sd[k]);
    }
  }
}

TEST(ScoreCurveEquivalence, ShortOrderingsAtRentFloorMatchReference) {
  // Orderings of 1, 9, 10 and 11 cells have 0, 0, 1 and 2 Rent samples
  // (k >= kRentMinK = 10): the first two use the fallback 0.6, the last
  // two the first samples above the floor.  Both paths must agree
  // exactly, at both Φs.
  ASSERT_EQ(kRentMinK, 10u);
  const Workload w = make_workload(104, 2'000, 200, 600);
  CurveScratch scratch;
  for (const std::size_t n : {1u, 9u, 10u, 11u}) {
    OrderingEngine engine(w.pg.netlist,
                          {.max_length = n, .large_net_threshold = 20});
    const LinearOrdering ord = engine.grow(w.pg.gtl_members[0][0]);
    ASSERT_EQ(ord.cells.size(), n);
    const ScoreCurve ref = reference_score_curve(w.pg.netlist, ord);
    if (n < kRentMinK) {
      EXPECT_EQ(ref.rent_exponent, 0.6) << "n " << n;
    }
    for (const ScoreKind kind : {ScoreKind::kGtlSd, ScoreKind::kNgtlS}) {
      const SelectedScoreCurve sel =
          compute_selected_curve(w.pg.netlist, ord, kind, scratch);
      EXPECT_EQ(sel.rent_exponent, ref.rent_exponent) << "n " << n;
      ASSERT_EQ(sel.values.size(), n);
      for (std::size_t k = 0; k < n; ++k) {
        EXPECT_EQ(sel.values[k], ref.values(kind)[k])
            << "n " << n << " k " << (k + 1);
      }
    }
  }
}

// ---------------------------------------------------------------------
// Extraction equivalence
// ---------------------------------------------------------------------

TEST(ExtractEquivalence, ScratchOverloadMatchesReference) {
  const Workload w = make_workload(105, 4'000, 300, 1'200);
  CurveScratch scratch;
  for (const ScoreKind kind : {ScoreKind::kGtlSd, ScoreKind::kNgtlS}) {
    for (std::size_t oi = 0; oi < w.orderings.size(); ++oi) {
      const LinearOrdering& ord = w.orderings[oi];
      const auto want = reference_extract_candidate(w.pg.netlist, ord, kind);
      const auto got = extract_candidate(w.pg.netlist, ord, kind, scratch);
      expect_candidate_identical(got, want, "scratch overload");
    }
  }
}

// ---------------------------------------------------------------------
// Refine equivalence
// ---------------------------------------------------------------------

TEST(RefineEquivalence, ArenaRefineMatchesAllocatingReference) {
  const Workload w = make_workload(106, 4'000, 300, 1'200);
  const ScoreContext ctx{0.68, w.pg.netlist.average_pins_per_cell()};
  OrderingEngine ref_engine(w.pg.netlist,
                            {.max_length = 1'200, .large_net_threshold = 20});
  OrderingEngine fast_engine(w.pg.netlist,
                             {.max_length = 1'200, .large_net_threshold = 20});
  RefineArena arena;  // shared across candidates: reuse must not leak

  for (const ScoreKind kind : {ScoreKind::kGtlSd, ScoreKind::kNgtlS}) {
    for (const std::size_t extra_seeds : {std::size_t{0}, std::size_t{3}}) {
      for (std::size_t oi = 0; oi < w.orderings.size(); ++oi) {
        const auto initial =
            reference_extract_candidate(w.pg.netlist, w.orderings[oi], kind);
        if (!initial) continue;
        const std::uint64_t rng_seed = 500 + oi;
        Rng ref_rng(rng_seed);
        Rng fast_rng(rng_seed);
        const Candidate want = reference_refine_candidate(
            w.pg.netlist, *initial, ref_engine, ctx, kind, extra_seeds,
            ref_rng);
        const Candidate got = refine_candidate(w.pg.netlist, *initial,
                                               fast_engine, arena, ctx, kind,
                                               extra_seeds, fast_rng);
        expect_candidate_identical(got, want, "refine");
      }
    }
  }
}

}  // namespace
}  // namespace gtl
