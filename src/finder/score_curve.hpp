#pragma once
// Phase II support (paper §3.2.2): turn a linear ordering into score
// curves  Φ(C_k)  over its prefixes C_k, estimate the Rent exponent from
// the ordering itself, and detect a "clear minimum" — the signature of a
// discovered GTL (paper Figs. 2, 3, 5).
//
// The paper's criterion is informal ("if there is a clear minimum in this
// function, the corresponding cell group is selected").  We make it
// precise with three checks, each motivated by the curve shapes in Figs.
// 2-3: the minimum must (a) be deep in absolute terms (score below
// kAcceptThreshold; average logic ≈ 1, strong GTLs « 1), (b) come after
// a pronounced drop (max-before-min / min >= kDropFactor — the outside-
// GTL curve of Fig. 2 rises monotonically and never drops), and (c) not
// sit at the right edge of the curve (a still-falling curve means the
// ordering ran out of length before leaving the structure: the last
// kEdgeFraction of the curve is not searched, and the curve must rise
// again after the minimum, max-after-min / min >= kRiseFactor).
//
// These thresholds and the Rent estimate's floor are one fixed policy,
// owned here as constants; every Phase II/III caller uses them.

#include <algorithm>
#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "metrics/scores.hpp"
#include "order/linear_ordering.hpp"

namespace gtl {

/// Smallest candidate, and smallest prefix the clear-minimum search
/// considers (paper §3.1 ignores tiny prefixes).  Phase III drops family
/// members below it too.
inline constexpr std::size_t kMinCandidateSize = 30;
/// A clear minimum must score below this.
inline constexpr double kAcceptThreshold = 0.75;
/// max-before-min / min must reach this (the drop test).
inline constexpr double kDropFactor = 1.6;
/// max-after-min / min must reach this (the rise test).
inline constexpr double kRiseFactor = 1.3;
/// Minima in the last 2% of a curve are not searched (right-edge guard).
inline constexpr double kEdgeFraction = 0.02;
/// Smallest prefix used for Rent-exponent estimation.
inline constexpr std::size_t kRentMinK = 10;

/// The Rent exponent from `count` estimates that sum to `sum` (added in
/// order): their mean clamped to [0.1, 1], or 0.6 when there are none.
/// One rule for an ordering's estimate (over its prefixes) and the
/// finder's global one (over its orderings).
[[nodiscard]] inline double mean_rent_exponent(double sum, std::size_t count) {
  if (count == 0) return 0.6;
  return std::clamp(sum / static_cast<double>(count), 0.1, 1.0);
}

/// Which Φ drives candidate selection and pruning.
enum class ScoreKind {
  kNgtlS,   ///< normalized GTL-Score
  kGtlSd,   ///< density-aware GTL-Score (paper's final metric)
};

/// Score curves over every prefix of one linear ordering.
struct ScoreCurve {
  /// Per-prefix values, index k-1 for prefix size k.
  std::vector<double> ngtl_s;
  std::vector<double> gtl_sd;
  std::vector<double> ratio_cut;  ///< baseline, for Fig. 5
  /// Rent exponent estimated from this ordering: the mean over prefixes of
  /// (ln T(C_k) − ln A_Ck)/ln k  (paper §3.2.2), k >= kRentMinK; 0.6 when
  /// the ordering is shorter than kRentMinK.
  double rent_exponent = 0.6;
  /// The context the curves were computed with (A_G plus the above p).
  ScoreContext context;

  [[nodiscard]] const std::vector<double>& values(ScoreKind kind) const {
    return kind == ScoreKind::kNgtlS ? ngtl_s : gtl_sd;
  }
};

/// Compute the score curves of an ordering.  A_G is taken from the
/// netlist and must be positive; the Rent exponent is estimated from the
/// ordering itself.  Both Φ curves are compute_selected_curve's.
[[nodiscard]] ScoreCurve compute_score_curve(const Netlist& nl,
                                             const LinearOrdering& ordering);

/// Reusable scratch backing compute_selected_curve.  One instance per
/// worker thread; every buffer keeps its capacity across seeds, so the
/// steady state allocates nothing.  The ln tables are shared across
/// seeds — k and the (small, heavily repeating) integer cuts are the
/// same arguments to the same std::log call no matter which ordering is
/// being scored, so memoizing them cannot change a single bit.
struct CurveScratch {
  /// Selected Φ per prefix; compute_selected_curve's return value points
  /// here, valid until the next call with this scratch.
  std::vector<double> values;
  /// log_k[k] = std::log(double(k)); index 0 unused, extended lazily.
  std::vector<double> log_k;
  /// log_cut[c] = std::log(double(c)) for c >= 1; log_cut[0] =
  /// std::log(1e-9), the T = 0 guard value.  Capped (large cuts fall back
  /// to a live std::log).
  std::vector<double> log_cut;
};

/// One score curve instead of three: the Φ the finder actually selects
/// minima on, and the only curve implementation (compute_score_curve
/// calls it once per Φ).  Everything is bitwise-identical to the three-
/// curve reference that tests/finder/score_curve_equivalence_test.cpp
/// embeds: the rent estimate is group_rent_exponent summed in k order,
/// and values[k-1] is the same arithmetic as ngtl_score/gtl_sd_score.
/// The other Φ at a chosen k is one extra call with `context` — see
/// candidate_at_minimum.  Costs ~1 transcendental per prefix (vs 5) and no
/// allocation in steady state; full fusion into one pass is impossible
/// because every score depends on the final rent exponent, which is the
/// mean over all prefixes.
struct SelectedScoreCurve {
  /// Φ_kind(C_k) at index k-1, backed by the scratch passed in.
  std::span<const double> values;
  double rent_exponent = 0.6;
  /// A_G plus the rent estimate above — the context every curve value
  /// was computed with.
  ScoreContext context;
};

[[nodiscard]] SelectedScoreCurve compute_selected_curve(
    const Netlist& nl, const LinearOrdering& ordering, ScoreKind kind,
    CurveScratch& scratch);

/// A detected clear minimum.
struct ClearMinimum {
  std::size_t prefix_size = 0;  ///< k*: candidate GTL = first k* cells
  double value = 0.0;           ///< Φ(C_{k*})
};

/// Find the clear minimum of `curve` (one of ScoreCurve's value vectors
/// or a SelectedScoreCurve's values), or nullopt if no prefix passes the
/// three checks.  The curve must be NaN-free (every Φ is).
[[nodiscard]] std::optional<ClearMinimum> find_clear_minimum(
    std::span<const double> curve);

}  // namespace gtl
