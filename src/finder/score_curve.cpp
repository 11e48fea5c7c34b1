#include "finder/score_curve.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "util/require.hpp"

namespace gtl {

// The Rent loops divide by ln k, which is 0 at k = 1; the argmin scan
// starts at k = kMinCandidateSize and reads curve[k - 1].
static_assert(kRentMinK >= 2 && kMinCandidateSize >= 1);

ScoreCurve compute_score_curve(const Netlist& nl,
                               const LinearOrdering& ordering) {
  CurveScratch scratch;
  const SelectedScoreCurve ngtl =
      compute_selected_curve(nl, ordering, ScoreKind::kNgtlS, scratch);
  // The selected curve's arithmetic skips the scores' preconditions
  // (A_G > 0 here, T >= 0 below); this API keeps them.
  GTL_REQUIRE(ngtl.context.avg_pins_per_cell > 0.0, "A(G) must be positive");
  ScoreCurve out;
  out.rent_exponent = ngtl.rent_exponent;
  out.context = ngtl.context;
  out.ngtl_s.assign(ngtl.values.begin(), ngtl.values.end());
  const SelectedScoreCurve sd =
      compute_selected_curve(nl, ordering, ScoreKind::kGtlSd, scratch);
  out.gtl_sd.assign(sd.values.begin(), sd.values.end());

  const std::size_t n = ordering.cells.size();
  out.ratio_cut.resize(n);
  for (std::size_t k = 1; k <= n; ++k) {
    const auto cut = static_cast<double>(ordering.prefix_cut[k - 1]);
    GTL_REQUIRE(cut >= 0.0, "cut must be non-negative");
    out.ratio_cut[k - 1] = ratio_cut(cut, static_cast<double>(k));
  }
  return out;
}

namespace {

/// Cap on the ln T memo (128 KiB per scratch): covers every realistic
/// prefix cut; larger cuts pay one live std::log.
constexpr std::size_t kLogCutCap = 16'384;

double memoized_log_cut(CurveScratch& scratch, std::int64_t cut) {
  if (cut >= 0 && static_cast<std::size_t>(cut) < kLogCutCap) {
    const auto c = static_cast<std::size_t>(cut);
    if (c >= scratch.log_cut.size()) {
      const std::size_t c0 = scratch.log_cut.size();
      const std::size_t grown =
          std::min(kLogCutCap, std::max<std::size_t>(2 * (c + 1), 256));
      scratch.log_cut.resize(grown);
      for (std::size_t x = c0; x < grown; ++x) {
        scratch.log_cut[x] =
            std::log(x == 0 ? 1e-9 : static_cast<double>(x));
      }
    }
    return scratch.log_cut[c];
  }
  return std::log(std::max(static_cast<double>(cut), 1e-9));
}

}  // namespace

SelectedScoreCurve compute_selected_curve(const Netlist& nl,
                                          const LinearOrdering& ordering,
                                          ScoreKind kind,
                                          CurveScratch& scratch) {
  GTL_REQUIRE(!ordering.cells.empty(), "ordering is empty");
  const std::size_t n = ordering.cells.size();
  GTL_REQUIRE(ordering.prefix_cut.size() == n &&
                  ordering.prefix_pins.size() == n,
              "ordering prefix arrays inconsistent");

  SelectedScoreCurve out;
  out.context.avg_pins_per_cell = nl.average_pins_per_cell();

  if (scratch.log_k.size() < n + 1) {
    const std::size_t k0 = std::max<std::size_t>(scratch.log_k.size(), 1);
    scratch.log_k.resize(n + 1);
    for (std::size_t k = k0; k <= n; ++k) {
      scratch.log_k[k] = std::log(static_cast<double>(k));
    }
  }

  // Rent pass: group_rent_exponent summed in k order, with ln k and ln T
  // read from the memo tables (same std::log call, same argument => same
  // bits).
  double p_sum = 0.0;
  std::size_t p_count = 0;
  for (std::size_t k = kRentMinK; k <= n; ++k) {
    const double a_c = static_cast<double>(ordering.prefix_pins[k - 1]) /
                       static_cast<double>(k);
    p_sum += group_rent_exponent_prelogged(
        memoized_log_cut(scratch, ordering.prefix_cut[k - 1]),
        static_cast<double>(k), a_c, scratch.log_k[k]);
    ++p_count;
  }
  out.rent_exponent = mean_rent_exponent(p_sum, p_count);
  out.context.rent_exponent = out.rent_exponent;

  // Score pass: only the curve the caller selects minima on (the other Φ
  // is needed at one k only — callers evaluate it point-wise).  This pass
  // cannot fuse with the rent pass above: it needs the final clamped mean.
  // The arithmetic is ngtl_score / gtl_sd_score operation for operation,
  // without their A_G > 0 precondition (a pin-free netlist yields a
  // non-finite curve instead of an abort).
  const double a_g = out.context.avg_pins_per_cell;
  const double p = out.context.rent_exponent;
  scratch.values.resize(n);
  for (std::size_t k = 1; k <= n; ++k) {
    const auto cut = static_cast<double>(ordering.prefix_cut[k - 1]);
    const auto size = static_cast<double>(k);
    if (kind == ScoreKind::kNgtlS) {
      scratch.values[k - 1] = cut / std::pow(size, p) / a_g;
    } else {
      const double a_c =
          static_cast<double>(ordering.prefix_pins[k - 1]) / size;
      scratch.values[k - 1] = cut / (a_g * std::pow(size, p * (a_c / a_g)));
    }
  }
  out.values = std::span<const double>(scratch.values.data(), n);
  return out;
}

std::optional<ClearMinimum> find_clear_minimum(
    std::span<const double> curve) {
  const std::size_t n = curve.size();
  if (n < kMinCandidateSize) return std::nullopt;

  // Right-edge guard: a minimum in the final stretch means the curve was
  // still falling when the ordering ended.
  const auto last_valid = static_cast<std::size_t>(
      std::floor(static_cast<double>(n) * (1.0 - kEdgeFraction)));
  if (last_valid < kMinCandidateSize) return std::nullopt;

  // First-wins argmin over [kMinCandidateSize, last_valid].
  std::size_t best_k = kMinCandidateSize;
  double best_v = curve[best_k - 1];
  for (std::size_t k = best_k + 1; k <= last_valid; ++k) {
    const double v = curve[k - 1];
    if (v < best_v) {
      best_k = k;
      best_v = v;
    }
  }
  if (best_v >= kAcceptThreshold) return std::nullopt;

  // Drop test: the curve must have risen well above the minimum earlier
  // (a monotone-rising background curve, Fig. 2, has no such drop).
  double max_before = 0.0;
  for (std::size_t k = kMinCandidateSize; k <= best_k; ++k) {
    max_before = std::max(max_before, curve[k - 1]);
  }
  if (max_before < kDropFactor * std::max(best_v, 1e-12)) {
    return std::nullopt;
  }
  // Rise test: after absorbing the whole GTL, adding outside cells must
  // push the score back up (paper §3.1).  A curve still falling at its
  // end means the ordering ended inside a structure — no boundary found.
  double max_after = 0.0;
  for (std::size_t k = best_k; k <= n; ++k) {
    max_after = std::max(max_after, curve[k - 1]);
  }
  if (max_after < kRiseFactor * std::max(best_v, 1e-12)) {
    return std::nullopt;
  }
  return ClearMinimum{best_k, best_v};
}

}  // namespace gtl
