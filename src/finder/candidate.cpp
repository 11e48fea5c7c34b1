#include "finder/candidate.hpp"

#include <algorithm>
#include <cassert>

#include "util/require.hpp"

namespace gtl {
namespace {

/// Shared tail of score_members (T(C) and pins(C) from GroupConnectivity)
/// and scored_candidate (from OrderingEngine::measure); `c.cells` is
/// already populated and sorted.  A_C = pins / |C| is the division
/// GroupConnectivity::avg_pins_per_cell makes, and refine_candidate's
/// in-place scoring of losing family members repeats these calls, so a
/// member list gets the same bytes whichever path scores it.
Candidate finish_scored(Candidate c, std::int64_t cut, std::uint64_t pins,
                        const ScoreContext& ctx, ScoreKind kind) {
  const auto size = static_cast<double>(c.cells.size());
  c.cut = cut;
  c.avg_pins = static_cast<double>(pins) / size;
  c.ngtl_s = ngtl_score(static_cast<double>(cut), size, ctx);
  c.gtl_sd = gtl_sd_score(static_cast<double>(cut), size, c.avg_pins, ctx);
  c.score = kind == ScoreKind::kNgtlS ? c.ngtl_s : c.gtl_sd;
  c.rent_exponent_used = ctx.rent_exponent;
  return c;
}

}  // namespace

Candidate score_members(std::span<const CellId> members,
                        GroupConnectivity& group, const ScoreContext& ctx,
                        ScoreKind kind) {
  GTL_REQUIRE(!members.empty(), "cannot score an empty group");
  group.assign(members);

  Candidate c;
  c.cells.assign(members.begin(), members.end());
  std::sort(c.cells.begin(), c.cells.end());
  return finish_scored(std::move(c), group.cut(), group.pins_in_group(), ctx,
                       kind);
}

Candidate scored_candidate(std::span<const CellId> members, std::int64_t cut,
                           std::uint64_t pins, const ScoreContext& ctx,
                           ScoreKind kind) {
  GTL_REQUIRE(!members.empty(), "cannot score an empty group");
  assert(std::is_sorted(members.begin(), members.end()) &&
         "members must be sorted by cell id");
  Candidate c;
  c.cells.assign(members.begin(), members.end());
  return finish_scored(std::move(c), cut, pins, ctx, kind);
}

std::optional<Candidate> extract_candidate(const Netlist& nl,
                                           const LinearOrdering& ordering,
                                           ScoreKind kind,
                                           CurveScratch& scratch) {
  if (ordering.cells.size() < kMinCandidateSize) return std::nullopt;
  return candidate_at_minimum(
      ordering, compute_selected_curve(nl, ordering, kind, scratch), kind);
}

std::optional<Candidate> candidate_at_minimum(const LinearOrdering& ordering,
                                              const SelectedScoreCurve& curve,
                                              ScoreKind kind) {
  const std::optional<ClearMinimum> minimum = find_clear_minimum(curve.values);
  if (!minimum) return std::nullopt;

  const std::size_t k = minimum->prefix_size;
  Candidate c;
  c.cells.assign(ordering.cells.begin(),
                 ordering.cells.begin() + static_cast<std::ptrdiff_t>(k));
  std::sort(c.cells.begin(), c.cells.end());
  c.cut = ordering.prefix_cut[k - 1];
  c.avg_pins = static_cast<double>(ordering.prefix_pins[k - 1]) /
               static_cast<double>(k);
  // The selected Φ comes off the curve; the other is the same scoring
  // call the full curve would have made at this k (same args, same bits).
  const auto cut = static_cast<double>(c.cut);
  const auto size = static_cast<double>(k);
  if (kind == ScoreKind::kNgtlS) {
    c.ngtl_s = minimum->value;
    c.gtl_sd = gtl_sd_score(cut, size, c.avg_pins, curve.context);
  } else {
    c.ngtl_s = ngtl_score(cut, size, curve.context);
    c.gtl_sd = minimum->value;
  }
  c.score = minimum->value;
  c.seed = ordering.seed;
  c.rent_exponent_used = curve.rent_exponent;
  return c;
}

std::vector<CellId> set_union(std::span<const CellId> a,
                              std::span<const CellId> b) {
  std::vector<CellId> out;
  out.reserve(a.size() + b.size());
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out));
  return out;
}

std::vector<CellId> set_intersection(std::span<const CellId> a,
                                     std::span<const CellId> b) {
  std::vector<CellId> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

std::vector<CellId> set_difference(std::span<const CellId> a,
                                   std::span<const CellId> b) {
  std::vector<CellId> out;
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::back_inserter(out));
  return out;
}

void set_union_into(std::span<const CellId> a, std::span<const CellId> b,
                    std::vector<CellId>& out) {
  out.clear();
  out.reserve(a.size() + b.size());
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out));
}

void set_intersection_into(std::span<const CellId> a,
                           std::span<const CellId> b,
                           std::vector<CellId>& out) {
  out.clear();
  out.reserve(std::min(a.size(), b.size()));
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
}

void set_difference_into(std::span<const CellId> a, std::span<const CellId> b,
                         std::vector<CellId>& out) {
  out.clear();
  out.reserve(a.size());
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::back_inserter(out));
}

}  // namespace gtl
