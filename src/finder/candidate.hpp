#pragma once
// Candidate GTLs: extraction from a linear ordering (Phase II, steps
// II.1-II.4) and scoring of explicit member sets — including the set
// algebra (union / intersection / difference) that Phase III's genetic
// refinement needs.

#include <optional>
#include <span>
#include <vector>

#include "finder/score_curve.hpp"
#include "metrics/group_connectivity.hpp"
#include "netlist/netlist.hpp"

namespace gtl {

/// A (candidate or final) group of tangled logic.
struct Candidate {
  /// Member cells, sorted by id.
  std::vector<CellId> cells;
  std::int64_t cut = 0;     ///< T(C)
  double avg_pins = 0.0;    ///< A_C
  double ngtl_s = 0.0;
  double gtl_sd = 0.0;
  double score = 0.0;       ///< the selected Φ (per FinderConfig::score)
  CellId seed = kInvalidCell;        ///< seed of the ordering it came from
  double rent_exponent_used = 0.0;   ///< p the scores were computed with

  [[nodiscard]] std::size_t size() const { return cells.size(); }
};

/// Score an explicit member set under `ctx`, filling every Candidate
/// field except `seed`.  `group` is scratch space (cleared and reused).
[[nodiscard]] Candidate score_members(std::span<const CellId> members,
                                      GroupConnectivity& group,
                                      const ScoreContext& ctx,
                                      ScoreKind kind);

/// The Candidate for a member list ALREADY sorted by cell id whose T(C)
/// and pins(C) are known (OrderingEngine::measure gives both), filling
/// every field except `seed`: A_C = pins / |C| and the same scoring calls
/// as score_members, so the bytes equal its result on the same members.
/// The refine hot path, where every genetic-family list is sorted by
/// construction (set algebra over sorted inputs); asserts the order in
/// debug builds.
[[nodiscard]] Candidate scored_candidate(std::span<const CellId> members,
                                         std::int64_t cut, std::uint64_t pins,
                                         const ScoreContext& ctx,
                                         ScoreKind kind);

/// Phase II: extract a candidate from an ordering, or nullopt when its
/// score curve has no clear minimum (seed was outside any GTL).
/// The candidate's scores use the ordering's own Rent exponent estimate.
/// The curve lives in `scratch` (zero steady-state allocation per inner
/// re-growth), and only the selected Φ's full curve is computed; the
/// result is pinned to a three-curve reference by
/// tests/finder/score_curve_equivalence_test.cpp.
[[nodiscard]] std::optional<Candidate> extract_candidate(
    const Netlist& nl, const LinearOrdering& ordering, ScoreKind kind,
    CurveScratch& scratch);

/// The candidate at the clear minimum of `curve` — the `kind` curve that
/// compute_selected_curve computed for `ordering` — or nullopt.  For
/// callers that need the curve's Rent estimate whether or not a
/// candidate comes out (Phase II averages it over every ordering).
[[nodiscard]] std::optional<Candidate> candidate_at_minimum(
    const LinearOrdering& ordering, const SelectedScoreCurve& curve,
    ScoreKind kind);

// --- sorted-vector set algebra (member lists are sorted by id) ---

[[nodiscard]] std::vector<CellId> set_union(std::span<const CellId> a,
                                            std::span<const CellId> b);
[[nodiscard]] std::vector<CellId> set_intersection(std::span<const CellId> a,
                                                   std::span<const CellId> b);
[[nodiscard]] std::vector<CellId> set_difference(std::span<const CellId> a,
                                                 std::span<const CellId> b);

// In-place variants for preallocated merge buffers (the refine arena):
// `out` is cleared (capacity kept) and filled; it must not alias a or b.

void set_union_into(std::span<const CellId> a, std::span<const CellId> b,
                    std::vector<CellId>& out);
void set_intersection_into(std::span<const CellId> a,
                           std::span<const CellId> b,
                           std::vector<CellId>& out);
void set_difference_into(std::span<const CellId> a, std::span<const CellId> b,
                         std::vector<CellId>& out);

}  // namespace gtl
