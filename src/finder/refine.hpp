#pragma once
// Phase III (paper §3.2.3, Algorithm steps III.1-III.21):
//
// Refinement — a candidate grown from a random seed can be slightly off
// (e.g. a boundary seed drags outside cells in).  Re-grow from
// `extra_seeds` cells inside the candidate, then form the genetic family
// {B, B1..Bl} plus all pairwise unions, intersections and differences,
// and keep the member with the best Φ.
//
// Pruning — refined candidates from different initial seeds often describe
// the same structure.  The paper keeps a candidate iff it overlaps no
// better-scoring candidate (sort by non-increasing Φ; keep P_i if it is
// disjoint from everything after it).  We implement the equivalent
// best-first greedy: sort by Φ ascending and keep candidates disjoint
// from everything already kept.

#include <vector>

#include "finder/candidate.hpp"
#include "order/linear_ordering.hpp"
#include "util/rng.hpp"

namespace gtl {

/// Per-worker reusable scratch for refine_candidate: the genetic family's
/// member-list buffers (up to (l+1) + 4·C(l+1,2) sorted lists, cleared
/// but keeping capacity between candidates), the ordering buffer each
/// inner re-growth grows into, and the curve scratch that backs the
/// inner re-growth extractions.  One arena per worker thread; contents
/// never leak between candidates, so reuse cannot affect results.
struct RefineArena {
  std::vector<std::vector<CellId>> lists;
  LinearOrdering ordering;
  CurveScratch curve;
};

/// Refine one candidate with `extra_seeds` (the paper's l, 3 there)
/// inner re-growths.  `engine` supplies the Phase I re-growths and,
/// between them, measures every family member's T(C) and pins(C), which
/// is all Φ needs; `arena` is caller-owned scratch (reused across
/// candidates — the zero-alloc steady state); `ctx` is the shared scoring
/// context so family members are comparable.  Family members below
/// kMinCandidateSize cannot win; the initial candidate is the fallback,
/// so at 0 `extra_seeds` it comes back re-scored with `ctx`.
/// Precondition: `initial.cells` is sorted by cell id (every Candidate
/// producer sorts).  Only the winning family member is materialized into
/// a Candidate; losers are scored in place with no copies, sorts, or
/// allocation.
[[nodiscard]] Candidate refine_candidate(const Netlist& nl,
                                         const Candidate& initial,
                                         OrderingEngine& engine,
                                         RefineArena& arena,
                                         const ScoreContext& ctx,
                                         ScoreKind kind,
                                         std::size_t extra_seeds, Rng& rng);

/// Prune overlapping candidates: returns the best-score-first maximal
/// disjoint set (see header comment for the equivalence to the paper's
/// ordering-based rule).
[[nodiscard]] std::vector<Candidate> prune_overlapping(
    std::vector<Candidate> candidates, std::size_t num_cells);

}  // namespace gtl
