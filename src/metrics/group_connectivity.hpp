#pragma once
// Connectivity bookkeeping for a group of cells C ⊆ V: the plain oracle
// behind the group metrics (score_members, score_group) and the
// independent check of the numbers the finder reports.  Cells are added
// one at a time; it maintains
//
//   T(C)      — the net cut  |{e : e∩C ≠ ∅ and e∩(V−C) ≠ ∅}|
//   pins(C)   — Σ_{c∈C} degree(c), so  A_C = pins(C)/|C|
//   absorb(C) — Alpert-Kahng absorption  Σ_e (|e∩C|−1)/(|e|−1)
//   |e∩C|     — per-net pin-in-group counts
//
// in O(degree(c)) per add.  `clear` zeroes the counts of the members'
// nets, so it and `assign` cost O(Σ degree of members), not O(|E|).

#include <cstdint>
#include <span>
#include <vector>

#include "netlist/netlist.hpp"

namespace gtl {

class GroupConnectivity {
 public:
  /// Track groups over `nl`. The netlist must outlive this object.
  explicit GroupConnectivity(const Netlist& nl);

  /// Add a cell to the group. Precondition: not already in the group.
  void add(CellId c);

  /// Empty the group in O(Σ degree of members).
  void clear();

  /// Rebuild the group from an explicit member list (clears first).
  void assign(std::span<const CellId> members);

  [[nodiscard]] bool contains(CellId c) const { return in_group_[c] != 0; }
  [[nodiscard]] std::size_t size() const { return members_.size(); }
  [[nodiscard]] std::span<const CellId> members() const { return members_; }

  /// T(C): number of nets with pins both inside and outside the group.
  [[nodiscard]] std::int64_t cut() const { return cut_; }

  /// Σ degree(c) over members; numerator of A_C.
  [[nodiscard]] std::size_t pins_in_group() const { return pins_in_group_; }

  /// A_C = pins(C)/|C|; 0 for the empty group.
  [[nodiscard]] double avg_pins_per_cell() const {
    return members_.empty() ? 0.0
                            : static_cast<double>(pins_in_group_) /
                                  static_cast<double>(members_.size());
  }

  /// Absorption  Σ_e (|e∩C|−1)/(|e|−1)  over nets with |e|>1, |e∩C|≥1.
  [[nodiscard]] double absorption() const { return absorption_; }

  /// |e ∩ C| for net e.
  [[nodiscard]] std::uint32_t pins_in(NetId e) const { return net_pins_[e]; }

  /// λ(e) = |e| − |e∩C|: pins of net e outside the group (paper, §3.2.1).
  [[nodiscard]] std::uint32_t pins_out(NetId e) const {
    return netlist().net_size(e) - pins_in(e);
  }

  [[nodiscard]] const Netlist& netlist() const { return *nl_; }

 private:
  const Netlist* nl_;
  /// |e ∩ C| per net.
  std::vector<std::uint32_t> net_pins_;
  /// 1 iff the cell is a member.
  std::vector<std::uint8_t> in_group_;
  std::vector<CellId> members_;
  std::int64_t cut_ = 0;
  std::size_t pins_in_group_ = 0;
  double absorption_ = 0.0;
};

/// One-shot T(C) for an explicit member list (reference implementation for
/// tests and small scripts; O(Σ net sizes) — prefer GroupConnectivity for
/// repeated queries).
[[nodiscard]] std::int64_t net_cut(const Netlist& nl,
                                   std::span<const CellId> members);

}  // namespace gtl
