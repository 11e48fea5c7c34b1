#include "metrics/group_connectivity.hpp"

#include <unordered_set>

#include "util/require.hpp"

namespace gtl {

GroupConnectivity::GroupConnectivity(const Netlist& nl)
    : nl_(&nl), net_pins_(nl.num_nets(), 0), in_group_(nl.num_cells(), 0) {}

void GroupConnectivity::add(CellId c) {
  GTL_REQUIRE(!contains(c), "cell already in group");
  in_group_[c] = 1;
  members_.push_back(c);
  pins_in_group_ += nl_->cell_degree(c);
  for (const NetId e : nl_->nets_of(c)) {
    const std::uint32_t size = nl_->net_size(e);
    const std::uint32_t k = net_pins_[e];
    if (k == 0) {
      if (size > 1) ++cut_;  // first pin inside: net becomes cut
    } else if (size > 1) {
      absorption_ += 1.0 / static_cast<double>(size - 1);
    }
    if (k + 1 == size && size > 1) --cut_;  // fully absorbed: no longer cut
    net_pins_[e] = k + 1;
  }
}

void GroupConnectivity::clear() {
  // Only the members' nets have non-zero counts.
  for (const CellId c : members_) {
    in_group_[c] = 0;
    for (const NetId e : nl_->nets_of(c)) net_pins_[e] = 0;
  }
  members_.clear();
  cut_ = 0;
  pins_in_group_ = 0;
  absorption_ = 0.0;
}

void GroupConnectivity::assign(std::span<const CellId> members) {
  clear();
  for (const CellId c : members) add(c);
}

std::int64_t net_cut(const Netlist& nl, std::span<const CellId> members) {
  std::unordered_set<CellId> in(members.begin(), members.end());
  std::int64_t cut = 0;
  for (NetId e = 0; e < nl.num_nets(); ++e) {
    bool inside = false, outside = false;
    for (const CellId c : nl.pins_of(e)) {
      (in.count(c) ? inside : outside) = true;
      if (inside && outside) break;
    }
    if (inside && outside) ++cut;
  }
  return cut;
}

}  // namespace gtl
