#include "order/linear_ordering.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/require.hpp"

namespace gtl {
namespace {

constexpr std::uint32_t kArity = 4;

/// Contribution of net `e` (with `k` pins in the group) to an outside
/// pin's connection gain.  Inactive (above-threshold or 1-pin) nets
/// contribute nothing — the paper's large-net trick.
struct NetContribution {
  double conn = 0.0;
  std::int32_t cut_delta = 0;
};

NetContribution contribution(std::uint32_t net_size, std::uint32_t k,
                             std::uint32_t threshold) {
  NetContribution out;
  if (net_size < 2) return out;
  const std::uint32_t lambda = net_size - k;
  const bool active = threshold == 0 || lambda < threshold;
  if (!active) return out;
  if (k > 0) out.conn = 1.0 / static_cast<double>(lambda + 1);
  if (k == 0) {
    out.cut_delta = 1;  // absorbing an outside pin would newly cut the net
  } else if (k == net_size - 1) {
    out.cut_delta = -1;  // absorbing the last outside pin uncuts it
  }
  return out;
}

}  // namespace

OrderingEngine::OrderingEngine(const Netlist& nl, OrderingConfig cfg)
    : nl_(&nl), cfg_(cfg), cells_(nl.num_cells()), nets_(nl.num_nets()) {
  GTL_REQUIRE(cfg.max_length >= 1, "max_length (Z) must be at least 1");
  GTL_REQUIRE(nl.num_cells() <= kUntouched, "too many cells");
  for (NetId e = 0; e < nl.num_nets(); ++e) nets_[e] = {nl.net_size(e), 0};
  for (CellId c = 0; c < nl.num_cells(); ++c) {
    std::int32_t base = 0;
    for (const NetId f : nl.nets_of(c)) {
      base += contribution(nets_[f].size, 0, cfg.large_net_threshold).cut_delta;
    }
    cells_[c] = {nl.is_fixed(c) ? kFixed : kUntouched, base};
  }
}

void OrderingEngine::reset() {
  for (const CellId c : touched_cells_) cells_[c].slot = kUntouched;
  touched_cells_.clear();
  for (const NetId e : touched_nets_) nets_[e].k = 0;
  touched_nets_.clear();
  heap_.clear();
  cut_ = 0;
  pins_in_group_ = 0;
}

void OrderingEngine::sift_up(std::uint32_t at, FrontierEntry e) {
  while (at > 0) {
    const std::uint32_t parent = (at - 1) / kArity;
    if (!(e > heap_[parent])) break;
    place(at, heap_[parent]);
    at = parent;
  }
  place(at, e);
}

void OrderingEngine::sift_down(std::uint32_t at, FrontierEntry e) {
  const auto n = static_cast<std::uint32_t>(heap_.size());
  for (;;) {
    const std::uint64_t first = std::uint64_t{at} * kArity + 1;
    if (first >= n) break;
    auto best = static_cast<std::uint32_t>(first);
    if (first + kArity <= n) {
      // All four children exist: pick the largest without branches.  The
      // selects work on values and a mask; GCC turns a select between
      // indices into a branch.
      const FrontierEntry* child = &heap_[best];
      const auto i01 = static_cast<std::uint32_t>(child[1] > child[0]);
      const auto i23 = 2 + static_cast<std::uint32_t>(child[3] > child[2]);
      const FrontierEntry max01 = i01 != 0 ? child[1] : child[0];
      const FrontierEntry max23 = i23 != 2 ? child[3] : child[2];
      const auto take23 = static_cast<std::uint32_t>(max23 > max01);
      best += i01 ^ ((i01 ^ i23) & (0u - take23));
    } else {
      for (std::uint32_t c = best + 1; c < n; ++c) {
        if (heap_[c] > heap_[best]) best = c;
      }
    }
    if (!(heap_[best] > e)) break;
    place(at, heap_[best]);
    at = best;
  }
  place(at, e);
}

void OrderingEngine::pop_top() {
  const FrontierEntry last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0, last);
}

void OrderingEngine::absorb(CellId u) {
  cells_[u].slot = kInGroup;
  pins_in_group_ += nl_->cell_degree(u);

  const std::uint32_t threshold = cfg_.large_net_threshold;
  for (const NetId e : nl_->nets_of(u)) {
    NetState& net = nets_[e];
    const std::uint32_t size = net.size;
    const std::uint32_t k_old = net.k++;
    if (k_old == 0) touched_nets_.push_back(e);

    // Exact cut maintenance (the reported T(C_k) is never approximated).
    if (size > 1) {
      if (k_old == 0) ++cut_;
      if (k_old + 1 == size) --cut_;
    }

    // An inactive net (1-pin, or λ at or above the threshold) moves no
    // gain: with one pin fewer in the group it was inactive too.  A net
    // with every pin in the group has no outside pin left to update.
    const NetContribution after = contribution(size, k_old + 1, threshold);
    if (after.conn == 0.0 || k_old + 1 == size) continue;
    const NetContribution before = contribution(size, k_old, threshold);

    for (const CellId w : nl_->pins_of(e)) {
      CellState& s = cells_[w];
      if (s.slot == kUntouched) {
        // O(1) discovery.  A cell is first reached through the first of
        // its active nets to gain a group pin, so all its other active
        // nets still have k = 0.  A from-scratch sum over w's nets thus
        // gives conn = after.conn and base_delta with e's k = 0 term
        // (before.cut_delta; before.conn is 0) replaced by
        // after.cut_delta.
        touched_cells_.push_back(w);
        heap_.emplace_back();
        sift_up(static_cast<std::uint32_t>(heap_.size() - 1),
                encode(after.conn,
                       s.base_delta - before.cut_delta + after.cut_delta, w));
      } else if (s.slot < kUntouched) {
        const std::uint32_t at = s.slot;
        const FrontierEntry old = heap_[at];
        // Keep the left-to-right sum: another association rounds
        // differently and would change tie-breaks.
        const FrontierEntry moved = encode(
            conn_of(old) + after.conn - before.conn,
            cut_delta_of(old) + after.cut_delta - before.cut_delta, w);
        if (moved > old) {
          sift_up(at, moved);
        } else {
          sift_down(at, moved);
        }
      }
    }
  }
}

void OrderingEngine::grow(CellId seed, LinearOrdering& out) {
  GTL_REQUIRE(seed < nl_->num_cells(), "seed out of range");
  if (nl_->is_fixed(seed)) {
    throw std::invalid_argument("ordering seed must be a movable cell");
  }
  reset();

  // Grow into a local that takes over out's buffers.  Appending through
  // the reference instead made Phase I ~8% slower: absorb() might reach
  // `out`, so its vectors' ends were reloaded around every call.
  LinearOrdering grown = std::move(out);
  grown.seed = seed;
  grown.cells.clear();
  grown.prefix_cut.clear();
  grown.prefix_pins.clear();
  const std::size_t z =
      std::min<std::size_t>(cfg_.max_length, nl_->num_movable());
  grown.cells.reserve(z);
  grown.prefix_cut.reserve(z);
  grown.prefix_pins.reserve(z);

  touched_cells_.push_back(seed);
  absorb(seed);
  grown.cells.push_back(seed);
  grown.prefix_cut.push_back(cut_);
  grown.prefix_pins.push_back(pins_in_group_);

  while (grown.cells.size() < z && !heap_.empty()) {
    const CellId u = cell_of(heap_.front());
    pop_top();
    absorb(u);
    grown.cells.push_back(u);
    grown.prefix_cut.push_back(cut_);
    grown.prefix_pins.push_back(pins_in_group_);
  }
  out = std::move(grown);
}

LinearOrdering OrderingEngine::grow(CellId seed) {
  LinearOrdering out;
  grow(seed, out);
  return out;
}

}  // namespace gtl
