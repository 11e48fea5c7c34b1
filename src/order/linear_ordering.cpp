#include "order/linear_ordering.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/require.hpp"

namespace gtl {
namespace {

constexpr std::uint32_t kArity = 4;

/// Contribution of a net with `outside` pins outside the group (λ) to
/// an outside pin's connection gain; `has_group_pin` says the net has a
/// pin in the group.  Inactive (above-threshold or 1-pin) nets
/// contribute nothing — the paper's large-net trick.
struct NetContribution {
  double conn = 0.0;
  std::int32_t cut_delta = 0;
};

NetContribution contribution(std::uint32_t outside, bool has_group_pin,
                             std::uint32_t threshold) {
  NetContribution out;
  const bool active = threshold == 0 || outside < threshold;
  if (!active) return out;
  if (has_group_pin) {
    out.conn = 1.0 / static_cast<double>(outside + 1);
    if (outside == 1) out.cut_delta = -1;  // absorbing it uncuts the net
  } else if (outside > 1) {
    // Absorbing an outside pin would newly cut the net; a 1-pin net
    // (outside == 1 with no group pin) is never cut.
    out.cut_delta = 1;
  }
  return out;
}

}  // namespace

OrderingEngine::OrderingEngine(const Netlist& nl, OrderingConfig cfg)
    : nl_(&nl),
      cfg_(cfg),
      slot_(nl.num_cells(), kUntouched),
      base_delta_(nl.num_cells()),
      net_(nl.num_nets()) {
  GTL_REQUIRE(cfg.max_length >= 1, "max_length (Z) must be at least 1");
  GTL_REQUIRE(nl.num_cells() <= kUntouched, "too many cells");
  for (NetId e = 0; e < nl.num_nets(); ++e) {
    GTL_REQUIRE(nl.net_size(e) < kHasGroupPin, "a net has 2^31 pins or more");
    net_[e] = nl.net_size(e);
  }
  for (CellId c = 0; c < nl.num_cells(); ++c) {
    std::int32_t base = 0;
    for (const NetId f : nl.nets_of(c)) {
      base += contribution(net_[f], false, cfg.large_net_threshold).cut_delta;
    }
    base_delta_[c] = base;
    if (nl.is_fixed(c)) slot_[c] = kFixed;
  }
}

void OrderingEngine::restore_nets(std::span<const CellId> cells) {
  for (const CellId c : cells) {
    for (const NetId e : nl_->nets_of(c)) net_[e] = nl_->net_size(e);
  }
}

void OrderingEngine::clear(std::span<const CellId> absorbed) {
  for (const CellId c : absorbed) slot_[c] = kUntouched;
  restore_nets(absorbed);
  for (const FrontierEntry e : heap_) slot_[cell_of(e)] = kUntouched;
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
  slot_[u] = kInGroup;
  pins_in_group_ += nl_->cell_degree(u);

  const std::uint32_t threshold = cfg_.large_net_threshold;
  for (const NetId e : nl_->nets_of(u)) {
    std::uint32_t& word = net_[e];
    const std::uint32_t outside = word & kOutsideMask;  // λ before u
    const bool had_group_pin = word >= kHasGroupPin;

    // Exact cut maintenance (the reported T(C_k) is never approximated).
    cut_ += take_pin(word);

    // A net with every pin in the group has no outside pin left to
    // update.  An inactive net (1-pin, or λ at or above the threshold)
    // moves no gain: with one pin fewer in the group it was inactive too.
    if (outside == 1) continue;
    const NetContribution after = contribution(outside - 1, true, threshold);
    if (after.conn == 0.0) continue;
    const NetContribution before =
        contribution(outside, had_group_pin, threshold);

    for (const CellId w : nl_->pins_of(e)) {
      const std::uint32_t slot = slot_[w];
      if (slot == kUntouched) {
        // O(1) discovery.  A cell is first reached through the first of
        // its active nets to gain a group pin, so all its other active
        // nets still have no group pin.  A from-scratch sum over w's nets
        // thus gives conn = after.conn and base_delta with e's term for
        // no group pin (before.cut_delta; before.conn is 0) replaced by
        // after.cut_delta.
        heap_.emplace_back();
        sift_up(static_cast<std::uint32_t>(heap_.size() - 1),
                encode(after.conn,
                       base_delta_[w] - before.cut_delta + after.cut_delta, w));
      } else if (slot < kUntouched) {
        const FrontierEntry old = heap_[slot];
        // Keep the left-to-right sum: another association rounds
        // differently and would change tie-breaks.
        const FrontierEntry moved = encode(
            conn_of(old) + after.conn - before.conn,
            cut_delta_of(old) + after.cut_delta - before.cut_delta, w);
        if (moved > old) {
          sift_up(slot, moved);
        } else {
          sift_down(slot, moved);
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

  // Grow into a local that takes over out's buffers.  Appending through
  // the reference instead made Phase I ~8% slower: absorb() might reach
  // `out`, so its vectors' ends were reloaded around every call.  The
  // buffers are sized to Z once, written by index and shrunk at the end.
  LinearOrdering grown = std::move(out);
  grown.seed = seed;
  const std::size_t z =
      std::min<std::size_t>(cfg_.max_length, nl_->num_movable());
  grown.cells.resize(z);
  grown.prefix_cut.resize(z);
  grown.prefix_pins.resize(z);

  // A cell is counted before it is absorbed, so the clear on exit
  // reaches it even when absorb() throws (the heap failed to grow).
  std::size_t n = 0;
  try {
    for (CellId u = seed;;) {
      grown.cells[n++] = u;
      absorb(u);
      grown.prefix_cut[n - 1] = cut_;
      grown.prefix_pins[n - 1] = pins_in_group_;
      if (n == z || heap_.empty()) break;
      u = cell_of(heap_.front());
      pop_top();
    }
  } catch (...) {
    clear(std::span<const CellId>(grown.cells).first(n));
    throw;
  }
  clear(std::span<const CellId>(grown.cells).first(n));
  grown.cells.resize(n);
  grown.prefix_cut.resize(n);
  grown.prefix_pins.resize(n);
  out = std::move(grown);
}

LinearOrdering OrderingEngine::grow(CellId seed) {
  LinearOrdering out;
  grow(seed, out);
  return out;
}

GroupMeasure OrderingEngine::measure(std::span<const CellId> members) {
  GroupMeasure m;
  for (const CellId c : members) {
    m.pins += nl_->cell_degree(c);
    for (const NetId e : nl_->nets_of(c)) m.cut += take_pin(net_[e]);
  }
  restore_nets(members);
  return m;
}

}  // namespace gtl
