#pragma once
// Phase I of the tangled-logic finder (paper §3.2.1, Algorithm steps
// I.1-I.11): grow a group from a seed cell, absorbing at each step the
// frontier cell with the strongest connection to the group,
//
//     conn(v) = Σ_{e ∋ v, e∩S ≠ ∅}  1 / (λ(e) + 1),
//
// where λ(e) = |e| − |e∩S| is the number of pins of net e outside the
// group (so nets mostly inside the group weigh more).  Ties are broken by
// the smaller net-cut delta (paper: "favoring min cut"), then by cell id
// for determinism.  Connection ranks first because min cut as the
// primary criterion is likely to pull a weakly connected outside cell
// into the group (§3.2.1).  The order of absorption is the linear
// ordering; the engine also records T(C_k) and pins(C_k) for every
// prefix, which is all Phase II needs.
//
// The paper's large-net trick (§4.1.2) is reproduced: nets with
// λ(e) >= large_net_threshold (default 20) contribute nothing to conn and
// their pins are not pulled into the frontier until enough of the net is
// absorbed; this bounds the per-step update cost on high-fanout nets.
// Setting the threshold to 0 disables the trick (exact algorithm).

#include <bit>
#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "netlist/netlist.hpp"

namespace gtl {

struct OrderingConfig {
  /// Z: maximum ordering length (paper uses up to 100K).
  std::size_t max_length = 100'000;
  /// Skip gain updates through nets with >= this many external pins;
  /// 0 disables the trick (exact gains).
  std::uint32_t large_net_threshold = 20;
};

/// A linear ordering with per-prefix connectivity statistics.
struct LinearOrdering {
  CellId seed = kInvalidCell;
  /// Cells in absorption order (cells[0] == seed).
  std::vector<CellId> cells;
  /// prefix_cut[k-1] = T(C_k) where C_k = first k cells.
  std::vector<std::int64_t> prefix_cut;
  /// prefix_pins[k-1] = Σ degree(c) over C_k (numerator of A_{C_k}).
  std::vector<std::uint64_t> prefix_pins;
};

/// T(C) and pins(C) of an explicit member set (see OrderingEngine::measure).
struct GroupMeasure {
  std::int64_t cut = 0;    ///< T(C)
  std::uint64_t pins = 0;  ///< Σ degree(c) over C (numerator of A_C)
};

/// Reusable Phase I engine.  One engine per thread; `grow` may be called
/// any number of times.  Its fixed state is 8 bytes per cell and 4 per
/// net, and every grow leaves it clean: on exit (a throw included) it
/// resets what it touched, through the cells it absorbed and the frontier
/// left in its heap.
class OrderingEngine {
 public:
  /// Requires cfg.max_length (Z) >= 1: every ordering holds its seed.
  /// Requires every net to have fewer than 2^31 pins.
  explicit OrderingEngine(const Netlist& nl, OrderingConfig cfg = {});

  /// Grow an ordering from `seed` into `out`, replacing its contents but
  /// keeping its capacity, so a caller that reuses one buffer allocates
  /// only for its first ordering.  Fixed cells are never absorbed and
  /// cannot seed (throws std::invalid_argument).  The ordering may be
  /// shorter than Z if the frontier empties (disconnected region).
  void grow(CellId seed, LinearOrdering& out);

  /// grow(seed, out) into a new ordering.
  [[nodiscard]] LinearOrdering grow(CellId seed);

  /// T(C) and pins(C) of `members`, which must be distinct cells (fixed
  /// ones allowed): the values GroupConnectivity::assign(members) gives
  /// as cut() and pins_in_group().  Applies absorb's net-word update to
  /// every member's nets, then restores the words, so the engine is left
  /// as it was.  Valid only between grows (the engine is clean then);
  /// Phase III scores its genetic family with it.
  [[nodiscard]] GroupMeasure measure(std::span<const CellId> members);

  [[nodiscard]] const OrderingConfig& config() const { return cfg_; }

 private:
  static constexpr std::uint32_t kUntouched = 0xFFFF'FFFDu;
  static constexpr std::uint32_t kInGroup = 0xFFFF'FFFEu;
  static constexpr std::uint32_t kFixed = 0xFFFF'FFFFu;

  /// Net word: the low 31 bits count the net's pins outside the group
  /// (λ), the top bit says the net has a pin in the group.  A clean word
  /// is the net's size.
  static constexpr std::uint32_t kHasGroupPin = 0x8000'0000u;
  static constexpr std::uint32_t kOutsideMask = 0x7FFF'FFFFu;

  /// Move one pin of a net into the group: update its word and return
  /// the change of T(C) — +1 when the net gains its first group pin, −1
  /// when its last outside pin goes in (a 1-pin net nets to 0).
  static std::int64_t take_pin(std::uint32_t& word) {
    const std::uint32_t outside = word & kOutsideMask;
    const auto delta = static_cast<std::int64_t>(word < kHasGroupPin) -
                       static_cast<std::int64_t>(outside == 1);
    word = (outside - 1) | kHasGroupPin;
    return delta;
  }

  /// A frontier cell's gains and id packed into one unsigned 128-bit key
  /// whose integer order is the rank order (paper I.7: highest conn
  /// first, lowest cut delta breaks ties), so the heap top is the largest
  /// key and every compare is one integer `>`.  From high bits to low:
  ///   - the bits of conn: conn > 0 on the frontier, and positive doubles
  ///     order like their bit patterns;
  ///   - kCutOffset - cut_delta as a uint32, so the smaller delta ranks
  ///     first for either sign;
  ///   - ~cell, so the smaller id ranks first; every key is unique and
  ///     the heap top is too.
  using FrontierEntry = unsigned __int128;
  static constexpr std::uint32_t kCutOffset = 0x7FFF'FFFFu;

  [[nodiscard]] static FrontierEntry encode(double conn,
                                            std::int32_t cut_delta,
                                            CellId cell) {
    assert(conn > 0.0);  // bit order is value order only for conn > 0
    const FrontierEntry gain = std::bit_cast<std::uint64_t>(conn);
    const FrontierEntry cut =
        kCutOffset - static_cast<std::uint32_t>(cut_delta);
    return (((gain << 32) | cut) << 32) | ~cell;
  }
  [[nodiscard]] static double conn_of(FrontierEntry e) {
    return std::bit_cast<double>(static_cast<std::uint64_t>(e >> 64));
  }
  [[nodiscard]] static std::int32_t cut_delta_of(FrontierEntry e) {
    const auto cut = static_cast<std::uint32_t>(e >> 32);
    return static_cast<std::int32_t>(kCutOffset - cut);
  }
  [[nodiscard]] static CellId cell_of(FrontierEntry e) {
    return ~static_cast<CellId>(e);
  }

  void absorb(CellId u);
  /// Reset the words of `cells`' nets to their clean value.
  void restore_nets(std::span<const CellId> cells);
  /// Return to the clean state after a grow that absorbed `absorbed`.
  void clear(std::span<const CellId> absorbed);

  // Frontier: a 4-ary heap of entries whose slots live in slot_.
  void place(std::uint32_t at, FrontierEntry e) {
    heap_[at] = e;
    slot_[cell_of(e)] = at;
  }
  void sift_up(std::uint32_t at, FrontierEntry e);
  void sift_down(std::uint32_t at, FrontierEntry e);
  void pop_top();

  const Netlist* nl_;
  OrderingConfig cfg_;

  /// Per cell: its frontier heap slot or one of the sentinels above.  A
  /// pin visit loads only this word.
  std::vector<std::uint32_t> slot_;
  /// Per cell, constant: the cut delta the cell has while none of its
  /// active nets holds a group pin — the number of its nets with
  /// 2 <= |f| (and |f| < threshold when the threshold is on).  Read when
  /// the cell is discovered.
  std::vector<std::int32_t> base_delta_;
  /// Per net: the word described at kHasGroupPin.
  std::vector<std::uint32_t> net_;
  std::vector<FrontierEntry> heap_;
  std::int64_t cut_ = 0;
  std::uint64_t pins_in_group_ = 0;
};

}  // namespace gtl
