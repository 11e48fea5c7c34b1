#pragma once
// The netlist hypergraph  G = (V, E):  V is a set of cells, E a set of nets,
// each net connected to a subset of V (paper, Ch. II).  This is the single
// data structure every phase of the tangled-logic finder consumes.
//
// Storage is CSR (compressed sparse row) in both directions:
//   cell -> incident nets   and   net -> member cells (pins).
// Offsets are 32-bit (the builder rejects netlists with >= 2^32-1 pins,
// far beyond ISPD-class designs), fixed flags are a byte array, and net
// sizes are cached in their own array — a size or fixed query is one
// 32-bit load instead of two 64-bit loads or a vector<bool> bit probe,
// and the whole CSR is half the bytes, so twice as much of the graph fits
// in cache.  The hot reader of cached sizes is the ordering engine: it
// copies them into its own per-net words once per engine and restores
// the words of the touched nets from them after every grow and measure.
// Pins are deduplicated per net (a hyperedge is a *set* of cells), so
// cell_degree(c) == number of distinct nets touching c, and
// num_pins() == sum over nets of net_size() == sum over cells of degree.
//
// Cells carry physical width/height and a fixed flag so the same object
// feeds both the connectivity algorithms (finder) and the placer.
//
// Names are packed: all cell names live in one byte buffer indexed by
// 32-bit offsets (likewise net names), so a named cell costs its name's
// bytes plus 4, and an unnamed netlist holds no name bytes at all.  No
// name -> id index is kept; find_cell scans.

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace gtl {

using CellId = std::uint32_t;
using NetId = std::uint32_t;

inline constexpr CellId kInvalidCell = static_cast<CellId>(-1);
inline constexpr NetId kInvalidNet = static_cast<NetId>(-1);

class NetlistBuilder;

/// Immutable netlist hypergraph. Construct via NetlistBuilder.
class Netlist {
 public:
  [[nodiscard]] std::size_t num_cells() const {
    return cell_net_offset_.size() - 1;
  }
  [[nodiscard]] std::size_t num_nets() const {
    return net_pin_offset_.size() - 1;
  }
  /// Total pin count = sum of net sizes (after per-net deduplication).
  [[nodiscard]] std::size_t num_pins() const { return net_pins_.size(); }

  /// Nets incident to a cell.
  [[nodiscard]] std::span<const NetId> nets_of(CellId c) const {
    return {cell_nets_.data() + cell_net_offset_[c],
            cell_net_offset_[c + 1] - cell_net_offset_[c]};
  }

  /// Cells on a net (the net's pins), deduplicated.
  [[nodiscard]] std::span<const CellId> pins_of(NetId e) const {
    return {net_pins_.data() + net_pin_offset_[e],
            net_pin_offset_[e + 1] - net_pin_offset_[e]};
  }

  /// |e| — number of distinct cells on net e (cached; one 32-bit load).
  [[nodiscard]] std::uint32_t net_size(NetId e) const {
    return net_size_[e];
  }

  /// Number of distinct nets incident to cell c (its pin count).
  [[nodiscard]] std::uint32_t cell_degree(CellId c) const {
    return cell_net_offset_[c + 1] - cell_net_offset_[c];
  }

  /// A(G): average pin count per cell — the normalization constant of
  /// nGTL-Score (expected value of GTL-S for an average-quality group).
  [[nodiscard]] double average_pins_per_cell() const {
    return num_cells() == 0
               ? 0.0
               : static_cast<double>(num_pins()) /
                     static_cast<double>(num_cells());
  }

  [[nodiscard]] double cell_width(CellId c) const { return cell_width_[c]; }
  [[nodiscard]] double cell_height(CellId c) const { return cell_height_[c]; }
  [[nodiscard]] double cell_area(CellId c) const {
    return cell_width_[c] * cell_height_[c];
  }
  /// Fixed cells (I/O pads, macros) do not move during placement and are
  /// never absorbed into a GTL.
  [[nodiscard]] bool is_fixed(CellId c) const { return cell_fixed_[c] != 0; }

  /// Number of movable (non-fixed) cells.
  [[nodiscard]] std::size_t num_movable() const { return num_movable_; }

  /// Cell name ("" when the netlist was built without names).
  [[nodiscard]] std::string_view cell_name(CellId c) const {
    return cell_names_.at(c);
  }
  /// Net name ("" when unnamed).
  [[nodiscard]] std::string_view net_name(NetId e) const {
    return net_names_.at(e);
  }
  /// Lookup a cell by name: the lowest id whose name equals `name`, or
  /// nullopt when there is none, when `name` is empty, or when the
  /// netlist has no cell names.  O(num_cells): a linear scan of the
  /// packed names (no index is kept; nothing on the finder or serving
  /// path looks cells up by name).
  [[nodiscard]] std::optional<CellId> find_cell(std::string_view name) const;

  /// True when the netlist carries cell names (some cell was given a
  /// non-empty one).
  [[nodiscard]] bool has_names() const { return !cell_names_.empty(); }

  /// Approximate heap bytes held by this netlist (CSR arrays, cell
  /// attributes, and the packed name buffers and offsets).  The
  /// accounting a multi-design server needs for LRU eviction by resident
  /// size — allocator overhead is not counted, but the figure is stable:
  /// the same netlist always reports the same value.
  [[nodiscard]] std::size_t resident_bytes() const;

 private:
  friend class NetlistBuilder;
  /// netlist_io.cpp: raw CSR (de)serialization for the binary snapshot
  /// format — snapshot load bypasses the builder's per-net sort/dedup
  /// because a written snapshot already satisfies the invariants.
  friend struct NetlistSnapshotAccess;

  /// Names packed into one buffer: name i is blob[offsets[i],
  /// offsets[i+1]).  `offsets` is empty when no name of this kind was
  /// given (every name is then ""), and holds one entry per cell (or
  /// net) plus one otherwise.  Offsets are 32-bit: the builder and the
  /// snapshot reader reject more than 2^32 - 1 name bytes.
  struct PackedNames {
    std::string blob;
    std::vector<std::uint32_t> offsets;

    [[nodiscard]] bool empty() const { return offsets.empty(); }
    [[nodiscard]] std::string_view at(std::size_t i) const {
      if (offsets.empty()) return {};
      return {blob.data() + offsets[i], offsets[i + 1] - offsets[i]};
    }
    /// Append name number `index` (the table starts at the first
    /// non-empty name, with an empty entry for each one before it).
    void append(std::size_t index, std::string_view name);
    /// Heap bytes of the blob and the offsets.
    [[nodiscard]] std::size_t heap_bytes() const;
  };

  /// Recompute everything derivable from the forward CSR + cell arrays
  /// (which must already be populated): cached net sizes, the transposed
  /// cell->nets CSR, and the movable count.  Names are stored as given
  /// and derive nothing.  Shared by NetlistBuilder::build() and the
  /// snapshot loader.
  void finalize_from_forward_csr();

  std::vector<std::uint32_t> cell_net_offset_;  // size num_cells+1
  std::vector<NetId> cell_nets_;
  std::vector<std::uint32_t> net_pin_offset_;  // size num_nets+1
  std::vector<CellId> net_pins_;
  std::vector<std::uint32_t> net_size_;  // cached |e| per net
  std::vector<double> cell_width_;
  std::vector<double> cell_height_;
  std::vector<std::uint8_t> cell_fixed_;  // byte array: no bit probing
  std::size_t num_movable_ = 0;
  PackedNames cell_names_;
  PackedNames net_names_;
};

/// Incremental construction of a Netlist.
/// Usage: add all cells, then all nets, then call build() exactly once.
class NetlistBuilder {
 public:
  /// Reserve internal storage (optional, for large netlists).
  void reserve(std::size_t cells, std::size_t nets, std::size_t pins);

  /// Add a cell; returns its id (ids are dense, in insertion order).  The
  /// name is copied into the packed name buffer.
  CellId add_cell(std::string_view name = {}, double width = 1.0,
                  double height = 1.0, bool fixed = false);

  /// Add a net over the given cells. Duplicate cells within the net are
  /// removed. Nets with fewer than 1 distinct pin are rejected.
  NetId add_net(std::span<const CellId> cells, std::string_view name = {});
  NetId add_net(std::initializer_list<CellId> cells,
                std::string_view name = {}) {
    return add_net(std::span<const CellId>(cells.begin(), cells.size()),
                   name);
  }

  [[nodiscard]] std::size_t num_cells() const { return widths_.size(); }
  [[nodiscard]] std::size_t num_nets() const { return net_offset_.size() - 1; }

  /// Name of an added cell, a view into the packed table build() hands
  /// to the Netlist (valid until the next add_cell).
  [[nodiscard]] std::string_view cell_name(CellId c) const {
    return cell_names_.at(c);
  }
  [[nodiscard]] bool is_fixed(CellId c) const { return fixed_[c] != 0; }
  /// Mark an added cell fixed.
  void set_fixed(CellId c) { fixed_[c] = 1; }

  /// Finalize. The builder is left empty afterwards.
  [[nodiscard]] Netlist build();

 private:
  std::vector<double> widths_;
  std::vector<double> heights_;
  std::vector<std::uint8_t> fixed_;
  Netlist::PackedNames cell_names_;
  Netlist::PackedNames net_names_;
  std::vector<std::uint32_t> net_offset_ = {0};
  std::vector<CellId> net_pins_;
};

}  // namespace gtl
