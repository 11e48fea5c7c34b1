#include "netlist/netlist.hpp"

#include <algorithm>

#include "util/require.hpp"

namespace gtl {

std::optional<CellId> Netlist::find_cell(std::string_view name) const {
  if (name.empty() || cell_names_.empty()) return std::nullopt;
  for (std::size_t c = 0; c < num_cells(); ++c) {
    if (cell_names_.at(c) == name) return static_cast<CellId>(c);
  }
  return std::nullopt;
}

namespace {

template <typename T>
std::size_t vec_bytes(const std::vector<T>& v) {
  return v.capacity() * sizeof(T);
}

}  // namespace

void Netlist::PackedNames::append(std::size_t index, std::string_view name) {
  if (offsets.empty()) {
    if (name.empty()) return;
    offsets.assign(index + 1, 0);
  }
  // 32-bit name offsets, like the 32-bit CSR offsets.
  GTL_REQUIRE(name.size() <= std::size_t{0xFFFF'FFFFu} - blob.size(),
              "too many name bytes (32-bit name offset overflow)");
  blob.append(name);
  offsets.push_back(static_cast<std::uint32_t>(blob.size()));
}

std::size_t Netlist::PackedNames::heap_bytes() const {
  // A blob short enough for SSO occupies no extra heap.
  const std::size_t heap =
      blob.capacity() >= sizeof(std::string) ? blob.capacity() + 1 : 0;
  return heap + vec_bytes(offsets);
}

std::size_t Netlist::resident_bytes() const {
  std::size_t total = sizeof(Netlist);
  total += vec_bytes(cell_net_offset_) + vec_bytes(cell_nets_);
  total += vec_bytes(net_pin_offset_) + vec_bytes(net_pins_);
  total += vec_bytes(net_size_);
  total += vec_bytes(cell_width_) + vec_bytes(cell_height_);
  total += vec_bytes(cell_fixed_);
  total += cell_names_.heap_bytes() + net_names_.heap_bytes();
  return total;
}

void NetlistBuilder::reserve(std::size_t cells, std::size_t nets,
                             std::size_t pins) {
  widths_.reserve(cells);
  heights_.reserve(cells);
  fixed_.reserve(cells);
  net_offset_.reserve(nets + 1);
  net_pins_.reserve(pins);
}

CellId NetlistBuilder::add_cell(std::string_view name, double width,
                                double height, bool fixed) {
  GTL_REQUIRE(width > 0.0 && height > 0.0, "cell dimensions must be positive");
  GTL_REQUIRE(widths_.size() < kInvalidCell, "too many cells (id overflow)");
  const auto id = static_cast<CellId>(widths_.size());
  widths_.push_back(width);
  heights_.push_back(height);
  fixed_.push_back(fixed ? 1 : 0);
  cell_names_.append(id, name);
  return id;
}

NetId NetlistBuilder::add_net(std::span<const CellId> cells,
                              std::string_view name) {
  GTL_REQUIRE(!cells.empty(), "net must have at least one pin");
  GTL_REQUIRE(net_offset_.size() - 1 < kInvalidNet,
              "too many nets (id overflow)");
  // 32-bit CSR offsets: the total (deduplicated) pin count must stay
  // representable.  Check against the worst case before appending.
  GTL_REQUIRE(cells.size() <=
                  static_cast<std::size_t>(kInvalidCell) - net_pins_.size(),
              "too many pins (32-bit CSR offset overflow)");
  const auto id = static_cast<NetId>(net_offset_.size() - 1);
  const std::size_t begin = net_pins_.size();
  for (const CellId c : cells) {
    GTL_REQUIRE(c < widths_.size(), "net references unknown cell");
    net_pins_.push_back(c);
  }
  // Deduplicate the pins of this net (hyperedge is a set of cells).
  const auto first = net_pins_.begin() + static_cast<std::ptrdiff_t>(begin);
  std::sort(first, net_pins_.end());
  net_pins_.erase(std::unique(first, net_pins_.end()), net_pins_.end());
  net_offset_.push_back(static_cast<std::uint32_t>(net_pins_.size()));
  net_names_.append(id, name);
  return id;
}

void Netlist::finalize_from_forward_csr() {
  const std::size_t n_cells = cell_width_.size();
  const std::size_t n_nets = net_pin_offset_.size() - 1;

  num_movable_ = static_cast<std::size_t>(
      std::count(cell_fixed_.begin(), cell_fixed_.end(), 0));

  // Cache per-net sizes (the hottest query of Phase I).
  net_size_.resize(n_nets);
  for (std::size_t e = 0; e < n_nets; ++e) {
    net_size_[e] = net_pin_offset_[e + 1] - net_pin_offset_[e];
  }

  // Build the transposed CSR: cell -> nets, via counting sort.
  cell_net_offset_.assign(n_cells + 1, 0);
  for (const CellId c : net_pins_) ++cell_net_offset_[c + 1];
  for (std::size_t i = 1; i <= n_cells; ++i) {
    cell_net_offset_[i] += cell_net_offset_[i - 1];
  }
  cell_nets_.resize(net_pins_.size());
  std::vector<std::uint32_t> cursor(cell_net_offset_.begin(),
                                    cell_net_offset_.end() - 1);
  for (std::size_t e = 0; e < n_nets; ++e) {
    for (std::uint32_t p = net_pin_offset_[e]; p < net_pin_offset_[e + 1];
         ++p) {
      cell_nets_[cursor[net_pins_[p]]++] = static_cast<NetId>(e);
    }
  }
}

Netlist NetlistBuilder::build() {
  Netlist nl;
  nl.cell_width_ = std::move(widths_);
  nl.cell_height_ = std::move(heights_);
  nl.cell_fixed_ = std::move(fixed_);
  nl.net_pin_offset_ = std::move(net_offset_);
  nl.net_pins_ = std::move(net_pins_);
  nl.cell_names_ = std::move(cell_names_);
  nl.net_names_ = std::move(net_names_);
  nl.finalize_from_forward_csr();

  // Reset builder to a pristine state.
  *this = NetlistBuilder{};
  return nl;
}

}  // namespace gtl
