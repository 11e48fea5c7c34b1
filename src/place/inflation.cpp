#include "place/inflation.hpp"

#include <vector>

#include "util/require.hpp"

namespace gtl {

Netlist inflate_cells(const Netlist& nl, std::span<const CellId> cells,
                      double area_factor) {
  GTL_REQUIRE(area_factor > 0.0, "area factor must be positive");
  std::vector<bool> inflate(nl.num_cells(), false);
  for (const CellId c : cells) {
    GTL_REQUIRE(c < nl.num_cells(), "cell id out of range");
    if (!nl.is_fixed(c)) inflate[c] = true;
  }

  NetlistBuilder nb;
  nb.reserve(nl.num_cells(), nl.num_nets(), nl.num_pins());
  for (CellId c = 0; c < nl.num_cells(); ++c) {
    const double width =
        inflate[c] ? nl.cell_width(c) * area_factor : nl.cell_width(c);
    nb.add_cell(nl.cell_name(c), width, nl.cell_height(c), nl.is_fixed(c));
  }
  for (NetId e = 0; e < nl.num_nets(); ++e) {
    nb.add_net(nl.pins_of(e), nl.net_name(e));
  }
  return nb.build();
}

}  // namespace gtl
