#include "place/soft_blocks.hpp"

#include <cmath>

#include "util/require.hpp"

namespace gtl {

Placement place_with_soft_blocks(const Netlist& nl,
                                 std::span<const double> fixed_x,
                                 std::span<const double> fixed_y,
                                 const PlacerConfig& placer_cfg,
                                 std::span<const std::vector<CellId>> groups,
                                 const SoftBlockConfig& cfg) {
  GTL_REQUIRE(fixed_x.size() == nl.num_cells() &&
                  fixed_y.size() == nl.num_cells(),
              "fixed position arrays must cover all cells");

  // Augment: copy the netlist, add one anchor cell per group plus the
  // attraction pseudo-nets.
  NetlistBuilder nb;
  nb.reserve(nl.num_cells() + groups.size(), nl.num_nets(), nl.num_pins());
  for (CellId c = 0; c < nl.num_cells(); ++c) {
    nb.add_cell(nl.cell_name(c), nl.cell_width(c), nl.cell_height(c),
                nl.is_fixed(c));
  }
  for (NetId e = 0; e < nl.num_nets(); ++e) {
    nb.add_net(nl.pins_of(e), nl.net_name(e));
  }
  for (const auto& group : groups) {
    if (group.empty()) continue;
    // Anchor: tiny movable cell (area epsilon so spreading ignores it).
    const CellId anchor = nb.add_cell({}, 1e-6, 1e-6, /*fixed=*/false);
    for (const CellId member : group) {
      GTL_REQUIRE(member < nl.num_cells(), "group member out of range");
      for (std::uint32_t k = 0; k < cfg.attraction; ++k) {
        const CellId pins[2] = {member, anchor};
        nb.add_net(pins);
      }
    }
  }
  const Netlist augmented = nb.build();

  std::vector<double> ax(fixed_x.begin(), fixed_x.end());
  std::vector<double> ay(fixed_y.begin(), fixed_y.end());
  ax.resize(augmented.num_cells(), placer_cfg.die.width * 0.5);
  ay.resize(augmented.num_cells(), placer_cfg.die.height * 0.5);

  Placement p = place_quadratic(augmented, ax, ay, placer_cfg);
  // Strip the anchors.
  p.x.resize(nl.num_cells());
  p.y.resize(nl.num_cells());
  p.hpwl = total_hpwl(nl, p.x, p.y);  // HPWL over real nets only
  return p;
}

double group_rms_spread(std::span<const CellId> cells,
                        std::span<const double> x,
                        std::span<const double> y) {
  if (cells.empty()) return 0.0;
  double mx = 0.0, my = 0.0;
  for (const CellId c : cells) {
    mx += x[c];
    my += y[c];
  }
  mx /= static_cast<double>(cells.size());
  my /= static_cast<double>(cells.size());
  double acc = 0.0;
  for (const CellId c : cells) {
    const double dx = x[c] - mx, dy = y[c] - my;
    acc += dx * dx + dy * dy;
  }
  return std::sqrt(acc / static_cast<double>(cells.size()));
}

}  // namespace gtl
