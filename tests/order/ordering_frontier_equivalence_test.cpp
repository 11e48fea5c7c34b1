// Equivalence suite for the ordering engine: grows orderings with the
// production OrderingEngine (packed per-cell records, O(1) discovery of
// new frontier cells, 4-ary heap of integer keys) and with a reference
// engine that computes every newly reached cell's gains from scratch and
// keeps the frontier in a std::set (the original implementation,
// reproduced verbatim below).  It asserts byte-identical LinearOrdering
// output — cells, prefix_cut and prefix_pins — across netlists, growth
// seeds and large-net thresholds.  Both engines rank frontier cells by
// the same strict total order (conn desc, cut_delta asc, cell asc): the
// reference compares the three fields in turn, and the production engine
// encodes the same order in one unsigned 128-bit key.  Any divergence is
// a bug in one of the two.

#include "order/linear_ordering.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "graphgen/planted_graph.hpp"
#include "graphgen/presets.hpp"
#include "graphgen/synthetic_circuit.hpp"
#include "metrics/group_connectivity.hpp"
#include "util/rng.hpp"

namespace gtl {
namespace {

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
    out.cut_delta = 1;
  } else if (k == net_size - 1) {
    out.cut_delta = -1;
  }
  return out;
}

/// The original OrderingEngine: a newly reached cell's gains are summed
/// from scratch over all its nets, and the frontier is an ordered
/// node-based std::set.
class SetFrontierEngine {
 public:
  SetFrontierEngine(const Netlist& nl, OrderingConfig cfg)
      : nl_(&nl),
        cfg_(cfg),
        conn_(nl.num_cells(), 0.0),
        cut_delta_(nl.num_cells(), 0),
        state_(nl.num_cells(), 0),
        pins_in_(nl.num_nets(), 0) {}

  LinearOrdering grow(CellId seed) {
    for (const CellId c : touched_cells_) {
      conn_[c] = 0.0;
      cut_delta_[c] = 0;
      state_[c] = 0;
    }
    touched_cells_.clear();
    for (const NetId e : touched_nets_) pins_in_[e] = 0;
    touched_nets_.clear();
    frontier_.clear();
    cut_ = 0;
    pins_in_group_ = 0;

    LinearOrdering out;
    out.seed = seed;
    const std::size_t z =
        std::min<std::size_t>(cfg_.max_length, nl_->num_movable());
    absorb(seed);
    out.cells.push_back(seed);
    out.prefix_cut.push_back(cut_);
    out.prefix_pins.push_back(pins_in_group_);
    while (out.cells.size() < z && !frontier_.empty()) {
      const CellId u = frontier_.begin()->cell;
      absorb(u);
      out.cells.push_back(u);
      out.prefix_cut.push_back(cut_);
      out.prefix_pins.push_back(pins_in_group_);
    }
    return out;
  }

 private:
  struct Key {
    double conn;
    std::int32_t cut_delta;
    CellId cell;
  };
  struct Compare {
    bool operator()(const Key& a, const Key& b) const {
      if (a.conn != b.conn) return a.conn > b.conn;
      if (a.cut_delta != b.cut_delta) return a.cut_delta < b.cut_delta;
      return a.cell < b.cell;
    }
  };

  void absorb(CellId u) {
    if (state_[u] == 1) {
      frontier_.erase(Key{conn_[u], cut_delta_[u], u});
    }
    if (state_[u] == 0) touched_cells_.push_back(u);
    state_[u] = 2;
    pins_in_group_ += nl_->cell_degree(u);

    const std::uint32_t threshold = cfg_.large_net_threshold;
    for (const NetId e : nl_->nets_of(u)) {
      const std::uint32_t size = nl_->net_size(e);
      const std::uint32_t k_old = pins_in_[e];
      if (k_old == 0) touched_nets_.push_back(e);
      if (size > 1) {
        if (k_old == 0) ++cut_;
        if (k_old + 1 == size) --cut_;
      }
      const NetContribution before = contribution(size, k_old, threshold);
      pins_in_[e] = k_old + 1;
      const NetContribution after = contribution(size, k_old + 1, threshold);
      const bool discover = after.conn != 0.0 || after.cut_delta != 0;
      const bool changed = before.conn != after.conn ||
                           before.cut_delta != after.cut_delta;
      if (!discover && !changed) continue;
      for (const CellId w : nl_->pins_of(e)) {
        if (w == u || state_[w] == 2 || nl_->is_fixed(w)) continue;
        if (state_[w] == 0) {
          touched_cells_.push_back(w);
          state_[w] = 1;
          double conn = 0.0;
          std::int32_t delta = 0;
          for (const NetId f : nl_->nets_of(w)) {
            const NetContribution cf =
                contribution(nl_->net_size(f), pins_in_[f], threshold);
            conn += cf.conn;
            delta += cf.cut_delta;
          }
          conn_[w] = conn;
          cut_delta_[w] = delta;
          frontier_.insert(Key{conn, delta, w});
        } else if (changed) {
          frontier_.erase(Key{conn_[w], cut_delta_[w], w});
          // Left-to-right evaluation, matching the production engine's
          // `conn_[c] + after.conn - before.conn` exactly: a different
          // association rounds differently and perturbs tie-breaks.
          conn_[w] = conn_[w] + after.conn - before.conn;
          cut_delta_[w] = cut_delta_[w] + after.cut_delta - before.cut_delta;
          frontier_.insert(Key{conn_[w], cut_delta_[w], w});
        }
      }
    }
  }

  const Netlist* nl_;
  OrderingConfig cfg_;
  std::vector<double> conn_;
  std::vector<std::int32_t> cut_delta_;
  std::vector<std::uint8_t> state_;
  std::vector<std::uint32_t> pins_in_;
  std::set<Key, Compare> frontier_;
  std::vector<CellId> touched_cells_;
  std::vector<NetId> touched_nets_;
  std::int64_t cut_ = 0;
  std::uint64_t pins_in_group_ = 0;
};

PlantedGraph make_graph(std::uint32_t n, std::uint64_t seed) {
  PlantedGraphConfig cfg;
  cfg.num_cells = n;
  cfg.gtls.push_back({n / 8, 2});
  Rng rng(seed);
  return generate_planted_graph(cfg, rng);
}

void expect_identical(const LinearOrdering& heap_ord,
                      const LinearOrdering& set_ord) {
  ASSERT_EQ(heap_ord.cells.size(), set_ord.cells.size());
  EXPECT_EQ(heap_ord.seed, set_ord.seed);
  EXPECT_EQ(heap_ord.cells, set_ord.cells);
  EXPECT_EQ(heap_ord.prefix_cut, set_ord.prefix_cut);
  EXPECT_EQ(heap_ord.prefix_pins, set_ord.prefix_pins);
}

/// A small ISPD-like circuit: Rent-rule background, planted structures
/// and 128 fixed pads on the periphery.
Netlist ispd_like_circuit() {
  Rng rng(3);
  return generate_synthetic_circuit(ispd_like_config("adaptec1", 0.01), rng)
      .netlist;
}

/// Every special case of the gain bookkeeping in one netlist: 1-pin
/// nets, fixed cells on shared nets, a 1-pin net on a fixed cell, a
/// duplicated 2-pin net, and nets larger than the threshold (5, 24 and
/// 30 pins, one with a pad) that switch on only once enough of their
/// pins have been absorbed along the chain.
Netlist quirky_netlist() {
  NetlistBuilder nb;
  for (int c = 0; c < 60; ++c) nb.add_cell();
  for (int p = 0; p < 4; ++p) nb.add_cell("", 1, 1, /*fixed=*/true);
  const auto cell = [](int c) { return static_cast<CellId>(c); };
  for (int c = 0; c + 1 < 60; ++c) nb.add_net({cell(c), cell(c + 1)});
  for (int c = 0; c + 2 < 60; c += 3) {
    nb.add_net({cell(c), cell(c + 1), cell(c + 2)});
  }
  for (int c = 0; c < 60; c += 5) nb.add_net({cell(c)});
  nb.add_net({cell(61)});
  nb.add_net({cell(7), cell(8)});
  for (int p = 0; p < 4; ++p) {
    nb.add_net({cell(60 + p), cell(p * 15), cell(p * 15 + 1)});
  }
  nb.add_net({cell(60), cell(62), cell(30)});
  nb.add_net({cell(0), cell(2), cell(4), cell(6), cell(8)});
  std::vector<CellId> wide;
  for (int c = 0; c < 48; c += 2) wide.push_back(cell(c));
  nb.add_net(wide);
  std::vector<CellId> with_pad = {cell(63)};
  for (int c = 31; c < 60; ++c) with_pad.push_back(cell(c));
  nb.add_net(with_pad);
  return nb.build();
}

// Degenerate topologies after katana's TopologyGeneration (grid with
// diagonals, Ferris wheel, clique): regular shapes full of exact ties,
// which the planted generator never makes.

Netlist clique(std::uint32_t n) {
  NetlistBuilder nb;
  for (std::uint32_t c = 0; c < n; ++c) nb.add_cell();
  for (CellId i = 0; i < n; ++i) {
    for (CellId j = i + 1; j < n; ++j) nb.add_net({i, j});
  }
  return nb.build();
}

/// n - 1 cells on a circle, each tied to its two neighbors and to the
/// hub (cell n - 1).
Netlist ferris_wheel(std::uint32_t n) {
  NetlistBuilder nb;
  for (std::uint32_t c = 0; c < n; ++c) nb.add_cell();
  const CellId hub = n - 1;
  for (CellId i = 0; i < hub; ++i) {
    nb.add_net({i, (i + 1) % hub});
    nb.add_net({i, hub});
  }
  return nb.build();
}

Netlist grid_with_diagonals(std::uint32_t width, std::uint32_t height) {
  NetlistBuilder nb;
  for (std::uint32_t c = 0; c < width * height; ++c) nb.add_cell();
  const auto at = [width](std::uint32_t x, std::uint32_t y) {
    return static_cast<CellId>(y * width + x);
  };
  for (std::uint32_t y = 0; y < height; ++y) {
    for (std::uint32_t x = 0; x < width; ++x) {
      if (x + 1 < width) nb.add_net({at(x, y), at(x + 1, y)});
      if (y + 1 < height) nb.add_net({at(x, y), at(x, y + 1)});
      if (x + 1 < width && y + 1 < height) {
        nb.add_net({at(x, y), at(x + 1, y + 1)});
        nb.add_net({at(x + 1, y), at(x, y + 1)});
      }
    }
  }
  return nb.build();
}

TEST(OrderingFrontierEquivalence, ByteIdenticalAcrossSeedsAndConfigs) {
  for (const std::uint64_t graph_seed : {1u, 7u, 42u}) {
    const PlantedGraph pg = make_graph(480, graph_seed);
    for (const std::uint32_t threshold : {0u, 3u, 20u}) {
      const OrderingConfig cfg{.max_length = 240,
                               .large_net_threshold = threshold};
      OrderingEngine engine(pg.netlist, cfg);
      SetFrontierEngine reference(pg.netlist, cfg);
      Rng rng(graph_seed * 1000 + threshold);
      for (int rep = 0; rep < 4; ++rep) {
        const CellId seed = static_cast<CellId>(
            rng.next_below(pg.netlist.num_cells()));
        if (pg.netlist.is_fixed(seed)) continue;
        expect_identical(engine.grow(seed), reference.grow(seed));
      }
      // Also from inside a planted GTL (the common finder case).
      const CellId gtl_seed = pg.gtl_members[0][0];
      expect_identical(engine.grow(gtl_seed), reference.grow(gtl_seed));
    }
  }

  // The inputs the O(1) discovery depends on.  The small netlists grow
  // from every movable cell until the frontier empties; the ISPD-like
  // circuit from every 97th cell and from the movable pins of its pads.
  const Netlist ispd = ispd_like_circuit();
  const Netlist small[] = {quirky_netlist(), clique(12), ferris_wheel(25),
                           grid_with_diagonals(8, 8)};
  std::vector<CellId> ispd_seeds;
  for (CellId c = 0; c < ispd.num_cells(); ++c) {
    if (ispd.is_fixed(c) && !ispd.nets_of(c).empty()) {
      for (const CellId w : ispd.pins_of(ispd.nets_of(c)[0])) {
        if (!ispd.is_fixed(w)) ispd_seeds.push_back(w);
      }
    } else if (c % 97 == 0) {
      ispd_seeds.push_back(c);
    }
  }
  std::vector<std::pair<const Netlist*, std::vector<CellId>>> inputs = {
      {&ispd, ispd_seeds}};
  for (const Netlist& nl : small) {
    std::vector<CellId> seeds;
    for (CellId c = 0; c < nl.num_cells(); ++c) {
      if (!nl.is_fixed(c)) seeds.push_back(c);
    }
    inputs.emplace_back(&nl, std::move(seeds));
  }
  for (const auto& [nl, seeds] : inputs) {
    for (const std::uint32_t threshold : {0u, 3u, 20u}) {
      const OrderingConfig cfg{.max_length = 240,
                               .large_net_threshold = threshold};
      OrderingEngine engine(*nl, cfg);
      SetFrontierEngine reference(*nl, cfg);
      for (const CellId seed : seeds) {
        SCOPED_TRACE(::testing::Message()
                     << "cells=" << nl->num_cells() << " seed=" << seed
                     << " threshold=" << threshold);
        expect_identical(engine.grow(seed), reference.grow(seed));
      }
    }
  }
}

TEST(OrderingFrontierEquivalence, EngineReuseStaysIdentical) {
  // Reusing one engine across many grows must match fresh references:
  // the O(touched) reset leaves no residue.
  const PlantedGraph pg = make_graph(300, 5);
  const OrderingConfig cfg{.max_length = 150, .large_net_threshold = 20};
  OrderingEngine engine(pg.netlist, cfg);
  Rng rng(99);
  for (int rep = 0; rep < 8; ++rep) {
    const CellId seed =
        static_cast<CellId>(rng.next_below(pg.netlist.num_cells()));
    if (pg.netlist.is_fixed(seed)) continue;
    SetFrontierEngine reference(pg.netlist, cfg);
    expect_identical(engine.grow(seed), reference.grow(seed));
  }
}

TEST(OrderingFrontierEquivalence, PrefixCutMatchesGroupConnectivity) {
  // Independent invariant: the reported prefix_cut along the ordering
  // must equal the incremental tracker's exact cut for every prefix.
  const PlantedGraph pg = make_graph(300, 11);
  OrderingEngine engine(pg.netlist,
                        {.max_length = 200, .large_net_threshold = 20});
  const LinearOrdering ord = engine.grow(pg.gtl_members[0][0]);
  GroupConnectivity group(pg.netlist);
  for (std::size_t k = 0; k < ord.cells.size(); ++k) {
    group.add(ord.cells[k]);
    ASSERT_EQ(group.cut(), ord.prefix_cut[k]) << "prefix " << k;
    ASSERT_EQ(group.pins_in_group(), ord.prefix_pins[k]) << "prefix " << k;
  }
}

}  // namespace
}  // namespace gtl
