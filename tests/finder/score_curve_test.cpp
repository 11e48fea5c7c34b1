#include "finder/score_curve.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "graphgen/planted_graph.hpp"
#include "order/linear_ordering.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace gtl {
namespace {

/// Ordering grown inside a planted GTL: the standard fixture for curve
/// shape tests.
struct GtlFixture {
  PlantedGraph pg;
  LinearOrdering inside;
  LinearOrdering outside;

  static GtlFixture make() {
    PlantedGraphConfig cfg;
    cfg.num_cells = 8'000;
    cfg.gtls.push_back({500, 1});
    Rng rng(101);
    GtlFixture f{generate_planted_graph(cfg, rng), {}, {}};
    OrderingEngine engine(f.pg.netlist,
                          {.max_length = 1500, .large_net_threshold = 20});
    f.inside = engine.grow(f.pg.gtl_members[0][7]);
    // A seed outside the GTL (first background cell).
    CellId bg = 0;
    while (std::binary_search(f.pg.gtl_members[0].begin(),
                              f.pg.gtl_members[0].end(), bg)) {
      ++bg;
    }
    f.outside = engine.grow(bg);
    return f;
  }
};

TEST(ScoreCurve, SizesMatchOrdering) {
  const auto f = GtlFixture::make();
  const ScoreCurve c = compute_score_curve(f.pg.netlist, f.inside);
  EXPECT_EQ(c.ngtl_s.size(), f.inside.cells.size());
  EXPECT_EQ(c.gtl_sd.size(), f.inside.cells.size());
  EXPECT_EQ(c.ratio_cut.size(), f.inside.cells.size());
}

TEST(ScoreCurve, RentExponentInPlausibleRange) {
  const auto f = GtlFixture::make();
  const ScoreCurve c = compute_score_curve(f.pg.netlist, f.inside);
  EXPECT_GE(c.rent_exponent, 0.1);
  EXPECT_LE(c.rent_exponent, 1.0);
  EXPECT_DOUBLE_EQ(c.context.rent_exponent, c.rent_exponent);
  EXPECT_DOUBLE_EQ(c.context.avg_pins_per_cell,
                   f.pg.netlist.average_pins_per_cell());
}

TEST(ScoreCurve, InsideGtlCurveDipsAtStructureBoundary) {
  // Paper Fig. 2: the curve reaches a deep minimum right when the whole
  // GTL has been absorbed.
  const auto f = GtlFixture::make();
  const ScoreCurve c = compute_score_curve(f.pg.netlist, f.inside);
  const auto min_it =
      std::min_element(c.ngtl_s.begin() + 29, c.ngtl_s.end());
  const auto min_k = static_cast<std::size_t>(
      std::distance(c.ngtl_s.begin(), min_it) + 1);
  EXPECT_NEAR(static_cast<double>(min_k), 500.0, 25.0);
  EXPECT_LT(*min_it, 0.3);  // strong GTL
}

TEST(ScoreCurve, OutsideCurveStaysHigh) {
  // Paper Fig. 2: a background agglomeration never dips much below its
  // plateau — no clear minimum anywhere.
  const auto f = GtlFixture::make();
  const ScoreCurve c = compute_score_curve(f.pg.netlist, f.outside);
  const double lo =
      *std::min_element(c.ngtl_s.begin() + 29, c.ngtl_s.end());
  EXPECT_GT(lo, 0.3);
}

TEST(ScoreCurve, GtlSdMinimumIsDeeperThanNgtl) {
  // Paper Fig. 3: the density-aware score has more dramatic contrast.
  const auto f = GtlFixture::make();
  const ScoreCurve c = compute_score_curve(f.pg.netlist, f.inside);
  const double min_ngtl =
      *std::min_element(c.ngtl_s.begin() + 29, c.ngtl_s.end());
  const double min_sd =
      *std::min_element(c.gtl_sd.begin() + 29, c.gtl_sd.end());
  EXPECT_LT(min_sd, min_ngtl);
}

TEST(ScoreCurve, RatioCutBiasTowardLargeGroups) {
  // Paper Fig. 5 / Ch. II: ratio cut T/|C| overly favors large groups.
  // On a background ordering (no structure anywhere) its minimum sits at
  // the right end of the curve, while nGTL-S correctly stays flat and
  // offers no minimum at all.
  const auto f = GtlFixture::make();
  const ScoreCurve c = compute_score_curve(f.pg.netlist, f.outside);
  const auto min_it =
      std::min_element(c.ratio_cut.begin() + 29, c.ratio_cut.end());
  const auto min_k = static_cast<std::size_t>(
      std::distance(c.ratio_cut.begin(), min_it) + 1);
  EXPECT_GT(min_k, c.ratio_cut.size() * 8 / 10);
  // nGTL-S on the same background curve is flat near 1 at the right end
  // instead of decaying — the size-fairness ratio cut lacks.
  EXPECT_GT(c.ngtl_s.back() / c.ngtl_s[99], 0.8);
}

TEST(ScoreCurve, EmptyOrderingThrows) {
  const Netlist nl = testing::make_grid3x3();
  LinearOrdering empty;
  EXPECT_THROW((void)compute_score_curve(nl, empty), std::logic_error);
}

TEST(ScoreCurve, PinFreeNetlistThrows) {
  // A_G = 0 leaves the normalized scores undefined.
  const Netlist nl = testing::make_netlist(2, {});
  LinearOrdering ordering;
  ordering.cells = {0, 1};
  ordering.prefix_cut = {0, 0};
  ordering.prefix_pins = {0, 0};
  EXPECT_THROW((void)compute_score_curve(nl, ordering), std::logic_error);
}

TEST(ScoreCurve, ValuesSelectorPicksRightVector) {
  const auto f = GtlFixture::make();
  const ScoreCurve c = compute_score_curve(f.pg.netlist, f.inside);
  EXPECT_EQ(&c.values(ScoreKind::kNgtlS), &c.ngtl_s);
  EXPECT_EQ(&c.values(ScoreKind::kGtlSd), &c.gtl_sd);
}

// ---- find_clear_minimum on synthetic curves ----

std::vector<double> v_shape(std::size_t n, std::size_t dip_at, double depth) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double x = static_cast<double>(i + 1);
    const double d = static_cast<double>(dip_at);
    v[i] = depth + 1.2 * std::abs(x - d) / d;
  }
  return v;
}

TEST(ClearMinimum, DetectsInteriorDip) {
  const auto curve = v_shape(1000, 400, 0.05);
  const auto m = find_clear_minimum(curve);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->prefix_size, 400u);
  EXPECT_NEAR(m->value, 0.05, 1e-9);
}

TEST(ClearMinimum, RejectsMonotoneRisingCurve) {
  // The outside-GTL shape of Fig. 2: rises 0.3 -> 0.9, no dip.
  std::vector<double> curve(1000);
  for (std::size_t i = 0; i < curve.size(); ++i) {
    curve[i] = 0.9 - 0.6 / (1.0 + static_cast<double>(i) / 50.0);
  }
  EXPECT_FALSE(find_clear_minimum(curve).has_value());
}

TEST(ClearMinimum, RejectsShallowDip) {
  // Dip to 0.8: not below the accept threshold.
  const auto curve = v_shape(1000, 500, 0.8);
  EXPECT_FALSE(find_clear_minimum(curve).has_value());
}

TEST(ClearMinimum, RejectsRightEdgeMinimum) {
  // Still-falling curve: minimum in the final stretch.
  std::vector<double> curve(1000);
  for (std::size_t i = 0; i < curve.size(); ++i) {
    curve[i] = 2.0 - 1.95 * static_cast<double>(i) / 999.0;
  }
  EXPECT_FALSE(find_clear_minimum(curve).has_value());
}

TEST(ClearMinimum, RespectsMinSize) {
  const auto curve = v_shape(1000, 10, 0.05);  // dip below min_size
  const auto m = find_clear_minimum(curve);
  // The detected minimum (if any) must be at >= min_size; with the dip at
  // 10, position 30 is the closest allowed point but the drop test fails
  // because the curve only rises after 30.
  if (m) {
    EXPECT_GE(m->prefix_size, 30u);
  }
}

TEST(ClearMinimum, ShortCurveRejected) {
  const std::vector<double> tiny(10, 0.1);
  EXPECT_FALSE(find_clear_minimum(tiny).has_value());
}

TEST(ClearMinimum, AcceptThresholdIsStrict) {
  // The minimum must score strictly below kAcceptThreshold.
  ASSERT_EQ(kAcceptThreshold, 0.75);
  EXPECT_FALSE(find_clear_minimum(v_shape(500, 200, 0.75)).has_value());
  const auto m = find_clear_minimum(v_shape(500, 200, 0.7499));
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->prefix_size, 200u);
}

// ---- right-edge guard / floor-arithmetic boundaries ----

TEST(ClearMinimum, LastValidBelowMinSizeRejected) {
  // n = 30: last_valid = floor(30 * 0.98) = 29 < min_size = 30, so there
  // is no eligible k at all — must return nullopt instead of scanning an
  // empty (or inverted) range.
  ASSERT_EQ(kMinCandidateSize, 30u);
  const auto curve = v_shape(30, 15, 0.01);
  EXPECT_FALSE(find_clear_minimum(curve).has_value());
}

TEST(ClearMinimum, FloorBoundaryExactFraction) {
  // n = 1000 gives last_valid = floor(1000 * 0.98) = 980.  A dip at 980
  // is eligible and found exactly; a dip at 981 is one past the boundary
  // and the search clamps to 980 on the falling flank.
  ASSERT_EQ(kEdgeFraction, 0.02);
  const auto at980 = v_shape(1000, 980, 0.05);
  const auto m = find_clear_minimum(at980);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->prefix_size, 980u);

  const auto at981 = v_shape(1000, 981, 0.05);
  const auto m981 = find_clear_minimum(at981);
  ASSERT_TRUE(m981.has_value());
  EXPECT_EQ(m981->prefix_size, 980u);
  EXPECT_EQ(m981->value, at981[979]);
}

TEST(ClearMinimum, AllEqualCurve) {
  // A flat curve has a "minimum" at min_size but no drop before it and
  // no rise after it: rejected.
  const std::vector<double> flat(200, 0.3);
  EXPECT_FALSE(find_clear_minimum(flat).has_value());
}

TEST(ClearMinimum, FirstOfEqualDipsWins) {
  // A W-shaped curve with two equally deep dips, at 300 and 600: the
  // strict-< scan keeps the first.
  std::vector<double> curve(1000);
  for (std::size_t i = 0; i < curve.size(); ++i) {
    const double x = static_cast<double>(i + 1);
    curve[i] = 0.05 + 1.2 * std::min(std::abs(x - 300.0),
                                      std::abs(x - 600.0)) / 300.0;
  }
  ASSERT_EQ(curve[299], curve[599]);
  const auto m = find_clear_minimum(curve);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->prefix_size, 300u);
  EXPECT_EQ(m->value, 0.05);
}

}  // namespace
}  // namespace gtl
