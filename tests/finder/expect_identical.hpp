#pragma once
// Bit-exact comparison of two FinderResults, shared by the finder suites
// that pin the session contract.

#include <gtest/gtest.h>

#include "finder/finder.hpp"

namespace gtl::testing {

/// Bit-exact equality of everything the pipeline computes (seconds are
/// wall-clock and excluded).
inline void expect_identical(const FinderResult& a, const FinderResult& b) {
  ASSERT_EQ(a.gtls.size(), b.gtls.size());
  for (std::size_t i = 0; i < a.gtls.size(); ++i) {
    EXPECT_EQ(a.gtls[i].cells, b.gtls[i].cells) << "gtl " << i;
    EXPECT_EQ(a.gtls[i].cut, b.gtls[i].cut) << "gtl " << i;
    EXPECT_EQ(a.gtls[i].seed, b.gtls[i].seed) << "gtl " << i;
    // Exact double equality: "byte-identical", not "close".
    EXPECT_EQ(a.gtls[i].avg_pins, b.gtls[i].avg_pins) << "gtl " << i;
    EXPECT_EQ(a.gtls[i].ngtl_s, b.gtls[i].ngtl_s) << "gtl " << i;
    EXPECT_EQ(a.gtls[i].gtl_sd, b.gtls[i].gtl_sd) << "gtl " << i;
    EXPECT_EQ(a.gtls[i].score, b.gtls[i].score) << "gtl " << i;
    EXPECT_EQ(a.gtls[i].rent_exponent_used, b.gtls[i].rent_exponent_used)
        << "gtl " << i;
  }
  EXPECT_EQ(a.context.rent_exponent, b.context.rent_exponent);
  EXPECT_EQ(a.context.avg_pins_per_cell, b.context.avg_pins_per_cell);
  EXPECT_EQ(a.orderings_grown, b.orderings_grown);
  EXPECT_EQ(a.candidates_before_refine, b.candidates_before_refine);
  EXPECT_EQ(a.candidates_after_dedup, b.candidates_after_dedup);
  EXPECT_EQ(a.cancelled, b.cancelled);
}

}  // namespace gtl::testing
