// saturating_deadline: exact sums inside the steady clock's range,
// time_point::max() beyond it (never a wrap into the past).

#include "util/timer.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <limits>

namespace gtl {
namespace {

using Clock = std::chrono::steady_clock;

TEST(SaturatingDeadline, ExactInsideTheClockRange) {
  const Clock::time_point now = Clock::now();
  EXPECT_EQ(saturating_deadline(now, 0), now);
  EXPECT_EQ(saturating_deadline(now, 1500),
            now + std::chrono::milliseconds(1500));
  // 9·10^12 ms (~285 years) still fits the int64 nanosecond count.
  EXPECT_EQ(saturating_deadline(Clock::time_point{}, 9'000'000'000'000),
            Clock::time_point{} + std::chrono::milliseconds(9'000'000'000'000));
}

TEST(SaturatingDeadline, SaturatesBeyondTheClockRange) {
  const Clock::time_point now = Clock::now();
  for (const std::uint64_t ms :
       {std::uint64_t{10'000'000'000'000}, std::uint64_t{1} << 63,
        std::numeric_limits<std::uint64_t>::max()}) {
    EXPECT_EQ(saturating_deadline(now, ms), Clock::time_point::max()) << ms;
    EXPECT_EQ(saturating_deadline(Clock::time_point{}, ms),
              Clock::time_point::max())
        << ms;
  }
  // The last representable millisecond before max() is still exact.
  const auto room_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                           Clock::time_point::max() - now)
                           .count();
  const auto last = static_cast<std::uint64_t>(room_ms);
  EXPECT_EQ(saturating_deadline(now, last),
            now + std::chrono::milliseconds(room_ms));
  EXPECT_EQ(saturating_deadline(now, last + 1), Clock::time_point::max());
}

}  // namespace
}  // namespace gtl
