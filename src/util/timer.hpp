#pragma once
// Wall-clock timing for runtime columns in the experiment tables, and
// overflow-safe deadlines for the query server and its client.

#include <chrono>
#include <cstdint>

namespace gtl {

/// `from + ms` on the steady clock, saturated at time_point::max().  The
/// clock counts int64 nanoseconds, so a plain sum overflows (and in
/// practice wraps into the past) for `ms` beyond ~292 years.  `from` is a
/// clock reading, so it is not before the clock's epoch.
inline std::chrono::steady_clock::time_point saturating_deadline(
    std::chrono::steady_clock::time_point from, std::uint64_t ms) {
  using Clock = std::chrono::steady_clock;
  constexpr Clock::duration kMs = std::chrono::milliseconds(1);
  const auto room_ms =
      static_cast<std::uint64_t>((Clock::time_point::max() - from) / kMs);
  if (ms > room_ms) return Clock::time_point::max();
  return from + kMs * static_cast<Clock::rep>(ms);
}

/// Monotonic stopwatch. Starts on construction.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  /// Restart the stopwatch.
  void reset() { start_ = Clock::now(); }

  /// Seconds elapsed since construction / last reset().
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  /// Milliseconds elapsed.
  [[nodiscard]] double millis() const { return seconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace gtl
