#include "serve/metrics.hpp"

#include <algorithm>

#include "util/require.hpp"

namespace gtl::serve {

LatencyReservoir::LatencyReservoir(std::size_t capacity)
    : capacity_(capacity) {
  GTL_REQUIRE(capacity > 0, "latency reservoir capacity must be positive");
  samples_.reserve(capacity);
}

void LatencyReservoir::add(double seconds) {
  if (samples_.size() < capacity_) {
    samples_.push_back(seconds);
  } else {
    samples_[next_] = seconds;
  }
  next_ = (next_ + 1) % capacity_;
}

LatencyReservoir::Percentiles LatencyReservoir::percentiles() const {
  Percentiles p;
  p.window = samples_.size();
  if (samples_.empty()) return p;
  std::vector<double> sorted(samples_);
  std::sort(sorted.begin(), sorted.end());
  const auto rank = [&](double q) {
    // Nearest-rank: the smallest sample with at least q of the mass at
    // or below it.
    const double exact = q * static_cast<double>(sorted.size());
    std::size_t idx = static_cast<std::size_t>(exact);
    if (static_cast<double>(idx) < exact) ++idx;  // ceil
    if (idx == 0) idx = 1;
    return sorted[std::min(idx, sorted.size()) - 1];
  };
  p.p50_seconds = rank(0.50);
  p.p95_seconds = rank(0.95);
  p.p99_seconds = rank(0.99);
  return p;
}

JsonValue ServerMetrics::to_json() const {
  JsonValue::Object global;
  global.emplace("received", JsonValue(received));
  global.emplace("rejected_invalid", JsonValue(rejected_invalid));
  global.emplace("rejected_overload", JsonValue(rejected_overload));
  global.emplace("completed_ok", JsonValue(completed_ok));
  global.emplace("snapshot_hits", JsonValue(snapshot_hits));
  global.emplace("snapshot_fill_failures", JsonValue(snapshot_fill_failures));
  global.emplace("designs_loaded", JsonValue(designs_loaded));
  global.emplace("designs_evicted", JsonValue(designs_evicted));
  global.emplace("designs_recovered", JsonValue(designs_recovered));
  global.emplace("loads_idempotent", JsonValue(loads_idempotent));
  global.emplace("manifest_write_failures", JsonValue(manifest_write_failures));
  global.emplace("cancel_requests", JsonValue(cancel_requests));

  JsonValue::Object designs;
  for (const auto& [name, m] : per_design) {
    const LatencyReservoir::Percentiles p = m.latency.percentiles();
    JsonValue::Object d;
    d.emplace("queries", JsonValue(m.queries));
    d.emplace("errors", JsonValue(m.errors));
    d.emplace("cancelled", JsonValue(m.cancelled));
    d.emplace("deadline_exceeded", JsonValue(m.deadline_exceeded));
    d.emplace("sessions_created", JsonValue(m.sessions_created));
    d.emplace("sessions_reused", JsonValue(m.sessions_reused));
    d.emplace("latency_window",
              JsonValue(static_cast<std::uint64_t>(p.window)));
    d.emplace("p50_ms", JsonValue(p.p50_seconds * 1e3));
    d.emplace("p95_ms", JsonValue(p.p95_seconds * 1e3));
    d.emplace("p99_ms", JsonValue(p.p99_seconds * 1e3));
    designs.emplace(name, JsonValue(std::move(d)));
  }

  JsonValue::Object obj;
  obj.emplace("global", JsonValue(std::move(global)));
  obj.emplace("designs", JsonValue(std::move(designs)));
  return JsonValue(std::move(obj));
}

}  // namespace gtl::serve
