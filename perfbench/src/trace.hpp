#pragma once
// In-memory span recorder for the traced run.  Spans are recorded from
// the benchmark's own code around each public call into the library (or
// derived from a gtl_serve reply envelope), kept in memory, and written
// once at the end as Chrome trace-event JSON.  Per-layer metrics are
// read back from the recorded spans, so the numbers a run prints and the
// trace it writes cannot disagree.  When tracing is off every call is a
// single branch.

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"

namespace perfbench {

class Trace {
 public:
  using SpanId = std::int64_t;
  static constexpr SpanId kNone = -1;

  explicit Trace(bool enabled) : enabled_(enabled) {}
  Trace(const Trace&) = delete;
  Trace& operator=(const Trace&) = delete;

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Open a span now.  `op` is the job or request id the span belongs
  /// to; `parent` the enclosing span (kNone for a root).
  SpanId begin(const std::string& name, std::uint64_t op, SpanId parent);
  /// Close a span opened by begin().
  void end(SpanId span);
  /// Record a finished span [t0, t1], e.g. one derived from a reply.
  SpanId add(const std::string& name, std::uint64_t op, SpanId parent,
             Clock::time_point t0, Clock::time_point t1);

  /// Attach a named count to a recorded span (shown under "args").
  void count(SpanId span, const std::string& name, double value);

  /// Durations in ms of every span called `name`, in recording order.
  [[nodiscard]] std::vector<double> durations_ms(const std::string& name) const;
  /// Self times in ms (duration minus the part covered by direct
  /// children) of every span called `name`.
  [[nodiscard]] std::vector<double> self_ms(const std::string& name) const;
  /// Values of count `key` over spans called `name`.
  [[nodiscard]] std::vector<double> counts(const std::string& name,
                                           const std::string& key) const;

  /// Write {"traceEvents": [...]} with one complete ("X") event per span;
  /// args carry the op id, parent, self time and counts.
  [[nodiscard]] bool write_chrome_json(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    std::uint64_t op = 0;
    SpanId parent = kNone;
    Clock::time_point t0;
    Clock::time_point t1;
    std::uint32_t tid = 0;
    std::vector<std::pair<std::string, double>> counts;
  };

  [[nodiscard]] std::vector<double> self_times_locked() const;

  const bool enabled_;
  const Clock::time_point origin_ = Clock::now();
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span: times a scope and records it on destruction.
class Scope {
 public:
  Scope(Trace& trace, const std::string& name, std::uint64_t op,
        Trace::SpanId parent = Trace::kNone)
      : trace_(trace), id_(trace.begin(name, op, parent)) {}
  ~Scope() { close(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  /// Close the span now (idempotent).
  void close() {
    if (open_) trace_.end(id_);
    open_ = false;
  }
  /// The id children name as parent (kNone when tracing is off).
  [[nodiscard]] Trace::SpanId id() const { return id_; }

 private:
  Trace& trace_;
  Trace::SpanId id_;
  bool open_ = true;
};

}  // namespace perfbench
