#include "trace.hpp"

#include <algorithm>
#include <fstream>
#include <functional>
#include <thread>

#include "util/json.hpp"

namespace perfbench {

namespace {

std::uint32_t small_thread_id() {
  return static_cast<std::uint32_t>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()) % 100000);
}

}  // namespace

Trace::SpanId Trace::begin(const std::string& name, std::uint64_t op,
                           SpanId parent) {
  if (!enabled_) return kNone;
  const Clock::time_point now = Clock::now();
  return add(name, op, parent, now, now);
}

void Trace::end(SpanId span) {
  if (span == kNone) return;
  const Clock::time_point now = Clock::now();
  const std::lock_guard<std::mutex> lk(mu_);
  spans_[static_cast<std::size_t>(span)].t1 = now;
}

Trace::SpanId Trace::add(const std::string& name, std::uint64_t op,
                         SpanId parent, Clock::time_point t0,
                         Clock::time_point t1) {
  if (!enabled_) return kNone;
  Span s;
  s.name = name;
  s.op = op;
  s.parent = parent;
  s.t0 = t0;
  s.t1 = t1;
  s.tid = small_thread_id();
  const std::lock_guard<std::mutex> lk(mu_);
  spans_.push_back(std::move(s));
  return static_cast<SpanId>(spans_.size() - 1);
}

void Trace::count(SpanId span, const std::string& name, double value) {
  if (span == kNone) return;
  const std::lock_guard<std::mutex> lk(mu_);
  spans_[static_cast<std::size_t>(span)].counts.emplace_back(name, value);
}

std::vector<double> Trace::durations_ms(const std::string& name) const {
  const std::lock_guard<std::mutex> lk(mu_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(ms_between(s.t0, s.t1));
  }
  return out;
}

std::vector<double> Trace::self_times_locked() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = ms_between(spans_[i].t0, spans_[i].t1);
  }
  // Children of one span are sequential calls, so their durations add
  // up without overlap.
  for (const Span& s : spans_) {
    if (s.parent != kNone) {
      self[static_cast<std::size_t>(s.parent)] -= ms_between(s.t0, s.t1);
    }
  }
  for (double& v : self) v = std::max(v, 0.0);
  return self;
}

std::vector<double> Trace::self_ms(const std::string& name) const {
  const std::lock_guard<std::mutex> lk(mu_);
  const std::vector<double> self = self_times_locked();
  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == name) out.push_back(self[i]);
  }
  return out;
}

std::vector<double> Trace::counts(const std::string& name,
                                  const std::string& key) const {
  const std::lock_guard<std::mutex> lk(mu_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name != name) continue;
    for (const auto& [k, v] : s.counts) {
      if (k == key) out.push_back(v);
    }
  }
  return out;
}

bool Trace::write_chrome_json(const std::string& path) const {
  const std::lock_guard<std::mutex> lk(mu_);
  const std::vector<double> self = self_times_locked();
  gtl::JsonValue::Array events;
  events.reserve(spans_.size());
  const auto us = [this](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  };
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    gtl::JsonValue::Object args;
    args.emplace("op", gtl::JsonValue(s.op));
    args.emplace("span", gtl::JsonValue(static_cast<std::int64_t>(i)));
    args.emplace("parent", gtl::JsonValue(static_cast<std::int64_t>(s.parent)));
    args.emplace("self_ms", gtl::JsonValue(self[i]));
    for (const auto& [k, v] : s.counts) args.emplace(k, gtl::JsonValue(v));
    gtl::JsonValue::Object ev;
    ev.emplace("name", gtl::JsonValue(s.name));
    ev.emplace("cat", gtl::JsonValue(s.name.substr(0, s.name.find('.'))));
    ev.emplace("ph", gtl::JsonValue("X"));
    ev.emplace("ts", gtl::JsonValue(us(s.t0)));
    ev.emplace("dur", gtl::JsonValue(us(s.t1) - us(s.t0)));
    ev.emplace("pid", gtl::JsonValue(1));
    ev.emplace("tid", gtl::JsonValue(s.tid));
    ev.emplace("args", gtl::JsonValue(std::move(args)));
    events.emplace_back(std::move(ev));
  }
  gtl::JsonValue::Object doc;
  doc.emplace("traceEvents", gtl::JsonValue(std::move(events)));
  doc.emplace("displayTimeUnit", gtl::JsonValue("ms"));
  std::ofstream out(path);
  out << gtl::JsonValue(std::move(doc)).dump() << "\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
