#include "serve/server.hpp"

#include <algorithm>
#include <exception>
#include <utility>

#include "util/failpoint.hpp"

namespace gtl::serve {
namespace {

using Clock = std::chrono::steady_clock;

/// Longest accepted request line; a longer one closes the connection.
constexpr std::size_t kMaxLineBytes = std::size_t{1} << 20;

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

}  // namespace

Server::Server(ServerConfig cfg)
    : cfg_(std::move(cfg)),
      registry_(cfg_.max_resident_bytes, cfg_.max_idle_sessions) {
  if (cfg_.workers == 0) cfg_.workers = 1;
  if (cfg_.queue_capacity == 0) cfg_.queue_capacity = 1;
  workers_.reserve(cfg_.workers);
  for (std::size_t i = 0; i < cfg_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  watchdog_ = std::thread([this] { watchdog_loop(); });
}

Server::~Server() { stop(); }

Status Server::preload(const std::string& name, BookshelfDesign design) {
  DesignRegistry::LoadInfo info;
  GTL_RETURN_IF_ERROR(registry_.insert(name, std::move(design), &info));
  (void)manifest_apply("", nullptr, info.evicted);
  MutexLock lk(metrics_mu_);
  count_load(info);
  return Status::ok();
}

Status Server::preload(const std::string& name,
                       const std::filesystem::path& aux,
                       const std::filesystem::path& snapshot,
                       DesignRegistry::LoadInfo* info) {
  GTL_RETURN_IF_ERROR(registry_.load(name, aux, snapshot, info));
  (void)manifest_apply("", nullptr, info->evicted);
  MutexLock lk(metrics_mu_);
  count_load(*info);
  return Status::ok();
}

void Server::count_load(const DesignRegistry::LoadInfo& info) {
  ++metrics_.designs_loaded;
  if (info.snapshot_hit) ++metrics_.snapshot_hits;
  if (info.fill_failed) ++metrics_.snapshot_fill_failures;
  metrics_.designs_evicted += info.evicted.size();
}

Status Server::manifest_apply(const std::string& record_name,
                              const ManifestEntry* record,
                              const std::vector<std::string>& forget) {
  if (cfg_.manifest_path.empty()) return Status::ok();
  MutexLock lk(manifest_mu_);
  bool changed = false;
  for (const std::string& name : forget) {
    changed = manifest_.erase(name) != 0 || changed;
  }
  if (record != nullptr) {
    auto [it, inserted] = manifest_.insert_or_assign(record_name, *record);
    (void)it;
    changed = true;
    (void)inserted;
  }
  if (!changed) return Status::ok();
  // The in-memory map is updated even when the write fails: it is the
  // truth the next (hopefully successful) write will persist.
  const Status st = write_manifest_atomic(manifest_, cfg_.manifest_path);
  if (!st.is_ok()) {
    MutexLock mlk(metrics_mu_);
    ++metrics_.manifest_write_failures;
  }
  return st;
}

Status Server::recover_from_manifest(RecoveryReport* report,
                                     const std::vector<std::string>& preloads) {
  report->attempted = 0;
  report->recovered = 0;
  report->notes.clear();
  if (cfg_.manifest_path.empty()) return Status::ok();

  Manifest recorded;
  if (const Status st = read_manifest(cfg_.manifest_path, &recorded);
      !st.is_ok()) {
    if (st.code() == StatusCode::kNotFound) return Status::ok();  // fresh
    // Corrupt manifest: report it, recover nothing.  The stale file is
    // left for inspection; the next successful load overwrites it.
    return st;
  }

  Manifest survivors;
  for (const auto& [name, entry] : recorded) {
    if (std::find(preloads.begin(), preloads.end(), name) != preloads.end()) {
      continue;
    }
    ++report->attempted;
    DesignRegistry::LoadInfo info;
    const Status st = registry_.load(name, entry.aux, entry.snapshot, &info);
    if (!st.is_ok()) {
      report->notes.push_back("dropped \"" + name + "\": " + st.to_string());
      continue;
    }
    for (const std::string& evicted : info.evicted) survivors.erase(evicted);
    survivors[name] = entry;
    ++report->recovered;
    MutexLock lk(metrics_mu_);
    count_load(info);
    ++metrics_.designs_recovered;
  }

  MutexLock lk(manifest_mu_);
  manifest_ = std::move(survivors);
  const Status st = write_manifest_atomic(manifest_, cfg_.manifest_path);
  if (!st.is_ok()) {
    {
      MutexLock mlk(metrics_mu_);
      ++metrics_.manifest_write_failures;
    }
    report->notes.push_back("warning: " + st.to_string());
  }
  return Status::ok();
}

void Server::submit(std::string line, ResponseFn reply) {
  {
    MutexLock lk(metrics_mu_);
    ++metrics_.received;
  }

  Request req;
  ErrorCode code = ErrorCode::kParseError;
  bool has_id = false;
  if (const Status st = parse_request(line, &req, &code, &has_id);
      !st.is_ok()) {
    {
      MutexLock lk(metrics_mu_);
      ++metrics_.rejected_invalid;
    }
    // The op is only trustworthy once field validation started.
    const bool has_op = code == ErrorCode::kInvalidArgument;
    reply(error_line(has_id, req.id, has_op, req.op, code, st.message()));
    return;
  }

  // Cheap ops never queue: `cancel` in particular must be able to reach
  // a run that is clogging the very queue it would otherwise wait in.
  if (req.op == Op::kStatus || req.op == Op::kStats ||
      req.op == Op::kCancel || req.op == Op::kUnloadDesign) {
    run_inline(req, reply);
    return;
  }

  // Failpoint "serve.admit": fail = shed this heavy op at admission, as
  // if the queue were full (same wire contract: overloaded + hint).
  if (failpoint::Action fp;
      failpoint::check("serve.admit", &fp) &&
      fp.kind == failpoint::Action::Kind::kFail) {
    {
      MutexLock lk(metrics_mu_);
      ++metrics_.rejected_overload;
    }
    reply(error_line(true, req.id, true, req.op, ErrorCode::kOverloaded,
                     "admission shed (injected failpoint); retry with backoff",
                     cfg_.retry_after_ms));
    return;
  }

  InFlightPtr inflight;
  if (req.op == Op::kRunFinder) {
    inflight = std::make_shared<InFlight>();
    const std::uint64_t deadline_ms =
        req.deadline_ms != 0 ? req.deadline_ms : cfg_.default_deadline_ms;
    MutexLock lk(inflight_mu_);
    if (!inflight_.emplace(req.id, inflight).second) {
      lk.unlock();
      {
        MutexLock mlk(metrics_mu_);
        ++metrics_.rejected_invalid;
      }
      reply(error_line(true, req.id, true, req.op, ErrorCode::kInvalidRequest,
                       "a run_finder with this id is already in flight"));
      return;
    }
    if (deadline_ms != 0) {
      // A deadline beyond the clock's range means the same as none.
      const Clock::time_point when =
          saturating_deadline(Clock::now(), deadline_ms);
      if (when != Clock::time_point::max()) {
        deadlines_.push(DeadlineEntry{when, inflight});
        watchdog_cv_.notify_one();
      }
    }
  }

  Job job;
  job.req = std::move(req);
  job.reply = std::move(reply);
  job.inflight = std::move(inflight);
  job.enqueued = Clock::now();

  {
    MutexLock lk(queue_mu_);
    if (stopping_) {
      lk.unlock();
      if (job.inflight != nullptr) finish_inflight(job.req.id);
      reply_error(job, ErrorCode::kCancelled, "server is shutting down");
      return;
    }
    if (queue_.size() >= cfg_.queue_capacity) {
      lk.unlock();
      if (job.inflight != nullptr) finish_inflight(job.req.id);
      {
        MutexLock mlk(metrics_mu_);
        ++metrics_.rejected_overload;
      }
      reply_error(job, ErrorCode::kOverloaded,
                  "admission queue is full (" +
                      std::to_string(cfg_.queue_capacity) +
                      " waiting); retry with backoff",
                  cfg_.retry_after_ms);
      return;
    }
    queue_.push_back(std::move(job));
  }
  queue_cv_.notify_one();
}

std::string Server::handle_line(std::string_view line) {
  std::string response;
  Mutex mu;
  CondVar cv;
  bool done = false;
  submit(std::string(line), [&](const std::string& resp) {
    MutexLock lk(mu);
    response = resp;
    done = true;
    cv.notify_one();
  });
  MutexLock lk(mu);
  while (!done) cv.wait(mu);
  return response;
}

void Server::worker_loop() {
  for (;;) {
    Job job;
    {
      MutexLock lk(queue_mu_);
      while (!stopping_ && queue_.empty()) queue_cv_.wait(queue_mu_);
      if (queue_.empty()) {
        if (stopping_) return;
        continue;
      }
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    execute(std::move(job));
  }
}

void Server::execute(Job job) {
  // Failpoint "serve.execute": delay = stall this worker before the op
  // runs (widens queue/deadline races); fail = injected worker failure,
  // still answered with exactly one clean "internal" error line.
  if (failpoint::Action fp; failpoint::check("serve.execute", &fp)) {
    if (fp.kind == failpoint::Action::Kind::kDelay) {
      std::this_thread::sleep_for(std::chrono::milliseconds(fp.param));
    } else if (fp.kind == failpoint::Action::Kind::kFail) {
      if (job.inflight != nullptr) finish_inflight(job.req.id);
      reply_error(job, ErrorCode::kInternal,
                  fp.message.empty() ? "worker failed (injected failpoint)"
                                     : fp.message);
      return;
    }
  }
  try {
    if (job.req.op == Op::kRunFinder) {
      execute_run(job);
    } else {
      execute_load(job);
    }
  } catch (const std::exception& e) {
    if (job.inflight != nullptr) finish_inflight(job.req.id);
    reply_error(job, ErrorCode::kInternal, e.what());
  }
}

void Server::execute_run(Job& job) {
  ServerTiming timing;
  timing.queue_seconds = seconds_between(job.enqueued, Clock::now());
  const std::string& design = job.req.design;

  DesignRegistry::EntryPtr entry = registry_.find(design);
  if (entry == nullptr) {
    finish_inflight(job.req.id);
    reply_error(job, ErrorCode::kNotFound,
                "design \"" + design + "\" is not loaded");
    return;
  }

  // Cancelled (or past deadline) while still queued: skip the run.
  int reason = job.inflight->reason.load();
  if (reason == InFlight::kNone && job.inflight->token.cancel_requested()) {
    reason = InFlight::kClient;
  }
  if (reason != InFlight::kNone) {
    finish_inflight(job.req.id);
    {
      MutexLock lk(metrics_mu_);
      DesignMetrics& dm = metrics_.design(design);
      ++dm.errors;
      if (reason == InFlight::kDeadline) {
        ++dm.deadline_exceeded;
      } else {
        ++dm.cancelled;
      }
    }
    reply_error(job,
                reason == InFlight::kDeadline ? ErrorCode::kDeadlineExceeded
                                              : ErrorCode::kCancelled,
                reason == InFlight::kDeadline
                    ? "deadline expired before the run started"
                    : "cancelled before the run started");
    return;
  }

  FinderConfig cfg = job.req.config;
  if (cfg_.max_threads_per_query > 0 &&
      (cfg.num_threads == 0 || cfg.num_threads > cfg_.max_threads_per_query)) {
    cfg.num_threads = cfg_.max_threads_per_query;
  }

  SessionLease lease;
  bool reused = false;
  if (const Status st =
          SessionPool::acquire(std::move(entry), cfg, &lease, &reused);
      !st.is_ok()) {
    finish_inflight(job.req.id);
    {
      MutexLock lk(metrics_mu_);
      ++metrics_.design(design).errors;
      ++metrics_.rejected_invalid;
    }
    reply_error(job, ErrorCode::kInvalidArgument, st.message());
    return;
  }
  {
    MutexLock lk(metrics_mu_);
    DesignMetrics& dm = metrics_.design(design);
    if (reused) {
      ++dm.sessions_reused;
    } else {
      ++dm.sessions_created;
    }
  }

  lease.finder().set_cancel_token(&job.inflight->token);
  Timer run_timer;
  const FinderResult result = lease.finder().run();
  timing.run_seconds = run_timer.seconds();
  lease.release();  // clears the token binding, parks the session
  finish_inflight(job.req.id);

  if (result.cancelled) {
    reason = job.inflight->reason.load();
    const bool deadline = reason == InFlight::kDeadline;
    {
      MutexLock lk(metrics_mu_);
      DesignMetrics& dm = metrics_.design(design);
      ++dm.errors;
      if (deadline) {
        ++dm.deadline_exceeded;
      } else {
        ++dm.cancelled;
      }
    }
    reply_error(job,
                deadline ? ErrorCode::kDeadlineExceeded : ErrorCode::kCancelled,
                deadline ? "deadline exceeded mid-run (partial work discarded)"
                         : "cancelled by client request");
    return;
  }

  {
    MutexLock lk(metrics_mu_);
    DesignMetrics& dm = metrics_.design(design);
    ++dm.queries;
    dm.latency.add(timing.queue_seconds + timing.run_seconds);
    ++metrics_.completed_ok;
  }
  job.reply(
      ok_line(job.req.id, job.req.op, deterministic_result_json(result),
              &timing));
}

void Server::execute_load(Job& job) {
  ServerTiming timing;
  timing.queue_seconds = seconds_between(job.enqueued, Clock::now());
  const std::string& name = job.req.design;
  Timer load_timer;

  if (const DesignRegistry::EntryPtr existing = registry_.find(name);
      existing != nullptr) {
    // Idempotent replay: the same name from the same recorded sources is
    // acknowledged again without re-parsing, so a client that lost the
    // first reply (crash, dropped connection) can safely resend.
    // Preloaded designs record no sources and never match.
    const bool has_sources = !existing->source_aux.empty() ||
                             !existing->source_snapshot.empty();
    if (has_sources && existing->source_aux == job.req.aux &&
        existing->source_snapshot == job.req.snapshot) {
      {
        MutexLock lk(metrics_mu_);
        ++metrics_.loads_idempotent;
        ++metrics_.completed_ok;
      }
      timing.run_seconds = load_timer.seconds();
      const Netlist& nl = existing->design.netlist;
      JsonValue::Object result;
      result.emplace("design", JsonValue(name));
      result.emplace("cells",
                     JsonValue(static_cast<std::uint64_t>(nl.num_cells())));
      result.emplace("nets",
                     JsonValue(static_cast<std::uint64_t>(nl.num_nets())));
      result.emplace("pins",
                     JsonValue(static_cast<std::uint64_t>(nl.num_pins())));
      result.emplace("resident_bytes",
                     JsonValue(static_cast<std::uint64_t>(
                         existing->resident_bytes)));
      result.emplace("idempotent", JsonValue(true));
      job.reply(ok_line(job.req.id, job.req.op, JsonValue(std::move(result)),
                        &timing));
      return;
    }
    reply_error(job, ErrorCode::kAlreadyLoaded,
                "design \"" + name + "\" is already loaded" +
                    (has_sources ? " from different sources (unload first)"
                                 : " (unload first)"));
    return;
  }

  DesignRegistry::LoadInfo info;
  const Status st =
      registry_.load(name, job.req.aux, job.req.snapshot, &info);
  if (!st.is_ok()) {
    const ErrorCode code = st.code() == StatusCode::kNotFound
                               ? ErrorCode::kNotFound
                               : ErrorCode::kInvalidArgument;
    reply_error(job, code, st.message());
    return;
  }
  {
    MutexLock lk(metrics_mu_);
    count_load(info);
    ++metrics_.completed_ok;
  }

  // Manifest the load *before* acknowledging it: every ok reply the
  // client ever sees is covered by the manifest (write-ahead for the
  // acknowledgment).  A failed manifest write degrades durability, not
  // availability — the load stands, the client is told via a note.
  ManifestEntry manifest_entry{job.req.aux, job.req.snapshot};
  if (const Status mst = manifest_apply(name, &manifest_entry, info.evicted);
      !mst.is_ok()) {
    info.notes.push_back("warning: manifest not updated: " + mst.to_string());
  }
  timing.run_seconds = load_timer.seconds();

  const Netlist& nl = info.entry->design.netlist;
  JsonValue::Object result;
  result.emplace("design", JsonValue(name));
  result.emplace("cells",
                 JsonValue(static_cast<std::uint64_t>(nl.num_cells())));
  result.emplace("nets", JsonValue(static_cast<std::uint64_t>(nl.num_nets())));
  result.emplace("pins", JsonValue(static_cast<std::uint64_t>(nl.num_pins())));
  result.emplace("resident_bytes", JsonValue(static_cast<std::uint64_t>(
                                       info.entry->resident_bytes)));
  result.emplace("snapshot_hit", JsonValue(info.snapshot_hit));
  result.emplace("idempotent", JsonValue(false));
  JsonValue::Array evicted;
  for (const std::string& e : info.evicted) evicted.emplace_back(e);
  result.emplace("evicted", JsonValue(std::move(evicted)));
  JsonValue::Array notes;
  for (const std::string& n : info.notes) notes.emplace_back(n);
  result.emplace("notes", JsonValue(std::move(notes)));
  job.reply(ok_line(job.req.id, job.req.op, JsonValue(std::move(result)),
                    &timing));
}

void Server::run_inline(const Request& req, const ResponseFn& reply) {
  switch (req.op) {
    case Op::kStatus: {
      JsonValue result = status_json();
      {
        MutexLock lk(metrics_mu_);
        ++metrics_.completed_ok;
      }
      reply(ok_line(req.id, req.op, std::move(result), nullptr));
      return;
    }
    case Op::kStats: {
      JsonValue result;
      {
        MutexLock lk(metrics_mu_);
        result = metrics_.to_json();
        ++metrics_.completed_ok;
      }
      if (failpoint::compiled_in()) {
        // Chaos observability: which failpoints fired, and how often.
        JsonValue::Object points;
        for (const auto& [name, triggers] : failpoint::trigger_counts()) {
          points.emplace(name, JsonValue(triggers));
        }
        result.set("failpoints", JsonValue(std::move(points)));
      }
      reply(ok_line(req.id, req.op, std::move(result), nullptr));
      return;
    }
    case Op::kCancel: {
      InFlightPtr target;
      {
        MutexLock lk(inflight_mu_);
        const auto it = inflight_.find(req.target_id);
        if (it != inflight_.end()) target = it->second;
      }
      {
        MutexLock lk(metrics_mu_);
        ++metrics_.cancel_requests;
      }
      if (target == nullptr) {
        reply(error_line(true, req.id, true, req.op, ErrorCode::kNotFound,
                         "no in-flight run_finder with id " +
                             std::to_string(req.target_id)));
        return;
      }
      const bool won = target->cancel(InFlight::kClient);
      JsonValue::Object result;
      result.emplace("target_id", JsonValue(req.target_id));
      // False when a deadline (or an earlier cancel) got there first.
      result.emplace("delivered", JsonValue(won));
      {
        MutexLock lk(metrics_mu_);
        ++metrics_.completed_ok;
      }
      reply(ok_line(req.id, req.op, JsonValue(std::move(result)), nullptr));
      return;
    }
    case Op::kUnloadDesign: {
      if (!registry_.erase(req.design)) {
        reply(error_line(true, req.id, true, req.op, ErrorCode::kNotFound,
                         "design \"" + req.design + "\" is not loaded"));
        return;
      }
      // Forget before acknowledging: once the client hears ok, a restart
      // must not resurrect the design.
      (void)manifest_apply("", nullptr, {req.design});
      JsonValue::Object result;
      result.emplace("design", JsonValue(req.design));
      {
        MutexLock lk(metrics_mu_);
        ++metrics_.completed_ok;
      }
      reply(ok_line(req.id, req.op, JsonValue(std::move(result)), nullptr));
      return;
    }
    default:
      reply(error_line(true, req.id, true, req.op, ErrorCode::kInternal,
                       "op routed to the wrong executor"));
  }
}

JsonValue Server::status_json() {
  JsonValue::Array designs;
  for (const DesignRegistry::DesignInfo& d : registry_.list()) {
    JsonValue::Object obj;
    obj.emplace("name", JsonValue(d.name));
    obj.emplace("cells", JsonValue(static_cast<std::uint64_t>(d.cells)));
    obj.emplace("nets", JsonValue(static_cast<std::uint64_t>(d.nets)));
    obj.emplace("pins", JsonValue(static_cast<std::uint64_t>(d.pins)));
    obj.emplace("resident_bytes",
                JsonValue(static_cast<std::uint64_t>(d.resident_bytes)));
    designs.emplace_back(std::move(obj));
  }
  std::size_t queue_depth = 0;
  {
    MutexLock lk(queue_mu_);
    queue_depth = queue_.size();
  }
  std::size_t in_flight = 0;
  {
    MutexLock lk(inflight_mu_);
    in_flight = inflight_.size();
  }
  JsonValue::Object obj;
  obj.emplace("designs", JsonValue(std::move(designs)));
  obj.emplace("resident_bytes", JsonValue(static_cast<std::uint64_t>(
                                    registry_.total_resident_bytes())));
  obj.emplace("max_resident_bytes", JsonValue(static_cast<std::uint64_t>(
                                        registry_.max_resident_bytes())));
  obj.emplace("queue_depth",
              JsonValue(static_cast<std::uint64_t>(queue_depth)));
  obj.emplace("queue_capacity",
              JsonValue(static_cast<std::uint64_t>(cfg_.queue_capacity)));
  obj.emplace("in_flight", JsonValue(static_cast<std::uint64_t>(in_flight)));
  obj.emplace("workers", JsonValue(static_cast<std::uint64_t>(cfg_.workers)));
  obj.emplace("uptime_seconds", JsonValue(uptime_.seconds()));
  return JsonValue(std::move(obj));
}

void Server::reply_error(const Job& job, ErrorCode code,
                         const std::string& msg,
                         std::uint64_t retry_after_ms) {
  job.reply(error_line(true, job.req.id, true, job.req.op, code, msg,
                       retry_after_ms));
}

void Server::finish_inflight(std::uint64_t id) {
  MutexLock lk(inflight_mu_);
  inflight_.erase(id);
}

void Server::watchdog_loop() {
  MutexLock lk(inflight_mu_);
  while (!watchdog_stop_) {
    if (deadlines_.empty()) {
      watchdog_cv_.wait(inflight_mu_);
      continue;
    }
    const Clock::time_point when = deadlines_.top().when;
    if (when > Clock::now()) {
      watchdog_cv_.wait_until(inflight_mu_, when);
      continue;
    }
    // Expired entries whose run already finished lock() to null.
    if (const InFlightPtr inflight = deadlines_.top().target.lock()) {
      inflight->cancel(InFlight::kDeadline);
    }
    deadlines_.pop();
  }
}

Status Server::serve(const std::atomic<bool>& stop_flag,
                     const std::function<void()>& on_listening) {
  UnixListener listener;
  GTL_RETURN_IF_ERROR(
      UnixListener::bind_and_listen(cfg_.socket_path, &listener));
  if (on_listening) on_listening();

  struct Conn {
    UnixStream stream;
    /// Serializes writes from workers and the reader; reads stay on the
    /// single reader thread, so the stream itself is not guarded.
    Mutex write_mu;
    /// Set as the reader returns, so the accept loop can join it.
    std::atomic<bool> reader_done{false};
  };
  struct Reader {
    std::thread thread;
    std::shared_ptr<Conn> conn;
  };
  /// The readers not yet joined.  Each pass of the accept loop joins and
  /// drops the ones that have returned: an unjoined thread keeps its
  /// stack mapped, so a daemon that kept one per served connection would
  /// run out of mappings.
  std::vector<Reader> readers;

  Status accept_status = Status::ok();
  while (!stop_flag.load(std::memory_order_relaxed)) {
    {
      MutexLock lk(queue_mu_);
      if (stopping_) break;
    }
    UnixStream stream;
    bool accepted = false;
    if (const Status st = listener.poll_accept(100, &stream, &accepted);
        !st.is_ok()) {
      accept_status = st;
      break;
    }
    for (auto it = readers.begin(); it != readers.end();) {
      if (it->conn->reader_done.load()) {
        it->thread.join();
        it = readers.erase(it);
      } else {
        ++it;
      }
    }
    if (!accepted) continue;

    auto conn = std::make_shared<Conn>();
    conn->stream = std::move(stream);
    std::thread reader([this, conn] {
      std::string line;
      for (;;) {
        bool eof = false;
        if (const Status st =
                conn->stream.read_line(&line, &eof, kMaxLineBytes);
            !st.is_ok()) {
          // An oversized line means the peer is alive but framing is
          // lost: tell it once, then drop.  Any other read error is a
          // broken transport — the peer cannot hear a farewell, and a
          // stray unaddressed line would only confuse a reconnecting
          // client mid-request — so drop silently.
          if (st.code() == StatusCode::kOutOfRange) {
            const std::string resp =
                error_line(false, 0, false, Op::kStatus,
                           ErrorCode::kParseError, st.message());
            MutexLock wlk(conn->write_mu);
            (void)conn->stream.write_line(resp);
          }
          break;
        }
        if (!line.empty()) {
          submit(std::move(line), [conn](const std::string& resp) {
            MutexLock wlk(conn->write_mu);
            (void)conn->stream.write_line(resp);
          });
          line.clear();
        }
        if (eof) break;
      }
      conn->stream.shutdown();
      conn->reader_done.store(true);
    });
    readers.push_back({std::move(reader), std::move(conn)});
  }

  listener.close();
  for (Reader& r : readers) {
    r.conn->stream.shutdown();  // unblocks the reader's recv
  }
  for (Reader& r : readers) r.thread.join();
  return accept_status;
}

void Server::stop() {
  std::call_once(stop_once_, [this] {
    std::deque<Job> drained;
    {
      MutexLock lk(queue_mu_);
      stopping_ = true;
      drained.swap(queue_);
    }
    queue_cv_.notify_all();
    {
      // Every run the watchdog could trip is cancelled here, so it stops
      // too.
      MutexLock lk(inflight_mu_);
      for (const auto& [id, inflight] : inflight_) {
        inflight->cancel(InFlight::kClient);
      }
      watchdog_stop_ = true;
    }
    watchdog_cv_.notify_all();
    for (Job& job : drained) {
      if (job.inflight != nullptr) finish_inflight(job.req.id);
      reply_error(job, ErrorCode::kCancelled, "server is shutting down");
    }
    for (std::thread& t : workers_) t.join();
    watchdog_.join();
  });
}

}  // namespace gtl::serve
