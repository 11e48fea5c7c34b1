// serve_mixed: gtl_serve with 4 workers and one thread per query, driven
// only over its socket.  A small ISPD-like design, open-loop Poisson
// arrivals at fixed absolute rates (half of the daemon's measured
// capacity for this mix, see kRates), pipelined over 4 connections.
// Quick queries (4 seeds, Z=250) make protocol, queueing and per-request
// session set-up a visible share of latency; full queries (20 seeds,
// Z=2000) share the FIFO with them, so head-of-line waiting shows;
// load_design / unload_design pairs of a second design put ingest and
// registry writes beside the query reads.  Every query carries a fresh
// rng_seed.

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <thread>

#include "checks.hpp"
#include "common.hpp"
#include "daemon.hpp"
#include "gtl/finder.hpp"
#include "gtl/netlist.hpp"
#include "graphgen/presets.hpp"
#include "graphgen/synthetic_circuit.hpp"
#include "layers.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using gtl::JsonValue;

constexpr std::size_t kConnections = 4;
constexpr std::size_t kWorkers = 4;
/// Replies to unload_design carry the load's id plus this offset.
constexpr std::uint64_t kUnloadIdBase = 1'000'000'000;
/// A run whose generator sent later than this behind schedule at p99
/// measured the generator, not the daemon; it is refused.
constexpr double kMaxLateMs = 100.0;
/// serve_mixed latency limits per class, for serve.slo_ok_ratio.
constexpr double kQuickLimitMs = 25.0;
constexpr double kFullLimitMs = 250.0;

/// Request classes.  The end-to-end latency metrics time kFull queries
/// (the finder-bound work); quick queries are reported per class.
enum class Kind { kQuick, kFull, kLoad };

/// Arrivals per second of each Kind (a load counts with its unload),
/// in the ratio 100 : 28 : 2.  The daemon's capacity for this mix is
/// about 445 ok queries per second on a 4-vCPU Xeon host: the ok-reply
/// rate once offered load exceeds it (perfbench/README.md, "serve_mixed
/// capacity").  The query rates here sum to half of that.
constexpr double kRates[] = {174.0, 48.7, 3.5};
/// Set-ups timed per run; setup_s is their median.
constexpr int kSetupReps = 9;

/// One request of the run and what came back.
struct Req {
  std::uint64_t id = 0;
  Kind kind = Kind::kQuick;
  std::size_t conn = 0;
  gtl::FinderConfig cfg;
  Clock::time_point due;
  Clock::time_point sent;
  Clock::time_point recv;
  bool replied = false;
  Reply reply;
  bool unload_ok = false;
};

Clock::duration seconds_to_duration(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s));
}

std::string run_request(std::uint64_t id, const std::string& design,
                        const gtl::FinderConfig& cfg) {
  JsonValue::Object o;
  o.emplace("id", JsonValue(id));
  o.emplace("op", JsonValue("run_finder"));
  o.emplace("design", JsonValue(design));
  o.emplace("config", gtl::to_json(cfg));
  return JsonValue(std::move(o)).dump();
}

std::string load_request(std::uint64_t id, const std::string& design,
                         const std::string& snapshot) {
  JsonValue::Object o;
  o.emplace("id", JsonValue(id));
  o.emplace("op", JsonValue("load_design"));
  o.emplace("design", JsonValue(design));
  o.emplace("snapshot", JsonValue(snapshot));
  return JsonValue(std::move(o)).dump();
}

std::string unload_request(std::uint64_t id, const std::string& design) {
  JsonValue::Object o;
  o.emplace("id", JsonValue(id));
  o.emplace("op", JsonValue("unload_design"));
  o.emplace("design", JsonValue(design));
  return JsonValue(std::move(o)).dump();
}

bool snapshot_hit(const Reply& r) {
  bool hit = false;
  if (const JsonValue* v = r.result.is_object() ? r.result.find("snapshot_hit") : nullptr) {
    (void)v->get_bool(&hit);
  }
  return hit;
}

/// The inputs of a run.
struct ServeShape {
  std::string main_aux;
  std::string main_snapshot;
  std::string churn_snapshot;
  gtl::FinderConfig warmup;
};

/// Daemon set-up, timed kSetupReps times: start -> listening ->
/// load_design (no snapshot yet: parse + fill) -> one warm-up query.
/// Leaves the last daemon running.
class ServeRun {
 public:
  ServeRun(const Options& opt, Trace& trace, RunReport& rep)
      : opt_(opt), trace_(trace), rep_(rep),
        socket_((fs::path(opt.work_dir) / "serve.sock").string()) {}

  std::string setup(const ServeShape& shape) {
    std::vector<double> setup_s;
    for (int r = 0; r < kSetupReps; ++r) {
      if (const std::string err = daemon_.stop(); !err.empty()) return err;
      std::error_code ec;
      fs::remove(shape.main_snapshot, ec);
      gtl::serve::Client client;
      const Clock::time_point t0 = Clock::now();
      Scope s(trace_, "serve.setup", static_cast<std::uint64_t>(r));
      if (std::string err = daemon_.start(
              opt_.serve_bin,
              {"--socket=" + socket_, "--workers=" + std::to_string(kWorkers),
               "--max-threads-per-query=1", "--queue-cap=1024",
               "--max-resident-mb=8192"});
          !err.empty()) {
        return err;
      }
      if (const gtl::Status st = connect_client(socket_, &client); !st.is_ok()) {
        return st.to_string();
      }
      // call(), not load_design(): registry.load_ms needs the envelope.
      const Clock::time_point l0 = Clock::now();
      JsonValue::Object fields;
      fields.emplace("design", JsonValue("main"));
      fields.emplace("aux", JsonValue(shape.main_aux));
      fields.emplace("snapshot", JsonValue(shape.main_snapshot));
      JsonValue response;
      Reply load;
      if (const gtl::Status st = client.call(gtl::serve::Op::kLoadDesign,
                                             std::move(fields), &response);
          !st.is_ok()) {
        return "load_design: " + st.to_string();
      }
      if (!reply_from_json(response, &load)) return "load_design: bad reply";
      trace_.add("serve.load_design", 1, s.id(), l0, Clock::now());
      loads_.push_back(std::move(load));
      gtl::FinderConfig cfg = shape.warmup;
      cfg.rng_seed = mix_seed(opt_.seed, 77 + static_cast<std::uint64_t>(r));
      gtl::FinderResult unused;
      JsonValue warm;
      if (const gtl::Status st = client.run_finder("main", &cfg, 0, &unused, &warm);
          !st.is_ok()) {
        return "warm-up query: " + st.to_string();
      }
      s.close();
      setup_s.push_back(ms_between(t0, Clock::now()) / 1e3);
      warmups_.push_back({cfg, std::move(warm)});
    }
    rep_.metrics.set("setup_s", median(setup_s), "s");
    return {};
  }

  /// Read the daemon's stats and peak RSS, then stop it.
  std::string finish() {
    gtl::serve::Client client;
    JsonValue stats;
    if (const gtl::Status st = connect_client(socket_, &client); !st.is_ok()) {
      return st.to_string();
    }
    if (const gtl::Status st = client.stats(&stats); !st.is_ok()) {
      return "stats: " + st.to_string();
    }
    double created = 0.0;
    double reused = 0.0;
    if (const JsonValue* designs = stats.find("designs")) {
      if (const JsonValue* d = designs->find("main")) {
        std::uint64_t v = 0;
        if (const JsonValue* f = d->find("sessions_created"); f && f->get_uint64(&v).is_ok()) created = static_cast<double>(v);
        if (const JsonValue* f = d->find("sessions_reused"); f && f->get_uint64(&v).is_ok()) reused = static_cast<double>(v);
      }
    }
    if (stats.find("failpoints") != nullptr) {
      rep_.tally.fail_check("gtl_serve was built with failpoints");
    }
    session_reuse_ = created + reused > 0.0 ? reused / (created + reused) : 0.0;
    rep_.metrics.set("peak_rss_mb", daemon_.peak_rss_mb(), "MB");
    return daemon_.stop();
  }

  [[nodiscard]] const std::string& socket() const { return socket_; }
  [[nodiscard]] double session_reuse() const { return session_reuse_; }
  [[nodiscard]] const std::vector<Reply>& loads() const { return loads_; }
  struct Warmup {
    gtl::FinderConfig cfg;
    JsonValue result;
  };
  [[nodiscard]] const std::vector<Warmup>& warmups() const { return warmups_; }

 private:
  const Options& opt_;
  Trace& trace_;
  RunReport& rep_;
  std::string socket_;
  Daemon daemon_;
  std::vector<Reply> loads_;
  std::vector<Warmup> warmups_;
  double session_reuse_ = 0.0;
};

/// Wait until `done` reaches `want` or `deadline` passes; then unblock
/// every reader so the threads can be joined.
void await_readers(const std::atomic<std::size_t>& done, std::size_t want,
                   Clock::time_point deadline, std::vector<Conn>& conns) {
  while (done.load() < want && Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  for (Conn& c : conns) c.shutdown();
}

/// Checks run after the daemon has stopped: every ok result against
/// GroupConnectivity, the sampled ones against a direct single-threaded
/// run (stepped under spans in a traced run), and a digest of every
/// query (the schedule fixes the set).  `reqs` is in id order.
void check_replies(const Options& opt, Trace& trace, const ServeShape& shape,
                   const ServeRun& run, std::vector<Req>& reqs,
                   const std::vector<bool>& sampled, RunReport& rep) {
  // The netlist the daemon served: the snapshot it filled.
  gtl::BookshelfDesign oracle;
  if (trace.enabled()) {
    // Time the netlist layer in process too (the daemon's own parse is
    // inside registry.load_ms).
    const fs::path aux(shape.main_aux);
    const fs::path nodes = fs::path(aux).replace_extension(".nodes");
    const fs::path nets = fs::path(aux).replace_extension(".nets");
    gtl::BookshelfDesign parsed;
    {
      Scope s(trace, "netlist.read_bookshelf_files", 0);
      parsed = gtl::read_bookshelf_files(nodes, nets);
      s.close();
      trace.count(s.id(), "bytes",
                  static_cast<double>(fs::file_size(nodes) + fs::file_size(nets)));
    }
    Scope s(trace, "netlist.write_snapshot", 0);
    gtl::write_snapshot(parsed, fs::path(opt.work_dir) / "refill.snap");
  }
  {
    Scope s(trace, "netlist.read_snapshot", 0);
    oracle = gtl::read_snapshot(shape.main_snapshot);
  }
  gtl::GroupConnectivity group(oracle.netlist);

  const auto check_one = [&](const std::string& what, const JsonValue& result,
                             const gtl::FinderConfig& cfg, bool direct,
                             std::string* det) {
    gtl::FinderResult r;
    if (!gtl::finder_result_from_json(result, &r).is_ok()) {
      rep.tally.fail_check(what + ": result does not parse");
      return;
    }
    if (const std::string err = check_gtls(r, group); !err.empty()) {
      rep.tally.fail_check(what + ": " + err);
      return;
    }
    if (det != nullptr) *det = result.dump();
    if (!direct) return;
    gtl::FinderConfig one = cfg;
    one.num_threads = 1;
    std::string out;
    if (trace.enabled()) {
      Scope job(trace, "finder.job", cfg.rng_seed);
      out = traced_job(trace, cfg.rng_seed, job.id(), oracle.netlist, one);
    } else {
      std::unique_ptr<gtl::Finder> finder;
      if (gtl::Finder::create(oracle.netlist, one, &finder).is_ok()) {
        out = gtl::to_json(finder->run()).dump();
      }
    }
    gtl::FinderResult mine;
    if (!gtl::parse_finder_result(out, &mine).is_ok() ||
        deterministic_bytes(mine) != result.dump()) {
      rep.tally.fail_check(what + ": reply differs from a direct run");
    }
  };

  for (const ServeRun::Warmup& w : run.warmups()) {
    check_one("warm-up", w.result, w.cfg, false, nullptr);
  }
  Digest digest;
  bool tampered = false;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    Req& q = reqs[i];
    if (q.kind == Kind::kLoad || !q.replied || !q.reply.ok) continue;
    if (opt.tamper && !tampered) {
      tampered = true;
      JsonValue bad;
      if (!JsonValue::parse(tamper_result_json(q.reply.result.dump()), &bad)
               .is_ok()) {
        bad = JsonValue("truncated");
      }
      q.reply.result = std::move(bad);
    }
    std::string det;
    check_one("request " + std::to_string(q.id), q.reply.result, q.cfg,
              sampled[i], &det);
    digest.add(q.id, det);
  }
  rep.digest = digest.hex();
  rep.digest_items = digest.items();

  const auto query = std::find_if(reqs.begin(), reqs.end(), [](const Req& q) {
    return q.kind != Kind::kLoad;
  });
  if (trace.enabled() && query != reqs.end()) {
    gtl::FinderConfig side = query->cfg;
    measure_cold_penalty(trace, oracle.netlist, side, 3);
    if (const std::string err =
            measure_speedup(trace, oracle.netlist, side, kWorkers);
        !err.empty()) {
      rep.tally.fail_check(err);
    }
  }
}

/// Per-request envelope metrics and client-side spans.  Latency is
/// scheduled send time -> reply.  latency_ms_* cover full queries only:
/// the quick queries' run time is bimodal (about 0.85 and 1.7 ms), and a
/// median over both classes fell between those modes, where it moved 26%
/// from seed to seed.
void add_serve_metrics(Trace& trace, const ServeRun& run,
                       const std::vector<Req>& reqs, RunReport& rep) {
  Metrics& m = rep.metrics;
  std::vector<double> latency;
  std::vector<double> queue;
  std::vector<double> run_ms;
  std::vector<double> wire;
  std::vector<double> late;
  double shed = 0.0;
  Clock::time_point first = Clock::time_point::max();
  Clock::time_point last = Clock::time_point::min();
  std::size_t ok = 0;
  for (const Req& q : reqs) {
    ++rep.tally.attempted;
    if (!q.replied || !q.reply.ok) {
      ++rep.tally.failed;
      if (q.replied && q.reply.error_code == "overloaded") ++shed;
      continue;
    }
    if (q.kind == Kind::kLoad) {
      ++rep.tally.attempted;  // its unload
      if (!q.unload_ok) ++rep.tally.failed;
      continue;
    }
    ++ok;
    first = std::min(first, q.due);
    last = std::max(last, q.recv);
    const double lat = ms_between(q.due, q.recv);
    const double w = ms_between(q.sent, q.recv) - q.reply.queue_ms - q.reply.run_ms;
    if (q.kind == Kind::kFull) latency.push_back(lat);
    queue.push_back(q.reply.queue_ms);
    run_ms.push_back(q.reply.run_ms);
    wire.push_back(w);
    late.push_back(ms_between(q.due, q.sent));
    if (trace.enabled()) {
      // Spans derived after the run: the envelope says how long the
      // request queued and ran; the rest of the round trip is wire (read,
      // parse, serialize, write), split evenly before and after.
      const Trace::SpanId root = trace.add("serve.request", q.id, Trace::kNone,
                                           q.sent, q.recv);
      const Clock::time_point q0 = q.sent + seconds_to_duration(std::max(w, 0.0) / 2e3);
      const Clock::time_point q1 = q0 + seconds_to_duration(q.reply.queue_ms / 1e3);
      const Clock::time_point r1 = q1 + seconds_to_duration(q.reply.run_ms / 1e3);
      trace.add("serve.queue", q.id, root, q0, q1);
      trace.add("serve.run", q.id, root, q1, r1);
    }
  }
  set_latency_metrics(m, latency);
  const double late_p99 = percentile(late, 0.99);
  if (late_p99 > kMaxLateMs) {
    rep.tally.fail_check("load generator ran behind schedule; run invalid");
  }
  m.set("throughput_per_s",
        ok > 0 ? static_cast<double>(ok) / (ms_between(first, last) / 1e3) : 0.0,
        "1/s");
  if (!trace.enabled()) return;

  add_zero_serve_metrics(m);
  m.set("serve.queue_ms_p50", percentile(queue, 0.5), "ms");
  m.set("serve.queue_ms_p99", percentile(queue, 0.99), "ms");
  m.set("serve.run_ms_p50", percentile(run_ms, 0.5), "ms");
  m.set("serve.wire_ms_p50", percentile(wire, 0.5), "ms");
  m.set("serve.session_reuse_ratio", run.session_reuse(), "ratio");
  m.set("serve.shed", shed, "count");
  std::vector<double> load_ms;
  double hits = 0.0;
  for (const Reply& r : run.loads()) {
    load_ms.push_back(r.run_ms);
    hits += snapshot_hit(r) ? 1.0 : 0.0;
  }
  for (const Req& q : reqs) {
    if (q.kind == Kind::kLoad && q.replied && q.reply.ok) {
      load_ms.push_back(q.reply.run_ms);
      hits += snapshot_hit(q.reply) ? 1.0 : 0.0;
    }
  }
  m.set("registry.load_ms", median(load_ms), "ms");
  m.set("registry.snapshot_hit_ratio",
        load_ms.empty() ? 0.0 : hits / static_cast<double>(load_ms.size()),
        "ratio");
  m.set("loadgen.late_ms_p99", late_p99, "ms");
  // Nothing is recorded on the timed path: the spans are built after the
  // run, so tracing costs the requests nothing.
  m.set("trace.overhead_pct", 0.0, "%");
}

}  // namespace

RunReport run_serve_mixed(const Options& opt, Trace& trace) {
  const bool smoke = opt.scale == Scale::kSmoke;
  RunReport rep;
  const double design_scale = smoke ? 0.005 : 0.02;

  // Inputs: the main design as Bookshelf text, the churn design as a
  // snapshot.  Both are fixed; the seed drives the traffic.
  ServeShape shape;
  shape.main_aux = (fs::path(opt.work_dir) / "main.aux").string();
  shape.main_snapshot = (fs::path(opt.work_dir) / "main.snap").string();
  shape.churn_snapshot = (fs::path(opt.work_dir) / "churn.snap").string();
  {
    gtl::Rng rng(2025);
    gtl::BookshelfDesign main;
    main.netlist = gtl::generate_synthetic_circuit(
                       gtl::ispd_like_config("adaptec1", design_scale), rng)
                       .netlist;
    gtl::write_bookshelf(main, opt.work_dir, "main");
    gtl::BookshelfDesign churn;
    churn.netlist = gtl::generate_synthetic_circuit(
                        gtl::ispd_like_config("adaptec2", design_scale), rng)
                        .netlist;
    gtl::write_snapshot(churn, shape.churn_snapshot);
  }
  gtl::FinderConfig quick;
  quick.num_seeds = 4;
  quick.max_ordering_length = 250;
  quick.num_threads = 1;
  gtl::FinderConfig full;
  full.num_seeds = smoke ? 10 : 20;
  full.max_ordering_length = smoke ? 500 : 2'000;
  full.num_threads = 1;
  shape.warmup = full;

  // The schedule: Poisson arrivals per class at fixed rates.  Each
  // class's count is fixed (rate x seconds) and its times are uniform
  // order statistics, i.e. a Poisson process conditioned on its count.
  // Smoke runs offer a third of the load to their smaller full queries.
  std::vector<Req> reqs;
  for (int k = 0; k < 3; ++k) {
    gtl::Rng rng(mix_seed(opt.seed, 10 + static_cast<std::uint64_t>(k)));
    const double rate = kRates[k] * opt.load_scale / (smoke ? 3.0 : 1.0);
    const auto n = static_cast<std::size_t>(rate * opt.seconds + 0.5);
    for (std::size_t i = 0; i < n; ++i) {
      Req q;
      q.kind = static_cast<Kind>(k);
      q.due = Clock::time_point() + seconds_to_duration(rng.next_double() * opt.seconds);
      reqs.push_back(std::move(q));
    }
  }
  std::sort(reqs.begin(), reqs.end(),
            [](const Req& a, const Req& b) { return a.due < b.due; });
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    Req& q = reqs[i];
    q.id = i + 1;
    q.conn = i % kConnections;
    q.cfg = q.kind == Kind::kFull ? full : quick;
    q.cfg.rng_seed = mix_seed(opt.seed, 1'000 + q.id);
  }

  ServeRun run(opt, trace, rep);
  if (const std::string err = run.setup(shape); !err.empty()) {
    rep.tally.fail_check("set-up: " + err);
    return rep;
  }

  std::vector<Conn> conns(kConnections);
  for (Conn& c : conns) {
    if (const gtl::Status st = c.connect(run.socket()); !st.is_ok()) {
      rep.tally.fail_check("connect: " + st.to_string());
      return rep;
    }
  }
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  for (Req& q : reqs) q.due = start + (q.due - Clock::time_point());

  std::atomic<std::size_t> readers_done{0};
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {  // writer
      for (Req& q : reqs) {
        if (q.conn != c) continue;
        // Sleep, then spin the last stretch: a sleeping thread wakes up to
        // a few hundred microseconds late, which would be charged to the
        // daemon's latency.
        std::this_thread::sleep_until(q.due - std::chrono::microseconds(300));
        while (Clock::now() < q.due) {
        }
        const std::string line =
            q.kind == Kind::kLoad
                ? load_request(q.id, "churn" + std::to_string(q.id),
                               shape.churn_snapshot)
                : run_request(q.id, "main", q.cfg);
        q.sent = Clock::now();
        if (!conns[c].send(line).is_ok()) return;
      }
    });
    threads.emplace_back([&, c] {  // reader
      std::size_t expected = 0;
      for (const Req& q : reqs) expected += q.conn == c ? 1 : 0;
      std::string line;
      for (std::size_t got = 0; got < expected;) {
        bool eof = false;
        Reply r;
        if (!conns[c].read_line(&line, &eof).is_ok() || eof ||
            !parse_reply(line, &r)) {
          break;
        }
        const Clock::time_point now = Clock::now();
        ++got;
        if (r.id > kUnloadIdBase) {
          Req& q = reqs[r.id - kUnloadIdBase - 1];
          q.unload_ok = r.ok;
          continue;
        }
        if (r.id == 0 || r.id > reqs.size()) break;
        Req& q = reqs[r.id - 1];
        q.recv = now;
        q.replied = true;
        q.reply = std::move(r);
        if (q.kind == Kind::kLoad && q.reply.ok) {
          // Unload once the load is acknowledged, on the same connection.
          if (conns[c].send(unload_request(q.id + kUnloadIdBase,
                                           "churn" + std::to_string(q.id)))
                  .is_ok()) {
            ++expected;
          }
        }
      }
      ++readers_done;
    });
  }
  for (std::size_t t = 0; t < threads.size(); t += 2) threads[t].join();
  await_readers(readers_done, kConnections,
                Clock::now() + std::chrono::seconds(60), conns);
  for (std::size_t t = 1; t < threads.size(); t += 2) threads[t].join();
  conns.clear();

  if (const std::string err = run.finish(); !err.empty()) {
    rep.tally.fail_check(err);
  }

  // Check every reply; compare the first few of each class with a direct
  // run.
  std::vector<bool> sampled(reqs.size(), false);
  std::size_t quick_samples = 0;
  std::size_t full_samples = 0;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    std::size_t& n = reqs[i].kind == Kind::kFull ? full_samples : quick_samples;
    if (reqs[i].kind != Kind::kLoad && n < 6) {
      sampled[i] = true;
      ++n;
    }
  }
  check_replies(opt, trace, shape, run, reqs, sampled, rep);
  add_serve_metrics(trace, run, reqs, rep);

  if (trace.enabled()) {
    std::vector<double> q_lat;
    std::vector<double> f_lat;
    double slo_ok = 0.0;
    double sent = 0.0;
    for (const Req& q : reqs) {
      if (q.kind == Kind::kLoad) continue;
      ++sent;
      if (!q.replied || !q.reply.ok) continue;
      const double lat = ms_between(q.due, q.recv);
      (q.kind == Kind::kQuick ? q_lat : f_lat).push_back(lat);
      slo_ok += lat <= (q.kind == Kind::kQuick ? kQuickLimitMs : kFullLimitMs) ? 1.0 : 0.0;
    }
    Metrics& m = rep.metrics;
    m.set("serve.quick_ms_p50", percentile(q_lat, 0.5), "ms");
    m.set("serve.quick_ms_p99", percentile(q_lat, 0.99), "ms");
    m.set("serve.full_ms_p50", percentile(f_lat, 0.5), "ms");
    m.set("serve.full_ms_p90", percentile(f_lat, 0.9), "ms");
    m.set("serve.slo_ok_ratio", sent > 0 ? slo_ok / sent : 0.0, "ratio");
    add_layer_metrics(trace, m);
  }
  return rep;
}

}  // namespace perfbench
