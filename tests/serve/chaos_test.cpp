// Chaos suite: seeded fault schedules against a live Server, asserting
// the robustness contract end to end:
//
//   * the server never crashes;
//   * every accepted request gets exactly one reply, and every error
//     reply carries a documented wire code;
//   * requests that succeed under faults return results byte-identical
//     to a fault-free run (the determinism contract is fault-proof);
//   * stats counters stay consistent with what actually happened.
//
// The headline schedule (AdmissionAndWorkerFaultsExactlyOneReply) fires
// a deterministic 210 injected faults — the suite's >= 200 scheduled
// faults live there, and the test asserts the count so a regressed
// schedule fails loudly.  Everything here skips cleanly in builds
// without -DGTL_FAILPOINTS=ON (the tier-1 suite stays fault-free);
// ServerSurvivesClientVanishingMidResponse runs in every build.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "finder/finder_json.hpp"
#include "graphgen/planted_graph.hpp"
#include "netlist/bookshelf.hpp"
#include "netlist/netlist_io.hpp"
#include "serve/client.hpp"
#include "serve/manifest.hpp"
#include "serve/server.hpp"
#include "util/failpoint.hpp"
#include "util/rng.hpp"

namespace gtl::serve {
namespace {

namespace fs = std::filesystem;

BookshelfDesign tiny_design(std::uint64_t seed = 17) {
  PlantedGraphConfig cfg;
  cfg.num_cells = 400;
  cfg.gtls.push_back({60, 1});
  Rng rng(seed);
  BookshelfDesign design;
  design.netlist = generate_planted_graph(cfg, rng).netlist;
  return design;
}

FinderConfig quick_config(std::size_t threads = 1) {
  FinderConfig cfg;
  cfg.num_seeds = 4;
  cfg.max_ordering_length = 200;
  cfg.num_threads = threads;
  return cfg;
}

JsonValue parse(const std::string& line) {
  JsonValue json;
  EXPECT_TRUE(JsonValue::parse(line, &json).is_ok()) << line;
  return json;
}

std::string error_code_of(const JsonValue& response) {
  const JsonValue* error = response.find("error");
  if (error == nullptr) return "";
  const JsonValue* code = error->find("code");
  std::string name;
  if (code != nullptr) {
    EXPECT_TRUE(code->get_string(&name).is_ok());
  }
  return name;
}

std::string run_line(std::uint64_t id, const std::string& design,
                     const FinderConfig& cfg) {
  JsonValue::Object obj;
  obj.emplace("id", JsonValue(id));
  obj.emplace("op", JsonValue("run_finder"));
  obj.emplace("design", JsonValue(design));
  obj.emplace("config", to_json(cfg));
  return JsonValue(std::move(obj)).dump();
}

std::string load_line(std::uint64_t id, const std::string& name,
                      const fs::path& aux, const fs::path& snapshot = {}) {
  JsonValue::Object obj;
  obj.emplace("id", JsonValue(id));
  obj.emplace("op", JsonValue("load_design"));
  obj.emplace("design", JsonValue(name));
  if (!aux.empty()) obj.emplace("aux", JsonValue(aux.string()));
  if (!snapshot.empty()) obj.emplace("snapshot", JsonValue(snapshot.string()));
  return JsonValue(std::move(obj)).dump();
}

/// The result block of an OK response, as a compact string.
std::string result_dump(const std::string& line) {
  const JsonValue json = parse(line);
  const JsonValue* result = json.find("result");
  EXPECT_NE(result, nullptr) << line;
  return result == nullptr ? std::string() : result->dump();
}

/// One stats snapshot's "global" block (one call — counters from a
/// single consistent snapshot).
JsonValue global_stats(Server& server) {
  const JsonValue stats =
      parse(server.handle_line(R"({"id": 999999, "op": "stats"})"));
  const JsonValue* result = stats.find("result");
  EXPECT_NE(result, nullptr);
  if (result == nullptr) return JsonValue();
  const JsonValue* global = result->find("global");
  EXPECT_NE(global, nullptr);
  return global == nullptr ? JsonValue() : *global;
}

std::uint64_t u64_field(const JsonValue& obj, const std::string& key) {
  const JsonValue* value = obj.find(key);
  EXPECT_NE(value, nullptr) << key;
  std::uint64_t out = 0;
  if (value != nullptr) {
    EXPECT_TRUE(value->get_uint64(&out).is_ok());
  }
  return out;
}

/// Joins a serve() thread even when a failed ASSERT unwinds the test
/// body early (an unjoined std::thread would terminate the process).
struct ServeJoiner {
  std::atomic<bool>& stop;
  std::thread& thread;
  ~ServeJoiner() {
    stop.store(true);
    if (thread.joinable()) thread.join();
  }
};

/// Connect, retrying while the serve() thread is still binding.
Status connect_with_retry(const fs::path& path, Client* client) {
  Status st = Status::ok();
  for (int i = 0; i < 200; ++i) {
    st = Client::connect(path, client);
    if (st.is_ok()) return st;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return st;
}

class ChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("tanglefind_chaos_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    fs::create_directories(dir_);
    failpoint::disarm_all();
    failpoint::reseed(2026);
    if (!failpoint::compiled_in()) {
      GTEST_SKIP() << "built without -DGTL_FAILPOINTS=ON; chaos schedules "
                      "cannot fire";
    }
  }
  void TearDown() override {
    failpoint::disarm_all();
    fs::remove_all(dir_);
  }

  /// Write a real Bookshelf design under `stem` and return its .aux.
  fs::path disk_design(const std::string& stem, std::uint64_t seed) {
    write_bookshelf(tiny_design(seed), dir_, stem);
    return dir_ / (stem + ".aux");
  }

  fs::path dir_;
};

// The headline schedule: 400 requests through a deterministic fault
// plan — the first 150 shed at admission, 60 more killed in the worker
// — must produce exactly one reply each, only documented codes, and
// byte-identical results for every survivor.
TEST_F(ChaosTest, AdmissionAndWorkerFaultsExactlyOneReply) {
  constexpr std::size_t kRequests = 400;
  constexpr std::uint64_t kAdmitFaults = 150;
  constexpr std::uint64_t kExecuteFaults = 60;

  ServerConfig cfg;
  cfg.workers = 4;
  cfg.queue_capacity = kRequests;  // no organic sheds: every
                                   // "overloaded" below is injected
  Server server(cfg);
  ASSERT_TRUE(server.preload("tiny", tiny_design()).is_ok());

  // Fault-free baseline for the byte-identical assertion (runs before
  // arming, so it burns no schedule budget).
  const std::string baseline =
      result_dump(server.handle_line(run_line(100000, "tiny",
                                              quick_config())));

  failpoint::Spec admit;
  admit.limit = kAdmitFaults;
  failpoint::arm("serve.admit", admit);
  failpoint::Spec execute;
  execute.limit = kExecuteFaults;
  failpoint::arm("serve.execute", execute);

  std::mutex mu;
  std::condition_variable cv;
  std::size_t done = 0;
  std::vector<std::vector<std::string>> per_id(kRequests + 1);

  for (std::uint64_t id = 1; id <= kRequests; ++id) {
    server.submit(run_line(id, "tiny", quick_config()),
                  [&, id](const std::string& line) {
                    std::lock_guard<std::mutex> lk(mu);
                    per_id[id].push_back(line);
                    ++done;
                    cv.notify_all();
                  });
  }
  {
    std::unique_lock<std::mutex> lk(mu);
    ASSERT_TRUE(cv.wait_for(lk, std::chrono::seconds(240),
                            [&] { return done >= kRequests; }))
        << "only " << done << "/" << kRequests << " replies arrived";
  }
  // Settle window: a duplicate reply would land here and be caught.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  std::size_t ok = 0, overloaded = 0, internal = 0;
  {
    std::lock_guard<std::mutex> lk(mu);
    ASSERT_EQ(done, kRequests);
    for (std::uint64_t id = 1; id <= kRequests; ++id) {
      ASSERT_EQ(per_id[id].size(), 1u)
          << "request " << id << " got " << per_id[id].size() << " replies";
      const JsonValue response = parse(per_id[id][0]);
      const std::string code = error_code_of(response);
      if (code.empty()) {
        ++ok;
        const JsonValue* result = response.find("result");
        ASSERT_NE(result, nullptr);
        EXPECT_EQ(result->dump(), baseline)
            << "request " << id
            << ": a result that survives faults must be byte-identical";
      } else if (code == "overloaded") {
        ++overloaded;
        const JsonValue* error = response.find("error");
        const JsonValue* hint = error->find("retry_after_ms");
        ASSERT_NE(hint, nullptr) << "sheds must carry a backoff hint";
      } else if (code == "internal") {
        ++internal;
      } else {
        FAIL() << "undocumented error code \"" << code
               << "\" in: " << per_id[id][0];
      }
    }
  }

  // The schedule is deterministic: submissions hit "serve.admit" in
  // order, so exactly the first 150 shed; the worker fault burns its
  // full 60-trigger budget on the 250 that got through.
  EXPECT_EQ(overloaded, kAdmitFaults);
  EXPECT_EQ(internal, kExecuteFaults);
  EXPECT_EQ(ok, kRequests - kAdmitFaults - kExecuteFaults);
  EXPECT_EQ(failpoint::trigger_count("serve.admit"), kAdmitFaults);
  EXPECT_EQ(failpoint::trigger_count("serve.execute"), kExecuteFaults);
  // The suite's chaos budget: this one schedule injects >= 200 faults.
  EXPECT_GE(failpoint::trigger_count("serve.admit") +
                failpoint::trigger_count("serve.execute"),
            200u);

  // Stats agree with the tally (exact: this server saw the baseline,
  // the 400 chaos requests, and this one stats call — whose own
  // completed_ok is stamped after the snapshot).
  const JsonValue global = global_stats(server);
  EXPECT_EQ(u64_field(global, "rejected_overload"), kAdmitFaults);
  EXPECT_EQ(u64_field(global, "received"), kRequests + 2);
  EXPECT_EQ(u64_field(global, "completed_ok"),
            static_cast<std::uint64_t>(ok) + 1);
}

// Injected delays (worker stalls, thread-pool stalls) reorder execution
// without ever changing bytes.
TEST_F(ChaosTest, InjectedDelaysNeverChangeResults) {
  ServerConfig cfg;
  cfg.workers = 2;
  Server server(cfg);
  ASSERT_TRUE(server.preload("tiny", tiny_design()).is_ok());
  const FinderConfig threaded = quick_config(/*threads=*/2);
  const std::string baseline =
      result_dump(server.handle_line(run_line(1000, "tiny", threaded)));

  failpoint::Spec stall;
  stall.action.kind = failpoint::Action::Kind::kDelay;
  stall.action.param = 1;  // ms
  stall.probability = 0.5;
  failpoint::arm("thread_pool.task", stall);
  stall.action.param = 2;
  failpoint::arm("serve.execute", stall);

  for (std::uint64_t id = 1; id <= 20; ++id) {
    EXPECT_EQ(result_dump(server.handle_line(run_line(id, "tiny", threaded))),
              baseline)
        << "run " << id;
  }
  EXPECT_GT(failpoint::trigger_count("thread_pool.task"), 0u);
  EXPECT_GT(failpoint::trigger_count("serve.execute"), 0u);
}

// Satellite: a failed best-effort snapshot fill must leave no partial
// cache file and no poisoned registry state, and must be visible in
// stats.
TEST_F(ChaosTest, SnapshotFillFaultLeavesNoPartialCache) {
  const fs::path aux = disk_design("d1", 21);
  const fs::path snap = dir_ / "d1.snap";

  ServerConfig cfg;
  cfg.workers = 1;
  Server server(cfg);

  failpoint::Spec fault;
  fault.limit = 1;
  failpoint::arm("snapshot.write", fault);

  // The load itself succeeds — the cache fill is best-effort.
  const std::string reply = server.handle_line(load_line(1, "d1", aux, snap));
  ASSERT_EQ(parse(reply).find("error"), nullptr) << reply;
  EXPECT_FALSE(fs::exists(snap)) << "a failed fill must not leave a file";
  EXPECT_EQ(failpoint::trigger_count("snapshot.write"), 1u);
  EXPECT_EQ(u64_field(global_stats(server), "snapshot_fill_failures"), 1u);

  // No partial/poisoned state: unload and reload with the fault spent —
  // the fill now succeeds and the cache becomes usable.
  ASSERT_EQ(parse(server.handle_line(
                      R"({"id": 2, "op": "unload_design", "design": "d1"})"))
                .find("error"),
            nullptr);
  const std::string again = server.handle_line(load_line(3, "d1", aux, snap));
  ASSERT_EQ(parse(again).find("error"), nullptr) << again;
  EXPECT_TRUE(fs::exists(snap));

  // Same discipline for an injected rename failure: nothing is left
  // behind, not even a temp file.
  const fs::path aux2 = disk_design("d2", 22);
  const fs::path snap2 = dir_ / "d2.snap";
  fault.limit = 1;
  failpoint::arm("snapshot.rename", fault);
  const std::string reply2 =
      server.handle_line(load_line(4, "d2", aux2, snap2));
  ASSERT_EQ(parse(reply2).find("error"), nullptr) << reply2;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    EXPECT_EQ(entry.path().filename().string().find("d2.snap"),
              std::string::npos)
        << "leftover: " << entry.path();
  }
}

// The streamed readers under read faults: an injected open failure, a
// failed read (reported as "read failed for <file>" for each file of a
// Bookshelf design: .aux, .nodes, .nets) and torn reads that cut each
// file or the snapshot at sizes around the header and the scanner's
// chunk each give a clean Status or, when the cut leaves the file whole,
// the design itself; the files load again once the schedule is spent.
TEST_F(ChaosTest, StreamedReadersReturnCleanStatusUnderReadFaults) {
  PlantedGraphConfig pcfg;
  pcfg.num_cells = 6000;  // a .nets file of several 64 KiB chunks
  pcfg.gtls.push_back({300, 1});
  Rng rng(41);
  BookshelfDesign design;
  design.netlist = generate_planted_graph(pcfg, rng).netlist;
  write_bookshelf(design, dir_, "big");
  const fs::path aux = dir_ / "big.aux";
  const fs::path snap = dir_ / "big.snap";
  ASSERT_TRUE(try_write_snapshot(design, snap).is_ok());
  ASSERT_GT(fs::file_size(dir_ / "big.nets"), std::uintmax_t{3} << 16);
  auto same = [&](const BookshelfDesign& got) {
    const Netlist& a = design.netlist;
    const Netlist& b = got.netlist;
    if (a.num_cells() != b.num_cells() || a.num_nets() != b.num_nets() ||
        a.num_pins() != b.num_pins()) {
      return false;
    }
    for (NetId e = 0; e < a.num_nets(); ++e) {
      const auto pa = a.pins_of(e);
      const auto pb = b.pins_of(e);
      if (!std::equal(pa.begin(), pa.end(), pb.begin(), pb.end())) {
        return false;
      }
    }
    return true;
  };

  failpoint::Spec once;
  once.limit = 1;
  failpoint::arm("fileio.read.open", once);
  BookshelfDesign got;
  Status st = try_read_bookshelf(aux, &got);
  EXPECT_EQ(st.code(), StatusCode::kParseError) << st.to_string();
  EXPECT_NE(st.message().find("cannot open"), std::string::npos);
  failpoint::arm("fileio.read.open", once);
  st = try_read_snapshot(snap, &got);
  EXPECT_EQ(st.code(), StatusCode::kNotFound) << st.to_string();

  failpoint::arm("fileio.read", once);
  st = try_read_snapshot(snap, &got);
  EXPECT_EQ(st.code(), StatusCode::kParseError) << st.to_string();
  EXPECT_NE(st.message().find("read failed"), std::string::npos);
  const fs::path files[] = {aux, dir_ / "big.nodes", dir_ / "big.nets"};
  for (std::uint64_t skip = 0; skip < 3; ++skip) {
    failpoint::Spec fail = once;
    fail.skip = skip;
    failpoint::arm("fileio.read", fail);
    st = try_read_bookshelf(aux, &got);
    EXPECT_EQ(st.code(), StatusCode::kParseError) << st.to_string();
    EXPECT_NE(st.message().find("read failed for " + files[skip].string()),
              std::string::npos)
        << st.to_string();
    EXPECT_EQ(failpoint::trigger_count("fileio.read"), 1u);
  }

  for (const std::uint64_t cut :
       {0, 1, 17, 63, 64, 65, 4096, 65535, 65536, 65537, 140000}) {
    for (std::uint64_t skip = 0; skip < 3; ++skip) {
      failpoint::Spec torn = once;
      torn.skip = skip;
      torn.action.kind = failpoint::Action::Kind::kShortIo;
      torn.action.param = cut;
      failpoint::arm("fileio.read", torn);
      st = try_read_bookshelf(aux, &got);
      ASSERT_EQ(failpoint::trigger_count("fileio.read"), 1u);
      const std::string what = files[skip].filename().string() + " cut at " +
                               std::to_string(cut);
      if (cut >= fs::file_size(files[skip])) {
        ASSERT_TRUE(st.is_ok()) << what << ": " << st.to_string();
        EXPECT_TRUE(same(got)) << what;
      } else if (!st.is_ok()) {
        EXPECT_EQ(st.code(), StatusCode::kParseError) << what;
      }
    }
    failpoint::Spec torn = once;
    torn.action.kind = failpoint::Action::Kind::kShortIo;
    torn.action.param = cut;
    failpoint::arm("fileio.read", torn);
    st = try_read_snapshot(snap, &got);
    EXPECT_EQ(st.code(), StatusCode::kParseError)
        << "snapshot cut at " << cut << ": " << st.to_string();
  }

  failpoint::disarm_all();
  ASSERT_TRUE(try_read_bookshelf(aux, &got).is_ok());
  EXPECT_TRUE(same(got));
  ASSERT_TRUE(try_read_snapshot(snap, &got).is_ok());
  EXPECT_TRUE(same(got));
}

// A manifest write failure degrades durability, never availability: the
// load still succeeds, the failure is counted, and the next successful
// write persists the full truth.
TEST_F(ChaosTest, ManifestWriteFaultDoesNotFailTheLoad) {
  const fs::path aux1 = disk_design("d1", 31);
  const fs::path aux2 = disk_design("d2", 32);
  const fs::path manifest_path = dir_ / "manifest.json";

  ServerConfig cfg;
  cfg.workers = 1;
  cfg.manifest_path = manifest_path;
  Server server(cfg);

  failpoint::Spec fault;
  fault.limit = 1;
  failpoint::arm("manifest.write", fault);

  const std::string reply = server.handle_line(load_line(1, "d1", aux1));
  ASSERT_EQ(parse(reply).find("error"), nullptr) << reply;
  EXPECT_EQ(u64_field(global_stats(server), "manifest_write_failures"), 1u);
  EXPECT_FALSE(fs::exists(manifest_path));

  // The in-memory manifest kept the truth; the next write persists both.
  const std::string reply2 = server.handle_line(load_line(2, "d2", aux2));
  ASSERT_EQ(parse(reply2).find("error"), nullptr) << reply2;
  Manifest manifest;
  ASSERT_TRUE(read_manifest(manifest_path, &manifest).is_ok());
  EXPECT_EQ(manifest.count("d1"), 1u);
  EXPECT_EQ(manifest.count("d2"), 1u);
}

// Socket-level chaos against a live serve() loop: torn sends, EINTR
// storms, injected connection drops, and admission sheds — a client
// with the retry policy must come through with every answer correct.
TEST_F(ChaosTest, RetryingClientSurvivesSocketChaos) {
  const fs::path socket_path = dir_ / "chaos.sock";
  ServerConfig cfg;
  cfg.socket_path = socket_path;
  cfg.workers = 2;
  cfg.retry_after_ms = 10;  // keep injected-shed retries snappy
  Server server(cfg);
  ASSERT_TRUE(server.preload("tiny", tiny_design()).is_ok());

  std::atomic<bool> stop{false};
  std::thread serving([&] { EXPECT_TRUE(server.serve(stop).is_ok()); });
  ServeJoiner joiner{stop, serving};

  Client client;
  ASSERT_TRUE(connect_with_retry(socket_path, &client).is_ok());
  RetryPolicy policy;
  policy.max_attempts = 6;
  policy.base_backoff_ms = 5;
  policy.max_backoff_ms = 40;
  policy.budget_ms = 30000;
  policy.seed = 7;
  client.set_retry_policy(policy);

  // Fault-free baseline over the same transport.
  const FinderConfig qc = quick_config();
  FinderResult baseline_result;
  JsonValue baseline_raw;
  ASSERT_TRUE(client.run_finder("tiny", &qc, 0, &baseline_result,
                                &baseline_raw)
                  .is_ok());
  const std::string baseline = baseline_raw.dump();

  failpoint::Spec torn;
  torn.action.kind = failpoint::Action::Kind::kShortIo;
  torn.action.param = 5;
  torn.probability = 0.5;
  torn.limit = 40;
  failpoint::arm("socket.send", torn);

  failpoint::Spec eintr;
  eintr.action.kind = failpoint::Action::Kind::kEintr;
  eintr.probability = 0.5;
  eintr.limit = 40;
  failpoint::arm("socket.recv", eintr);

  failpoint::Spec shed;
  shed.skip = 2;
  shed.limit = 3;
  failpoint::arm("serve.admit", shed);

  for (int i = 0; i < 12; ++i) {
    FinderResult result;
    JsonValue raw;
    const Status st = client.run_finder("tiny", &qc, 0, &result, &raw);
    ASSERT_TRUE(st.is_ok()) << "query " << i << ": " << st.to_string();
    EXPECT_EQ(raw.dump(), baseline) << "query " << i;
  }

  // Now injected connection drops: the recv fault fails reads on both
  // ends, so the client must reconnect its way through.
  failpoint::Spec drop;
  drop.probability = 0.3;
  drop.limit = 4;
  failpoint::arm("socket.recv", drop);  // re-arm: fail instead of eintr

  for (int i = 0; i < 8; ++i) {
    FinderResult result;
    JsonValue raw;
    const Status st = client.run_finder("tiny", &qc, 0, &result, &raw);
    ASSERT_TRUE(st.is_ok()) << "query " << i << ": " << st.to_string();
    EXPECT_EQ(raw.dump(), baseline) << "query " << i;
  }

  EXPECT_GT(failpoint::trigger_count("socket.send"), 0u);
  EXPECT_EQ(failpoint::trigger_count("serve.admit"), 3u);

  stop.store(true);
  serving.join();
  server.stop();
}

// Runs in every build (no failpoints needed): a client that dies
// mid-response must cost the server nothing but that one connection.
TEST(ServeRobustness, ServerSurvivesClientVanishingMidResponse) {
  const fs::path socket_path =
      fs::temp_directory_path() / "gtl_chaos_vanish.sock";
  fs::remove(socket_path);

  ServerConfig cfg;
  cfg.socket_path = socket_path;
  cfg.workers = 1;
  Server server(cfg);
  ASSERT_TRUE(server.preload("tiny", tiny_design()).is_ok());

  std::atomic<bool> stop{false};
  std::thread serving([&] { EXPECT_TRUE(server.serve(stop).is_ok()); });
  ServeJoiner joiner{stop, serving};

  {
    // A rude peer: asks a real question, vanishes before the answer.
    UnixStream rude;
    Status st = Status::ok();
    for (int i = 0; i < 200; ++i) {
      st = UnixStream::connect(socket_path, &rude);
      if (st.is_ok()) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ASSERT_TRUE(st.is_ok()) << st.to_string();
    // A high id: the polite client below starts numbering at 1, and its
    // run must not collide with this one while it is still in flight.
    ASSERT_TRUE(
        rude.write_line(run_line(900001, "tiny", quick_config())).is_ok());
    rude.close();
  }

  // The server shrugged it off: a well-behaved client gets full service.
  Client client;
  ASSERT_TRUE(connect_with_retry(socket_path, &client).is_ok());
  const FinderConfig qc = quick_config();
  FinderResult result;
  EXPECT_TRUE(client.run_finder("tiny", &qc, 0, &result, nullptr).is_ok());
  JsonValue status_result;
  EXPECT_TRUE(client.status(&status_result).is_ok());

  stop.store(true);
  serving.join();
  server.stop();
  fs::remove(socket_path);
}

}  // namespace
}  // namespace gtl::serve
