// Server behavior tests: request routing, the byte-identical determinism
// contract, admission control, deadlines, cancellation, and the socket
// transport end-to-end (Server::serve + Client).

#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <future>
#include <limits>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "finder/finder_json.hpp"
#include "graphgen/planted_graph.hpp"
#include "netlist/bookshelf.hpp"
#include "netlist/netlist_io.hpp"
#include "serve/client.hpp"
#include "util/rng.hpp"

namespace gtl::serve {
namespace {

BookshelfDesign planted_design(std::uint64_t seed = 11) {
  PlantedGraphConfig cfg;
  cfg.num_cells = 3000;
  cfg.gtls.push_back({200, 1});
  Rng rng(seed);
  BookshelfDesign design;
  design.netlist = generate_planted_graph(cfg, rng).netlist;
  return design;
}

/// Small-but-real config: runs in tens of milliseconds.
FinderConfig quick_config() {
  FinderConfig cfg;
  cfg.num_seeds = 8;
  cfg.max_ordering_length = 600;
  cfg.num_threads = 1;
  return cfg;
}

/// Heavy config: runs long enough that a cancel/deadline lands mid-run.
FinderConfig slow_config() {
  FinderConfig cfg;
  cfg.num_seeds = 2000;
  cfg.max_ordering_length = 3000;
  cfg.num_threads = 1;
  return cfg;
}

JsonValue parse(const std::string& line) {
  JsonValue json;
  EXPECT_TRUE(JsonValue::parse(line, &json).is_ok()) << line;
  return json;
}

std::string error_field(const JsonValue& response, const char* field) {
  const JsonValue* error = response.find("error");
  if (error == nullptr) return "";
  std::string value;
  EXPECT_TRUE(error->find(field)->get_string(&value).is_ok());
  return value;
}

std::string error_code_of(const JsonValue& response) {
  return error_field(response, "code");
}

/// stats.designs.<design>.<counter>
std::uint64_t design_counter(Server& server, const char* design,
                             const char* counter) {
  const JsonValue stats =
      parse(server.handle_line(R"({"id":900,"op":"stats"})"));
  std::uint64_t value = 0;
  EXPECT_TRUE(stats.find("result")
                  ->find("designs")
                  ->find(design)
                  ->find(counter)
                  ->get_uint64(&value)
                  .is_ok());
  return value;
}

std::string run_line(std::uint64_t id, const std::string& design,
                     const FinderConfig& cfg, std::uint64_t deadline_ms = 0) {
  JsonValue::Object obj;
  obj.emplace("id", JsonValue(id));
  obj.emplace("op", JsonValue("run_finder"));
  obj.emplace("design", JsonValue(design));
  obj.emplace("config", to_json(cfg));
  if (deadline_ms != 0) {
    obj.emplace("deadline_ms", JsonValue(deadline_ms));
  }
  return JsonValue(std::move(obj)).dump();
}

/// Connect, retrying while the serve() thread is still binding.
Status connect_with_retry(const std::filesystem::path& path, Client* client) {
  Status st = Status::ok();
  for (int i = 0; i < 200; ++i) {
    st = Client::connect(path, client);
    if (st.is_ok()) return st;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return st;
}

/// Wait until the workers have taken every queued job.
void wait_for_empty_queue(Server& server) {
  for (int i = 0; i < 500; ++i) {
    const JsonValue status =
        parse(server.handle_line(R"({"id":100,"op":"status"})"));
    std::uint64_t depth = 1;
    ASSERT_TRUE(status.find("result")
                    ->find("queue_depth")
                    ->get_uint64(&depth)
                    .is_ok());
    if (depth == 0) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

/// stats.global.<counter>
std::uint64_t global_counter(Server& server, const char* counter) {
  const JsonValue stats =
      parse(server.handle_line(R"({"id":901,"op":"stats"})"));
  std::uint64_t value = 0;
  EXPECT_TRUE(stats.find("result")
                  ->find("global")
                  ->find(counter)
                  ->get_uint64(&value)
                  .is_ok());
  return value;
}

/// Collects one asynchronous response.
class Capture {
 public:
  Server::ResponseFn sink() {
    return [this](const std::string& line) {
      std::lock_guard<std::mutex> lk(mu_);
      line_ = line;
      done_ = true;
      cv_.notify_all();
    };
  }
  std::string wait() {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [&] { return done_; });
    return line_;
  }
  bool done() {
    std::lock_guard<std::mutex> lk(mu_);
    return done_;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::string line_;
  bool done_ = false;
};

TEST(Server, StatusAndStatsReflectPreload) {
  ServerConfig cfg;
  Server server(cfg);
  ASSERT_TRUE(server.preload("d", planted_design()).is_ok());

  const JsonValue status =
      parse(server.handle_line(R"({"id":1,"op":"status"})"));
  ASSERT_TRUE(response_status(status).is_ok());
  const JsonValue* designs = status.find("result")->find("designs");
  ASSERT_NE(designs, nullptr);
  ASSERT_EQ(designs->array().size(), 1u);
  std::string name;
  ASSERT_TRUE(designs->array()[0].find("name")->get_string(&name).is_ok());
  EXPECT_EQ(name, "d");

  const JsonValue stats = parse(server.handle_line(R"({"id":2,"op":"stats"})"));
  ASSERT_TRUE(response_status(stats).is_ok());
  std::uint64_t received = 0;
  ASSERT_TRUE(stats.find("result")
                  ->find("global")
                  ->find("received")
                  ->get_uint64(&received)
                  .is_ok());
  EXPECT_EQ(received, 2u);
}

TEST(Server, RunFinderMatchesDirectRunByteForByte) {
  const BookshelfDesign design = planted_design();
  const FinderConfig cfg = quick_config();

  // Direct, single-threaded reference run.
  Finder direct(design.netlist, cfg);
  const std::string expected =
      deterministic_result_json(direct.run()).dump();

  ServerConfig scfg;
  Server server(scfg);
  ASSERT_TRUE(server.preload("d", planted_design()).is_ok());

  const JsonValue response = parse(server.handle_line(run_line(1, "d", cfg)));
  ASSERT_TRUE(response_status(response).is_ok());
  EXPECT_EQ(response.find("result")->dump(), expected);

  // Again through a warm (reused) session: still byte-identical.
  const JsonValue again = parse(server.handle_line(run_line(2, "d", cfg)));
  ASSERT_TRUE(response_status(again).is_ok());
  EXPECT_EQ(again.find("result")->dump(), expected);

  std::uint64_t reused = 0;
  const JsonValue stats = parse(server.handle_line(R"({"id":3,"op":"stats"})"));
  ASSERT_TRUE(stats.find("result")
                  ->find("designs")
                  ->find("d")
                  ->find("sessions_reused")
                  ->get_uint64(&reused)
                  .is_ok());
  EXPECT_EQ(reused, 1u);
}

TEST(Server, ReloadedDesignNeverReusesOldSessions) {
  const FinderConfig cfg = quick_config();
  const BookshelfDesign x = planted_design(11);
  const BookshelfDesign y = planted_design(12);
  const std::string on_x = deterministic_result_json(
      Finder(x.netlist, cfg).run()).dump();
  const std::string on_y = deterministic_result_json(
      Finder(y.netlist, cfg).run()).dump();
  ASSERT_NE(on_x, on_y);

  ServerConfig scfg;
  Server server(scfg);
  ASSERT_TRUE(server.preload("d", planted_design(11)).is_ok());
  const JsonValue first = parse(server.handle_line(run_line(1, "d", cfg)));
  ASSERT_TRUE(response_status(first).is_ok());
  EXPECT_EQ(first.find("result")->dump(), on_x);

  // Same name, different design: the warm session bound to X's netlist
  // must not answer for Y.
  ASSERT_TRUE(response_status(parse(server.handle_line(
                  R"({"id":2,"op":"unload_design","design":"d"})")))
                  .is_ok());
  ASSERT_TRUE(server.preload("d", planted_design(12)).is_ok());
  const JsonValue second = parse(server.handle_line(run_line(3, "d", cfg)));
  ASSERT_TRUE(response_status(second).is_ok());
  EXPECT_EQ(second.find("result")->dump(), on_y);

  EXPECT_EQ(design_counter(server, "d", "sessions_created"), 2u);
  EXPECT_EQ(design_counter(server, "d", "sessions_reused"), 0u);
}

TEST(Server, VariedSeedQueriesReuseOneSession) {
  // The pool keys sessions without the seed: one warm session answers
  // every seed of a config, each byte-identical to a fresh session's run.
  const BookshelfDesign design = planted_design();
  ServerConfig scfg;
  scfg.workers = 1;
  Server server(scfg);
  ASSERT_TRUE(server.preload("d", planted_design()).is_ok());
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    FinderConfig cfg = quick_config();
    cfg.rng_seed = seed;
    const std::string expected =
        deterministic_result_json(Finder(design.netlist, cfg).run()).dump();
    const JsonValue response =
        parse(server.handle_line(run_line(seed, "d", cfg)));
    ASSERT_TRUE(response_status(response).is_ok());
    EXPECT_EQ(response.find("result")->dump(), expected) << "rng_seed " << seed;
  }
  EXPECT_EQ(design_counter(server, "d", "sessions_created"), 1u);
  EXPECT_EQ(design_counter(server, "d", "sessions_reused"), 5u);
}

TEST(Server, RepeatedConfigReusedAfterPoolFills) {
  // Once max_idle_sessions sessions are parked, a returned session evicts
  // the least recently parked one, so a config in current use stays warm.
  ServerConfig scfg;
  scfg.workers = 1;
  ASSERT_EQ(scfg.max_idle_sessions, 4u);
  Server server(scfg);
  ASSERT_TRUE(server.preload("d", planted_design()).is_ok());
  std::uint64_t id = 1;
  for (std::size_t i = 0; i < 4; ++i) {
    FinderConfig cfg = quick_config();
    cfg.max_ordering_length = 500 + 10 * i;
    const std::string reply = server.handle_line(run_line(id++, "d", cfg));
    ASSERT_TRUE(response_status(parse(reply)).is_ok());
  }
  const FinderConfig repeated = quick_config();  // a fifth config
  std::string first;
  for (int i = 0; i < 5; ++i) {
    const JsonValue response =
        parse(server.handle_line(run_line(id++, "d", repeated)));
    ASSERT_TRUE(response_status(response).is_ok());
    if (i == 0) first = response.find("result")->dump();
    EXPECT_EQ(response.find("result")->dump(), first) << "query " << i;
  }
  EXPECT_EQ(design_counter(server, "d", "sessions_created"), 5u);
  EXPECT_EQ(design_counter(server, "d", "sessions_reused"), 4u);
}

TEST(Server, PoolEvictsLeastRecentlyParkedSession) {
  // With room for two parked sessions, a third config evicts the least
  // recently parked one; a re-used session counts as freshly parked.
  ServerConfig scfg;
  scfg.workers = 1;
  scfg.max_idle_sessions = 2;
  Server server(scfg);
  ASSERT_TRUE(server.preload("d", planted_design()).is_ok());
  const auto query = [&server](std::uint64_t id, std::size_t z) {
    FinderConfig cfg = quick_config();
    cfg.max_ordering_length = z;
    const std::string reply = server.handle_line(run_line(id, "d", cfg));
    EXPECT_TRUE(response_status(parse(reply)).is_ok());
  };
  query(1, 500);  // parks A
  query(2, 510);  // parks B
  query(3, 520);  // parks C, evicting A
  query(4, 510);  // reuses B, then parks it past C
  query(5, 500);  // A was evicted: a new session, evicting C
  query(6, 510);  // reuses B
  EXPECT_EQ(design_counter(server, "d", "sessions_created"), 4u);
  EXPECT_EQ(design_counter(server, "d", "sessions_reused"), 2u);
}

TEST(Server, UnknownDesignIsNotFound) {
  ServerConfig cfg;
  Server server(cfg);
  const JsonValue response =
      parse(server.handle_line(run_line(1, "ghost", quick_config())));
  EXPECT_EQ(error_code_of(response), "not_found");
}

TEST(Server, UnloadMakesDesignNotFound) {
  ServerConfig cfg;
  Server server(cfg);
  ASSERT_TRUE(server.preload("d", planted_design()).is_ok());
  const JsonValue unloaded = parse(
      server.handle_line(R"({"id":1,"op":"unload_design","design":"d"})"));
  ASSERT_TRUE(response_status(unloaded).is_ok());
  EXPECT_EQ(error_code_of(parse(server.handle_line(
                run_line(2, "d", quick_config())))),
            "not_found");
  EXPECT_EQ(error_code_of(parse(server.handle_line(
                R"({"id":3,"op":"unload_design","design":"d"})"))),
            "not_found");
}

TEST(Server, OverloadedWhenQueueFull) {
  ServerConfig cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 1;
  Server server(cfg);
  ASSERT_TRUE(server.preload("d", planted_design()).is_ok());

  // First request occupies the single worker for a while; the second
  // fills the queue; the third must bounce with "overloaded" (and the
  // rejection is inline, so no waiting).
  Capture first, second, third;
  server.submit(run_line(1, "d", slow_config()), first.sink());
  // Wait for the worker to pick up #1, so #2 queues instead of bouncing.
  wait_for_empty_queue(server);
  server.submit(run_line(2, "d", quick_config()), second.sink());
  server.submit(run_line(3, "d", quick_config()), third.sink());
  EXPECT_EQ(error_code_of(parse(third.wait())), "overloaded");

  // The queued ones still complete normally.
  EXPECT_TRUE(response_status(parse(first.wait())).is_ok());
  EXPECT_TRUE(response_status(parse(second.wait())).is_ok());

  EXPECT_EQ(global_counter(server, "rejected_overload"), 1u);
}

TEST(Server, DeadlineExpiresMidRun) {
  ServerConfig cfg;
  Server server(cfg);
  ASSERT_TRUE(server.preload("d", planted_design()).is_ok());
  const JsonValue response =
      parse(server.handle_line(run_line(1, "d", slow_config(), 5)));
  EXPECT_EQ(error_code_of(response), "deadline_exceeded");
}

TEST(Server, DeadlineExpiresWhileQueued) {
  ServerConfig cfg;
  cfg.workers = 1;
  Server server(cfg);
  ASSERT_TRUE(server.preload("d", planted_design()).is_ok());

  // #1 (no deadline) holds the only worker; #2 waits behind it past its
  // 1 ms deadline, then #1 is cancelled to free the worker.
  Capture running, queued;
  server.submit(run_line(1, "d", slow_config()), running.sink());
  server.submit(run_line(2, "d", quick_config(), 1), queued.sink());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  (void)server.handle_line(R"({"id":3,"op":"cancel","target_id":1})");
  EXPECT_EQ(error_code_of(parse(running.wait())), "cancelled");

  const JsonValue expired = parse(queued.wait());
  EXPECT_EQ(error_code_of(expired), "deadline_exceeded");
  EXPECT_EQ(error_field(expired, "message"),
            "deadline expired before the run started");
  EXPECT_EQ(design_counter(server, "d", "deadline_exceeded"), 1u);
  EXPECT_EQ(design_counter(server, "d", "cancelled"), 1u);
}

TEST(Server, DefaultDeadlineApplies) {
  ServerConfig cfg;
  cfg.default_deadline_ms = 5;
  Server server(cfg);
  ASSERT_TRUE(server.preload("d", planted_design()).is_ok());
  const JsonValue response =
      parse(server.handle_line(run_line(1, "d", slow_config())));
  EXPECT_EQ(error_code_of(response), "deadline_exceeded");
}

TEST(Server, DeadlineBeyondTheClockMeansNone) {
  // The steady clock counts int64 nanoseconds; a deadline past its range
  // (~292 years) must not wrap into the past.  It means the same as none,
  // whether the request or the server's default sets it.
  const BookshelfDesign design = planted_design();
  const FinderConfig cfg = quick_config();
  Finder direct(design.netlist, cfg);
  const std::string expected =
      deterministic_result_json(direct.run()).dump();

  constexpr std::uint64_t kBeyond[] = {
      std::numeric_limits<std::uint64_t>::max(), 10'000'000'000'000};
  Server server(ServerConfig{});
  ASSERT_TRUE(server.preload("d", planted_design()).is_ok());
  std::uint64_t id = 1;
  for (const std::uint64_t deadline_ms : kBeyond) {
    const JsonValue response =
        parse(server.handle_line(run_line(id++, "d", cfg, deadline_ms)));
    ASSERT_TRUE(response_status(response).is_ok()) << deadline_ms;
    EXPECT_EQ(response.find("result")->dump(), expected) << deadline_ms;
  }

  for (const std::uint64_t deadline_ms : kBeyond) {
    ServerConfig scfg;
    scfg.default_deadline_ms = deadline_ms;
    Server defaulted(scfg);
    ASSERT_TRUE(defaulted.preload("d", planted_design()).is_ok());
    const JsonValue response =
        parse(defaulted.handle_line(run_line(1, "d", cfg)));
    ASSERT_TRUE(response_status(response).is_ok()) << deadline_ms;
    EXPECT_EQ(response.find("result")->dump(), expected) << deadline_ms;
  }
}

TEST(Server, CancelStopsInFlightRun) {
  ServerConfig cfg;
  Server server(cfg);
  ASSERT_TRUE(server.preload("d", planted_design()).is_ok());

  Capture run;
  server.submit(run_line(42, "d", slow_config()), run.sink());
  // The cancel op is inline, so it can land while 42 runs.
  const JsonValue cancel = parse(
      server.handle_line(R"({"id":43,"op":"cancel","target_id":42})"));
  ASSERT_TRUE(response_status(cancel).is_ok());
  EXPECT_EQ(error_code_of(parse(run.wait())), "cancelled");
}

TEST(Server, CancelUnknownTargetIsNotFound) {
  ServerConfig cfg;
  Server server(cfg);
  const JsonValue response = parse(
      server.handle_line(R"({"id":1,"op":"cancel","target_id":999})"));
  EXPECT_EQ(error_code_of(response), "not_found");
}

TEST(Server, DuplicateInFlightIdRejected) {
  ServerConfig cfg;
  Server server(cfg);
  ASSERT_TRUE(server.preload("d", planted_design()).is_ok());

  Capture first, dup;
  server.submit(run_line(7, "d", slow_config()), first.sink());
  server.submit(run_line(7, "d", quick_config()), dup.sink());
  EXPECT_EQ(error_code_of(parse(dup.wait())), "invalid_request");
  // Kill the long run so the test exits quickly.
  (void)server.handle_line(R"({"id":8,"op":"cancel","target_id":7})");
  (void)first.wait();
}

TEST(Server, StopDrainsQueueWithCancelled) {
  ServerConfig cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 8;
  Server server(cfg);
  ASSERT_TRUE(server.preload("d", planted_design()).is_ok());

  Capture running, queued;
  server.submit(run_line(1, "d", slow_config()), running.sink());
  server.submit(run_line(2, "d", quick_config()), queued.sink());
  server.stop();
  // The in-flight run was cancelled, the queued one drained.
  EXPECT_EQ(error_code_of(parse(running.wait())), "cancelled");
  EXPECT_EQ(error_code_of(parse(queued.wait())), "cancelled");

  // Post-stop submissions are refused, not lost.
  Capture late;
  server.submit(run_line(3, "d", quick_config()), late.sink());
  EXPECT_EQ(error_code_of(parse(late.wait())), "cancelled");
}

TEST(Server, SocketRoundTripWithClient) {
  const std::filesystem::path socket_path =
      std::filesystem::temp_directory_path() / "gtl_server_test.sock";
  std::filesystem::remove(socket_path);

  ServerConfig cfg;
  cfg.socket_path = socket_path;
  Server server(cfg);
  ASSERT_TRUE(server.preload("d", planted_design()).is_ok());

  std::atomic<bool> stop{false};
  Status serve_status = Status::ok();
  std::thread serving(
      [&] { serve_status = server.serve(stop); });

  Client client;
  ASSERT_TRUE(connect_with_retry(socket_path, &client).is_ok());

  JsonValue status;
  ASSERT_TRUE(client.status(&status).is_ok());
  EXPECT_EQ(status.find("designs")->array().size(), 1u);

  const FinderConfig qcfg = quick_config();
  FinderResult over_wire;
  JsonValue raw;
  ASSERT_TRUE(client.run_finder("d", &qcfg, 0, &over_wire, &raw).is_ok());

  const BookshelfDesign design = planted_design();
  Finder direct(design.netlist, qcfg);
  EXPECT_EQ(raw.dump(), deterministic_result_json(direct.run()).dump());
  EXPECT_EQ(over_wire.total_seconds, 0.0);

  // Wire errors surface as Status values.
  FinderResult ignored;
  const Status miss = client.run_finder("ghost", &qcfg, 0, &ignored);
  EXPECT_EQ(miss.code(), StatusCode::kNotFound);

  JsonValue stats;
  ASSERT_TRUE(client.stats(&stats).is_ok());
  std::uint64_t ok_count = 0;
  ASSERT_TRUE(stats.find("global")
                  ->find("completed_ok")
                  ->get_uint64(&ok_count)
                  .is_ok());
  EXPECT_GE(ok_count, 2u);

  stop.store(true);
  serving.join();
  EXPECT_TRUE(serve_status.is_ok()) << serve_status.to_string();
  EXPECT_FALSE(std::filesystem::exists(socket_path));
}

TEST(Server, RetryBudgetBeyondTheClockStillRetries) {
  // A run_finder deadline also bounds the client's retry loop.  One past
  // the steady clock's range must not wrap into the past and end the
  // loop after the first shed: every attempt reaches the server.
  const std::filesystem::path socket_path =
      std::filesystem::temp_directory_path() / "gtl_server_retry_budget.sock";
  std::filesystem::remove(socket_path);

  ServerConfig cfg;
  cfg.socket_path = socket_path;
  cfg.workers = 1;
  cfg.queue_capacity = 1;
  cfg.retry_after_ms = 1;
  Server server(cfg);
  ASSERT_TRUE(server.preload("d", planted_design()).is_ok());

  // #1 holds the only worker and #2 fills the queue, so every run_finder
  // from the client is shed with "overloaded".
  Capture running, queued;
  server.submit(run_line(1, "d", slow_config()), running.sink());
  wait_for_empty_queue(server);
  server.submit(run_line(2, "d", slow_config()), queued.sink());

  std::atomic<bool> stop{false};
  Status serve_status = Status::ok();
  std::thread serving([&] { serve_status = server.serve(stop); });

  Client client;
  ASSERT_TRUE(connect_with_retry(socket_path, &client).is_ok());
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.base_backoff_ms = 1;
  policy.max_backoff_ms = 2;
  client.set_retry_policy(policy);

  const FinderConfig qcfg = quick_config();
  FinderResult ignored;
  const Status shed = client.run_finder(
      "d", &qcfg, std::numeric_limits<std::uint64_t>::max(), &ignored);
  EXPECT_EQ(shed.code(), StatusCode::kUnavailable) << shed.to_string();
  EXPECT_EQ(global_counter(server, "rejected_overload"), 3u);

  (void)server.handle_line(R"({"id":3,"op":"cancel","target_id":2})");
  (void)server.handle_line(R"({"id":4,"op":"cancel","target_id":1})");
  EXPECT_EQ(error_code_of(parse(running.wait())), "cancelled");
  EXPECT_EQ(error_code_of(parse(queued.wait())), "cancelled");

  stop.store(true);
  serving.join();
  EXPECT_TRUE(serve_status.is_ok()) << serve_status.to_string();
}

TEST(Server, ClientsDoNotShareRequestIds) {
  const std::filesystem::path socket_path =
      std::filesystem::temp_directory_path() / "gtl_server_client_ids.sock";
  std::filesystem::remove(socket_path);

  ServerConfig cfg;
  cfg.socket_path = socket_path;
  cfg.workers = 2;
  Server server(cfg);
  ASSERT_TRUE(server.preload("d", planted_design()).is_ok());
  std::atomic<bool> stop{false};
  std::thread serving([&] { (void)server.serve(stop); });

  Client a, b, c;
  ASSERT_TRUE(connect_with_retry(socket_path, &a).is_ok());
  ASSERT_TRUE(connect_with_retry(socket_path, &b).is_ok());
  ASSERT_TRUE(connect_with_retry(socket_path, &c).is_ok());

  // A's slow run is in flight under the id A is about to stamp.
  const std::uint64_t a_id = a.next_id();
  Status a_status = Status::ok();
  std::thread a_run([&] {
    const FinderConfig slow = slow_config();
    FinderResult ignored;
    a_status = a.run_finder("d", &slow, 0, &ignored);
  });
  std::uint64_t in_flight = 0;
  for (int i = 0; i < 2000 && in_flight != 1; ++i) {
    JsonValue status;
    EXPECT_TRUE(c.status(&status).is_ok());
    EXPECT_TRUE(status.find("in_flight")->get_uint64(&in_flight).is_ok());
    if (in_flight != 1) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  EXPECT_EQ(in_flight, 1u);

  // B's first run_finder must not collide with A's in-flight id.
  const FinderConfig quick = quick_config();
  FinderResult b_result;
  const Status b_status = b.run_finder("d", &quick, 0, &b_result);
  EXPECT_TRUE(b_status.is_ok()) << b_status.to_string();

  // A third client still names A's run by A's id.
  bool delivered = false;
  EXPECT_TRUE(c.cancel(a_id, &delivered).is_ok());
  EXPECT_TRUE(delivered);
  a_run.join();
  EXPECT_EQ(a_status.code(), StatusCode::kCancelled) << a_status.to_string();

  stop.store(true);
  serving.join();
}

TEST(Server, ListeningCallbackMeansAFirstConnectSucceeds) {
  const std::filesystem::path socket_path =
      std::filesystem::temp_directory_path() / "gtl_server_listening.sock";
  std::filesystem::remove(socket_path);

  ServerConfig cfg;
  cfg.socket_path = socket_path;
  Server server(cfg);
  std::atomic<bool> stop{false};
  std::promise<void> listening;
  std::future<void> listening_seen = listening.get_future();
  Status serve_status = Status::ok();
  std::thread serving([&] {
    serve_status = server.serve(stop, [&] { listening.set_value(); });
  });

  const bool fired = listening_seen.wait_for(std::chrono::seconds(30)) ==
                     std::future_status::ready;
  EXPECT_TRUE(fired);
  if (fired) {
    // One attempt, no retry: the callback promises the socket is bound.
    Client client;
    const Status connected = Client::connect(socket_path, &client);
    EXPECT_TRUE(connected.is_ok()) << connected.to_string();
    JsonValue status;
    if (connected.is_ok()) {
      EXPECT_TRUE(client.status(&status).is_ok());
    }
  }

  stop.store(true);
  serving.join();
  EXPECT_TRUE(serve_status.is_ok()) << serve_status.to_string();
}

TEST(Server, BindFailureNeverFiresListeningCallback) {
  const std::filesystem::path missing_dir =
      std::filesystem::temp_directory_path() / "gtl_server_no_such_dir";
  std::filesystem::remove_all(missing_dir);

  ServerConfig cfg;
  cfg.socket_path = missing_dir / "gtl.sock";
  Server server(cfg);
  std::atomic<bool> stop{false};
  bool fired = false;
  const Status st = server.serve(stop, [&] { fired = true; });
  EXPECT_FALSE(st.is_ok());
  EXPECT_FALSE(fired);
  EXPECT_FALSE(std::filesystem::exists(missing_dir));
}

/// Lines of /proc/self/maps, one per mapping; 0 when it cannot be read.
std::size_t mapping_count() {
  std::ifstream maps("/proc/self/maps");
  std::size_t lines = 0;
  for (std::string line; std::getline(maps, line);) ++lines;
  return lines;
}

TEST(Server, ClosedConnectionsReleaseTheirReaderThreads) {
  // Every connection gets a reader thread.  A reader left unjoined after
  // its peer closes keeps its stack and guard page mapped, two lines of
  // /proc/self/maps, so a daemon that served connections one after
  // another would grow by ~128 lines over the 64 here.
  const std::size_t at_start = mapping_count();
  if (at_start == 0) GTEST_SKIP() << "/proc/self/maps is not readable";

  const std::filesystem::path socket_path =
      std::filesystem::temp_directory_path() / "gtl_server_readers.sock";
  std::filesystem::remove(socket_path);
  ServerConfig cfg;
  cfg.socket_path = socket_path;
  cfg.workers = 1;
  Server server(cfg);
  std::atomic<bool> stop{false};
  Status serve_status = Status::ok();
  std::thread serving([&] { serve_status = server.serve(stop); });

  const auto one_status_call = [&socket_path] {
    Client client;
    ASSERT_TRUE(connect_with_retry(socket_path, &client).is_ok());
    JsonValue status;
    ASSERT_TRUE(client.status(&status).is_ok());
  };
  // The first call maps what every later reader reuses (a cached stack).
  one_status_call();
  const std::size_t before = mapping_count();
  for (int i = 0; i < 64; ++i) one_status_call();

  // The accept loop joins finished readers at least every 100 ms.
  constexpr std::size_t kSlack = 16;
  std::size_t after = mapping_count();
  for (int i = 0; i < 100 && after > before + kSlack; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    after = mapping_count();
  }
  EXPECT_LE(after, before + kSlack)
      << "mappings grew from " << before << " to " << after
      << " over 64 closed connections";

  stop.store(true);
  serving.join();
  EXPECT_TRUE(serve_status.is_ok()) << serve_status.to_string();
}

TEST(Server, LoadDesignOverWireFromSnapshot) {
  const std::filesystem::path dir = std::filesystem::temp_directory_path();
  const std::filesystem::path snap = dir / "gtl_server_load_test.snap";
  const std::filesystem::path socket_path = dir / "gtl_server_load_test.sock";
  std::filesystem::remove(snap);
  std::filesystem::remove(socket_path);
  ASSERT_TRUE(try_write_snapshot(planted_design(), snap).is_ok());

  ServerConfig cfg;
  cfg.socket_path = socket_path;
  Server server(cfg);
  std::atomic<bool> stop{false};
  std::thread serving([&] { (void)server.serve(stop); });

  Client client;
  ASSERT_TRUE(connect_with_retry(socket_path, &client).is_ok());
  JsonValue result;
  ASSERT_TRUE(client.load_design("snapped", "", snap, &result).is_ok());
  bool hit = false;
  ASSERT_TRUE(result.find("snapshot_hit")->get_bool(&hit).is_ok());
  EXPECT_TRUE(hit);

  // Re-loading the same name from the same sources is idempotent: a
  // client that lost the first reply can safely resend.
  JsonValue dup_result;
  ASSERT_TRUE(client.load_design("snapped", "", snap, &dup_result).is_ok());
  bool idempotent = false;
  ASSERT_NE(dup_result.find("idempotent"), nullptr);
  ASSERT_TRUE(dup_result.find("idempotent")->get_bool(&idempotent).is_ok());
  EXPECT_TRUE(idempotent);

  // The same name from *different* sources is still already_loaded.
  const Status dup =
      client.load_design("snapped", "elsewhere.aux", "");
  EXPECT_EQ(dup.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(dup.message().find("already_loaded"), std::string::npos);

  const FinderConfig qcfg = quick_config();
  FinderResult result_run;
  EXPECT_TRUE(client.run_finder("snapped", &qcfg, 0, &result_run).is_ok());

  stop.store(true);
  serving.join();
  std::filesystem::remove(snap);
}

TEST(Server, FilePreloadDropsEvictedDesignsFromManifestAndCountsLoad) {
  // gtl_serve --preload-* loads through Server::preload: a design the
  // preload evicts must leave the manifest (a restart would otherwise
  // re-load it only to evict it again), and stats must count the load.
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "gtl_server_preload_test";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  write_bookshelf(planted_design(11), dir, "a");
  write_bookshelf(planted_design(12), dir, "b");

  ServerConfig cfg;
  cfg.manifest_path = dir / "manifest.json";
  // Every design is over a 1-byte cap, so the registry holds one at a
  // time and each load evicts the design before it.
  cfg.max_resident_bytes = 1;
  Server server(cfg);

  JsonValue::Object load;
  load.emplace("id", JsonValue(std::uint64_t{1}));
  load.emplace("op", JsonValue("load_design"));
  load.emplace("design", JsonValue("A"));
  load.emplace("aux", JsonValue((dir / "a.aux").string()));
  const JsonValue loaded =
      parse(server.handle_line(JsonValue(std::move(load)).dump()));
  ASSERT_EQ(loaded.find("error"), nullptr) << loaded.dump();
  Manifest manifest;
  ASSERT_TRUE(read_manifest(cfg.manifest_path, &manifest).is_ok());
  ASSERT_EQ(manifest.count("A"), 1u);

  DesignRegistry::LoadInfo info;
  ASSERT_TRUE(server.preload("B", dir / "b.aux", "", &info).is_ok());
  EXPECT_EQ(info.evicted, std::vector<std::string>{"A"});

  ASSERT_TRUE(read_manifest(cfg.manifest_path, &manifest).is_ok());
  EXPECT_EQ(manifest.count("A"), 0u);
  EXPECT_EQ(manifest.count("B"), 0u);
  EXPECT_EQ(global_counter(server, "designs_loaded"), 2u);
  EXPECT_EQ(global_counter(server, "designs_evicted"), 1u);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace gtl::serve
