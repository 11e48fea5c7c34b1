#pragma once
// Synchronous client for a gtl_serve server: one call = one request
// line, one response line.  NOT thread-safe and strictly one request in
// flight — callers wanting concurrency open one Client per thread, which
// also keeps the response-matching trivial: the next line on the stream
// answers the last request, and the echoed id is verified anyway.  Because of the
// one-owner contract the class carries no gtl::Mutex and sits outside
// the capability layer (util/sync.hpp) on purpose — adding a lock here
// would only hide misuse the contract forbids.
//
// The server keys in-flight runs by id across all connections, so
// clients do not all count from 1: each Client starts at its own base
// (see next_id()), distinct from every other Client in the process and
// unlikely to repeat in another process.
//
// Every method maps a wire error onto the closest Status (see
// protocol.hpp response_status): "overloaded" -> kUnavailable,
// "deadline_exceeded"/"cancelled" -> kCancelled, and so on, with the
// server's message preserved.

#include <cstdint>
#include <filesystem>
#include <string>

#include "finder/finder.hpp"
#include "serve/protocol.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/socket.hpp"
#include "util/status.hpp"

namespace gtl::serve {

/// Client-side retry behavior (see Client::set_retry_policy).  Retries
/// use capped exponential backoff with seeded jitter: attempt k waits a
/// uniform draw from [b/2, b] where b = min(max_backoff_ms,
/// base_backoff_ms * 2^k), floored by the server's retry_after_ms hint
/// when one arrived.  The whole retry loop stays within a budget — the
/// caller's deadline_ms for run_finder, else `budget_ms`.
struct RetryPolicy {
  /// Total attempts including the first; 1 = no retries (the default —
  /// existing single-shot semantics are preserved until a caller opts
  /// in).
  std::size_t max_attempts = 1;
  std::uint64_t base_backoff_ms = 50;
  std::uint64_t max_backoff_ms = 2000;
  /// Retry budget for ops without their own deadline.
  std::uint64_t budget_ms = 10000;
  /// Seed for the jitter stream (deterministic tests).
  std::uint64_t seed = 0x9E3779B97F4A7C15ULL;
};

class Client {
 public:
  Client() = default;
  Client(Client&&) noexcept = default;
  Client& operator=(Client&&) noexcept = default;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Connect to the server socket at `path`.  The path is remembered
  /// for reconnects.
  [[nodiscard]] static Status connect(const std::filesystem::path& path,
                                      Client* out);

  [[nodiscard]] bool connected() const { return stream_.valid(); }

  /// Opt into retries: transport failures (dead/restarted server —
  /// reconnect first) and "overloaded" sheds are retried with backoff,
  /// but ONLY for idempotent ops: load_design (idempotent on the
  /// server), run_finder (deterministic), cancel, status, stats.
  /// unload_design never retries — after a lost reply a retry could
  /// observe its own success as not_found.
  void set_retry_policy(const RetryPolicy& policy);
  [[nodiscard]] const RetryPolicy& retry_policy() const { return retry_; }

  /// Drop the current connection and dial the remembered path again.
  /// Pending state on the old stream is discarded.
  [[nodiscard]] Status reconnect();

  /// load_design.  `aux`/`snapshot` may each be empty (not both).
  /// `result` (optional) receives the response's result block.
  [[nodiscard]] Status load_design(const std::string& name,
                                   const std::filesystem::path& aux,
                                   const std::filesystem::path& snapshot,
                                   JsonValue* result = nullptr);

  [[nodiscard]] Status unload_design(const std::string& name);

  /// run_finder.  `config` nullptr runs server defaults; `deadline_ms` 0
  /// uses the server default.  On success `*out` holds the decoded
  /// FinderResult (timing fields zeroed per the determinism contract) and
  /// `raw_result` (optional) the verbatim result block.
  [[nodiscard]] Status run_finder(const std::string& design,
                                  const FinderConfig* config,
                                  std::uint64_t deadline_ms, FinderResult* out,
                                  JsonValue* raw_result = nullptr);

  /// Cancel the in-flight run_finder with id `target_id`.  `delivered`
  /// (optional): whether this cancel decided the run's fate (false when
  /// a deadline or earlier cancel won the race).
  [[nodiscard]] Status cancel(std::uint64_t target_id,
                              bool* delivered = nullptr);

  [[nodiscard]] Status status(JsonValue* result);
  [[nodiscard]] Status stats(JsonValue* result);

  /// The id that will be stamped on the next request — what a concurrent
  /// controller needs to cancel() a run issued by this client.  Ids stay
  /// below 2^53, so every JSON reader holds them exactly.
  [[nodiscard]] std::uint64_t next_id() const { return next_id_; }

  /// Low-level escape hatch: send `fields` as the body of an `op`
  /// request (id/op stamped in) and return the whole response object.
  /// The returned Status reflects the wire error, if any; `*response` is
  /// filled whenever a well-formed response arrived, error or not.
  [[nodiscard]] Status call(Op op, JsonValue::Object fields,
                            JsonValue* response);

 private:
  /// call() wrapped in the retry policy.  `idempotent` gates any retry;
  /// `budget_ms` 0 uses the policy budget.
  [[nodiscard]] Status call_retrying(Op op, const JsonValue::Object& fields,
                                     JsonValue* response, bool idempotent,
                                     std::uint64_t budget_ms);
  /// A fresh client's first id: its own block of 2^24 ids, at a
  /// per-process offset drawn from the pid and the clock.
  [[nodiscard]] static std::uint64_t first_request_id();

  UnixStream stream_;
  std::filesystem::path path_;
  std::uint64_t next_id_ = first_request_id();
  RetryPolicy retry_;
  Rng rng_{retry_.seed};
};

}  // namespace gtl::serve
