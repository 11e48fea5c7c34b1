#include "serve/client.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

#include "finder/finder_json.hpp"
#include "util/timer.hpp"

namespace gtl::serve {
namespace {

/// Pull the result block out of an OK response.
Status result_block(const JsonValue& response, JsonValue* out) {
  const JsonValue* result = response.find("result");
  if (result == nullptr) {
    return Status::parse_error("ok response is missing \"result\"");
  }
  *out = *result;
  return Status::ok();
}

}  // namespace

std::uint64_t Client::first_request_id() {
  // Ids live below 2^53 in 2^29 blocks of 2^24: block n of this process
  // is (origin + n) mod 2^29, so no two Clients of one process share a
  // block until 2^29 of them have been made.
  constexpr int kBlockBits = 24;
  constexpr std::uint64_t kBlocks = std::uint64_t{1} << (53 - kBlockBits);
  static const std::uint64_t origin = [] {
    const auto now = static_cast<std::uint64_t>(
        std::chrono::steady_clock::now().time_since_epoch().count());
    return Rng(now ^ (static_cast<std::uint64_t>(::getpid()) << 32)).next();
  }();
  static std::atomic<std::uint64_t> clients{0};
  const std::uint64_t block =
      (origin + clients.fetch_add(1, std::memory_order_relaxed)) % kBlocks;
  return (block << kBlockBits) + 1;
}

Status Client::connect(const std::filesystem::path& path, Client* out) {
  out->path_ = path;
  return UnixStream::connect(path, &out->stream_);
}

Status Client::reconnect() {
  if (path_.empty()) {
    return Status::invalid_argument("client has no remembered socket path");
  }
  stream_.close();
  return UnixStream::connect(path_, &stream_);
}

void Client::set_retry_policy(const RetryPolicy& policy) {
  retry_ = policy;
  if (retry_.max_attempts == 0) retry_.max_attempts = 1;
  rng_.reseed(retry_.seed);
}

Status Client::call_retrying(Op op, const JsonValue::Object& fields,
                             JsonValue* response, bool idempotent,
                             std::uint64_t budget_ms) {
  using Clock = std::chrono::steady_clock;
  if (budget_ms == 0) budget_ms = retry_.budget_ms;
  const Clock::time_point give_up =
      saturating_deadline(Clock::now(), budget_ms);

  Status last = Status::ok();
  for (std::size_t attempt = 0;; ++attempt) {
    *response = JsonValue();
    last = call(op, fields, response);
    if (last.is_ok()) return last;

    // A filled response object means the server answered: that is a
    // wire-level error, retryable only when it says "overloaded".  An
    // unfilled one means the transport failed under us (dead server,
    // dropped connection) — retryable after a reconnect.
    const bool transport = !response->is_object();
    const bool overloaded =
        !transport && last.code() == StatusCode::kUnavailable;
    if (!idempotent || (!transport && !overloaded)) return last;
    if (attempt + 1 >= retry_.max_attempts) return last;

    std::uint64_t backoff = retry_.max_backoff_ms;
    if (attempt < 20) {
      backoff = std::min<std::uint64_t>(retry_.max_backoff_ms,
                                        retry_.base_backoff_ms << attempt);
    }
    // The server's shed hint is a floor, never a shortcut.
    backoff = std::max(backoff, response_retry_after_ms(*response));
    const std::uint64_t half = backoff / 2;
    const std::uint64_t wait =
        half + (backoff > half ? rng_.next_below(backoff - half + 1) : 0);
    if (saturating_deadline(Clock::now(), wait) >= give_up) {
      return last;  // the budget cannot fit another attempt
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(wait));
    if (transport) {
      if (const Status rc = reconnect(); !rc.is_ok()) {
        last = rc;  // server may still be restarting; keep trying
      }
    }
  }
}

Status Client::call(Op op, JsonValue::Object fields, JsonValue* response) {
  if (!stream_.valid()) {
    return Status::invalid_argument("client is not connected");
  }
  const std::uint64_t id = next_id_++;
  fields.emplace("id", JsonValue(id));
  fields.emplace("op", JsonValue(op_name(op)));
  GTL_RETURN_IF_ERROR(
      stream_.write_line(JsonValue(std::move(fields)).dump()));

  std::string line;
  bool eof = false;
  GTL_RETURN_IF_ERROR(stream_.read_line(&line, &eof));
  if (line.empty()) {
    return Status::unavailable("server closed the connection");
  }
  GTL_RETURN_IF_ERROR(JsonValue::parse(line, response));

  // The protocol is strictly request/response on this stream, but verify
  // the echo anyway — a mismatch means the framing is gone.
  if (const JsonValue* got = response->find("id");
      got != nullptr && !got->is_null()) {
    std::uint64_t got_id = 0;
    GTL_RETURN_IF_ERROR(got->get_uint64(&got_id));
    if (got_id != id) {
      return Status::parse_error("response id " + std::to_string(got_id) +
                                 " does not match request id " +
                                 std::to_string(id));
    }
  }
  return response_status(*response);
}

Status Client::load_design(const std::string& name,
                           const std::filesystem::path& aux,
                           const std::filesystem::path& snapshot,
                           JsonValue* result) {
  JsonValue::Object fields;
  fields.emplace("design", JsonValue(name));
  if (!aux.empty()) fields.emplace("aux", JsonValue(aux.string()));
  if (!snapshot.empty()) {
    fields.emplace("snapshot", JsonValue(snapshot.string()));
  }
  JsonValue response;
  // Retry-safe: the server's load_design is idempotent for a same-source
  // replay, so a lost reply costs nothing.
  GTL_RETURN_IF_ERROR(
      call_retrying(Op::kLoadDesign, fields, &response, true, 0));
  if (result != nullptr) {
    GTL_RETURN_IF_ERROR(result_block(response, result));
  }
  return Status::ok();
}

Status Client::unload_design(const std::string& name) {
  JsonValue::Object fields;
  fields.emplace("design", JsonValue(name));
  JsonValue response;
  // NEVER retried: a replayed unload whose first attempt succeeded (but
  // whose reply was lost) would observe its own success as not_found.
  return call(Op::kUnloadDesign, std::move(fields), &response);
}

Status Client::run_finder(const std::string& design,
                          const FinderConfig* config,
                          std::uint64_t deadline_ms, FinderResult* out,
                          JsonValue* raw_result) {
  JsonValue::Object fields;
  fields.emplace("design", JsonValue(design));
  if (config != nullptr) fields.emplace("config", to_json(*config));
  if (deadline_ms != 0) fields.emplace("deadline_ms", JsonValue(deadline_ms));
  JsonValue response;
  // Retry-safe: results are deterministic, so a duplicated run returns
  // the identical bytes.  The caller's deadline bounds the whole loop.
  GTL_RETURN_IF_ERROR(
      call_retrying(Op::kRunFinder, fields, &response, true, deadline_ms));
  JsonValue result;
  GTL_RETURN_IF_ERROR(result_block(response, &result));
  GTL_RETURN_IF_ERROR(finder_result_from_json(result, out));
  if (raw_result != nullptr) *raw_result = std::move(result);
  return Status::ok();
}

Status Client::cancel(std::uint64_t target_id, bool* delivered) {
  JsonValue::Object fields;
  fields.emplace("target_id", JsonValue(target_id));
  JsonValue response;
  // Retry-safe: cancelling an already-settled run answers not_found,
  // cancelling twice is a no-op.
  GTL_RETURN_IF_ERROR(call_retrying(Op::kCancel, fields, &response, true, 0));
  if (delivered != nullptr) {
    *delivered = false;
    JsonValue result;
    GTL_RETURN_IF_ERROR(result_block(response, &result));
    if (const JsonValue* d = result.find("delivered")) {
      GTL_RETURN_IF_ERROR(d->get_bool(delivered));
    }
  }
  return Status::ok();
}

Status Client::status(JsonValue* result) {
  JsonValue response;
  GTL_RETURN_IF_ERROR(
      call_retrying(Op::kStatus, JsonValue::Object{}, &response, true, 0));
  return result_block(response, result);
}

Status Client::stats(JsonValue* result) {
  JsonValue response;
  GTL_RETURN_IF_ERROR(
      call_retrying(Op::kStats, JsonValue::Object{}, &response, true, 0));
  return result_block(response, result);
}

}  // namespace gtl::serve
