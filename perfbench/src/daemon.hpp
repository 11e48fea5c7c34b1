#pragma once
// A gtl_serve child process and connections to it.  The benchmark talks
// to the daemon only through its wire protocol: gtl::serve::Client for
// one request at a time, Conn for serve_mixed's pipelined traffic.

#include <sys/types.h>

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "gtl/serve_client.hpp"
#include "util/json.hpp"
#include "util/socket.hpp"

namespace perfbench {

/// Owns one gtl_serve process; the destructor stops it and waits.
class Daemon {
 public:
  Daemon() = default;
  ~Daemon() { (void)stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Spawn `bin args...` and block until it prints its listening line.
  /// Returns what went wrong, or an empty string.
  [[nodiscard]] std::string start(const std::string& bin,
                                  const std::vector<std::string>& args);
  /// SIGTERM, then wait for a clean exit (SIGKILL after 30 s).  Returns
  /// what went wrong, or an empty string; a no-op when not running.
  [[nodiscard]] std::string stop();
  /// Peak resident set (VmHWM) of the running daemon in MB.
  [[nodiscard]] double peak_rss_mb() const;

 private:
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
};

/// Connect a Client, retrying for a while: gtl_serve prints its
/// listening line just before it binds the socket.
[[nodiscard]] gtl::Status connect_client(const std::string& socket_path,
                                         gtl::serve::Client* out);

/// One pipelined connection.  Writes may come from any thread; reads
/// from one.
class Conn {
 public:
  [[nodiscard]] gtl::Status connect(const std::string& socket_path) {
    return gtl::UnixStream::connect(socket_path, &stream_);
  }
  [[nodiscard]] gtl::Status send(const std::string& line) {
    const std::lock_guard<std::mutex> lk(write_mu_);
    return stream_.write_line(line);
  }
  [[nodiscard]] gtl::Status read_line(std::string* line, bool* eof) {
    return stream_.read_line(line, eof, 64u << 20);
  }
  /// Unblocks a reader stuck in read_line (safe from another thread).
  void shutdown() { stream_.shutdown(); }

 private:
  gtl::UnixStream stream_;
  std::mutex write_mu_;
};

/// The parts of a reply line the benchmark uses.
struct Reply {
  std::uint64_t id = 0;
  bool ok = false;
  std::string error_code;
  double queue_ms = 0.0;
  double run_ms = 0.0;
  gtl::JsonValue result;
};

/// Read a whole reply object (as Client::call returns it); false when it
/// is not a well-formed reply.
[[nodiscard]] bool reply_from_json(const gtl::JsonValue& v, Reply* out);
/// The same for a reply line.
[[nodiscard]] bool parse_reply(const std::string& line, Reply* out);

}  // namespace perfbench
