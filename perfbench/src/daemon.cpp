#include "daemon.hpp"

#include <poll.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <chrono>
#include <fstream>
#include <thread>

extern char** environ;

namespace perfbench {

std::string Daemon::start(const std::string& bin,
                          const std::vector<std::string>& args) {
  int fds[2];
  if (pipe(fds) != 0) return "pipe failed";
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(bin.c_str()));
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  const int rc =
      posix_spawn(&pid_, bin.c_str(), &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  if (rc != 0) {
    close(fds[0]);
    pid_ = -1;
    return "cannot start " + bin;
  }
  stdout_fd_ = fds[0];

  // Wait for "gtl_serve listening on <path>".
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(120);
  std::string buf;
  while (buf.find("listening on") == std::string::npos ||
         buf.find('\n', buf.find("listening on")) == std::string::npos) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left.count() <= 0) return "gtl_serve did not start listening";
    pollfd p{stdout_fd_, POLLIN, 0};
    if (poll(&p, 1, static_cast<int>(left.count())) <= 0) continue;
    char chunk[512];
    const ssize_t n = read(stdout_fd_, chunk, sizeof chunk);
    if (n <= 0) return "gtl_serve exited before listening";
    buf.append(chunk, static_cast<std::size_t>(n));
  }
  return {};
}

std::string Daemon::stop() {
  if (pid_ < 0) return {};
  kill(pid_, SIGTERM);
  int status = 0;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  pid_t done = 0;
  while ((done = waitpid(pid_, &status, WNOHANG)) == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  std::string err;
  if (done == 0) {
    kill(pid_, SIGKILL);
    waitpid(pid_, &status, 0);
    err = "gtl_serve did not stop on SIGTERM";
  } else if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    err = "gtl_serve exited uncleanly";
  }
  pid_ = -1;
  close(stdout_fd_);
  stdout_fd_ = -1;
  return err;
}

double Daemon::peak_rss_mb() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kb = 0.0;
      in >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

gtl::Status connect_client(const std::string& socket_path,
                           gtl::serve::Client* out) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  for (;;) {
    const gtl::Status st = gtl::serve::Client::connect(socket_path, out);
    if (st.is_ok() || std::chrono::steady_clock::now() > deadline) return st;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

bool parse_reply(const std::string& line, Reply* out) {
  gtl::JsonValue v;
  return gtl::JsonValue::parse(line, &v).is_ok() && reply_from_json(v, out);
}

bool reply_from_json(const gtl::JsonValue& v, Reply* out) {
  if (!v.is_object()) return false;
  const gtl::JsonValue* id = v.find("id");
  const gtl::JsonValue* ok = v.find("ok");
  if (id == nullptr || ok == nullptr || !id->get_uint64(&out->id).is_ok() ||
      !ok->get_bool(&out->ok).is_ok()) {
    return false;
  }
  if (!out->ok) {
    const gtl::JsonValue* err = v.find("error");
    const gtl::JsonValue* code = err != nullptr && err->is_object() ? err->find("code") : nullptr;
    if (code == nullptr || !code->get_string(&out->error_code).is_ok()) {
      return false;
    }
    return true;
  }
  if (const gtl::JsonValue* server = v.find("server");
      server != nullptr && server->is_object()) {
    double q = 0.0;
    double r = 0.0;
    if (const gtl::JsonValue* f = server->find("queue_seconds")) (void)f->get_double(&q);
    if (const gtl::JsonValue* f = server->find("run_seconds")) (void)f->get_double(&r);
    out->queue_ms = q * 1e3;
    out->run_ms = r * 1e3;
  }
  if (const gtl::JsonValue* result = v.find("result")) out->result = *result;
  return true;
}

}  // namespace perfbench
