#include "util/fileio.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <thread>

#include "util/failpoint.hpp"

namespace gtl {

FileReader::~FileReader() {
  if (fd_ >= 0) ::close(fd_);
}

Status FileReader::open(const std::filesystem::path& path) {
  path_ = path;
  if (failpoint::Action fp;
      failpoint::check("fileio.read.open", &fp) &&
      fp.kind == failpoint::Action::Kind::kFail) {
    return Status::not_found("cannot open " + path.string() +
                             " (injected failpoint)");
  }
  do {
    fd_ = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  } while (fd_ < 0 && errno == EINTR);
  if (fd_ < 0) return Status::not_found("cannot open " + path.string());
  struct stat st {};
  if (::fstat(fd_, &st) == 0 && S_ISREG(st.st_mode)) {
    size_ = static_cast<std::uint64_t>(st.st_size);
  }
  if (failpoint::Action fp; failpoint::check("fileio.read", &fp)) {
    switch (fp.kind) {
      case failpoint::Action::Kind::kFail:
        fail_next_ = true;
        break;
      case failpoint::Action::Kind::kShortIo:
        // Torn read: the caller sees a clean-looking prefix of the file.
        budget_ = fp.param;
        size_ = std::min(size_, budget_);
        break;
      case failpoint::Action::Kind::kDelay:
        std::this_thread::sleep_for(std::chrono::milliseconds(fp.param));
        break;
      case failpoint::Action::Kind::kEintr:
        break;  // read_some already retries interrupted reads
    }
  }
  return Status::ok();
}

Status FileReader::read_some(void* dst, std::size_t n, std::size_t* got) {
  *got = 0;
  if (fail_next_) {
    return Status::parse_error("read failed for " + path_.string() +
                               " (injected failpoint)");
  }
  n = static_cast<std::size_t>(std::min<std::uint64_t>(n, budget_));
  if (n == 0) return Status::ok();
  ssize_t r = 0;
  do {
    r = ::read(fd_, dst, n);
  } while (r < 0 && errno == EINTR);
  if (r < 0) return Status::parse_error("read failed for " + path_.string());
  *got = static_cast<std::size_t>(r);
  budget_ -= *got;
  return Status::ok();
}

Status FileReader::read_full(void* dst, std::size_t n, std::size_t* got) {
  auto* p = static_cast<char*>(dst);
  *got = 0;
  while (*got < n) {
    std::size_t step = 0;
    GTL_RETURN_IF_ERROR(read_some(p + *got, n - *got, &step));
    if (step == 0) break;
    *got += step;
  }
  return Status::ok();
}

Status read_file_to_string(const std::filesystem::path& path,
                           std::string* out) {
  FileReader in;
  GTL_RETURN_IF_ERROR(in.open(path));
  out->resize(static_cast<std::size_t>(in.size()));
  std::size_t have = 0;
  GTL_RETURN_IF_ERROR(in.read_full(out->data(), out->size(), &have));
  out->resize(have);
  // Size-less special files, and writers racing the read: take what
  // follows the size seen at open.
  char tail[1 << 16];
  for (;;) {
    std::size_t got = 0;
    GTL_RETURN_IF_ERROR(in.read_some(tail, sizeof(tail), &got));
    if (got == 0) break;
    out->append(tail, got);
  }
  return Status::ok();
}

}  // namespace gtl
