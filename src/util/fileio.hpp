#pragma once
// File reads for the I/O layer.  The streaming loaders (the Bookshelf
// scanner, the snapshot reader) pull a file front to back through a
// FileReader into their own chunk buffer or straight into the arrays they
// build, so a load holds no whole-file copy beside its result;
// read_file_to_string slurps a small file parsed as a whole (manifests,
// failpoint schedules) in one gulp.

#include <cstdint>
#include <filesystem>
#include <string>

#include "util/status.hpp"

namespace gtl {

/// A file opened for one front-to-back pass.
///
/// Failpoints, evaluated once per open: "fileio.read.open" (fail =
/// injected open failure) and "fileio.read" (fail = the first read fails
/// midway; short_io = the file ends after `param` bytes, a torn read that
/// size() also reports; delay = sleep `param` ms before the first byte).
class FileReader {
 public:
  FileReader() = default;
  ~FileReader();
  FileReader(const FileReader&) = delete;
  FileReader& operator=(const FileReader&) = delete;

  /// kNotFound when the file cannot be opened.
  [[nodiscard]] Status open(const std::filesystem::path& path);

  /// The file's size when it was opened (0 for size-less special files).
  [[nodiscard]] std::uint64_t size() const { return size_; }

  /// Read up to `n` bytes into `dst`; `*got` is 0 only at end of file.
  /// kParseError when a read fails.
  [[nodiscard]] Status read_some(void* dst, std::size_t n, std::size_t* got);

  /// Fill all `n` bytes of `dst`; `*got` < n only at end of file.
  [[nodiscard]] Status read_full(void* dst, std::size_t n, std::size_t* got);

 private:
  int fd_ = -1;
  std::filesystem::path path_;
  std::uint64_t size_ = 0;
  /// Bytes the reader may still hand out (a torn-read failpoint caps it).
  std::uint64_t budget_ = UINT64_MAX;
  bool fail_next_ = false;
};

/// Read the entire file at `path` into `*out` (replacing its contents).
/// Binary-exact: no newline translation.  Returns kNotFound when the
/// file cannot be opened, kParseError when a read fails midway; the
/// FileReader failpoints apply.
[[nodiscard]] Status read_file_to_string(const std::filesystem::path& path,
                                         std::string* out);

}  // namespace gtl
