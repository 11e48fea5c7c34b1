#pragma once
// Output checks.  Every result the benchmark sees is checked three ways:
//   * each reported GTL's cut and pin total is recomputed from scratch
//     with GroupConnectivity (the independent oracle), and the GTLs must
//     be sorted, in range and pairwise disjoint;
//   * a sample of gtl_serve replies must equal, byte for byte, a direct
//     single-threaded Finder::run() of the same (design, config);
//   * a digest of the deterministic result bytes of a fixed subset of
//     operations is recorded per (workload, seed, seconds, scale) and
//     compared on every later run with the same key.

#include <cstdint>
#include <string>
#include <string_view>

#include "gtl/finder.hpp"
#include "metrics/group_connectivity.hpp"

namespace perfbench {

/// Recompute every GTL of `r` against `group`'s netlist; returns what
/// is wrong, or an empty string.
[[nodiscard]] std::string check_gtls(const gtl::FinderResult& r,
                                     gtl::GroupConnectivity& group);

/// The deterministic bytes of a result: to_json with the wall-clock
/// fields zeroed (the "result" block of a run_finder reply).
[[nodiscard]] std::string deterministic_bytes(const gtl::FinderResult& r);

/// Test hook: the same JSON with the first GTL's cut off by one (cut in
/// half when there is no GTL).
[[nodiscard]] std::string tamper_result_json(const std::string& json);

/// FNV-1a 64 over (id, bytes) records.
class Digest {
 public:
  void add(std::uint64_t id, std::string_view bytes);
  [[nodiscard]] std::string hex() const;
  [[nodiscard]] std::size_t items() const { return items_; }

 private:
  void mix(std::string_view bytes);
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
  std::size_t items_ = 0;
};

/// Compare `hex` with the digest an earlier run recorded under `key` in
/// `dir`; record it when there is none yet.  Returns the mismatch, or an
/// empty string.
[[nodiscard]] std::string check_recorded_digest(const std::string& dir,
                                                const std::string& key,
                                                const std::string& hex);

}  // namespace perfbench
