#include "checks.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "gtl/serve_client.hpp"
#include "util/json.hpp"

namespace perfbench {

std::string check_gtls(const gtl::FinderResult& r,
                       gtl::GroupConnectivity& group) {
  const gtl::Netlist& nl = group.netlist();
  std::vector<std::uint8_t> taken(nl.num_cells(), 0);
  for (std::size_t g = 0; g < r.gtls.size(); ++g) {
    const gtl::Candidate& c = r.gtls[g];
    const std::string where = "gtl " + std::to_string(g) + ": ";
    if (c.cells.empty()) return where + "no cells";
    for (std::size_t i = 0; i < c.cells.size(); ++i) {
      const gtl::CellId cell = c.cells[i];
      if (cell >= nl.num_cells()) return where + "cell id out of range";
      if (i > 0 && c.cells[i - 1] >= cell) {
        return where + "cells not strictly sorted";
      }
      if (taken[cell] != 0) return where + "overlaps an earlier gtl";
      taken[cell] = 1;
    }
    group.assign(c.cells);
    if (group.cut() != c.cut) {
      return where + "cut " + std::to_string(c.cut) + " but recomputed " +
             std::to_string(group.cut());
    }
    if (group.avg_pins_per_cell() != c.avg_pins) {
      return where + "avg_pins does not match the recomputed pin total";
    }
  }
  group.clear();
  return {};
}

std::string deterministic_bytes(const gtl::FinderResult& r) {
  return gtl::serve::deterministic_result_json(r).dump();
}

std::string tamper_result_json(const std::string& json) {
  gtl::FinderResult r;
  if (!gtl::parse_finder_result(json, &r).is_ok() || r.gtls.empty()) {
    return json.substr(0, json.size() / 2);  // no GTL: truncate instead
  }
  r.gtls.front().cut += 1;
  return gtl::to_json(r).dump();
}

void Digest::mix(std::string_view bytes) {
  for (const char ch : bytes) {
    h_ ^= static_cast<unsigned char>(ch);
    h_ *= 0x100000001b3ULL;
  }
}

void Digest::add(std::uint64_t id, std::string_view bytes) {
  mix(std::to_string(id));
  mix("\n");
  mix(bytes);
  mix("\n");
  ++items_;
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

std::string check_recorded_digest(const std::string& dir,
                                  const std::string& key,
                                  const std::string& hex) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(dir, ec);
  const fs::path path = fs::path(dir) / (key + ".digest");
  if (std::ifstream in(path); in) {
    std::string recorded;
    in >> recorded;
    if (recorded != hex) {
      return "digest " + hex + " differs from " + recorded +
             " recorded for " + key;
    }
    return {};
  }
  std::ofstream out(path);
  out << hex << "\n";
  return {};
}

}  // namespace perfbench
