#include "netlist/bookshelf.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "util/fileio.hpp"
#include "util/strings.hpp"

namespace gtl {
namespace {

// ---------------------------------------------------------------------------
// Zero-copy scanning layer.
//
// Tokens are string_views into the scanned bytes, numbers go through
// std::from_chars, and the per-line token vector is reused, so
// steady-state parsing allocates only for the name bytes the Netlist
// itself packs and owns.  Every file streams through one kChunkBytes
// buffer (grown only for a longer line), so no copy of a whole file sits
// beside the netlist it builds, and .nodes adds each name straight to
// the NetlistBuilder, whose packed table is the only copy of the names.
// The line-of-tokens shape deliberately mirrors the seed parser's
// getline+istringstream structure so its accepted dialect is preserved
// exactly (pinned by the BookshelfGolden digests in
// tests/netlist/bookshelf_scale_test.cpp):
//   * tokens are split on whitespace;
//   * a token *starting* with '#' comments out the rest of the line
//     (but "foo#bar" is one ordinary token);
//   * lines whose first token is "UCLA" (the format header) are skipped.
// ---------------------------------------------------------------------------

/// Read size of the scanner; below glibc's default mmap threshold, so the
/// buffer is reused heap rather than a fresh mapping per file.
constexpr std::size_t kChunkBytes = std::size_t{64} << 10;

constexpr bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\n' || c == '\v' ||
         c == '\f';
}

/// "bookshelf: <file>:<line>: <what>" — the error-reporting contract.
Status parse_fail(const std::filesystem::path& file, std::size_t line,
                  const std::string& what) {
  return Status::parse_error("bookshelf: " + file.string() + ":" +
                             std::to_string(line) + ": " + what);
}

/// Keep the open-vs-mid-read distinction the file reader encodes.
Status read_fail(const std::filesystem::path& path, const Status& st) {
  if (st.code() == StatusCode::kNotFound) {
    return Status::parse_error("bookshelf: cannot open " + path.string());
  }
  return Status::parse_error("bookshelf: " + st.message());
}

class Scanner {
 public:
  /// Scan `file` as it is read, kChunkBytes at a time (call open()
  /// first): token views are valid until the next next_line().
  explicit Scanner(const std::filesystem::path& file) : file_(file) {}

  [[nodiscard]] Status open() {
    if (const Status st = in_.open(file_); !st.is_ok()) {
      return read_fail(file_, st);
    }
    file_bytes_ = in_.size();
    return Status::ok();
  }

  /// Advance to the next line with content; false at EOF or when a read
  /// fails (io_status() then says why).
  bool next_line() {
    for (;;) {
      std::size_t eol = data_.find('\n', pos_);
      if (eol == std::string_view::npos) {
        if (!eof_) {
          if (!refill()) return false;
          continue;
        }
        if (pos_ >= data_.size()) return false;
        eol = data_.size();
      }
      ++lineno_;
      const std::string_view line = data_.substr(pos_, eol - pos_);
      pos_ = eol + 1;  // past the newline (or one past the end: EOF)
      toks_.clear();
      std::size_t i = 0;
      while (i < line.size()) {
        while (i < line.size() && is_space(line[i])) ++i;
        if (i >= line.size() || line[i] == '#') break;
        const std::size_t start = i;
        while (i < line.size() && !is_space(line[i])) ++i;
        toks_.push_back(line.substr(start, i - start));
      }
      if (toks_.empty()) continue;
      if (toks_[0] == "UCLA") continue;  // format header
      return true;
    }
  }

  /// Ok unless a read failed, which also ends next_line().
  [[nodiscard]] const Status& io_status() const { return io_; }
  [[nodiscard]] const std::vector<std::string_view>& tokens() const {
    return toks_;
  }
  [[nodiscard]] std::size_t lineno() const { return lineno_; }
  /// The file's size, the cap for reservations sized from declared counts.
  [[nodiscard]] std::uint64_t file_bytes() const { return file_bytes_; }

  [[nodiscard]] Status fail(const std::string& what) const {
    return parse_fail(file_, lineno_, what);
  }

 private:
  /// Move the unfinished line to the front of the chunk and read behind
  /// it, doubling the chunk when that line already fills it.
  bool refill() {
    const std::size_t keep = data_.size() - pos_;
    if (chunk_.empty()) {
      chunk_.resize(kChunkBytes);
    } else if (keep == chunk_.size()) {
      chunk_.resize(2 * chunk_.size());
    }
    if (keep != 0 && pos_ != 0) {
      std::memmove(chunk_.data(), chunk_.data() + pos_, keep);
    }
    std::size_t got = 0;
    if (const Status st =
            in_.read_some(chunk_.data() + keep, chunk_.size() - keep, &got);
        !st.is_ok()) {
      io_ = read_fail(file_, st);
      return false;
    }
    eof_ = got == 0;
    data_ = std::string_view(chunk_.data(), keep + got);
    pos_ = 0;
    return true;
  }

  const std::filesystem::path& file_;
  std::string_view data_;  // the bytes in hand; scanning resumes at pos_
  std::size_t pos_ = 0;
  bool eof_ = false;
  std::uint64_t file_bytes_ = 0;
  FileReader in_;
  std::string chunk_;
  Status io_;
  std::size_t lineno_ = 0;
  std::vector<std::string_view> toks_;
};

/// A leading '+' is consumed for stod/stoull parity (std::from_chars
/// rejects it; real emitters write "+0.5" pin offsets), but "+-1" and a
/// bare "+" stay malformed, as they were for the seed parser.
std::string_view strip_plus(std::string_view t) {
  if (t.size() >= 2 && t.front() == '+' && t[1] != '-' && t[1] != '+') {
    t.remove_prefix(1);
  }
  return t;
}

/// Strict finite double: the whole token must parse (no trailing junk,
/// no inf/nan — a width of "3abc" or "inf" is malformed input, not 3).
bool parse_double_token(std::string_view t, double* out) {
  t = strip_plus(t);
  const auto [ptr, ec] = std::from_chars(t.data(), t.data() + t.size(), *out);
  return ec == std::errc{} && ptr == t.data() + t.size() && std::isfinite(*out);
}

/// Strict non-negative count; whole token must parse.
bool parse_count_token(std::string_view t, std::uint64_t* out) {
  t = strip_plus(t);
  const auto [ptr, ec] = std::from_chars(t.data(), t.data() + t.size(), *out);
  return ec == std::errc{} && ptr == t.data() + t.size();
}

Status expect_double(const Scanner& s, std::string_view t, double* out) {
  if (!parse_double_token(t, out)) {
    return s.fail("expected number, got '" + std::string(t) + "'");
  }
  return Status::ok();
}

Status expect_count(const Scanner& s, std::string_view t,
                    std::uint64_t* out) {
  if (!parse_count_token(t, out)) {
    return s.fail("expected count, got '" + std::string(t) + "'");
  }
  return Status::ok();
}

/// Parse a "NumFoo : <count>" declaration line (the ':' is optional, as
/// in the seed parser which took the line's last token).
Status parse_decl_count(const Scanner& s, std::uint64_t* out) {
  const auto& toks = s.tokens();
  std::size_t vi = 1;
  if (vi < toks.size() && toks[vi] == ":") ++vi;
  if (vi + 1 != toks.size()) {
    return s.fail("malformed '" + std::string(toks[0]) +
                  "' declaration (expected '" + std::string(toks[0]) +
                  " : <count>')");
  }
  return expect_count(s, toks[vi], out);
}

/// Word-at-a-time multiply–xorshift hash of a node name.
std::uint64_t hash_name(std::string_view name) {
  constexpr std::uint64_t kMul = 0x9E37'79B9'7F4A'7C15ull;
  std::uint64_t h = name.size() * kMul;
  const char* p = name.data();
  std::size_t n = name.size();
  for (; n >= 8; p += 8, n -= 8) {
    std::uint64_t w = 0;
    std::memcpy(&w, p, 8);
    h = (h ^ w) * kMul;
    h ^= h >> 29;
  }
  if (n != 0) {
    std::uint64_t w = 0;
    std::memcpy(&w, p, n);
    h = (h ^ w) * kMul;
  }
  h ^= h >> 32;
  h *= 0xD6E8'FEB8'6659'FD93ull;
  return h ^ (h >> 32);
}

/// Node name -> CellId over the names the NetlistBuilder holds.  Open
/// addressing with linear probing over power-of-two slots, kept at most
/// 3/4 full (a probe run mostly stays in one cache line of four slots):
/// the table is sized from the declared NumNodes and doubles when a
/// missing or understated count lets it fill.  A slot holds id + 1 (0 =
/// empty), the name's first 8 bytes and a tag of hash bits plus the
/// length (saturated at 15), so a name of up to 8 bytes is matched inside
/// the slot and a longer one reads the builder's copy only when head and
/// tag both match.
class NodeIndex {
 public:
  explicit NodeIndex(const NetlistBuilder& nb) : nb_(nb) {}

  /// Room for `n` names without growing.
  void reserve(std::size_t n) {
    if (4 * n > 3 * slots_.size()) rehash(n);
  }

  /// Index `name` under `id`, the id the builder's next add_cell assigns;
  /// false (nothing changes) when an equal name is already indexed.
  bool insert(CellId id, std::string_view name) {
    if (4 * (size_ + 1) > 3 * slots_.size()) rehash(slots_.size());
    const Key k = key_of(name);
    for (std::size_t i = k.hash & mask_;; i = (i + 1) & mask_) {
      Slot& s = slots_[i];
      if (s.id_plus_one == 0) {
        s = {k.head, id + 1, k.tag};
        ++size_;
        return true;
      }
      if (matches(s, k, name)) return false;
    }
  }

  /// The id of `name`, or kInvalidCell.
  [[nodiscard]] CellId find(std::string_view name) const {
    if (size_ == 0) return kInvalidCell;
    const Key k = key_of(name);
    for (std::size_t i = k.hash & mask_;; i = (i + 1) & mask_) {
      const Slot& s = slots_[i];
      if (s.id_plus_one == 0) return kInvalidCell;
      if (matches(s, k, name)) return s.id_plus_one - 1;
    }
  }

 private:
  struct Slot {
    std::uint64_t head = 0;
    std::uint32_t id_plus_one = 0;
    std::uint32_t tag = 0;
  };
  struct Key {
    std::uint64_t hash;
    std::uint64_t head;
    std::uint32_t tag;
  };

  static Key key_of(std::string_view name) {
    Key k{hash_name(name), 0, 0};
    std::memcpy(&k.head, name.data(), std::min<std::size_t>(8, name.size()));
    k.tag = (static_cast<std::uint32_t>(k.hash >> 32) & ~0xFu) |
            static_cast<std::uint32_t>(std::min<std::size_t>(name.size(), 15));
    return k;
  }
  bool matches(const Slot& s, const Key& k, std::string_view name) const {
    return s.tag == k.tag && s.head == k.head &&
           (name.size() <= 8 || nb_.cell_name(s.id_plus_one - 1) == name);
  }

  /// Grow to the smallest power of two (>= 16) that holds `names` names
  /// at most 3/4 full, and re-place every entry.
  void rehash(std::size_t names) {
    std::size_t cap = 16;
    while (3 * cap < 4 * names) cap *= 2;
    std::vector<Slot> old(cap);
    old.swap(slots_);
    mask_ = cap - 1;
    for (const Slot& s : old) {
      if (s.id_plus_one == 0) continue;
      std::size_t i = hash_name(nb_.cell_name(s.id_plus_one - 1)) & mask_;
      while (slots_[i].id_plus_one != 0) i = (i + 1) & mask_;
      slots_[i] = s;
    }
  }

  const NetlistBuilder& nb_;
  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

/// Add every node of `path` to `nb` and index its name.
Status parse_nodes(const std::filesystem::path& path, NetlistBuilder* nb,
                   NodeIndex* index) {
  Scanner s(path);
  GTL_RETURN_IF_ERROR(s.open());
  std::uint64_t declared_nodes = 0, declared_terminals = 0;
  std::size_t declared_nodes_line = 0, declared_terminals_line = 0;
  std::size_t terminals = 0;
  while (s.next_line()) {
    const auto& toks = s.tokens();
    if (toks[0] == "NumNodes") {
      GTL_RETURN_IF_ERROR(parse_decl_count(s, &declared_nodes));
      declared_nodes_line = s.lineno();
      if (declared_nodes >= kInvalidCell) {
        return s.fail("NumNodes " + std::to_string(declared_nodes) +
                      " exceeds the 32-bit cell-id limit");
      }
      // Cap the reservation by what the file could possibly hold (a node
      // line is >= 6 bytes), so a lying count cannot force a huge
      // allocation before the mismatch check fires.
      const auto n = static_cast<std::size_t>(
          std::min<std::uint64_t>(declared_nodes, s.file_bytes() / 6 + 1));
      nb->reserve(n, 0, 0);
      index->reserve(n);
      continue;
    }
    if (toks[0] == "NumTerminals") {
      GTL_RETURN_IF_ERROR(parse_decl_count(s, &declared_terminals));
      declared_terminals_line = s.lineno();
      continue;
    }
    // "<name> <width> <height> [terminal|terminal_NI]" — terminal_NI is
    // the ISPD-2006 fixed-but-overlappable flavor; both mark the cell
    // fixed (matching the /FIXED_NI handling in .pl).
    if (toks.size() < 3) return s.fail("node line needs name w h");
    if (toks.size() > 4) {
      return s.fail("unexpected token '" + std::string(toks[4]) +
                    "' after node");
    }
    if (toks.size() == 4 && toks[3] != "terminal" &&
        toks[3] != "terminal_NI") {
      return s.fail("unexpected token '" + std::string(toks[3]) +
                    "' after node (only 'terminal'/'terminal_NI' is "
                    "allowed)");
    }
    if (nb->num_cells() >= kInvalidCell - 1) {
      return s.fail("too many nodes (32-bit cell-id overflow)");
    }
    // Index the name before its dimensions parse, so a duplicate is
    // reported ahead of a bad number on the same line.
    if (!index->insert(static_cast<CellId>(nb->num_cells()), toks[0])) {
      return s.fail("duplicate node name '" + std::string(toks[0]) + "'");
    }
    double w = 0.0, h = 0.0;
    GTL_RETURN_IF_ERROR(expect_double(s, toks[1], &w));
    GTL_RETURN_IF_ERROR(expect_double(s, toks[2], &h));
    const bool terminal = toks.size() == 4;
    // Zero-sized pads appear in real benchmarks; clamp like the seed
    // parser did so the Netlist's positive-area invariant holds.
    nb->add_cell(toks[0], std::max(1e-9, w), std::max(1e-9, h), terminal);
    if (terminal) ++terminals;
  }
  GTL_RETURN_IF_ERROR(s.io_status());
  if (declared_nodes_line != 0 && declared_nodes != nb->num_cells()) {
    return parse_fail(path, declared_nodes_line,
                      "NumNodes declares " + std::to_string(declared_nodes) +
                          " nodes but the file defines " +
                          std::to_string(nb->num_cells()));
  }
  if (declared_terminals_line != 0 && declared_terminals != terminals) {
    return parse_fail(
        path, declared_terminals_line,
        "NumTerminals declares " + std::to_string(declared_terminals) +
            " terminals but the file defines " + std::to_string(terminals));
  }
  return Status::ok();
}

Status parse_nets(const std::filesystem::path& path, const NodeIndex& index,
                  NetlistBuilder* nb) {
  Scanner s(path);
  GTL_RETURN_IF_ERROR(s.open());
  const std::uint64_t file_bytes = s.file_bytes();
  std::uint64_t declared_nets = 0, declared_pins = 0;
  std::size_t declared_nets_line = 0, declared_pins_line = 0;
  std::vector<CellId> pins;
  bool net_open = false;
  std::uint64_t degree = 0;       // declared NetDegree of the open net
  std::string net_name;           // outlives its chunk; empty if unnamed
  std::size_t net_line = 0;       // line of the open net's declaration
  std::size_t nets_done = 0, pins_seen = 0;

  auto net_label = [&] {
    if (net_name.empty()) return numbered_name("#", nets_done);
    std::string label = "'";
    label += net_name;
    label += '\'';
    return label;
  };
  // A net is complete only when it has exactly its declared pin count;
  // the seed parser silently flushed short nets on the next NetDegree/EOF.
  auto close_net = [&]() -> Status {
    if (!net_open) return Status::ok();
    if (pins.size() != degree) {
      return parse_fail(path, net_line,
                        "net " + net_label() + ": NetDegree declares " +
                            std::to_string(degree) + " pins but " +
                            std::to_string(pins.size()) + " follow");
    }
    nb->add_net(pins, net_name);
    ++nets_done;
    pins.clear();
    net_open = false;
    return Status::ok();
  };

  while (s.next_line()) {
    const auto& toks = s.tokens();
    if (toks[0] == "NumNets") {
      GTL_RETURN_IF_ERROR(parse_decl_count(s, &declared_nets));
      declared_nets_line = s.lineno();
      // Reserve builder storage up front (file-size capped like the
      // NumNodes reservation; a NetDegree line is >= 12 bytes) so the
      // pin array does not grow by geometric realloc on the hot path.
      nb->reserve(0, static_cast<std::size_t>(std::min<std::uint64_t>(
                         declared_nets, file_bytes / 12 + 1)),
                  0);
      continue;
    }
    if (toks[0] == "NumPins") {
      GTL_RETURN_IF_ERROR(parse_decl_count(s, &declared_pins));
      declared_pins_line = s.lineno();
      nb->reserve(0, 0, static_cast<std::size_t>(std::min<std::uint64_t>(
                            declared_pins, file_bytes / 2 + 1)));
      continue;
    }
    if (toks[0] == "NetDegree") {
      GTL_RETURN_IF_ERROR(close_net());
      // "NetDegree : <d> [name]"
      if (toks.size() < 3 || toks[1] != ":" || toks.size() > 4) {
        return s.fail("malformed NetDegree (expected 'NetDegree : <d> "
                      "[name]')");
      }
      GTL_RETURN_IF_ERROR(expect_count(s, toks[2], &degree));
      if (degree == 0) {
        return s.fail("NetDegree declares an empty net");
      }
      net_name.assign(toks.size() == 4 ? toks[3] : std::string_view{});
      net_open = true;
      net_line = s.lineno();
      // Same lying-count guard as NumNodes: a pin line is >= 2 bytes.
      pins.reserve(static_cast<std::size_t>(
          std::min<std::uint64_t>(degree, file_bytes / 2 + 1)));
      continue;
    }
    // Pin line: "<cellname> [<I|O|B> [: x y]]"
    if (!net_open) return s.fail("pin line outside a net");
    if (pins.size() == degree) {
      return parse_fail(path, s.lineno(),
                        "net " + net_label() + ": pin '" +
                            std::string(toks[0]) +
                            "' exceeds the declared NetDegree " +
                            std::to_string(degree));
    }
    if (toks.size() > 2) {
      // Optional pin offset, as in the real benchmarks: ": <x> <y>".
      double off = 0.0;
      if (toks.size() != 5 || toks[2] != ":") {
        return s.fail("malformed pin line (expected '<cell> <dir> "
                      "[: x y]')");
      }
      GTL_RETURN_IF_ERROR(expect_double(s, toks[3], &off));
      GTL_RETURN_IF_ERROR(expect_double(s, toks[4], &off));
    }
    const CellId cell = index.find(toks[0]);
    if (cell == kInvalidCell) {
      return s.fail("pin references unknown node '" + std::string(toks[0]) +
                    "'");
    }
    pins.push_back(cell);
    ++pins_seen;
  }
  GTL_RETURN_IF_ERROR(s.io_status());
  GTL_RETURN_IF_ERROR(close_net());
  if (declared_nets_line != 0 && declared_nets != nets_done) {
    return parse_fail(path, declared_nets_line,
                      "NumNets declares " + std::to_string(declared_nets) +
                          " nets but the file defines " +
                          std::to_string(nets_done));
  }
  if (declared_pins_line != 0 && declared_pins != pins_seen) {
    return parse_fail(path, declared_pins_line,
                      "NumPins declares " + std::to_string(declared_pins) +
                          " pins but the file defines " +
                          std::to_string(pins_seen));
  }
  return Status::ok();
}

/// Parse .pl rows "<name> <x> <y> [: <orient> [/FIXED]]" into x/y and
/// merge /FIXED into the builder's fixed flags (the seed parser dropped
/// the suffix, so placement-fixed cells lost their fixed status unless
/// .nodes also said terminal).  A .nodes/.pl disagreement and rows naming
/// unknown nodes are surfaced as warnings, not errors.
Status parse_pl(const std::filesystem::path& path, const NodeIndex& index,
                NetlistBuilder* nb, std::vector<double>* x,
                std::vector<double>* y, std::vector<std::string>* warnings) {
  Scanner s(path);
  GTL_RETURN_IF_ERROR(s.open());
  x->assign(nb->num_cells(), 0.0);
  y->assign(nb->num_cells(), 0.0);
  // A .pl that belongs to a different design would otherwise emit one
  // warning per row; keep the first few and summarize the rest so a
  // 2M-row mismatch stays a diagnostic, not a memory balloon.
  constexpr std::size_t kMaxWarnings = 20;
  std::size_t suppressed = 0;
  auto warn = [&](std::string msg) {
    if (warnings->size() < kMaxWarnings) {
      warnings->push_back(std::move(msg));
    } else {
      ++suppressed;
    }
  };
  while (s.next_line()) {
    const auto& toks = s.tokens();
    if (toks.size() < 3) return s.fail("pl line needs name x y");
    // Unknown names first, before any strict validation: the seed parser
    // tolerated arbitrary extra rows (placer banners, rows for another
    // design), so they stay a warning, never a hard failure.
    const CellId cell = index.find(toks[0]);
    if (cell == kInvalidCell) {
      warn(path.string() + ":" + std::to_string(s.lineno()) +
           ": row for unknown node '" + std::string(toks[0]) + "' ignored");
      continue;
    }
    bool fixed = false;
    if (toks.size() > 3) {
      // ": [<orient>] [/FIXED]" — the fixedness suffix counts even when
      // the orientation is omitted ("x y : /FIXED"), so it can never be
      // silently consumed as an orientation.
      auto is_fixed_tok = [](std::string_view t) {
        return t == "/FIXED" || t == "/FIXED_NI";
      };
      const std::string_view last = toks.back();
      const bool has_flag = is_fixed_tok(last);
      const std::size_t body = toks.size() - (has_flag ? 1 : 0);
      // After "name x y :" at most one orientation token may remain.
      if (toks[3] != ":" || body > 5 ||
          (body == 5 && is_fixed_tok(toks[4]))) {
        return s.fail("malformed pl line (expected '<name> <x> <y> "
                      "[: <orient> [/FIXED]]')");
      }
      fixed = has_flag;
    }
    double px = 0.0, py = 0.0;
    GTL_RETURN_IF_ERROR(expect_double(s, toks[1], &px));
    GTL_RETURN_IF_ERROR(expect_double(s, toks[2], &py));
    (*x)[cell] = px;
    (*y)[cell] = py;
    if (fixed && !nb->is_fixed(cell)) {
      warn(path.string() + ":" + std::to_string(s.lineno()) + ": node '" +
           std::string(toks[0]) +
           "' is /FIXED in .pl but not terminal in .nodes; "
           "treating it as fixed");
      nb->set_fixed(cell);
    }
  }
  GTL_RETURN_IF_ERROR(s.io_status());
  if (suppressed != 0) {
    warnings->push_back(path.string() + ": " + std::to_string(suppressed) +
                        " more warning(s) suppressed");
  }
  return Status::ok();
}

/// Names for the unnamed cells whose default name o<c> a named cell
/// already owns: the first free o<c>_<k>, k = 1, 2, ...  Generated names
/// never clash with each other (o<c> has no '_', and o<c>_<k> spells out
/// its c), so only the given names need checking.  Empty, and no set is
/// built, unless some cell is unnamed among named ones.
std::unordered_map<CellId, std::string> renamed_unnamed_cells(
    const Netlist& nl) {
  std::unordered_map<CellId, std::string> renamed;
  if (!nl.has_names()) return renamed;
  std::vector<CellId> unnamed;
  for (CellId c = 0; c < nl.num_cells(); ++c) {
    if (nl.cell_name(c).empty()) unnamed.push_back(c);
  }
  if (unnamed.empty()) return renamed;
  std::unordered_set<std::string_view> given;
  given.reserve(nl.num_cells() - unnamed.size());
  for (CellId c = 0; c < nl.num_cells(); ++c) {
    if (!nl.cell_name(c).empty()) given.insert(nl.cell_name(c));
  }
  for (const CellId c : unnamed) {
    std::string name = numbered_name("o", c);
    if (!given.contains(name)) continue;
    const std::size_t stem = name.size();
    for (std::uint64_t k = 1; given.contains(name); ++k) {
      name.resize(stem);
      name += '_';
      name += std::to_string(k);
    }
    renamed.emplace(c, std::move(name));
  }
  return renamed;
}

}  // namespace

Status try_read_bookshelf_files(const std::filesystem::path& nodes_path,
                                const std::filesystem::path& nets_path,
                                const std::filesystem::path& pl_path,
                                BookshelfDesign* out) {
  out->x.clear();
  out->y.clear();
  out->warnings.clear();

  NetlistBuilder nb;
  NodeIndex index(nb);
  GTL_RETURN_IF_ERROR(parse_nodes(nodes_path, &nb, &index));
  if (!pl_path.empty() && std::filesystem::exists(pl_path)) {
    GTL_RETURN_IF_ERROR(
        parse_pl(pl_path, index, &nb, &out->x, &out->y, &out->warnings));
  }
  GTL_RETURN_IF_ERROR(parse_nets(nets_path, index, &nb));
  out->netlist = nb.build();
  return Status::ok();
}

Status try_read_bookshelf(const std::filesystem::path& aux,
                          BookshelfDesign* out) {
  Scanner s(aux);
  GTL_RETURN_IF_ERROR(s.open());
  std::filesystem::path nodes, nets, pl;
  const auto dir = aux.parent_path();
  while (s.next_line()) {
    for (const std::string_view t : s.tokens()) {
      if (t.size() > 6 && t.substr(t.size() - 6) == ".nodes") nodes = dir / t;
      if (t.size() > 5 && t.substr(t.size() - 5) == ".nets") nets = dir / t;
      if (t.size() > 3 && t.substr(t.size() - 3) == ".pl") pl = dir / t;
    }
  }
  GTL_RETURN_IF_ERROR(s.io_status());
  if (nodes.empty() || nets.empty()) {
    return Status::parse_error("bookshelf: " + aux.string() +
                               ": aux file does not name .nodes and .nets");
  }
  return try_read_bookshelf_files(nodes, nets, pl, out);
}

BookshelfDesign read_bookshelf_files(const std::filesystem::path& nodes_path,
                                     const std::filesystem::path& nets_path,
                                     const std::filesystem::path& pl_path) {
  BookshelfDesign d;
  if (const Status st =
          try_read_bookshelf_files(nodes_path, nets_path, pl_path, &d);
      !st.is_ok()) {
    throw std::runtime_error(st.message());
  }
  return d;
}

BookshelfDesign read_bookshelf(const std::filesystem::path& aux) {
  BookshelfDesign d;
  if (const Status st = try_read_bookshelf(aux, &d); !st.is_ok()) {
    throw std::runtime_error(st.message());
  }
  return d;
}

void write_bookshelf(const BookshelfDesign& design,
                     const std::filesystem::path& dir,
                     const std::string& stem) {
  namespace fs = std::filesystem;
  fs::create_directories(dir);
  const Netlist& nl = design.netlist;

  auto open = [&](const std::string& ext) {
    std::ofstream out(dir / (stem + ext));
    if (!out) {
      throw std::runtime_error("bookshelf: cannot write " +
                               (dir / (stem + ext)).string());
    }
    return out;
  };
  // Unnamed cells are written as o<c>, or as o<c>_<k> when a named cell
  // owns o<c>, so every written node name is unique.
  const std::unordered_map<CellId, std::string> renamed =
      renamed_unnamed_cells(nl);
  auto node_name = [&](CellId c) {
    if (!nl.cell_name(c).empty()) return std::string(nl.cell_name(c));
    if (const auto it = renamed.find(c); it != renamed.end()) {
      return it->second;
    }
    return numbered_name("o", c);
  };

  {
    auto out = open(".aux");
    out << "RowBasedPlacement : " << stem << ".nodes " << stem << ".nets "
        << stem << ".pl\n";
  }
  {
    auto out = open(".nodes");
    std::size_t terminals = 0;
    for (CellId c = 0; c < nl.num_cells(); ++c) {
      if (nl.is_fixed(c)) ++terminals;
    }
    out << "UCLA nodes 1.0\n";
    out << "NumNodes : " << nl.num_cells() << "\n";
    out << "NumTerminals : " << terminals << "\n";
    for (CellId c = 0; c < nl.num_cells(); ++c) {
      out << node_name(c) << ' ' << nl.cell_width(c) << ' '
          << nl.cell_height(c);
      if (nl.is_fixed(c)) out << " terminal";
      out << '\n';
    }
  }
  {
    auto out = open(".nets");
    out << "UCLA nets 1.0\n";
    out << "NumNets : " << nl.num_nets() << "\n";
    out << "NumPins : " << nl.num_pins() << "\n";
    for (NetId e = 0; e < nl.num_nets(); ++e) {
      out << "NetDegree : " << nl.net_size(e);
      if (!nl.net_name(e).empty()) out << ' ' << nl.net_name(e);
      out << '\n';
      for (const CellId c : nl.pins_of(e)) {
        out << '\t' << node_name(c) << " B\n";
      }
    }
  }
  if (!design.x.empty()) {
    auto out = open(".pl");
    out << "UCLA pl 1.0\n";
    for (CellId c = 0; c < nl.num_cells(); ++c) {
      out << node_name(c) << ' ' << design.x[c] << ' ' << design.y[c]
          << " : N";
      if (nl.is_fixed(c)) out << " /FIXED";
      out << '\n';
    }
  }
}

}  // namespace gtl
