#include "finder/finder_json.hpp"

#include <cstdint>
#include <limits>

namespace gtl {
namespace {

const char* score_kind_name(ScoreKind kind) {
  return kind == ScoreKind::kNgtlS ? "ngtl_s" : "gtl_sd";
}

Status score_kind_from_name(const std::string& name, ScoreKind* out) {
  if (name == "ngtl_s") {
    *out = ScoreKind::kNgtlS;
    return Status::ok();
  }
  if (name == "gtl_sd") {
    *out = ScoreKind::kGtlSd;
    return Status::ok();
  }
  return Status::invalid_argument("unknown score kind \"" + name +
                                  "\" (expected \"ngtl_s\" or \"gtl_sd\")");
}

/// Field-by-field reader over one JSON object that tracks which keys it
/// consumed, so leftovers can be reported as unknown.
class ObjectReader {
 public:
  explicit ObjectReader(const JsonValue& json, const char* what)
      : json_(&json), what_(what) {}

  [[nodiscard]] Status require_object() const {
    if (!json_->is_object()) {
      return Status::invalid_argument(std::string(what_) +
                                      " must be a JSON object");
    }
    return Status::ok();
  }

  [[nodiscard]] Status read_size(const char* key, std::size_t* out) {
    return read_with(key, [&](const JsonValue& v) -> Status {
      std::uint64_t u = 0;
      GTL_RETURN_IF_ERROR(v.get_uint64(&u));
      if (u > std::numeric_limits<std::size_t>::max()) {
        return Status::out_of_range("value exceeds size_t");
      }
      *out = static_cast<std::size_t>(u);
      return Status::ok();
    });
  }

  [[nodiscard]] Status read_u32(const char* key, std::uint32_t* out) {
    return read_with(key, [&](const JsonValue& v) -> Status {
      std::uint64_t u = 0;
      GTL_RETURN_IF_ERROR(v.get_uint64(&u));
      if (u > std::numeric_limits<std::uint32_t>::max()) {
        return Status::out_of_range("value exceeds uint32");
      }
      *out = static_cast<std::uint32_t>(u);
      return Status::ok();
    });
  }

  [[nodiscard]] Status read_u64(const char* key, std::uint64_t* out) {
    return read_with(key,
                     [&](const JsonValue& v) { return v.get_uint64(out); });
  }

  [[nodiscard]] Status read_i64(const char* key, std::int64_t* out) {
    return read_with(key,
                     [&](const JsonValue& v) { return v.get_int64(out); });
  }

  [[nodiscard]] Status read_double(const char* key, double* out) {
    return read_with(key,
                     [&](const JsonValue& v) { return v.get_double(out); });
  }

  [[nodiscard]] Status read_bool(const char* key, bool* out) {
    return read_with(key, [&](const JsonValue& v) { return v.get_bool(out); });
  }

  /// Run `fn` on the member if present (absent keys keep defaults).
  template <typename Fn>
  [[nodiscard]] Status read_with(const char* key, Fn fn) {
    const JsonValue* v = json_->find(key);
    consumed_.push_back(key);
    if (v == nullptr) return Status::ok();
    if (Status st = fn(*v); !st.is_ok()) {
      return Status::invalid_argument(std::string(what_) + "." + key + ": " +
                                      st.to_string());
    }
    return Status::ok();
  }

  /// Error out on any key this reader never consumed.
  [[nodiscard]] Status check_no_unknown_keys() const {
    for (const auto& [key, value] : json_->object()) {
      bool known = false;
      for (const char* k : consumed_) {
        if (key == k) {
          known = true;
          break;
        }
      }
      if (!known) {
        return Status::invalid_argument(std::string(what_) +
                                        ": unknown key \"" + key + "\"");
      }
    }
    return Status::ok();
  }

 private:
  const JsonValue* json_;
  const char* what_;
  std::vector<const char*> consumed_;
};

JsonValue cells_to_json(const std::vector<CellId>& cells) {
  JsonValue::Array arr;
  arr.reserve(cells.size());
  for (const CellId c : cells) arr.emplace_back(static_cast<std::uint64_t>(c));
  return JsonValue(std::move(arr));
}

Status cells_from_json(const JsonValue& v, std::vector<CellId>* out) {
  if (!v.is_array()) {
    return Status::invalid_argument("cells must be an array");
  }
  out->clear();
  out->reserve(v.array().size());
  for (const JsonValue& e : v.array()) {
    std::uint64_t u = 0;
    GTL_RETURN_IF_ERROR(e.get_uint64(&u));
    if (u > std::numeric_limits<CellId>::max()) {
      return Status::out_of_range("cell id exceeds CellId range");
    }
    out->push_back(static_cast<CellId>(u));
  }
  return Status::ok();
}

JsonValue candidate_to_json(const Candidate& c) {
  JsonValue::Object obj;
  obj.emplace("cells", cells_to_json(c.cells));
  obj.emplace("cut", JsonValue(c.cut));
  obj.emplace("avg_pins", JsonValue(c.avg_pins));
  obj.emplace("ngtl_s", JsonValue(c.ngtl_s));
  obj.emplace("gtl_sd", JsonValue(c.gtl_sd));
  obj.emplace("score", JsonValue(c.score));
  obj.emplace("seed", JsonValue(static_cast<std::uint64_t>(c.seed)));
  obj.emplace("rent_exponent_used", JsonValue(c.rent_exponent_used));
  return JsonValue(std::move(obj));
}

Status candidate_from_json(const JsonValue& json, Candidate* out) {
  ObjectReader r(json, "gtl");
  GTL_RETURN_IF_ERROR(r.require_object());
  GTL_RETURN_IF_ERROR(r.read_with("cells", [&](const JsonValue& v) {
    return cells_from_json(v, &out->cells);
  }));
  GTL_RETURN_IF_ERROR(r.read_i64("cut", &out->cut));
  GTL_RETURN_IF_ERROR(r.read_double("avg_pins", &out->avg_pins));
  GTL_RETURN_IF_ERROR(r.read_double("ngtl_s", &out->ngtl_s));
  GTL_RETURN_IF_ERROR(r.read_double("gtl_sd", &out->gtl_sd));
  GTL_RETURN_IF_ERROR(r.read_double("score", &out->score));
  std::uint64_t seed = kInvalidCell;
  GTL_RETURN_IF_ERROR(r.read_u64("seed", &seed));
  if (seed > std::numeric_limits<CellId>::max()) {
    return Status::out_of_range("gtl.seed exceeds CellId range");
  }
  out->seed = static_cast<CellId>(seed);
  GTL_RETURN_IF_ERROR(
      r.read_double("rent_exponent_used", &out->rent_exponent_used));
  return r.check_no_unknown_keys();
}

}  // namespace

JsonValue to_json(const FinderConfig& cfg) {
  JsonValue::Object obj;
  obj.emplace("num_seeds",
              JsonValue(static_cast<std::uint64_t>(cfg.num_seeds)));
  obj.emplace("max_ordering_length",
              JsonValue(static_cast<std::uint64_t>(cfg.max_ordering_length)));
  obj.emplace("large_net_threshold", JsonValue(cfg.large_net_threshold));
  obj.emplace("score", JsonValue(score_kind_name(cfg.score)));
  obj.emplace("refine_seeds",
              JsonValue(static_cast<std::uint64_t>(cfg.refine_seeds)));
  obj.emplace("num_threads",
              JsonValue(static_cast<std::uint64_t>(cfg.num_threads)));
  obj.emplace("rng_seed", JsonValue(cfg.rng_seed));
  return JsonValue(std::move(obj));
}

Status finder_config_from_json(const JsonValue& json, FinderConfig* out) {
  FinderConfig cfg;  // assemble into defaults, commit only on success
  ObjectReader r(json, "FinderConfig");
  GTL_RETURN_IF_ERROR(r.require_object());
  GTL_RETURN_IF_ERROR(r.read_size("num_seeds", &cfg.num_seeds));
  GTL_RETURN_IF_ERROR(
      r.read_size("max_ordering_length", &cfg.max_ordering_length));
  GTL_RETURN_IF_ERROR(
      r.read_u32("large_net_threshold", &cfg.large_net_threshold));
  GTL_RETURN_IF_ERROR(r.read_with("score", [&](const JsonValue& v) -> Status {
    std::string name;
    GTL_RETURN_IF_ERROR(v.get_string(&name));
    return score_kind_from_name(name, &cfg.score);
  }));
  GTL_RETURN_IF_ERROR(r.read_size("refine_seeds", &cfg.refine_seeds));
  GTL_RETURN_IF_ERROR(r.read_size("num_threads", &cfg.num_threads));
  GTL_RETURN_IF_ERROR(r.read_u64("rng_seed", &cfg.rng_seed));
  GTL_RETURN_IF_ERROR(r.check_no_unknown_keys());
  *out = cfg;
  return Status::ok();
}

Status parse_finder_config(std::string_view text, FinderConfig* out) {
  JsonValue json;
  GTL_RETURN_IF_ERROR(JsonValue::parse(text, &json));
  return finder_config_from_json(json, out);
}

JsonValue to_json(const FinderResult& result) {
  JsonValue::Array gtls;
  gtls.reserve(result.gtls.size());
  for (const Candidate& c : result.gtls) gtls.push_back(candidate_to_json(c));

  JsonValue::Object context;
  context.emplace("rent_exponent", JsonValue(result.context.rent_exponent));
  context.emplace("avg_pins_per_cell",
                  JsonValue(result.context.avg_pins_per_cell));

  JsonValue::Object obj;
  obj.emplace("gtls", JsonValue(std::move(gtls)));
  obj.emplace("context", JsonValue(std::move(context)));
  obj.emplace("orderings_grown",
              JsonValue(static_cast<std::uint64_t>(result.orderings_grown)));
  obj.emplace("candidates_before_refine",
              JsonValue(static_cast<std::uint64_t>(
                  result.candidates_before_refine)));
  obj.emplace("candidates_after_dedup",
              JsonValue(static_cast<std::uint64_t>(
                  result.candidates_after_dedup)));
  obj.emplace("phase1_2_seconds", JsonValue(result.phase1_2_seconds));
  obj.emplace("phase3_seconds", JsonValue(result.phase3_seconds));
  obj.emplace("total_seconds", JsonValue(result.total_seconds));
  obj.emplace("cancelled", JsonValue(result.cancelled));
  return JsonValue(std::move(obj));
}

Status finder_result_from_json(const JsonValue& json, FinderResult* out) {
  FinderResult result;
  ObjectReader r(json, "FinderResult");
  GTL_RETURN_IF_ERROR(r.require_object());
  GTL_RETURN_IF_ERROR(r.read_with("gtls", [&](const JsonValue& v) -> Status {
    if (!v.is_array()) {
      return Status::invalid_argument("FinderResult.gtls must be an array");
    }
    result.gtls.resize(v.array().size());
    for (std::size_t i = 0; i < v.array().size(); ++i) {
      GTL_RETURN_IF_ERROR(candidate_from_json(v.array()[i], &result.gtls[i]));
    }
    return Status::ok();
  }));
  GTL_RETURN_IF_ERROR(
      r.read_with("context", [&](const JsonValue& v) -> Status {
        ObjectReader cr(v, "FinderResult.context");
        GTL_RETURN_IF_ERROR(cr.require_object());
        GTL_RETURN_IF_ERROR(
            cr.read_double("rent_exponent", &result.context.rent_exponent));
        GTL_RETURN_IF_ERROR(cr.read_double("avg_pins_per_cell",
                                           &result.context.avg_pins_per_cell));
        return cr.check_no_unknown_keys();
      }));
  GTL_RETURN_IF_ERROR(
      r.read_size("orderings_grown", &result.orderings_grown));
  GTL_RETURN_IF_ERROR(r.read_size("candidates_before_refine",
                                  &result.candidates_before_refine));
  GTL_RETURN_IF_ERROR(r.read_size("candidates_after_dedup",
                                  &result.candidates_after_dedup));
  GTL_RETURN_IF_ERROR(
      r.read_double("phase1_2_seconds", &result.phase1_2_seconds));
  GTL_RETURN_IF_ERROR(r.read_double("phase3_seconds", &result.phase3_seconds));
  GTL_RETURN_IF_ERROR(r.read_double("total_seconds", &result.total_seconds));
  GTL_RETURN_IF_ERROR(r.read_bool("cancelled", &result.cancelled));
  GTL_RETURN_IF_ERROR(r.check_no_unknown_keys());
  *out = std::move(result);
  return Status::ok();
}

Status parse_finder_result(std::string_view text, FinderResult* out) {
  JsonValue json;
  GTL_RETURN_IF_ERROR(JsonValue::parse(text, &json));
  return finder_result_from_json(json, out);
}

}  // namespace gtl
