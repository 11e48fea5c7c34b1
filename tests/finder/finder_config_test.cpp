// FinderConfig::validate() rejection table (one case per out-of-range
// field, each error naming its field) and JSON round-tripping of configs
// and results for the service/CLI boundary.

#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "finder/finder.hpp"
#include "finder/finder_json.hpp"
#include "graphgen/planted_graph.hpp"
#include "util/rng.hpp"

namespace gtl {
namespace {

// ---------- validate() ----------

TEST(FinderConfigValidate, DefaultsAreValid) {
  EXPECT_TRUE(FinderConfig{}.validate().is_ok());
}

TEST(FinderConfigValidate, ZeroSeedsIsValid) {
  // Historical behavior: num_seeds == 0 runs to an empty result.
  FinderConfig cfg;
  cfg.num_seeds = 0;
  EXPECT_TRUE(cfg.validate().is_ok());
}

// ---------- Finder::create() ----------

TEST(FinderCreate, RejectsInvalidConfigWithoutThrowing) {
  PlantedGraphConfig gcfg;
  gcfg.num_cells = 200;
  Rng rng(3);
  const PlantedGraph graph = generate_planted_graph(gcfg, rng);

  FinderConfig bad;
  bad.max_ordering_length = 0;
  std::unique_ptr<Finder> session;
  const Status st = Finder::create(graph.netlist, bad, &session);
  ASSERT_FALSE(st.is_ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(session, nullptr);
}

TEST(FinderCreate, MatchesThrowingConstructor) {
  PlantedGraphConfig gcfg;
  gcfg.num_cells = 500;
  gcfg.gtls.push_back({60, 1});
  Rng rng(5);
  const PlantedGraph graph = generate_planted_graph(gcfg, rng);

  FinderConfig cfg;
  cfg.num_seeds = 6;
  cfg.max_ordering_length = 200;
  cfg.num_threads = 1;

  std::unique_ptr<Finder> session;
  ASSERT_TRUE(Finder::create(graph.netlist, cfg, &session).is_ok());
  ASSERT_NE(session, nullptr);
  Finder direct(graph.netlist, cfg);

  const FinderResult via_factory = session->run();
  const FinderResult via_ctor = direct.run();
  // Identical except for the wall-clock fields.
  JsonValue a = to_json(via_factory);
  JsonValue b = to_json(via_ctor);
  for (const char* key :
       {"phase1_2_seconds", "phase3_seconds", "total_seconds"}) {
    a.set(key, JsonValue(0.0));
    b.set(key, JsonValue(0.0));
  }
  EXPECT_EQ(a.dump(), b.dump());
}

struct RejectionCase {
  const char* name;       // must appear in the error message
  const char* bad_value;  // names the case
  void (*mutate)(FinderConfig&);
};

// Prints "<field>=<bad value>". gtest_discover_tests builds the ctest
// name from the printed parameter; gtest's default byte dump of this
// struct shows its two pointers, so under ASLR every build named the
// cases differently.
void PrintTo(const RejectionCase& c, std::ostream* os) {
  *os << c.name << '=' << c.bad_value;
}

class FinderConfigRejection
    : public ::testing::TestWithParam<RejectionCase> {};

TEST_P(FinderConfigRejection, RejectsWithFieldName) {
  FinderConfig cfg;
  GetParam().mutate(cfg);
  const Status st = cfg.validate();
  ASSERT_FALSE(st.is_ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find(GetParam().name), std::string::npos)
      << "message: " << st.message();
}

INSTANTIATE_TEST_SUITE_P(
    AllFields, FinderConfigRejection,
    ::testing::Values(
        RejectionCase{"num_seeds", "16777217",
                      [](FinderConfig& c) { c.num_seeds = (1u << 24) + 1; }},
        RejectionCase{"max_ordering_length", "0",
                      [](FinderConfig& c) { c.max_ordering_length = 0; }},
        RejectionCase{"max_ordering_length", "1",
                      [](FinderConfig& c) { c.max_ordering_length = 1; }},
        RejectionCase{"score", "7",
                      [](FinderConfig& c) {
                        c.score = static_cast<ScoreKind>(7);
                      }},
        RejectionCase{"refine_seeds", "65",
                      [](FinderConfig& c) { c.refine_seeds = 65; }},
        RejectionCase{"num_threads", "4097",
                      [](FinderConfig& c) { c.num_threads = 4097; }}));

// ---------- config JSON round trip ----------

FinderConfig non_default_config() {
  FinderConfig cfg;
  cfg.num_seeds = 321;
  cfg.max_ordering_length = 12'345;
  cfg.large_net_threshold = 0;
  cfg.score = ScoreKind::kNgtlS;
  cfg.refine_seeds = 5;
  cfg.num_threads = 3;
  cfg.rng_seed = 0xDEADBEEFDEADBEEFULL;  // > int64 max: uint64 must survive
  return cfg;
}

void expect_config_eq(const FinderConfig& a, const FinderConfig& b) {
  EXPECT_EQ(a.num_seeds, b.num_seeds);
  EXPECT_EQ(a.max_ordering_length, b.max_ordering_length);
  EXPECT_EQ(a.large_net_threshold, b.large_net_threshold);
  EXPECT_EQ(a.score, b.score);
  EXPECT_EQ(a.refine_seeds, b.refine_seeds);
  EXPECT_EQ(a.num_threads, b.num_threads);
  EXPECT_EQ(a.rng_seed, b.rng_seed);
}

TEST(FinderConfigJson, RoundTripsDefaults) {
  FinderConfig back;
  ASSERT_TRUE(
      parse_finder_config(to_json(FinderConfig{}).dump(), &back).is_ok());
  expect_config_eq(FinderConfig{}, back);
}

TEST(FinderConfigJson, RoundTripsEveryField) {
  const FinderConfig cfg = non_default_config();
  const std::string text = to_json(cfg).dump(2);
  FinderConfig back;
  ASSERT_TRUE(parse_finder_config(text, &back).is_ok()) << text;
  expect_config_eq(cfg, back);
  // Fixed point: serialize(parse(serialize(x))) == serialize(x).
  EXPECT_EQ(to_json(back).dump(2), text);
}

TEST(FinderConfigJson, PartialConfigKeepsDefaults) {
  FinderConfig cfg;
  ASSERT_TRUE(
      parse_finder_config(R"({"num_seeds": 7, "rng_seed": 99})", &cfg)
          .is_ok());
  EXPECT_EQ(cfg.num_seeds, 7u);
  EXPECT_EQ(cfg.rng_seed, 99u);
  expect_config_eq([] {
    FinderConfig expected;
    expected.num_seeds = 7;
    expected.rng_seed = 99;
    return expected;
  }(), cfg);
}

TEST(FinderConfigJson, RejectsUnknownKey) {
  // A typo, and keys that were removed: configs that still send the old
  // scheduling knob, clear-minimum thresholds, Rent floor, dedup switch
  // or min-cut-first ordering are rejected like any other unknown key.
  struct Case {
    const char* text;
    const char* key;  // must appear in the error message
  };
  for (const Case& c :
       {Case{R"({"num_seedz": 7})", "num_seedz"},
        Case{R"({"dynamic_scheduling": true})", "dynamic_scheduling"},
        Case{R"({"num_seeds": 7, "dynamic_scheduling": false})",
             "dynamic_scheduling"},
        Case{R"({"minimum": {"min_size": 30}})", "minimum"},
        Case{R"({"curve": {"rent_min_k": 10}})", "curve"},
        Case{R"({"dedup_candidates": true})", "dedup_candidates"},
        Case{R"({"min_cut_first": false})", "min_cut_first"}}) {
    FinderConfig cfg;
    const Status st = parse_finder_config(c.text, &cfg);
    ASSERT_FALSE(st.is_ok()) << c.text;
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << c.text;
    EXPECT_NE(st.message().find(c.key), std::string::npos) << st.message();
  }
}

TEST(FinderConfigJson, RejectsUnknownNestedKey) {
  // Configs have no nested objects left; a result's context does.
  FinderResult result;
  const Status st =
      parse_finder_result(R"({"context": {"rent_exp": 1}})", &result);
  ASSERT_FALSE(st.is_ok());
  EXPECT_NE(st.message().find("rent_exp"), std::string::npos);
}

TEST(FinderConfigJson, RejectsBadScoreName) {
  FinderConfig cfg;
  const Status st = parse_finder_config(R"({"score": "ratio_cut"})", &cfg);
  ASSERT_FALSE(st.is_ok());
  EXPECT_NE(st.message().find("ratio_cut"), std::string::npos);
}

TEST(FinderConfigJson, RejectsWrongType) {
  FinderConfig cfg;
  EXPECT_FALSE(parse_finder_config(R"({"num_seeds": "many"})", &cfg).is_ok());
  EXPECT_FALSE(parse_finder_config(R"({"num_seeds": -3})", &cfg).is_ok());
  EXPECT_FALSE(parse_finder_config(R"([1, 2])", &cfg).is_ok());
}

TEST(FinderConfigJson, RejectsMalformedText) {
  FinderConfig cfg;
  const Status st = parse_finder_config("{\"num_seeds\": ", &cfg);
  ASSERT_FALSE(st.is_ok());
  EXPECT_EQ(st.code(), StatusCode::kParseError);
}

TEST(FinderConfigJson, FailedParseLeavesOutputUntouched) {
  FinderConfig cfg = non_default_config();
  const FinderConfig before = cfg;
  ASSERT_FALSE(parse_finder_config(R"({"bogus": 1})", &cfg).is_ok());
  expect_config_eq(before, cfg);
}

// ---------- result JSON round trip ----------

TEST(FinderResultJson, RoundTripsRealResult) {
  PlantedGraphConfig gcfg;
  gcfg.num_cells = 2'000;
  gcfg.gtls.push_back({150, 1});
  Rng rng(5);
  const PlantedGraph pg = generate_planted_graph(gcfg, rng);
  FinderConfig fcfg;
  fcfg.num_seeds = 20;
  fcfg.max_ordering_length = 600;
  fcfg.num_threads = 1;
  Finder finder(pg.netlist, fcfg);
  const FinderResult& result = finder.run();
  ASSERT_FALSE(result.gtls.empty());

  const std::string text = to_json(result).dump();
  FinderResult back;
  ASSERT_TRUE(parse_finder_result(text, &back).is_ok());

  ASSERT_EQ(back.gtls.size(), result.gtls.size());
  for (std::size_t i = 0; i < result.gtls.size(); ++i) {
    EXPECT_EQ(back.gtls[i].cells, result.gtls[i].cells);
    EXPECT_EQ(back.gtls[i].cut, result.gtls[i].cut);
    EXPECT_EQ(back.gtls[i].seed, result.gtls[i].seed);
    // Doubles must survive bit-exactly (shortest round-trip formatting).
    EXPECT_EQ(back.gtls[i].avg_pins, result.gtls[i].avg_pins);
    EXPECT_EQ(back.gtls[i].ngtl_s, result.gtls[i].ngtl_s);
    EXPECT_EQ(back.gtls[i].gtl_sd, result.gtls[i].gtl_sd);
    EXPECT_EQ(back.gtls[i].score, result.gtls[i].score);
    EXPECT_EQ(back.gtls[i].rent_exponent_used,
              result.gtls[i].rent_exponent_used);
  }
  EXPECT_EQ(back.context.rent_exponent, result.context.rent_exponent);
  EXPECT_EQ(back.context.avg_pins_per_cell, result.context.avg_pins_per_cell);
  EXPECT_EQ(back.orderings_grown, result.orderings_grown);
  EXPECT_EQ(back.candidates_before_refine, result.candidates_before_refine);
  EXPECT_EQ(back.candidates_after_dedup, result.candidates_after_dedup);
  EXPECT_EQ(back.phase1_2_seconds, result.phase1_2_seconds);
  EXPECT_EQ(back.phase3_seconds, result.phase3_seconds);
  EXPECT_EQ(back.total_seconds, result.total_seconds);
  EXPECT_EQ(back.cancelled, result.cancelled);

  // Fixed point at the text level too.
  EXPECT_EQ(to_json(back).dump(), text);
}

TEST(FinderResultJson, RejectsUnknownKey) {
  FinderResult result;
  const Status st = parse_finder_result(R"({"gtlz": []})", &result);
  ASSERT_FALSE(st.is_ok());
  EXPECT_NE(st.message().find("gtlz"), std::string::npos);
}

}  // namespace
}  // namespace gtl
