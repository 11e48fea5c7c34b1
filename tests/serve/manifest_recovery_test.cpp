// Crash-safe manifest: file round trips and corruption rejection, the
// server's write-ahead discipline (record on load, forget on unload),
// and restart recovery — a recovered server must answer the same query
// with byte-identical results.

#include "serve/manifest.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "finder/finder_json.hpp"
#include "graphgen/planted_graph.hpp"
#include "netlist/bookshelf.hpp"
#include "netlist/netlist_io.hpp"
#include "serve/server.hpp"
#include "util/rng.hpp"

namespace gtl::serve {
namespace {

namespace fs = std::filesystem;

class ManifestRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("tanglefind_manifest_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    fs::create_directories(dir_);
    manifest_path_ = dir_ / "manifest.json";

    // A real on-disk design to load/recover from.
    PlantedGraphConfig cfg;
    cfg.num_cells = 400;
    cfg.gtls.push_back({60, 1});
    Rng rng(13);
    BookshelfDesign design;
    design.netlist = generate_planted_graph(cfg, rng).netlist;
    write_bookshelf(design, dir_, "d1");
    aux_path_ = dir_ / "d1.aux";
  }
  void TearDown() override { fs::remove_all(dir_); }

  ServerConfig server_config() const {
    ServerConfig cfg;
    cfg.workers = 1;
    cfg.manifest_path = manifest_path_;
    return cfg;
  }

  static JsonValue parse(const std::string& line) {
    JsonValue json;
    EXPECT_TRUE(JsonValue::parse(line, &json).is_ok()) << line;
    return json;
  }

  static std::string load_line(std::uint64_t id, const std::string& name,
                               const fs::path& aux,
                               const fs::path& snapshot = {}) {
    JsonValue::Object obj;
    obj.emplace("id", JsonValue(id));
    obj.emplace("op", JsonValue("load_design"));
    obj.emplace("design", JsonValue(name));
    if (!aux.empty()) obj.emplace("aux", JsonValue(aux.string()));
    if (!snapshot.empty()) {
      obj.emplace("snapshot", JsonValue(snapshot.string()));
    }
    return JsonValue(std::move(obj)).dump();
  }

  static std::string run_line(std::uint64_t id, const std::string& name) {
    FinderConfig cfg;
    cfg.num_seeds = 4;
    cfg.max_ordering_length = 200;
    cfg.num_threads = 1;
    JsonValue::Object obj;
    obj.emplace("id", JsonValue(id));
    obj.emplace("op", JsonValue("run_finder"));
    obj.emplace("design", JsonValue(name));
    obj.emplace("config", to_json(cfg));
    return JsonValue(std::move(obj)).dump();
  }

  /// Whether the server's `status` lists `name` as loaded.
  static bool has_design(Server& server, const std::string& name) {
    const JsonValue status =
        parse(server.handle_line(R"({"id": 99, "op": "status"})"));
    for (const JsonValue& d : status.find("result")->find("designs")->array()) {
      std::string got;
      if (d.find("name")->get_string(&got).is_ok() && got == name) {
        return true;
      }
    }
    return false;
  }

  /// A counter of the `stats` op's global block.
  static std::uint64_t global_stat(Server& server, const char* key) {
    const JsonValue stats =
        parse(server.handle_line(R"({"id": 98, "op": "stats"})"));
    const JsonValue* value = stats.find("result")->find("global")->find(key);
    std::uint64_t n = 0;
    EXPECT_TRUE(value != nullptr && value->get_uint64(&n).is_ok()) << key;
    return n;
  }

  /// The result block of an OK response, as a compact string.
  static std::string result_dump(const std::string& line) {
    const JsonValue json = parse(line);
    const JsonValue* result = json.find("result");
    EXPECT_NE(result, nullptr) << line;
    return result == nullptr ? std::string() : result->dump();
  }

  void spit(const fs::path& p, const std::string& text) {
    std::ofstream out(p, std::ios::trunc);
    out << text;
  }

  fs::path dir_;
  fs::path manifest_path_;
  fs::path aux_path_;
};

TEST_F(ManifestRecoveryTest, FileRoundTrip) {
  Manifest manifest;
  manifest["ibm01"] = {"/corpus/ibm01.aux", "/cache/ibm01.snap"};
  manifest["ibm02"] = {"/corpus/ibm02.aux", ""};
  ASSERT_TRUE(write_manifest_atomic(manifest, manifest_path_).is_ok());

  Manifest loaded;
  ASSERT_TRUE(read_manifest(manifest_path_, &loaded).is_ok());
  EXPECT_EQ(loaded, manifest);

  // Atomic replace: a rewrite fully supersedes the old contents.
  manifest.erase("ibm02");
  ASSERT_TRUE(write_manifest_atomic(manifest, manifest_path_).is_ok());
  ASSERT_TRUE(read_manifest(manifest_path_, &loaded).is_ok());
  EXPECT_EQ(loaded, manifest);
}

TEST_F(ManifestRecoveryTest, MissingFileIsNotFound) {
  Manifest loaded;
  EXPECT_EQ(read_manifest(dir_ / "nope.json", &loaded).code(),
            StatusCode::kNotFound);
}

TEST_F(ManifestRecoveryTest, CorruptManifestsRejected) {
  const char* bad[] = {
      "not json at all",
      "[]",                                               // not an object
      R"({"designs": {}})",                               // missing version
      R"({"version": 99, "designs": {}})",                // future version
      R"({"version": 1, "designs": []})",                 // designs not object
      R"({"version": 1, "designs": {}, "extra": 1})",     // unknown key
      R"({"version": 1, "designs": {"": {"aux": "a"}}})", // empty name
      R"({"version": 1, "designs": {"d": {}}})",          // no sources
      R"({"version": 1, "designs": {"d": {"aux": "a",
                                          "typo": "x"}}})",
  };
  for (const char* text : bad) {
    spit(manifest_path_, text);
    Manifest loaded;
    EXPECT_FALSE(read_manifest(manifest_path_, &loaded).is_ok())
        << "accepted: " << text;
  }
}

TEST_F(ManifestRecoveryTest, LoadRecordsAndUnloadForgets) {
  Server server(server_config());
  const std::string load_reply =
      server.handle_line(load_line(1, "d1", aux_path_));
  ASSERT_EQ(parse(load_reply).find("error"), nullptr) << load_reply;

  Manifest manifest;
  ASSERT_TRUE(read_manifest(manifest_path_, &manifest).is_ok());
  ASSERT_EQ(manifest.count("d1"), 1u);
  EXPECT_EQ(manifest["d1"].aux, aux_path_.string());
  EXPECT_TRUE(manifest["d1"].snapshot.empty());

  const std::string unload_reply = server.handle_line(
      R"({"id": 2, "op": "unload_design", "design": "d1"})");
  ASSERT_EQ(parse(unload_reply).find("error"), nullptr) << unload_reply;
  ASSERT_TRUE(read_manifest(manifest_path_, &manifest).is_ok());
  EXPECT_TRUE(manifest.empty());
}

TEST_F(ManifestRecoveryTest, RestartRecoversAndAnswersIdentically) {
  const fs::path snapshot = dir_ / "d1.snap";
  std::string before;
  {
    Server server(server_config());
    const std::string load_reply =
        server.handle_line(load_line(1, "d1", aux_path_, snapshot));
    ASSERT_EQ(parse(load_reply).find("error"), nullptr) << load_reply;
    before = result_dump(server.handle_line(run_line(2, "d1")));
  }  // "crash": the server goes away, the manifest and snapshot stay

  Server revived(server_config());
  Server::RecoveryReport report;
  ASSERT_TRUE(revived.recover_from_manifest(&report).is_ok());
  EXPECT_EQ(report.attempted, 1u);
  EXPECT_EQ(report.recovered, 1u);
  EXPECT_TRUE(report.notes.empty());
  ASSERT_TRUE(has_design(revived, "d1"));

  // The determinism contract survives the restart: byte-identical result.
  EXPECT_EQ(result_dump(revived.handle_line(run_line(3, "d1"))), before);

  // Recovery shows up in stats, and the snapshot cache was used.
  const JsonValue stats =
      parse(revived.handle_line(R"({"id": 4, "op": "stats"})"));
  const JsonValue* stats_result = stats.find("result");
  ASSERT_NE(stats_result, nullptr) << stats.dump();
  const JsonValue* global = stats_result->find("global");
  ASSERT_NE(global, nullptr);
  std::uint64_t recovered = 0, hits = 0;
  ASSERT_TRUE(
      global->find("designs_recovered")->get_uint64(&recovered).is_ok());
  ASSERT_TRUE(global->find("snapshot_hits")->get_uint64(&hits).is_ok());
  EXPECT_EQ(recovered, 1u);
  EXPECT_EQ(hits, 1u);

  // A same-source replay of the recovered design is idempotent.
  const JsonValue replay =
      parse(revived.handle_line(load_line(5, "d1", aux_path_, snapshot)));
  ASSERT_EQ(replay.find("error"), nullptr) << replay.dump();
  const JsonValue* replay_result = replay.find("result");
  ASSERT_NE(replay_result, nullptr);
  const JsonValue* idem = replay_result->find("idempotent");
  ASSERT_NE(idem, nullptr) << replay.dump();
  bool idempotent = false;
  ASSERT_TRUE(idem->get_bool(&idempotent).is_ok());
  EXPECT_TRUE(idempotent);
}

TEST_F(ManifestRecoveryTest, VanishedSourcesDroppedWithNote) {
  Manifest manifest;
  manifest["ghost"] = {(dir_ / "ghost.aux").string(), ""};
  manifest["d1"] = {aux_path_.string(), ""};
  ASSERT_TRUE(write_manifest_atomic(manifest, manifest_path_).is_ok());

  Server server(server_config());
  Server::RecoveryReport report;
  ASSERT_TRUE(server.recover_from_manifest(&report).is_ok());
  EXPECT_EQ(report.attempted, 2u);
  EXPECT_EQ(report.recovered, 1u);
  ASSERT_EQ(report.notes.size(), 1u);
  EXPECT_NE(report.notes[0].find("ghost"), std::string::npos);
  EXPECT_TRUE(has_design(server, "d1"));
  EXPECT_FALSE(has_design(server, "ghost"));

  // The rewritten manifest keeps only the survivors.
  Manifest rewritten;
  ASSERT_TRUE(read_manifest(manifest_path_, &rewritten).is_ok());
  EXPECT_EQ(rewritten.count("d1"), 1u);
  EXPECT_EQ(rewritten.count("ghost"), 0u);
}

TEST_F(ManifestRecoveryTest, CorruptManifestIsReportedNotFatal) {
  spit(manifest_path_, "{{{ definitely not a manifest");

  Server server(server_config());
  Server::RecoveryReport report;
  EXPECT_FALSE(server.recover_from_manifest(&report).is_ok());
  EXPECT_EQ(report.recovered, 0u);

  // The server is degraded (no recovery), not broken: the next load
  // succeeds and overwrites the corrupt file with a valid manifest.
  const std::string load_reply =
      server.handle_line(load_line(1, "d1", aux_path_));
  ASSERT_EQ(parse(load_reply).find("error"), nullptr) << load_reply;
  Manifest manifest;
  ASSERT_TRUE(read_manifest(manifest_path_, &manifest).is_ok());
  EXPECT_EQ(manifest.count("d1"), 1u);
}

TEST_F(ManifestRecoveryTest, NoManifestPathMeansNoManifest) {
  ServerConfig cfg;
  cfg.workers = 1;
  Server server(cfg);
  Server::RecoveryReport report;
  ASSERT_TRUE(server.recover_from_manifest(&report).is_ok());
  EXPECT_EQ(report.attempted, 0u);

  const std::string load_reply =
      server.handle_line(load_line(1, "d1", aux_path_));
  ASSERT_EQ(parse(load_reply).find("error"), nullptr) << load_reply;
  EXPECT_FALSE(fs::exists(manifest_path_));
}

TEST_F(ManifestRecoveryTest, PreloadedDesignsAreNotManifested) {
  Server server(server_config());
  PlantedGraphConfig cfg;
  cfg.num_cells = 120;
  cfg.gtls.push_back({30, 1});
  Rng rng(5);
  BookshelfDesign design;
  design.netlist = generate_planted_graph(cfg, rng).netlist;
  ASSERT_TRUE(server.preload("inproc", std::move(design)).is_ok());

  // An in-process design has no sources to re-load from; the manifest
  // (if written at all) must not claim it.
  Manifest manifest;
  const Status st = read_manifest(manifest_path_, &manifest);
  if (st.is_ok()) {
    EXPECT_EQ(manifest.count("inproc"), 0u);
  } else {
    EXPECT_EQ(st.code(), StatusCode::kNotFound) << st.to_string();
  }
}

TEST_F(ManifestRecoveryTest, RestartWithPreloadOfAManifestedDesignServesIt) {
  // gtl_serve --manifest=m --preload-name=d1 --preload-aux=d1.aux: a
  // client unloads the preload and loads d1 again over the wire, so the
  // manifest now records it.
  {
    Server server(server_config());
    DesignRegistry::LoadInfo info;
    ASSERT_TRUE(server.preload("d1", aux_path_, {}, &info).is_ok());
    const std::string unload_reply = server.handle_line(
        R"({"id": 1, "op": "unload_design", "design": "d1"})");
    ASSERT_EQ(parse(unload_reply).find("error"), nullptr) << unload_reply;
    const std::string load_reply =
        server.handle_line(load_line(2, "d1", aux_path_));
    ASSERT_EQ(parse(load_reply).find("error"), nullptr) << load_reply;
    Manifest manifest;
    ASSERT_TRUE(read_manifest(manifest_path_, &manifest).is_ok());
    ASSERT_EQ(manifest.count("d1"), 1u);
  }

  // The restart with the same flags: recovery first, told of the
  // preload, which then loads d1 once.
  Server revived(server_config());
  Server::RecoveryReport report;
  ASSERT_TRUE(revived.recover_from_manifest(&report, {"d1"}).is_ok());
  EXPECT_EQ(report.attempted, 0u);
  EXPECT_EQ(report.recovered, 0u);
  DesignRegistry::LoadInfo info;
  const Status st = revived.preload("d1", aux_path_, {}, &info);
  ASSERT_TRUE(st.is_ok()) << st.to_string();
  ASSERT_TRUE(has_design(revived, "d1"));
  const JsonValue run = parse(revived.handle_line(run_line(3, "d1")));
  EXPECT_EQ(run.find("error"), nullptr) << run.dump();
  EXPECT_NE(run.find("result"), nullptr) << run.dump();
  EXPECT_EQ(global_stat(revived, "designs_loaded"), 1u);
  EXPECT_EQ(global_stat(revived, "designs_recovered"), 0u);

  // The preload owns d1 again: its flags, not the manifest, restore it.
  Manifest manifest;
  ASSERT_TRUE(read_manifest(manifest_path_, &manifest).is_ok());
  EXPECT_EQ(manifest.count("d1"), 0u);
}

}  // namespace
}  // namespace gtl::serve
