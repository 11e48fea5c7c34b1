// gtl_serve — the Finder-as-a-service daemon.
//
//   $ gtl_serve --socket=/tmp/gtl.sock --workers=2
//       --preload-name=ibm01 --preload-aux=bench/data/ibm01.aux
//
// Serves the JSON-lines protocol of src/serve/protocol.hpp on a Unix
// socket until SIGINT/SIGTERM.  Designs can be preloaded here (so the
// first query never pays a parse) or loaded at runtime via the
// load_design op; `--demo-design` plants a synthetic ISPD-like design
// in-process, which is how CI's serve smoke gets a workload without
// fixture files.
//
// Prints exactly one "gtl_serve listening on <path>" line to stdout once
// the socket is bound and listening — scripts wait for it before
// connecting, and need no connect retry.

#include <atomic>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "gtl/netlist.hpp"
#include "graphgen/presets.hpp"
#include "graphgen/synthetic_circuit.hpp"
#include "serve/server.hpp"
#include "util/cli.hpp"
#include "util/failpoint.hpp"
#include "util/rng.hpp"

namespace {

std::atomic<bool> g_stop{false};

void on_signal(int /*signum*/) { g_stop.store(true); }

/// --key as a count.  A negative value is an error naming the flag: a
/// plain cast would turn -1 into SIZE_MAX (or abort in reserve()).
std::uint64_t get_count(const gtl::CliArgs& args, const std::string& key,
                        std::int64_t fallback) {
  const std::int64_t value = args.get_int(key, fallback);
  if (value >= 0) return static_cast<std::uint64_t>(value);
  std::string msg("--");
  msg += key;
  msg += " must not be negative (got ";
  msg += std::to_string(value);
  msg += ")";
  args.record_error(gtl::Status::invalid_argument(msg));
  return static_cast<std::uint64_t>(fallback);
}

/// --key given in MiB, as bytes; a count whose byte size overflows size_t
/// is an error too.
std::size_t get_mib(const gtl::CliArgs& args, const std::string& key,
                    std::int64_t fallback) {
  const std::uint64_t mib = get_count(args, key, fallback);
  if (mib <= (std::numeric_limits<std::size_t>::max() >> 20)) {
    return static_cast<std::size_t>(mib) << 20;
  }
  std::string msg("--");
  msg += key;
  msg += " is too large: ";
  msg += std::to_string(mib);
  msg += " MiB overflows a byte count";
  args.record_error(gtl::Status::invalid_argument(msg));
  return static_cast<std::size_t>(fallback) << 20;
}

}  // namespace

int main(int argc, char** argv) {
  gtl::CliArgs args(argc, argv);
  args.usage("Serve tangled-logic queries over a Unix-socket JSON-lines API.")
      .describe("socket=PATH", "socket path to listen on (required)")
      .describe("workers=N", "worker threads for queued ops (default 2)")
      .describe("queue-cap=N",
                "admission queue bound; beyond it requests get "
                "\"overloaded\" (default 16)")
      .describe("max-resident-mb=N",
                "design registry residency cap, LRU-evicted (default 512)")
      .describe("retry-after-ms=N",
                "backoff hint stamped on overloaded rejections "
                "(default 1000)")
      .describe("manifest=PATH",
                "crash-safe design manifest: loads are recorded here and "
                "replayed on restart (default none)")
      .describe("default-deadline-ms=N",
                "deadline for run_finder requests that give none "
                "(default 0 = unlimited)")
      .describe("max-threads-per-query=N",
                "cap on a query's num_threads (default 0 = as requested)")
      .describe("max-idle-sessions=N",
                "warm Finder sessions kept per design (default 4)")
      .describe("preload-name=NAME", "register a design at startup as NAME")
      .describe("preload-aux=PATH", "Bookshelf .aux for --preload-name")
      .describe("preload-snapshot=PATH",
                "binary snapshot cache for --preload-name (read if "
                "present, else filled after the .aux parse)")
      .describe("demo-design=NAME",
                "plant a synthetic ISPD-like design (bigblue1, adaptec1, "
                "...) and register it as NAME")
      .describe("demo-factor=X",
                "scale of the demo design in (0, 1] (default 0.05)");
  if (gtl::cli_help_exit(args)) return 0;

  gtl::serve::ServerConfig cfg;
  cfg.socket_path = args.get_string("socket");
  cfg.workers = get_count(args, "workers", 2);
  cfg.queue_capacity = get_count(args, "queue-cap", 16);
  cfg.max_resident_bytes = get_mib(args, "max-resident-mb", 512);
  cfg.retry_after_ms = get_count(args, "retry-after-ms", 1000);
  cfg.manifest_path = args.get_string("manifest");
  cfg.default_deadline_ms = get_count(args, "default-deadline-ms", 0);
  cfg.max_threads_per_query = get_count(args, "max-threads-per-query", 0);
  cfg.max_idle_sessions = get_count(args, "max-idle-sessions", 4);

  const std::string preload_name = args.get_string("preload-name");
  const std::string preload_aux = args.get_string("preload-aux");
  const std::string preload_snapshot = args.get_string("preload-snapshot");
  const std::string demo_design = args.get_string("demo-design");
  const double demo_factor = args.get_double("demo-factor", 0.05);

  if (cfg.socket_path.empty()) {
    args.record_error(gtl::Status::invalid_argument("--socket is required"));
  }
  if (!preload_name.empty() && preload_aux.empty() &&
      preload_snapshot.empty()) {
    args.record_error(gtl::Status::invalid_argument(
        "--preload-name needs --preload-aux and/or --preload-snapshot"));
  }
  if (gtl::cli_error_exit(args)) return 2;

  // Fault-injection schedules (GTL_FAILPOINTS / GTL_FAILPOINTS_FILE env)
  // are applied before anything touches a failpoint site.  A schedule
  // that does not parse is fatal — silently testing nothing is worse —
  // and a schedule given to a binary without compiled-in sites gets a
  // loud warning for the same reason.
  if (const gtl::Status st = gtl::failpoint::configure_from_env();
      !st.is_ok()) {
    std::cerr << "gtl_serve: failpoint config: " << st.to_string() << "\n";
    return 2;
  }
  if (!gtl::failpoint::compiled_in() &&
      (std::getenv("GTL_FAILPOINTS") != nullptr ||
       std::getenv("GTL_FAILPOINTS_FILE") != nullptr)) {
    std::cerr << "gtl_serve: warning: failpoint schedule given but this "
                 "binary was built without GTL_FAILPOINTS=ON; no faults "
                 "will fire\n";
  }

  gtl::serve::Server server(cfg);

  if (!cfg.manifest_path.empty()) {
    // The preloads below own their names: recovery leaves those unloaded.
    std::vector<std::string> preloads;
    if (!demo_design.empty()) preloads.push_back(demo_design);
    if (!preload_name.empty()) preloads.push_back(preload_name);
    gtl::serve::Server::RecoveryReport report;
    if (const gtl::Status st = server.recover_from_manifest(&report, preloads);
        !st.is_ok()) {
      // A corrupt manifest is degraded durability, not an outage.
      std::cerr << "gtl_serve: manifest recovery failed: " << st.to_string()
                << " (continuing with an empty design set)\n";
    } else if (report.attempted != 0) {
      std::cout << "gtl_serve: recovered " << report.recovered << "/"
                << report.attempted << " designs from "
                << cfg.manifest_path.string() << "\n";
    }
    for (const std::string& note : report.notes) {
      std::cerr << "gtl_serve: manifest: " << note << "\n";
    }
  }

  if (!demo_design.empty()) {
    gtl::SyntheticCircuitConfig demo_cfg;
    try {
      demo_cfg = gtl::ispd_like_config(demo_design, demo_factor);
    } catch (const std::invalid_argument& e) {
      std::cerr << "gtl_serve: --demo-design: " << e.what() << "\n";
      return 2;
    }
    gtl::Rng rng;
    gtl::SyntheticCircuit circuit =
        gtl::generate_synthetic_circuit(demo_cfg, rng);
    gtl::BookshelfDesign design;
    design.netlist = std::move(circuit.netlist);
    design.x = std::move(circuit.hint_x);
    design.y = std::move(circuit.hint_y);
    if (const gtl::Status st =
            server.preload(demo_design, std::move(design));
        !st.is_ok()) {
      std::cerr << "gtl_serve: demo preload failed: " << st.to_string()
                << "\n";
      return 1;
    }
    std::cout << "gtl_serve: demo design \"" << demo_design << "\" ready\n";
  }

  if (!preload_name.empty()) {
    gtl::serve::DesignRegistry::LoadInfo info;
    if (const gtl::Status st = server.preload(preload_name, preload_aux,
                                              preload_snapshot, &info);
        !st.is_ok()) {
      std::cerr << "gtl_serve: preload of \"" << preload_name
                << "\" failed: " << st.to_string() << "\n";
      return 1;
    }
    std::cout << "gtl_serve: preloaded \"" << preload_name << "\" ("
              << info.entry->design.netlist.num_cells() << " cells"
              << (info.snapshot_hit ? ", snapshot hit" : "") << ")\n";
  }

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  // A peer vanishing mid-write must be a Status, not a process death.
  std::signal(SIGPIPE, SIG_IGN);

  // Announce only once the socket is bound: scripts connect as soon as
  // they see the line, and a bind failure must not print it.
  const gtl::Status st = server.serve(g_stop, [&cfg] {
    std::cout << "gtl_serve listening on " << cfg.socket_path.string()
              << std::endl;
  });
  server.stop();
  if (!st.is_ok()) {
    std::cerr << "gtl_serve: " << st.to_string() << "\n";
    return 1;
  }
  std::cout << "gtl_serve: shut down cleanly\n";
  return 0;
}
