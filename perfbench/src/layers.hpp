#pragma once
// Traced finder jobs and the per-layer metrics read back from their
// spans.  Span names are the public calls they wrap:
//
//   finder.job                   one job (its self time is the residual)
//     netlist.read_snapshot      read_snapshot (paper_batch jobs only)
//     finder.create              Finder::create
//     order.grow_orderings       Phase I   (counts: orderings, cells_absorbed)
//     finder.extract_candidates  Phase II  (counts: extracted, kept)
//     finder.refine_and_prune    Phase III (counts: refined, gtls, regrowths)
//     finder.serialize           to_json(result).dump() (count: bytes)
//
// plus netlist.read_bookshelf_files / netlist.write_snapshot from set-up,
// finder.run_cold / finder.run_warm pairs for the cold-session penalty,
// and speedup.* spans for the 1-thread vs N-thread comparison.

#include <cstdint>
#include <string>

#include "common.hpp"
#include "gtl/finder.hpp"
#include "trace.hpp"

namespace perfbench {

/// Create a session and step the three phases under spans, children of
/// `parent`.  A non-empty `ns` replaces the module part of every span
/// name ("speedup.grow_orderings"), keeping side measurements out of the
/// per-layer medians.  Returns the serialized result, or "" when the
/// config is rejected.
[[nodiscard]] std::string traced_job(Trace& trace, std::uint64_t op,
                                     Trace::SpanId parent,
                                     const gtl::Netlist& nl,
                                     const gtl::FinderConfig& cfg,
                                     const std::string& ns = "");

/// A fresh session's first run() and a second run() on it, `samples`
/// times with consecutive rng seeds from cfg.rng_seed.
void measure_cold_penalty(Trace& trace, const gtl::Netlist& nl,
                          gtl::FinderConfig cfg, int samples);

/// The same stepped job at 1 thread and at `threads`, as speedup.* spans
/// whose op is the thread count.  Returns what went wrong (results must
/// be byte-identical), or an empty string.
[[nodiscard]] std::string measure_speedup(Trace& trace,
                                          const gtl::Netlist& nl,
                                          gtl::FinderConfig cfg,
                                          std::size_t threads);

/// Fill the netlist.*, order.* and finder.* per-layer metrics from the
/// recorded spans (0 where a layer left no span).
void add_layer_metrics(const Trace& trace, Metrics& m);

/// The per-layer metrics of the serve layer, zero: the workloads that do
/// not go through gtl_serve print them too, so every traced run prints
/// the same set.
void add_zero_serve_metrics(Metrics& m);

}  // namespace perfbench
