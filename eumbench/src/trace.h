// The traced run: a single-threaded replay of a workload's query stream
// through the serve path's public layer functions, in the order
// UdpAuthorityServer::serve_datagram calls them, with a span around each
// call. Spans are kept in memory and written out at the end; a layer's
// self time is its span minus its children, less the calibrated cost of
// the span clock reads.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "phases.h"

namespace eumbench {

/// remap_churn: while the traced run replays, a cluster is killed this
/// often (and revived half of it later) by a flap thread beside it.
inline constexpr std::chrono::milliseconds kTraceFlapCadence{50};

struct TraceReport {
  /// Median self time per span of each layer, nanoseconds.
  std::map<std::string, double> self_ns;
  /// Median inclusive time of the mapping handler wrapper, nanoseconds.
  double handler_ns = 0.0;
  /// Sum over layers of median self time x spans per query.
  double layer_sum_ns = 0.0;
  double empty_span_ns = 0.0;      ///< clock-read cost inside an empty span
  double untraced_query_ns = 0.0;  ///< replay wall time per query, spans off
  double traced_query_ns = 0.0;    ///< replay wall time per query, spans on
  double ecs_share = 0.0;          ///< mapping decisions made with a client block
  double fallback_ldns_share = 0.0;  ///< decisions whose resolver was patched
  std::uint64_t flaps = 0;           ///< flaps traced (remap_churn)
};

/// Chunks each replay pass is cut into; `between` runs after each one.
inline constexpr std::size_t kTraceChunks = 4;

/// Replay `queries` queries of stream `stream`, once untraced and once
/// traced, each pass in kTraceChunks chunks with `between` called after
/// every chunk (its time is not charged to the replay). With the workload's
/// churn, clusters flap on another thread while a pass runs, `between`
/// included, and the flaps are traced too.
/// Writes the spans as CSV to `out_path` (skipped when empty).
[[nodiscard]] TraceReport run_traced_replay(Context& ctx, std::size_t queries,
                                            std::uint64_t stream, const std::string& out_path,
                                            const std::function<void()>& between);

}  // namespace eumbench
