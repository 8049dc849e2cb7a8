// The measured phases of one run: open-loop points (with a checked sample
// sent beside them), the max-QPS-under-SLO search, the per-core serve
// throughput through serve_once, and cluster flaps through the production
// liveness trigger.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <thread>
#include <vector>

#include "dnsserver/udp.h"
#include "load/driver.h"
#include "obs/metrics.h"
#include "oracle.h"
#include "stack.h"
#include "workload.h"

namespace eumbench {

/// Latency limit: p99 from the scheduled send instant, in microseconds.
inline constexpr double kSloP99Us = 1000.0;
/// A point whose send-lag p99 exceeds this share of the SLO is
/// generator-bound and does not meet the SLO.
inline constexpr double kGeneratorBoundShare = 0.25;

/// Everything a phase needs from the run.
struct Context {
  Stack& stack;
  const Workload& workload;
  const Oracle& oracle;
  SnapshotHistory& history;
  const Placement& placement;
};

/// Outcome counts of the checked sample sent beside an open-loop phase.
struct SampleCounts {
  std::uint64_t sent = 0;
  std::uint64_t wrong = 0;     ///< answered, but not what the live map decides
  std::uint64_t missing = 0;   ///< unanswered within the timeout
};

/// One open-loop point at a fixed offered rate.
struct OpenLoopPoint {
  double offered_qps = 0.0;
  eum::load::LoadReport report;
  double p50_us = 0.0;  ///< over offered queries; unanswered and failed ones rank last
  double p99_us = 0.0;
  bool generator_bound = false;
  bool meets_slo = false;
  SampleCounts sample;
  std::uint64_t server_errors = 0;  ///< non-NOERROR answers the engine produced
};

/// Run `seconds` of Poisson arrivals at `qps` from one sender/receiver flow
/// pinned to the generator CPUs, with a checked sample beside it.
[[nodiscard]] OpenLoopPoint run_open_loop_point(Context& ctx, double qps, double seconds,
                                                std::uint64_t stream);

/// Serve-path throughput: answered queries per CPU-second spent inside
/// UdpAuthorityServer::serve_once of a non-started one-worker server over
/// the same engine and cache configuration, fed full batches from the
/// harness's own socket, measured for `seconds` after `warmup_seconds` of
/// unmeasured serving. Every response is checked, warm-up ones too.
struct PerCoreResult {
  double qps_per_core = 0.0;
  std::uint64_t answered = 0;  ///< right answers while measuring; the rate's numerator
  std::uint64_t sent = 0;      ///< queries sent, warm-up included
  std::uint64_t wrong = 0;     ///< wrong answers, warm-up included
  std::uint64_t missing = 0;   ///< unanswered queries, warm-up included
  double cpu_s = 0.0;
};
[[nodiscard]] PerCoreResult run_per_core(Context& ctx, double warmup_seconds, double seconds,
                                         std::uint64_t stream);

/// The host's socket reference: CPU nanoseconds per datagram for one
/// recvmmsg and one sendmmsg of full 32-datagram batches of 64-byte
/// datagrams on loopback, with raw system calls and no code of the
/// program. It is the socket work a served query cannot avoid, and it
/// moves with the host's speed, which the program cannot change.
[[nodiscard]] double run_socket_reference(double seconds);

/// Cluster flaps through the liveness oracle, each kill timed until a
/// published map routes the flapped key around the dead cluster.
struct FlapEvent {
  std::int64_t killed_ns = 0;   ///< cluster marked dead (steady_clock)
  std::int64_t built_ns = 0;    ///< map maker finished the rebuild
  std::int64_t visible_ns = 0;  ///< routing-around version seen by a poller
};
struct FlapStats {
  std::vector<FlapEvent> events;
  std::vector<double> remap_ms;
  std::vector<double> publish_visible_us;
  std::uint64_t post_publish_hits = 0;
  std::uint64_t post_publish_probes = 0;
  std::uint64_t failed = 0;  ///< kills that never produced a routing-around map
};

class Flapper {
 public:
  /// Starts flapping on its own thread: a kill every `cadence`, with the
  /// cluster revived half a cadence later.
  Flapper(Context& ctx, std::chrono::milliseconds cadence);
  ~Flapper();
  Flapper(const Flapper&) = delete;
  Flapper& operator=(const Flapper&) = delete;

  /// Stop, join, and return what was measured.
  FlapStats finish();

  /// Run `cycles` kill/revive cycles back to back on the calling thread.
  static FlapStats run_idle(Context& ctx, std::size_t cycles);

 private:
  Context& ctx_;
  FlapStats stats_;
  std::atomic<bool> stop_{false};
  std::exception_ptr error_;  ///< what ended the flap thread early, if anything
  std::thread thread_;
};

}  // namespace eumbench
