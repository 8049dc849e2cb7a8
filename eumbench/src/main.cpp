// eumbench: the repository's benchmark of the mapping stack.
//
//   eumbench --workload <hot_repeat|ecs_diverse|remap_churn> --seed <n>
//            --seconds <s> --trace <0|1> [--trace-out <path>]
//
// One process drives the real serving stack on at most four busy threads:
// two UdpAuthorityServer workers, and one open-loop flow whose sender and
// receiver are the other two. It prints every metric by name with its
// unit, then, as the last line, one JSON object with the end-to-end
// metrics (--trace 0) or the per-layer metrics (--trace 1). It exits 1 on
// any wrong answer. README.md in this directory describes the metrics.
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>

#include "phases.h"
#include "stack.h"
#include "trace.h"
#include "util.h"

using namespace eumbench;
using namespace eum;

namespace {

// Fixed open-loop rates (queries per second), the same for every workload
// and every run: `low` is well under the knee, `high` near it, where
// queueing shows but the generator still keeps its schedule.
constexpr double kLowQps = 10'000;
constexpr double kHighQps = 30'000;
// Set-ups per run; setup_s is their median.
constexpr int kSetups = 5;
// The fixed-rate and per-core measurements run as interleaved rounds
// spread over the run, so a slow stretch of the host weighs on every
// figure alike; each figure is a median over its windows. Window lengths
// are shares of --seconds. Open-loop windows are long (about a second at
// the default length) so that a stall of a few milliseconds stays below
// the 1% tail instead of setting a window's p99.
constexpr int kRounds = 6;
constexpr double kFixedRateWindowShare = 1.0 / 24;  // each of low and high
constexpr int kPerCoreWindowsPerRound = 4;
constexpr double kPerCoreWindowShare = 0.1 / 24;
// Each per-core window first fills its new server's answer cache,
// unmeasured: 40 ms at 24 s is 8,000-18,000 queries on this stack, two to
// four times the cache's 4096 entries.
constexpr double kPerCoreWarmupShare = 0.04 / 24;
constexpr double kSocketReferenceWindowShare = 0.1 / 24;
// The max-QPS search: kGridPoints rates above the high rate, each
// kGridStep times the one below, swept kSweeps times.
constexpr double kGridStep = 1.1;
constexpr int kGridPoints = 7;
constexpr int kSweeps = 3;
constexpr int kSweepStopAfterFailures = 2;
constexpr double kSweepWindowShare = 0.6 / 24;
// remap_churn: a cluster is killed every kFlapCadence and revived half a
// cadence later, so a map is published every second. This is a stress
// rate, not a measured one: the paper gives no rate of liveness changes,
// and one publish a second is 20 per answer TTL (MappingConfig::answer_ttl,
// 20 s). It is slow enough for the answer caches to refill between
// publishes, so the workload shows steady hits with a miss spike after each
// publish rather than a cache that is always cold.
constexpr std::chrono::milliseconds kFlapCadence{2000};
// remap_ms on every workload: this many kill/revive flaps back to back
// after the traffic.
constexpr std::size_t kRemapFlaps = 30;
// Largest |reconcile_error| (a share of the per-query CPU time) at which
// the traced layers count as reconciled with qps_per_core.
constexpr double kReconcileTolerance = 0.25;
// Queries replayed by the traced run.
constexpr std::size_t kTraceQueries = 32768;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string trace_out;
};

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
      have_seed = true;
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--trace-out") {
      args.trace_out = value;
    } else {
      throw std::invalid_argument{"unknown argument: " + key};
    }
  }
  if (args.workload.empty() || !have_seed || !(args.seconds > 0)) {
    throw std::invalid_argument{
        "usage: eumbench --workload <name> --seed <n> --seconds <s> --trace <0|1>"};
  }
  return args;
}

double vm_hwm_mb() {
  std::ifstream in{"/proc/self/status"};
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

/// Counters and histograms of the served stack, for per-phase deltas.
struct StackCounters {
  dnsserver::UdpServerStats udp;
  obs::HistogramSnapshot serve_us;
  obs::HistogramSnapshot rx_batch;
  obs::HistogramSnapshot rebuild_us;
  std::uint64_t rebuilds = 0;
  std::uint64_t publishes = 0;
  std::uint64_t skipped = 0;
  std::uint64_t units_rescored = 0;

  static StackCounters read(Stack& stack) {
    StackCounters c;
    obs::MetricsRegistry& registry = stack.registry();
    c.udp = stack.server().stats();
    c.serve_us = registry.histogram("eum_udp_serve_latency_us").snapshot();
    c.rx_batch = registry.histogram("eum_udp_rx_batch_size").snapshot();
    c.rebuild_us = registry.histogram("eum_control_rebuild_latency_us").snapshot();
    c.rebuilds = stack.maker().rebuilds();
    c.publishes = stack.maker().publishes();
    c.skipped = stack.maker().skipped_publishes();
    c.units_rescored = registry.counter("eum_control_units_rescored_total").value();
    return c;
  }
};

obs::HistogramSnapshot minus(const obs::HistogramSnapshot& after,
                             const obs::HistogramSnapshot& before) {
  obs::HistogramSnapshot d = after;
  for (std::size_t i = 0; i < d.buckets.size() && i < before.buckets.size(); ++i) {
    d.buckets[i] -= before.buckets[i];
  }
  d.count -= before.count;
  d.sum -= before.sum;
  return d;
}

/// One fixed-rate phase: several windows, reported by their medians.
struct Phase {
  std::vector<OpenLoopPoint> windows;
  [[nodiscard]] double med(double OpenLoopPoint::*field) const {
    std::vector<double> v;
    for (const OpenLoopPoint& w : windows) v.push_back(w.*field);
    return median(std::move(v));
  }
  [[nodiscard]] double send_lag_p99() const {
    std::vector<double> v;
    for (const OpenLoopPoint& w : windows) v.push_back(w.report.send_lag_us.percentile(99.0));
    return median(std::move(v));
  }
};

/// The interleaved rounds: one low window, one high window and
/// kPerCoreWindowsPerRound per-core windows each.
struct Rounds {
  Phase low;
  Phase high;
  std::vector<PerCoreResult> per_core;
  /// Per per-core window: its CPU ns per query over the socket reference's
  /// CPU ns per datagram, measured right after it.
  std::vector<double> cost_rel;
  std::vector<double> socket_ref_ns;
};

Rounds run_rounds(Context& ctx, double seconds, std::uint64_t stream) {
  Rounds rounds;
  for (int r = 0; r < kRounds; ++r) {
    const std::uint64_t base = stream + 4 * static_cast<std::uint64_t>(r);
    const double window = kFixedRateWindowShare * seconds;
    rounds.low.windows.push_back(run_open_loop_point(ctx, kLowQps, window, base));
    rounds.high.windows.push_back(run_open_loop_point(ctx, kHighQps, window, base + 1));
    for (int w = 0; w < kPerCoreWindowsPerRound; ++w) {
      const PerCoreResult& core = rounds.per_core.emplace_back(
          run_per_core(ctx, kPerCoreWarmupShare * seconds, kPerCoreWindowShare * seconds,
                       base + 2 + 1000ULL * w));
      const double ref_ns = run_socket_reference(kSocketReferenceWindowShare * seconds);
      rounds.socket_ref_ns.push_back(ref_ns);
      if (core.qps_per_core > 0 && ref_ns > 0) {
        rounds.cost_rel.push_back(1e9 / core.qps_per_core / ref_ns);
      }
    }
  }
  return rounds;
}

/// A rate's verdict: it meets the SLO when most of the windows planned for
/// it do (a window skipped because lower rates had already failed counts as
/// failing); its p99 is the median over the windows measured.
struct RatePoint {
  double qps = 0;
  bool pass = false;
  double p99_us = INFINITY;
};

RatePoint summarize(double qps, const Phase& phase, std::size_t planned) {
  std::size_t passed = 0;
  for (const OpenLoopPoint& w : phase.windows) passed += w.meets_slo ? 1 : 0;
  return RatePoint{qps, 2 * passed > planned,
                   phase.windows.empty() ? INFINITY : phase.med(&OpenLoopPoint::p99_us)};
}

/// The highest rate meeting the SLO. Above the high rate lies a geometric
/// grid, swept several times so that a slow stretch of the host costs one
/// window at each rate rather than one step of a bisection. A sweep stops
/// climbing after consecutive failing windows, which keeps overload short.
/// The result is interpolated (p99 linear in log rate) between the last
/// rate that meets the SLO and the first that does not.
double max_qps_under_slo(Context& ctx, const Phase& low, const Phase& high,
                         double window_seconds, std::uint64_t stream,
                         std::vector<OpenLoopPoint>& all_windows) {
  std::vector<Phase> grid(kGridPoints);
  auto grid_qps = [](int k) { return kHighQps * std::pow(kGridStep, k + 1); };
  for (int sweep = 0; sweep < kSweeps; ++sweep) {
    int failures = 0;
    for (int k = 0; k < kGridPoints && failures < kSweepStopAfterFailures; ++k) {
      const std::uint64_t window_stream = stream + 100ULL * sweep + static_cast<std::uint64_t>(k);
      OpenLoopPoint w = run_open_loop_point(ctx, grid_qps(k), window_seconds, window_stream);
      failures = w.meets_slo ? 0 : failures + 1;
      all_windows.push_back(w);
      grid[k].windows.push_back(std::move(w));
    }
  }
  std::vector<RatePoint> points{summarize(kLowQps, low, low.windows.size()),
                                summarize(kHighQps, high, high.windows.size())};
  for (int k = 0; k < kGridPoints; ++k) points.push_back(summarize(grid_qps(k), grid[k], kSweeps));
  if (!points.front().pass) return 0.0;
  for (std::size_t i = 1; i < points.size(); ++i) {
    if (points[i].pass) continue;
    const RatePoint& pass = points[i - 1];
    const RatePoint& fail = points[i];
    if (std::isfinite(fail.p99_us) && pass.p99_us < kSloP99Us && fail.p99_us >= kSloP99Us) {
      const double t = (kSloP99Us - pass.p99_us) / (fail.p99_us - pass.p99_us);
      return pass.qps * std::pow(fail.qps / pass.qps, t);
    }
    return pass.qps;
  }
  return points.back().qps;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) out += ", ";
    out += json_string(metrics[i].name) + ": {\"value\": " + json_number(metrics[i].value) +
           ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  return out + "}";
}

int run(const Args& args) {
  const WorkloadKind kind = parse_workload(args.workload);
  const Placement placement = plan_placement();
  // The harness thread and everything it spawns (sender, receiver and
  // sample threads) run on the generator CPUs; the stack and the flap
  // thread pin their own.
  pin_current_thread(placement.generator);

  std::vector<SetupTimes> setups;
  std::unique_ptr<Stack> stack;
  for (int i = 0; i < kSetups; ++i) {
    stack.reset();
    SetupTimes times;
    stack = std::make_unique<Stack>(placement, times);
    setups.push_back(times);
  }
  auto setup_median = [&](double SetupTimes::*field) {
    std::vector<double> v;
    for (const SetupTimes& t : setups) v.push_back(t.*field);
    return median(std::move(v));
  };
  std::vector<double> totals;
  for (const SetupTimes& t : setups) totals.push_back(t.total());

  const Workload workload{kind, stack->world(), args.seed};
  const Oracle oracle{stack->world(), workload.model(), stack->fallback_ldns().id};
  SnapshotHistory history{&stack->maker()};
  Context ctx{*stack, workload, oracle, history, placement};

  const double s = args.seconds;
  const std::uint64_t stream = args.seed << 32;
  (void)run_open_loop_point(ctx, kLowQps, 0.05 * s, stream + 999);  // warm-up

  const StackCounters start = StackCounters::read(*stack);
  std::unique_ptr<Flapper> flapper;
  if (workload.churn()) flapper = std::make_unique<Flapper>(ctx, kFlapCadence);
  const Rounds rounds = run_rounds(ctx, s, stream + 100);
  const StackCounters rounds_end = StackCounters::read(*stack);
  const Phase& low = rounds.low;
  const Phase& high = rounds.high;
  const std::vector<PerCoreResult>& per_core = rounds.per_core;
  std::vector<OpenLoopPoint> search_windows;
  const double max_qps =
      max_qps_under_slo(ctx, low, high, kSweepWindowShare * s, stream + 300, search_windows);
  const FlapStats churn = flapper ? flapper->finish() : FlapStats{};
  flapper.reset();
  const FlapStats flaps = Flapper::run_idle(ctx, kRemapFlaps);
  const StackCounters end = StackCounters::read(*stack);

  // The traced run. A per-core window and a socket reference after every
  // chunk of the replay give the per-query time its layers must account
  // for, measured at the same moments and, on remap_churn, beside the same
  // flapping: the host's speed drifts over a run (by up to 2x on the build
  // host), which would otherwise enter the comparison.
  std::optional<TraceReport> trace;
  std::vector<PerCoreResult> beside_trace;
  std::vector<double> beside_trace_ref_ns;
  if (args.trace) {
    auto measure_beside = [&] {
      beside_trace.push_back(run_per_core(ctx, kPerCoreWarmupShare * s, kPerCoreWindowShare * s,
                                          stream + 600 + beside_trace.size()));
      beside_trace_ref_ns.push_back(run_socket_reference(kSocketReferenceWindowShare * s));
    };
    trace = run_traced_replay(ctx, kTraceQueries, stream + 500, args.trace_out, measure_beside);
  }

  // Correctness and failures over the fixed-rate phases, the per-core
  // windows and every checked sample (search windows past the knee are
  // expected to drop; their samples must still be right). A flap whose
  // kill never led to a routing-around map, or whose revive was never
  // published, is a wrong outcome too.
  //
  // `failed` counts the queries the program answered wrongly or with an
  // error, and the per-core queries it never answered. An open-loop query
  // that is dropped or late is not a failed operation but a latency
  // outcome: it is lost when the host deschedules a worker long enough for
  // its receive queue to overflow, so its count follows the host, not the
  // program. Such queries miss every latency limit and count in the error
  // rate (`ok_rate`), and `unanswered` counts them here.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t unanswered = 0;
  std::uint64_t wrong = 0;
  load::LoadReport fixed_load;
  std::uint64_t generator_bound = 0;
  std::vector<const OpenLoopPoint*> fixed_rate;  // every low/high window
  for (const Phase* phase : {&low, &high}) {
    for (const OpenLoopPoint& w : phase->windows) fixed_rate.push_back(&w);
  }
  for (const OpenLoopPoint* w : fixed_rate) {
    attempted += w->report.offered + w->sample.sent;
    failed += w->server_errors + w->sample.wrong;
    unanswered += w->report.dropped + w->report.late + w->sample.missing;
    wrong += w->sample.wrong;
    fixed_load.sent += w->report.sent;
    fixed_load.dropped += w->report.dropped;
    fixed_load.late += w->report.late;
    generator_bound += w->generator_bound ? 1 : 0;
  }
  for (const OpenLoopPoint& w : search_windows) wrong += w.sample.wrong;
  std::vector<double> qps_per_core;
  auto tally_per_core = [&](const PerCoreResult& r) {
    attempted += r.sent;
    failed += r.wrong + r.missing;
    wrong += r.wrong;
  };
  for (const PerCoreResult& r : per_core) {
    tally_per_core(r);
    qps_per_core.push_back(r.qps_per_core);
  }
  for (const PerCoreResult& r : beside_trace) tally_per_core(r);
  const std::uint64_t failed_flaps = flaps.failed + churn.failed;
  const double error_rate = attempted == 0 ? 1.0
                                            : static_cast<double>(failed + unanswered) /
                                                  static_cast<double>(attempted);
  const double per_core_qps = median(qps_per_core);

  // The open-loop latencies, the SLO rate and the raw per-core rate are
  // reported with the per-layer figures, without a regression bound: on a
  // shared virtual host their run-to-run spread is set by the host (its
  // thread wake-up stalls, and its system-call speed, which drifts over
  // minutes), not by the stack. serve_cost_rel is the per-core cost
  // measured against the host's socket speed at the same moment.
  const std::vector<Metric> ungated = {
      {"p50_us.low", low.med(&OpenLoopPoint::p50_us), "us"},
      {"p99_us.low", low.med(&OpenLoopPoint::p99_us), "us"},
      {"p50_us.high", high.med(&OpenLoopPoint::p50_us), "us"},
      {"p99_us.high", high.med(&OpenLoopPoint::p99_us), "us"},
      {"max_qps_under_slo", max_qps, "1/s"},
      {"qps_per_core", per_core_qps, "1/cpu-s"},
  };
  const std::vector<Metric> end_to_end = {
        {"serve_cost_rel", median(rounds.cost_rel), "ratio"},
        {"ok_rate", 1.0 - error_rate, "ratio"},
        {"rss_mb", vm_hwm_mb(), "MB"},
        {"remap_ms", median(flaps.remap_ms), "ms"},
        {"setup_s", median(totals), "s"},
  };
  std::vector<Metric> per_layer;
  if (trace) {
    auto layer = [&](const char* name) {
      const auto it = trace->self_ns.find(name);
      return it == trace->self_ns.end() ? 0.0 : it->second;
    };
    const dnsserver::UdpServerStats& a = start.udp;
    const dnsserver::UdpServerStats& b = rounds_end.udp;
    const double probes = static_cast<double>(b.cache_hits + b.cache_misses - a.cache_hits -
                                              a.cache_misses);
    const double queries = static_cast<double>(b.queries - a.queries);
    double worker_max = 0;
    for (std::size_t w = 0; w < b.per_worker.size(); ++w) {
      worker_max = std::max(worker_max, static_cast<double>(b.per_worker[w] - a.per_worker[w]));
    }
    const obs::HistogramSnapshot serve_us = minus(rounds_end.serve_us, start.serve_us);
    const obs::HistogramSnapshot rebuild_us = minus(end.rebuild_us, start.rebuild_us);
    const double rebuilds = static_cast<double>(end.rebuilds - start.rebuilds);
    std::vector<double> beside_qps;
    for (const PerCoreResult& r : beside_trace) beside_qps.push_back(r.qps_per_core);
    const double beside_qps_per_core = median(beside_qps);
    const double per_query_ns = beside_qps_per_core > 0 ? 1e9 / beside_qps_per_core : 0.0;
    const double socket_ref_ns = median(beside_trace_ref_ns);
    // Reconciliation: the traced layers' self times plus the socket
    // reference should account for the per-query CPU time of serve_once.
    const double reconcile_error =
        per_query_ns > 0 ? (per_query_ns - trace->layer_sum_ns - socket_ref_ns) / per_query_ns
                         : 0.0;
    per_layer = ungated;
    per_layer.insert(per_layer.end(), {
        {"load.send_lag_p99_us", median({low.send_lag_p99(), high.send_lag_p99()}), "us"},
        {"load.sent", static_cast<double>(fixed_load.sent), "count"},
        {"load.dropped", static_cast<double>(fixed_load.dropped), "count"},
        {"load.late", static_cast<double>(fixed_load.late), "count"},
        {"load.generator_bound", static_cast<double>(generator_bound), "count"},
        {"load.error_rate", error_rate, "ratio"},
        {"udp.rx_batch_p50", minus(rounds_end.rx_batch, start.rx_batch).percentile(50), "count"},
        {"udp.serve_batch_us_p50", serve_us.percentile(50), "us"},
        {"udp.serve_batch_us_p99", serve_us.percentile(99), "us"},
        {"udp.kernel_drops", static_cast<double>(b.kernel_drops - a.kernel_drops), "count"},
        {"udp.send_errors", static_cast<double>(b.send_errors - a.send_errors), "count"},
        {"udp.worker_share_max", queries > 0 ? worker_max / queries : 0.0, "ratio"},
        {"udp.serve_datagram_self_ns", layer("udp.serve_datagram"), "ns"},
        {"udp.syscall_dispatch_ns", per_query_ns - trace->layer_sum_ns, "ns"},
        {"answer_cache.hit_ratio",
         probes > 0 ? static_cast<double>(b.cache_hits - a.cache_hits) / probes : 0.0, "ratio"},
        {"answer_cache.unprobeable_ratio", queries > 0 ? 1.0 - probes / queries : 0.0, "ratio"},
        {"answer_cache.probe_ns", layer("answer_cache.probe"), "ns"},
        {"answer_cache.find_ns", layer("answer_cache.find"), "ns"},
        {"answer_cache.render_ns", layer("answer_cache.render"), "ns"},
        {"answer_cache.store_ns", layer("answer_cache.store"), "ns"},
        {"answer_cache.hit_ratio_post_publish",
         churn.post_publish_probes > 0 ? static_cast<double>(churn.post_publish_hits) /
                                             static_cast<double>(churn.post_publish_probes)
                                       : 0.0,
         "ratio"},
        {"dns.decode_ns", layer("dns.decode"), "ns"},
        {"dns.encode_ns", layer("dns.encode"), "ns"},
        {"authoritative.handle_self_ns", layer("authoritative.handle"), "ns"},
        {"mapping.handler_ns", trace->handler_ns, "ns"},
        {"mapping.handler_self_ns", layer("mapping.handler"), "ns"},
        {"mapping.ecs_share", trace->ecs_share, "ratio"},
        {"mapping.fallback_ldns_share", trace->fallback_ldns_share, "ratio"},
        {"topo.ldns_lookup_ns", layer("topo.ldns_lookup"), "ns"},
        {"topo.block_lookup_ns", layer("topo.block_lookup"), "ns"},
        {"map_snapshot.map_ns", layer("map_snapshot.map"), "ns"},
        {"map_maker.rebuild_ms_p50", rebuild_us.percentile(50) / 1e3, "ms"},
        {"map_maker.rebuild_ms_p99", rebuild_us.percentile(99) / 1e3, "ms"},
        {"map_maker.units_rescored",
         rebuilds > 0 ? static_cast<double>(end.units_rescored - start.units_rescored) / rebuilds
                      : 0.0,
         "count"},
        {"map_maker.publishes", static_cast<double>(end.publishes - start.publishes), "count"},
        {"map_maker.skipped_publishes", static_cast<double>(end.skipped - start.skipped),
         "count"},
        {"map_maker.publish_visible_us", median(flaps.publish_visible_us), "us"},
        {"map_maker.remap_under_load_ms", median(churn.remap_ms), "ms"},
        {"setup.world_gen_s", setup_median(&SetupTimes::world_gen_s), "s"},
        {"setup.mapping_build_s", setup_median(&SetupTimes::mapping_build_s), "s"},
        {"setup.first_snapshot_s", setup_median(&SetupTimes::first_snapshot_s), "s"},
        {"setup.server_start_s", setup_median(&SetupTimes::server_start_s), "s"},
        {"trace.layer_sum_ns", trace->layer_sum_ns, "ns"},
        {"trace.per_query_ns", per_query_ns, "ns"},
        {"trace.socket_ref_ns", socket_ref_ns, "ns"},
        {"trace.reconcile_error", reconcile_error, "ratio"},
        {"trace.reconciled", std::abs(reconcile_error) <= kReconcileTolerance ? 1.0 : 0.0,
         "bool"},
        {"trace.empty_span_ns", trace->empty_span_ns, "ns"},
        {"trace.overhead_ns", trace->traced_query_ns - trace->untraced_query_ns, "ns"},
        {"trace.flaps", static_cast<double>(trace->flaps), "count"},
    });
  }

  std::printf("workload %s seed %llu seconds %g trace %d\n", to_string(kind),
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0);
  std::printf("host %s\n", host_fingerprint_json(placement).c_str());
  std::printf("rates low %.0f high %.0f grid %.0f..%.0f slo p99 < %.0f us\n", kLowQps,
              kHighQps, kHighQps * kGridStep, kHighQps * std::pow(kGridStep, kGridPoints),
              kSloP99Us);
  for (const OpenLoopPoint* w : fixed_rate) {
    std::printf("window qps %.0f p50_us %.1f p99_us %.1f send_lag_p99_us %.1f dropped %llu "
                "generator_bound %d meets_slo %d\n",
                w->offered_qps, w->p50_us, w->p99_us, w->report.send_lag_us.percentile(99.0),
                static_cast<unsigned long long>(w->report.dropped), w->generator_bound ? 1 : 0,
                w->meets_slo ? 1 : 0);
  }
  for (const OpenLoopPoint& w : search_windows) {
    std::printf("search qps %.0f p99_us %.1f meets_slo %d\n", w.offered_qps, w.p99_us,
                w.meets_slo ? 1 : 0);
  }
  std::printf("attempted %llu failed %llu unanswered %llu wrong %llu failed_flaps %llu\n",
              static_cast<unsigned long long>(attempted), static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(unanswered), static_cast<unsigned long long>(wrong),
              static_cast<unsigned long long>(failed_flaps));
  for (const std::vector<Metric>* group : {&end_to_end, args.trace ? &per_layer : &ungated}) {
    for (const Metric& m : *group) {
      std::printf("metric %s %s %s\n", m.name.c_str(), json_number(m.value).c_str(),
                  m.unit.c_str());
    }
  }
  const bool correct = wrong == 0 && failed_flaps == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              metrics_json(args.trace ? per_layer : end_to_end).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "eumbench: %s\n", e.what());
    return 2;
  }
}
