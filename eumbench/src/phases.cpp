#include "phases.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "load/schedule.h"
#include "util.h"

namespace eumbench {

using namespace eum;
using namespace std::chrono_literals;

namespace {

/// Sample queries sent beside every open-loop point.
constexpr std::size_t kSampleQueries = 50;
/// An open-loop query unanswered this long after its scheduled send is late.
constexpr std::chrono::milliseconds kDriverTimeout{250};
/// Queries generated for the per-core phase, cycled; one id each.
constexpr std::size_t kPerCoreQueries = 65536;
/// Window after a publish over which the answer cache hit ratio is taken.
constexpr auto kPostPublishWindow = 20ms;
/// How often a waiting flap polls the map version.
constexpr auto kPublishPoll = 100us;
/// A kill that has not produced a routing-around map by then has failed.
constexpr auto kRemapTimeout = 2s;

const dnsserver::UdpEndpoint kLoopback{net::IpV4Addr{127, 0, 0, 1}, 0};

std::uint64_t non_noerror(const dnsserver::AuthServerStats& s) {
  return s.negative_answers + s.refused + s.form_errors;
}

/// Percentile `q` (0..100) over all offered queries, where `failed_answers`
/// of the answered ones (non-NOERROR or wrong) count as unanswered, and the
/// unanswered ones rank above every good answer; the late limit itself when
/// they reach rank q.
double offered_percentile(const load::LoadReport& report, std::uint64_t failed_answers,
                          double q) {
  const double unanswered = static_cast<double>(
      std::chrono::duration_cast<std::chrono::microseconds>(kDriverTimeout).count());
  const double good = static_cast<double>(report.received) -
                      static_cast<double>(std::min(report.received, failed_answers));
  if (good <= 0 || report.offered == 0) return unanswered;
  const double rank = q / 100.0 * static_cast<double>(report.offered);
  if (rank > good) return unanswered;
  return report.latency_us.percentile(100.0 * rank / static_cast<double>(report.received));
}

std::uint16_t response_id(std::span<const std::uint8_t> datagram) {
  return datagram.size() < 2 ? 0
                             : static_cast<std::uint16_t>((datagram[0] << 8) | datagram[1]);
}

/// Sends `specs` one at a time, spaced over `seconds`, each awaited and
/// checked against the maps live while it was in flight.
SampleCounts run_sample(Context& ctx, const std::vector<load::QuerySpec>& specs,
                        double seconds) {
  SampleCounts counts;
  dnsserver::UdpSocket socket{kLoopback};
  const dnsserver::UdpEndpoint server = ctx.stack.server().endpoint();
  const auto start = std::chrono::steady_clock::now();
  const auto gap = std::chrono::duration<double>(seconds / static_cast<double>(specs.size()));
  for (std::size_t i = 0; i < specs.size(); ++i) {
    std::this_thread::sleep_until(start + std::chrono::duration_cast<std::chrono::nanoseconds>(
                                              gap * static_cast<double>(i)));
    const auto id = static_cast<std::uint16_t>(i);
    const std::uint64_t v0 = ctx.history.version();
    socket.send_to(ctx.workload.model().encode(specs[i], id), server);
    counts.sent += 1;
    std::optional<std::vector<std::uint8_t>> response;
    const auto deadline = std::chrono::steady_clock::now() + kDriverTimeout;
    while (std::chrono::steady_clock::now() < deadline) {
      dnsserver::UdpEndpoint peer;
      response = socket.receive(std::chrono::duration_cast<std::chrono::milliseconds>(
                                    deadline - std::chrono::steady_clock::now()) +
                                    1ms,
                                peer);
      if (!response || response_id(*response) == id) break;
    }
    const std::uint64_t v1 = ctx.history.version();
    if (!response || response_id(*response) != id) {
      counts.missing += 1;
    } else if (!ctx.oracle.matching_version(*response, specs[i], id, ctx.history, v0, v1)) {
      counts.wrong += 1;
    }
  }
  return counts;
}

}  // namespace

OpenLoopPoint run_open_loop_point(Context& ctx, double qps, double seconds,
                                  std::uint64_t stream) {
  OpenLoopPoint point;
  point.offered_qps = qps;
  const auto count = static_cast<std::size_t>(qps * seconds);
  const std::vector<load::QuerySpec> specs = ctx.workload.generate(count, stream);
  const load::OpenLoopSchedule schedule =
      load::OpenLoopSchedule::make(load::Arrivals::poisson, qps, count, stream);
  const std::vector<load::QuerySpec> sample_specs =
      ctx.workload.generate(kSampleQueries, stream ^ 0x5a5a5a5aULL);
  load::DriverConfig driver;
  driver.server = ctx.stack.server().endpoint();
  driver.flows = 1;
  driver.timeout = kDriverTimeout;

  const dnsserver::AuthServerStats before = ctx.stack.engine().stats();
  const std::uint64_t wire_before = ctx.stack.server().stats().wire_errors;
  std::exception_ptr sample_error;
  std::thread sampler{[&] {
    try {
      point.sample = run_sample(ctx, sample_specs, seconds);
    } catch (...) {
      sample_error = std::current_exception();
    }
  }};
  try {
    point.report = load::run_open_loop(ctx.workload.model(), specs, schedule, driver);
  } catch (...) {
    sampler.join();
    throw;
  }
  sampler.join();
  if (sample_error) std::rethrow_exception(sample_error);
  point.server_errors = non_noerror(ctx.stack.engine().stats()) - non_noerror(before) +
                        ctx.stack.server().stats().wire_errors - wire_before;

  const load::LoadReport& r = point.report;
  const std::uint64_t failed_answers =
      point.server_errors + point.sample.wrong + point.sample.missing;
  point.p50_us = offered_percentile(r, failed_answers, 50.0);
  point.p99_us = offered_percentile(r, failed_answers, 99.0);
  point.generator_bound = r.send_lag_us.percentile(99.0) > kGeneratorBoundShare * kSloP99Us;
  const double failures = static_cast<double>(r.dropped + r.late + failed_answers);
  const double span_s = static_cast<double>(schedule.span_ns()) / 1e9;
  // A backlog that keeps growing shows as the last answer arriving long
  // after the last scheduled send.
  const bool backlog_ok = r.seconds - span_s <= 10.0 * kSloP99Us / 1e6;
  point.meets_slo = point.p99_us < kSloP99Us && !point.generator_bound && backlog_ok &&
                    failures < 0.01 * static_cast<double>(r.offered);
  return point;
}

PerCoreResult run_per_core(Context& ctx, double warmup_seconds, double seconds,
                           std::uint64_t stream) {
  PerCoreResult result;
  obs::MetricsRegistry registry;
  dnsserver::UdpServerConfig config;
  config.workers = 1;
  config.registry = &registry;
  config.batch = Stack::kBatch;
  config.answer_cache_entries = Stack::kCacheEntries;
  config.map_version = &ctx.stack.maker().version_cell();
  dnsserver::UdpAuthorityServer server{&ctx.stack.engine(), kLoopback, config};
  dnsserver::UdpSocket client{kLoopback};
  const dnsserver::UdpEndpoint to = server.endpoint();

  const std::vector<load::QuerySpec> specs = ctx.workload.generate(kPerCoreQueries, stream);
  std::vector<std::vector<std::uint8_t>> wires;
  wires.reserve(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    wires.push_back(ctx.workload.model().encode(specs[i], static_cast<std::uint16_t>(i)));
  }
  // Responses already checked, by query index: the hash of the response
  // bytes after the id, and the map version they are right for.
  struct Checked {
    std::uint64_t hash = 0;
    std::uint64_t version = 0;
  };
  std::vector<Checked> checked(specs.size());
  auto served = [](const dnsserver::UdpAuthorityServer& s) {
    const dnsserver::UdpServerStats stats = s.stats();
    return stats.queries + stats.wire_errors;
  };
  auto hash_tail = [](std::span<const std::uint8_t> bytes) {
    std::uint64_t h = 1469598103934665603ULL;
    for (std::size_t i = 2; i < bytes.size(); ++i) h = (h ^ bytes[i]) * 1099511628211ULL;
    return h | 1;  // never 0, which marks "unchecked"
  };

  dnsserver::UdpBatch tx{Stack::kBatch};
  dnsserver::UdpBatch rx{dnsserver::UdpBatch::kMaxCapacity};
  std::size_t next = 0;
  std::int64_t cpu_ns = 0;
  bool measuring = false;
  const std::int64_t warmup_end = now_ns() + static_cast<std::int64_t>(warmup_seconds * 1e9);
  const std::int64_t end = warmup_end + static_cast<std::int64_t>(seconds * 1e9);
  while (now_ns() < end) {
    if (!measuring && now_ns() >= warmup_end) {
      measuring = true;
      server.reset_stats();
    }
    const std::size_t first = next;
    for (std::size_t k = 0; k < Stack::kBatch; ++k) {
      tx.stage(to) = wires[next];
      next = (next + 1) % wires.size();
    }
    const std::uint64_t v0 = ctx.history.version();
    (void)client.send_batch(tx);
    const std::uint64_t target = served(server) + Stack::kBatch;
    while (served(server) < target) {
      const std::int64_t c0 = thread_cpu_ns();
      const bool any = server.serve_once(100ms);
      const std::int64_t c1 = thread_cpu_ns();
      if (measuring) cpu_ns += c1 - c0;
      if (!any) break;
    }
    const std::uint64_t v1 = ctx.history.version();
    std::size_t received = 0;
    while (received < Stack::kBatch) {
      const std::size_t got = client.receive_batch(rx, 100ms);
      if (got == 0) break;
      for (std::size_t i = 0; i < got; ++i) {
        const std::span<const std::uint8_t> response = rx.datagram(i);
        const std::uint16_t id = response_id(response);
        const std::size_t index = id;  // ids are query indices (65536 of them)
        // Only ids of this batch are expected.
        const std::size_t offset = (index + wires.size() - first) % wires.size();
        if (offset >= Stack::kBatch) continue;
        received += 1;
        const std::uint64_t h = hash_tail(response);
        Checked& memo = checked[index];
        bool ok = memo.hash == h && memo.version >= v0 && memo.version <= v1;
        if (!ok) {
          const std::optional<std::uint64_t> version =
              ctx.oracle.matching_version(response, specs[index], id, ctx.history, v0, v1);
          ok = version.has_value();
          if (ok) memo = Checked{h, *version};
        }
        // Warm-up answers are checked and counted too; only the
        // measured ones make the rate.
        result.wrong += ok ? 0 : 1;
        if (measuring && ok) result.answered += 1;
      }
    }
    result.sent += Stack::kBatch;
    result.missing += Stack::kBatch - received;
  }
  result.cpu_s = static_cast<double>(cpu_ns) / 1e9;
  result.qps_per_core = result.cpu_s > 0 ? static_cast<double>(result.answered) / result.cpu_s : 0;
  return result;
}

double run_socket_reference(double seconds) {
  constexpr std::size_t kBatch = Stack::kBatch;
  constexpr std::size_t kBytes = 64;
  const int client = ::socket(AF_INET, SOCK_DGRAM | SOCK_CLOEXEC, 0);
  const int echo = ::socket(AF_INET, SOCK_DGRAM | SOCK_CLOEXEC, 0);
  if (client < 0 || echo < 0) {
    if (client >= 0) ::close(client);
    if (echo >= 0) ::close(echo);
    throw std::runtime_error{"socket reference: socket() failed"};
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  sockaddr_in client_addr = addr;
  sockaddr_in echo_addr = addr;
  socklen_t len = sizeof addr;
  if (::bind(client, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0 ||
      ::bind(echo, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0 ||
      ::getsockname(client, reinterpret_cast<sockaddr*>(&client_addr), &len) != 0 ||
      ::getsockname(echo, reinterpret_cast<sockaddr*>(&echo_addr), &len) != 0) {
    ::close(client);
    ::close(echo);
    throw std::runtime_error{"socket reference: bind failed"};
  }
  std::vector<std::uint8_t> buffers(kBatch * 2 * kBytes, 0x5a);
  std::vector<iovec> iov(kBatch);
  std::vector<mmsghdr> to_echo(kBatch);
  std::vector<mmsghdr> to_client(kBatch);
  std::vector<mmsghdr> received(kBatch);
  for (std::size_t i = 0; i < kBatch; ++i) {
    iov[i] = iovec{buffers.data() + 2 * kBytes * i, kBytes};
    to_echo[i] = mmsghdr{};
    to_echo[i].msg_hdr.msg_name = &echo_addr;
    to_echo[i].msg_hdr.msg_namelen = sizeof echo_addr;
    to_echo[i].msg_hdr.msg_iov = &iov[i];
    to_echo[i].msg_hdr.msg_iovlen = 1;
    to_client[i] = to_echo[i];
    to_client[i].msg_hdr.msg_name = &client_addr;
    received[i] = mmsghdr{};
    received[i].msg_hdr.msg_iov = &iov[i];
    received[i].msg_hdr.msg_iovlen = 1;
  }
  std::int64_t cpu_ns = 0;
  std::uint64_t datagrams = 0;
  const std::int64_t end = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  while (now_ns() < end) {
    (void)::sendmmsg(client, to_echo.data(), kBatch, 0);
    const std::int64_t c0 = thread_cpu_ns();
    const int got = ::recvmmsg(echo, received.data(), kBatch, MSG_DONTWAIT, nullptr);
    const int sent =
        got > 0 ? ::sendmmsg(echo, to_client.data(), static_cast<unsigned>(got), 0) : 0;
    cpu_ns += thread_cpu_ns() - c0;
    datagrams += sent > 0 ? static_cast<std::uint64_t>(sent) : 0;
    while (::recvmmsg(client, received.data(), kBatch, MSG_DONTWAIT, nullptr) > 0) {
    }
  }
  ::close(client);
  ::close(echo);
  return datagrams == 0 ? 0.0 : static_cast<double>(cpu_ns) / static_cast<double>(datagrams);
}

namespace {

/// The deployment `spec` maps to under `snapshot`, if any.
std::optional<cdn::DeploymentId> deployment_for(Context& ctx, const load::QuerySpec& spec,
                                                const control::MapSnapshot& snapshot) {
  const auto result =
      snapshot.map(ctx.stack.fallback_ldns().id, ctx.oracle.block_of(spec),
                   ctx.workload.model().qname(spec.qname_rank).to_string(), 0.0);
  if (!result) return std::nullopt;
  return result->deployment;
}

std::pair<std::uint64_t, std::uint64_t> cache_counts(Context& ctx) {
  const dnsserver::UdpServerStats s = ctx.stack.server().stats();
  return {s.cache_hits, s.cache_hits + s.cache_misses};
}

/// Wait until a published map satisfies `done`; returns the steady_clock
/// nanoseconds at which it was observed, or 0 on timeout.
template <typename Done>
std::int64_t await_publish(Context& ctx, std::uint64_t since_version, Done done) {
  const std::int64_t deadline =
      now_ns() + std::chrono::duration_cast<std::chrono::nanoseconds>(kRemapTimeout).count();
  std::uint64_t seen = since_version;
  while (now_ns() < deadline) {
    const std::uint64_t v = ctx.history.version();
    if (v != seen) {
      const std::int64_t at = now_ns();
      seen = v;
      const std::shared_ptr<const control::MapSnapshot> snapshot = ctx.history.capture();
      if (done(*snapshot)) return at;
    }
    std::this_thread::sleep_for(kPublishPoll);
  }
  return 0;
}

/// Keys whose routing the flaps disturb: ECS queries that map by block.
std::vector<load::QuerySpec> flap_keys(Context& ctx) {
  std::vector<load::QuerySpec> keys;
  for (const load::QuerySpec& spec : ctx.workload.generate(256, 0xf1a9)) {
    if (ctx.oracle.block_of(spec)) keys.push_back(spec);
  }
  if (keys.empty()) throw std::runtime_error{"flap: workload has no block-mapped queries"};
  return keys;
}

/// One kill/revive cycle on the calling thread. With `window`, the answer
/// cache hit ratio is sampled for that long after each publish.
void flap_once(Context& ctx, const load::QuerySpec& key, FlapStats& stats, bool window,
               std::chrono::steady_clock::time_point revive_at) {
  const std::shared_ptr<const control::MapSnapshot> live = ctx.history.capture();
  const std::optional<cdn::DeploymentId> victim = deployment_for(ctx, key, *live);
  if (!victim) {
    stats.failed += 1;
    return;
  }
  auto sample_window = [&] {
    if (!window) return;
    const auto [h0, p0] = cache_counts(ctx);
    std::this_thread::sleep_for(kPostPublishWindow);
    const auto [h1, p1] = cache_counts(ctx);
    stats.post_publish_hits += h1 - h0;
    stats.post_publish_probes += p1 - p0;
  };
  const std::uint64_t v0 = live->version();
  const std::int64_t t0 = now_ns();
  ctx.stack.set_cluster_down(*victim, true);
  const std::int64_t t1 =
      await_publish(ctx, v0, [&](const control::MapSnapshot& snapshot) {
        const auto now_maps_to = deployment_for(ctx, key, snapshot);
        return now_maps_to.has_value() && *now_maps_to != *victim;
      });
  if (t1 == 0) {
    stats.failed += 1;
  } else {
    stats.remap_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
    const std::int64_t built = ctx.stack.last_build_done_ns();
    if (built > t0 && built <= t1) {
      stats.publish_visible_us.push_back(static_cast<double>(t1 - built) / 1e3);
      stats.events.push_back(FlapEvent{t0, built, t1});
    }
    sample_window();
  }
  std::this_thread::sleep_until(revive_at);
  const std::uint64_t v1 = ctx.history.version();
  ctx.stack.set_cluster_down(*victim, false);
  if (await_publish(ctx, v1, [](const control::MapSnapshot&) { return true; }) == 0) {
    stats.failed += 1;
  } else {
    sample_window();
  }
}

}  // namespace

Flapper::Flapper(Context& ctx, std::chrono::milliseconds cadence) : ctx_(ctx) {
  thread_ = std::thread{[this, cadence] {
    try {
      // The flaps are control-plane work: they share the server CPUs with
      // the map maker's thread, away from the generator's sender and receiver.
      pin_current_thread(ctx_.placement.server);
      const std::vector<load::QuerySpec> keys = flap_keys(ctx_);
      auto next = std::chrono::steady_clock::now();
      for (std::size_t i = 0; !stop_.load(std::memory_order_relaxed); ++i) {
        flap_once(ctx_, keys[i % keys.size()], stats_, true, next + cadence / 2);
        next += cadence;
        std::this_thread::sleep_until(next);
      }
    } catch (...) {
      error_ = std::current_exception();  // rethrown by finish()
    }
  }};
}

Flapper::~Flapper() {
  stop_.store(true, std::memory_order_relaxed);
  if (thread_.joinable()) thread_.join();
}

FlapStats Flapper::finish() {
  stop_.store(true, std::memory_order_relaxed);
  if (thread_.joinable()) thread_.join();
  if (error_) std::rethrow_exception(error_);
  return stats_;
}

FlapStats Flapper::run_idle(Context& ctx, std::size_t cycles) {
  FlapStats stats;
  const std::vector<load::QuerySpec> keys = flap_keys(ctx);
  for (std::size_t i = 0; i < cycles; ++i) {
    flap_once(ctx, keys[i % keys.size()], stats, false, std::chrono::steady_clock::now());
  }
  return stats;
}

}  // namespace eumbench
