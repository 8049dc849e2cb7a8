#include "stack.h"

#include <sched.h>
#include <sys/utsname.h>

#include <chrono>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "obs/build_info.h"
#include "topo/world_gen.h"
#include "util.h"

namespace eumbench {

using namespace eum;

Placement plan_placement() {
  Placement placement;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) placement.allowed.push_back(cpu);
    }
  }
  if (placement.allowed.empty()) placement.allowed.push_back(0);
  const std::size_t n = placement.allowed.size();
  if (n == 1) {
    placement.server = placement.allowed;
    placement.generator = placement.allowed;
    return placement;
  }
  // Two UDP workers want two CPUs and the sender/receiver pair two more;
  // with fewer CPUs the halves are as even as the host allows.
  const std::size_t server_count = std::min<std::size_t>(Stack::kWorkers, n / 2);
  placement.server.assign(placement.allowed.begin(),
                          placement.allowed.begin() + static_cast<long>(server_count));
  placement.generator.assign(placement.allowed.begin() + static_cast<long>(server_count),
                             placement.allowed.begin() +
                                 static_cast<long>(std::min(n, server_count + 2)));
  placement.disjoint = true;
  return placement;
}

void pin_current_thread(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) CPU_SET(cpu, &set);
  if (::sched_setaffinity(0, sizeof set, &set) != 0) {
    throw std::runtime_error{"sched_setaffinity failed"};
  }
}

namespace {

std::string cpu_model() {
  std::ifstream in{"/proc/cpuinfo"};
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

std::string cpu_list(const std::vector<int>& cpus) {
  std::string out = "[";
  for (std::size_t i = 0; i < cpus.size(); ++i) {
    if (i != 0) out += ',';
    out += std::to_string(cpus[i]);
  }
  return out + "]";
}

double since_s(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

}  // namespace

std::string host_fingerprint_json(const Placement& placement) {
  utsname uts{};
  const std::string kernel = ::uname(&uts) == 0 ? std::string{uts.release} : "unknown";
  const obs::BuildInfo build = obs::build_info();
  std::string out = "{";
  out += "\"nproc\": " + std::to_string(std::thread::hardware_concurrency());
  out += ", \"kernel\": " + json_string(kernel);
  out += ", \"cpu_model\": " + json_string(cpu_model());
  out += ", \"compiler\": " + json_string(build.compiler);
  out += ", \"build_type\": " + json_string(build.build_type);
  out += ", \"affinity_allowed\": " + cpu_list(placement.allowed);
  out += ", \"affinity_server\": " + cpu_list(placement.server);
  out += ", \"affinity_generator\": " + cpu_list(placement.generator);
  out += ", \"disjoint\": " + std::string{placement.disjoint ? "true" : "false"};
  return out + "}";
}

Stack::Stack(const Placement& placement, SetupTimes& times) {
  auto t0 = std::chrono::steady_clock::now();
  // A world of >= 100k /24 client blocks (the generator's default scale),
  // with the example server's deployment count.
  topo::WorldGenConfig world_config;
  world_config.seed = 42;
  world_ = topo::generate_world(world_config);
  times.world_gen_s = since_s(t0);

  t0 = std::chrono::steady_clock::now();
  latency_ = std::make_unique<topo::LatencyModel>(topo::LatencyParams{}, world_config.seed);
  network_ = std::make_unique<cdn::CdnNetwork>(cdn::CdnNetwork::build(world_, 400));
  mapping_ = std::make_unique<cdn::MappingSystem>(&world_, network_.get(), latency_.get(),
                                                  cdn::MappingConfig{});
  times.mapping_build_s = since_s(t0);

  t0 = std::chrono::steady_clock::now();
  control::MapMakerConfig maker_config;
  maker_config.registry = &registry_;
  // One scoring thread: a rebuild never fans out past the CPU budget.
  maker_config.scoring_shards = 1;
  maker_config.after_build_hook = [this] {
    build_done_ns_.store(now_ns(), std::memory_order_release);
  };
  maker_ = std::make_unique<control::MapMaker>(mapping_.get(), &clock_, maker_config);
  maker_->install_fast_path();
  health_ = std::make_unique<ClusterHealth>(network_->size());
  monitor_ = std::make_unique<cdn::LivenessMonitor>(
      network_.get(), &clock_,
      [health = health_.get()](cdn::DeploymentId cluster, std::size_t) {
        return health->healthy(cluster);
      },
      cdn::LivenessConfig{1, 1, 1});
  maker_->watch(monitor_.get());
  times.first_snapshot_s = since_s(t0);

  t0 = std::chrono::steady_clock::now();
  engine_ = std::make_unique<dnsserver::AuthoritativeServer>(&registry_);
  // Load-generator sockets live on loopback, so the resolver address is
  // never a world LDNS; like the example server, unknown resolvers are
  // answered as the world's first LDNS.
  const topo::World* world = &world_;
  const net::IpAddr fallback = world_.ldnses.front().address;
  engine_->add_dynamic_domain(
      dns::DnsName::from_text(kZone),
      [world, fallback, inner = mapping_->dns_handler()](const dnsserver::DynamicQuery& query)
          -> std::optional<dnsserver::DynamicAnswer> {
        dnsserver::DynamicQuery patched = query;
        if (world->ldns_by_address(query.resolver) == nullptr) patched.resolver = fallback;
        return inner(patched);
      });
  dnsserver::UdpServerConfig config;
  config.workers = kWorkers;
  config.registry = &registry_;
  config.batch = kBatch;
  config.answer_cache_entries = kCacheEntries;
  config.map_version = &maker_->version_cell();
  server_ = std::make_unique<dnsserver::UdpAuthorityServer>(
      engine_.get(), dnsserver::UdpEndpoint{net::IpV4Addr{127, 0, 0, 1}, 0}, config);
  // Threads inherit the starting thread's mask: pin before spawning.
  cpu_set_t previous;
  CPU_ZERO(&previous);
  (void)::sched_getaffinity(0, sizeof previous, &previous);
  pin_current_thread(placement.server);
  server_->start();
  // Liveness-triggered publishes only: the periodic cadence is longer than
  // any run, so every version bump is a remap the harness caused.
  maker_->start(std::chrono::hours{1});
  (void)::sched_setaffinity(0, sizeof previous, &previous);
  times.server_start_s = since_s(t0);
}

Stack::~Stack() {
  if (maker_) maker_->stop();
  if (server_) server_->stop();
}

void Stack::set_cluster_down(std::size_t cluster, bool down) {
  health_->set_down(cluster, down);
  clock_.advance(1);
}

}  // namespace eumbench
