// The serving stack under test, assembled the way examples/ecs_dns_server
// ships it: a generated world, the mapping system behind the map maker's
// published snapshots, an authoritative engine whose g.cdn.example handler
// patches unknown resolvers to one fallback LDNS, and a batched UDP server
// (batch 32, 4096-entry answer cache per worker keyed to the map version).
// The map maker additionally watches a liveness monitor whose health oracle
// the harness controls, which is the production trigger for a remap.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cdn/liveness.h"
#include "cdn/mapping.h"
#include "control/map_maker.h"
#include "dnsserver/udp.h"
#include "obs/metrics.h"
#include "topo/latency.h"
#include "topo/world.h"
#include "util/sim_clock.h"

namespace eumbench {

/// CPU sets the harness pins its threads to.
struct Placement {
  std::vector<int> allowed;    ///< CPUs this process may run on
  std::vector<int> server;     ///< UDP workers and the map maker thread
  std::vector<int> generator;  ///< open-loop sender/receiver, probes, replay
  bool disjoint = false;       ///< server and generator share no CPU
};

/// Split the allowed CPUs into a server half and a generator half.
[[nodiscard]] Placement plan_placement();

/// Pin the calling thread (threads it spawns afterwards inherit the mask).
void pin_current_thread(const std::vector<int>& cpus);

/// Host and build facts recorded with every result.
[[nodiscard]] std::string host_fingerprint_json(const Placement& placement);

/// Wall seconds of each set-up stage.
struct SetupTimes {
  double world_gen_s = 0.0;
  double mapping_build_s = 0.0;
  double first_snapshot_s = 0.0;
  double server_start_s = 0.0;
  [[nodiscard]] double total() const {
    return world_gen_s + mapping_build_s + first_snapshot_s + server_start_s;
  }
};

/// Health oracle state: the harness marks whole clusters down or up.
class ClusterHealth {
 public:
  explicit ClusterHealth(std::size_t clusters) : down_(clusters) {}
  void set_down(std::size_t cluster, bool down) {
    down_[cluster].store(down ? 1 : 0, std::memory_order_seq_cst);
  }
  [[nodiscard]] bool healthy(std::size_t cluster) const {
    return down_[cluster].load(std::memory_order_seq_cst) == 0;
  }

 private:
  std::vector<std::atomic<std::uint8_t>> down_;
};

class Stack {
 public:
  static constexpr const char* kZone = "g.cdn.example";
  static constexpr std::size_t kWorkers = 2;
  static constexpr std::size_t kBatch = 32;
  static constexpr std::size_t kCacheEntries = 4096;

  /// Build the whole stack, timing each stage. The UDP workers and the map
  /// maker's thread are started pinned to `placement.server`.
  Stack(const Placement& placement, SetupTimes& times);
  ~Stack();
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  [[nodiscard]] const eum::topo::World& world() const { return world_; }
  [[nodiscard]] eum::control::MapMaker& maker() { return *maker_; }
  [[nodiscard]] eum::dnsserver::AuthoritativeServer& engine() { return *engine_; }
  [[nodiscard]] eum::dnsserver::UdpAuthorityServer& server() { return *server_; }
  [[nodiscard]] eum::obs::MetricsRegistry& registry() { return registry_; }
  [[nodiscard]] const eum::topo::Ldns& fallback_ldns() const { return world_.ldnses.front(); }

  /// The engine's dynamic handler, for wrapping by the traced replay.
  [[nodiscard]] eum::dnsserver::DynamicAnswerFn mapping_handler() {
    return mapping_->dns_handler();
  }

  /// Mark a cluster down (or back up) through the liveness oracle and let
  /// one probe interval of simulated time pass, so the map maker's next
  /// liveness poll sees the transition.
  void set_cluster_down(std::size_t cluster, bool down);

  /// steady_clock nanoseconds at which the map maker last finished building
  /// a snapshot (recorded by the build hook, just before publishing).
  [[nodiscard]] std::int64_t last_build_done_ns() const {
    return build_done_ns_.load(std::memory_order_acquire);
  }

 private:
  eum::topo::World world_;
  std::unique_ptr<eum::topo::LatencyModel> latency_;
  std::unique_ptr<eum::cdn::CdnNetwork> network_;
  std::unique_ptr<eum::cdn::MappingSystem> mapping_;
  eum::obs::MetricsRegistry registry_;
  eum::util::SimClock clock_;
  std::unique_ptr<ClusterHealth> health_;
  std::atomic<std::int64_t> build_done_ns_{0};
  std::unique_ptr<eum::cdn::LivenessMonitor> monitor_;
  std::unique_ptr<eum::control::MapMaker> maker_;
  std::unique_ptr<eum::dnsserver::AuthoritativeServer> engine_;
  std::unique_ptr<eum::dnsserver::UdpAuthorityServer> server_;
};

}  // namespace eumbench
