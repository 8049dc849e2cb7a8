// The benchmark's traffic mixes. Each workload is a seeded query stream
// over the stack's world; the server sees only the generated datagrams.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "load/traffic.h"
#include "topo/world.h"

namespace eumbench {

enum class WorkloadKind : std::uint8_t { hot_repeat, ecs_diverse, remap_churn };

/// Parse a workload name; throws std::invalid_argument on an unknown one.
[[nodiscard]] WorkloadKind parse_workload(const std::string& name);
[[nodiscard]] const char* to_string(WorkloadKind kind);

class Workload {
 public:
  Workload(WorkloadKind kind, const eum::topo::World& world, std::uint64_t seed);

  /// True when the control plane flaps clusters beside the traffic.
  [[nodiscard]] bool churn() const { return kind_ == WorkloadKind::remap_churn; }
  [[nodiscard]] const eum::load::TrafficModel& model() const { return *model_; }

  /// `count` queries of independent stream `stream` (same seed and stream
  /// give the same queries).
  [[nodiscard]] std::vector<eum::load::QuerySpec> generate(std::size_t count,
                                                           std::uint64_t stream) const;

 private:
  WorkloadKind kind_;
  std::uint64_t seed_;
  std::unique_ptr<eum::load::TrafficModel> model_;
  /// hot_repeat's fixed key set: /24 ECS blocks announced by its LDNSes.
  std::vector<eum::net::IpPrefix> hot_blocks_;
};

}  // namespace eumbench
