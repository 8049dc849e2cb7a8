#include "cdn/liveness.h"

#include <stdexcept>

namespace eum::cdn {

LivenessMonitor::LivenessMonitor(CdnNetwork* network, const util::SimClock* clock,
                                 HealthOracle oracle, LivenessConfig config)
    : network_(network), clock_(clock), oracle_(std::move(oracle)), config_(config) {
  if (network_ == nullptr || clock_ == nullptr || !oracle_) {
    throw std::invalid_argument{"LivenessMonitor: network, clock and oracle are required"};
  }
  if (config_.probe_interval_s <= 0 || config_.down_threshold <= 0 ||
      config_.up_threshold <= 0) {
    throw std::invalid_argument{"LivenessMonitor: intervals and thresholds must be positive"};
  }
  streaks_.resize(network_->size());
  for (std::size_t d = 0; d < network_->size(); ++d) {
    streaks_[d].assign(network_->deployments()[d].servers.size(), 0);
  }
  next_probe_ = clock_->now();
}

std::size_t LivenessMonitor::tick() {
  std::size_t applied = 0;
  while (probe_due()) {
    for (std::size_t d = 0; d < network_->size(); ++d) {
      Deployment& deployment = network_->deployments()[d];
      for (std::size_t s = 0; s < deployment.servers.size(); ++s) {
        ++probes_;
        const bool healthy = oracle_(static_cast<DeploymentId>(d), s);
        int& streak = streaks_[d][s];
        // Positive streak counts consecutive failures; negative successes.
        streak = healthy ? std::min(streak, 0) - 1 : std::max(streak, 0) + 1;
        Server& server = deployment.servers[s];
        if (server.alive && streak >= config_.down_threshold) {
          server.alive = false;
          ++transitions_;
          ++applied;
        } else if (!server.alive && -streak >= config_.up_threshold) {
          server.alive = true;
          ++transitions_;
          ++applied;
        }
      }
      // Cluster liveness follows its servers.
      const bool any_alive = deployment.alive_servers() > 0;
      if (deployment.alive != any_alive) {
        deployment.alive = any_alive;
        ++transitions_;
        ++applied;
      }
    }
    next_probe_ += config_.probe_interval_s;
  }
  return applied;
}

}  // namespace eum::cdn
