#include "cdn/load_balancer.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "util/hash.h"

namespace eum::cdn {

GlobalLoadBalancer::GlobalLoadBalancer(CdnNetwork* network, const Scoring* scoring,
                                       const PingMesh* mesh, GlobalLbConfig config)
    : network_(network), scoring_(scoring), mesh_(mesh), config_(config) {
  if (network_ == nullptr || scoring_ == nullptr || mesh_ == nullptr) {
    throw std::invalid_argument{"GlobalLoadBalancer: network/scoring/mesh are required"};
  }
}

bool GlobalLoadBalancer::usable(const Deployment& d, double load_units) const noexcept {
  if (!d.alive || d.alive_servers() == 0) return false;
  if (!config_.load_aware) return true;
  return d.load + load_units <= d.capacity * config_.overload_factor;
}

std::optional<DeploymentId> GlobalLoadBalancer::pick(std::span<const Candidate> candidates,
                                                     topo::PingTargetId fallback_target,
                                                     double load_units) {
  for (const Candidate& candidate : candidates) {
    if (!std::isfinite(candidate.score_ms)) break;
    Deployment& d = network_->deployments()[candidate.deployment];
    if (usable(d, load_units)) {
      d.load += load_units;
      return candidate.deployment;
    }
  }
  // Every precomputed candidate is unavailable: full scan of the mesh
  // column (rare; covers mass failures and hot spots).
  std::optional<DeploymentId> best;
  float best_score = std::numeric_limits<float>::infinity();
  for (std::size_t d = 0; d < network_->size(); ++d) {
    const float score = mesh_->rtt_ms(d, fallback_target);
    if (score < best_score && usable(network_->deployments()[d], load_units)) {
      best = static_cast<DeploymentId>(d);
      best_score = score;
    }
  }
  if (best) network_->deployments()[*best].load += load_units;
  return best;
}

std::optional<DeploymentId> GlobalLoadBalancer::assign_for_target(topo::PingTargetId target,
                                                                  double load_units) {
  return pick(scoring_->target_candidates(target), target, load_units);
}

std::optional<DeploymentId> GlobalLoadBalancer::assign_for_cluster(topo::LdnsId ldns,
                                                                   double load_units) {
  // The full-scan fallback unit for a cluster is the LDNS's own ping target.
  return pick(scoring_->cluster_candidates(ldns), scoring_->ldns_target(ldns), load_units);
}

std::uint64_t rendezvous_weight(std::uint64_t domain_hash, net::IpV4Addr server) noexcept {
  return util::hash_combine(domain_hash, static_cast<std::uint64_t>(server.value()));
}

RendezvousTop::RendezvousTop(std::size_t k) : k_(k) {
  if (k_ > kInline) spill_.resize(k_);
}

void RendezvousTop::offer(std::uint64_t weight, std::size_t index) noexcept {
  RankedServer* top = data();
  if (filled_ == k_) {
    // Full: only a strictly heavier server displaces the lightest kept.
    if (filled_ == 0 || weight <= top[filled_ - 1].weight) return;
    --filled_;
  }
  std::size_t pos = filled_++;
  for (; pos > 0 && top[pos - 1].weight < weight; --pos) top[pos] = top[pos - 1];
  top[pos] = RankedServer{weight, index};
}

std::vector<net::IpAddr> LocalLoadBalancer::pick_servers(Deployment& deployment,
                                                         std::string_view domain,
                                                         double load_units,
                                                         double server_capacity) const {
  // Rendezvous hashing: rank servers by hash(domain, server); the top
  // ranks are the domain's "home" servers in this cluster.
  RendezvousTop top{servers_per_answer_};
  const std::uint64_t domain_hash = util::fnv1a64(domain);
  for (std::size_t i = 0; i < deployment.servers.size(); ++i) {
    const Server& server = deployment.servers[i];
    if (!server.alive) continue;
    if (server_capacity > 0.0 && server.load + load_units > server_capacity) continue;
    top.offer(rendezvous_weight(domain_hash, server.address), i);
  }

  std::vector<net::IpAddr> picked;
  const std::size_t want = top.ranked().size();
  picked.reserve(want);
  for (const RankedServer& ranked : top.ranked()) {
    Server& server = deployment.servers[ranked.index];
    server.load += load_units / static_cast<double>(want);
    picked.emplace_back(server.address);
  }
  return picked;
}

}  // namespace eum::cdn
