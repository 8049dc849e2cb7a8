// Scoring: ranking candidate deployments per mapping unit (paper §2.2).
//
// "The topological map is then used to evaluate what performance clients
// of each LDNS is likely to see if they are assigned to each Akamai
// server cluster, a process called scoring." We precompute, for every
// ping target (the unit of EU and NS mapping) and for every LDNS client
// cluster (the unit of CANS mapping, §6), the top-K deployments by
// expected latency; the load balancer then walks these candidate lists.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "cdn/network.h"
#include "cdn/ping_mesh.h"
#include "topo/world.h"

namespace eum::cdn {

/// "Different scoring functions that incorporate bandwidth, latency,
/// packet loss, etc can be used for different traffic classes (web,
/// video, applications)" — §2.2.
enum class TrafficClass : std::uint8_t {
  web,    ///< latency-optimized: score = expected RTT
  video,  ///< throughput-optimized: score ~ 1/Mathis-throughput = RTT*sqrt(loss)
};

/// The score of one (deployment, target) path under a traffic class
/// (lower is better; the unit depends on the class).
[[nodiscard]] float path_score(TrafficClass klass, float rtt_ms, float loss_rate) noexcept;

struct Candidate {
  DeploymentId deployment = 0;
  float score_ms = 0.0F;  ///< class-dependent score (lower is better)

  friend bool operator==(const Candidate&, const Candidate&) = default;
};

/// The top-k kernel behind every candidate table. For each targets[i],
/// writes the best `k` deployments among those with alive[d] != 0 (every
/// deployment when `alive` is empty) to out[i*k, i*k + k), best first
/// under the (score, deployment id) total order; fewer than k eligible
/// deployments pad with {0, +inf}. The order is total, so the output is a
/// pure function of the scores: full and delta rebuilds agree bit for bit.
///
/// Deployment-major: each eligible deployment's mesh row is read once,
/// front to back, folding every requested target into a running top-k.
/// The mesh is row-major, so a per-target column scan would stride a full
/// row between consecutive loads.
void top_k_by_target(const PingMesh& mesh, TrafficClass klass,
                     std::span<const topo::PingTargetId> targets,
                     std::span<const std::uint8_t> alive, std::size_t k,
                     std::span<Candidate> out);

class Scoring {
 public:
  /// Build candidate lists. `top_k` deployments are retained per unit,
  /// ranked by the traffic class's scoring function. `cluster_scores`
  /// controls the per-LDNS CANS aggregation — the one pass that walks
  /// every block-LDNS association per deployment. Paper-scale worlds that
  /// only need per-target lists (EU/NS mapping) turn it off;
  /// cluster_candidates then falls back to the LDNS's own target list.
  static Scoring build(const topo::World& world, const CdnNetwork& network, const PingMesh& mesh,
                       std::size_t top_k = 8, TrafficClass klass = TrafficClass::web,
                       bool cluster_scores = true);

  /// Candidates for a ping target, best first (EU and NS mapping units).
  [[nodiscard]] std::span<const Candidate> target_candidates(topo::PingTargetId target) const;

  /// Candidates for an LDNS's client cluster, best first: deployments
  /// minimizing the traffic-weighted mean latency to the clients behind
  /// that LDNS (CANS mapping, §6 scheme 3). LDNSes with no clients fall
  /// back to their own ping target's list.
  [[nodiscard]] std::span<const Candidate> cluster_candidates(topo::LdnsId ldns) const;

  [[nodiscard]] std::size_t top_k() const noexcept { return top_k_; }

  /// The LDNS's own ping target (the fallback mapping unit for a cluster).
  [[nodiscard]] topo::PingTargetId ldns_target(topo::LdnsId ldns) const {
    return ldns_target_.at(ldns);
  }

  /// Same candidate tables (the map maker's publish-skip check).
  friend bool operator==(const Scoring&, const Scoring&) = default;

 private:
  std::size_t top_k_ = 0;
  std::size_t target_count_ = 0;
  std::vector<Candidate> by_target_;   ///< target_count x top_k
  std::vector<Candidate> by_cluster_;  ///< ldns_count x top_k
  std::vector<bool> cluster_has_data_;
  std::vector<topo::PingTargetId> ldns_target_;  ///< fallback unit per LDNS
};

}  // namespace eum::cdn
