#include "cdn/scoring.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <unordered_map>

namespace eum::cdn {

namespace {

/// Fold `c` into a best-first row holding `fill` (<= k) entries under the
/// (score, deployment id) order. Callers fold deployments in ascending id
/// order, so on an equal score the incumbent ranks first: `c` only moves
/// ahead of strictly worse entries, and enters a full row only when it
/// beats the k-th.
void fold(Candidate* row, std::size_t& fill, std::size_t k, Candidate c) {
  std::size_t i = 0;
  if (fill < k) {
    i = fill++;
  } else if (c.score_ms < row[k - 1].score_ms) {
    i = k - 1;
  } else {
    return;
  }
  for (; i > 0 && row[i - 1].score_ms > c.score_ms; --i) row[i] = row[i - 1];
  row[i] = c;
}

/// Pad a row's unfilled tail with the {0, +inf} "no candidate" sentinel.
void pad(Candidate* row, std::size_t fill, std::size_t k) {
  std::fill(row + fill, row + k, Candidate{0, std::numeric_limits<float>::infinity()});
}

template <typename ScoreFn>
void fold_rows(const PingMesh& mesh, std::span<const topo::PingTargetId> targets,
               std::span<const std::uint8_t> alive, std::size_t k, Candidate* out,
               ScoreFn score_of) {
  const std::size_t n = targets.size();
  std::vector<std::size_t> fill(n, 0);
  // worst[i]: row i's k-th score once full (+inf until then), so the
  // common case — a score that misses row i's top k — is one compare and
  // touches no row.
  std::vector<float> worst(n, std::numeric_limits<float>::infinity());
  for (std::size_t d = 0; d < mesh.deployment_count(); ++d) {
    if (!alive.empty() && alive[d] == 0) continue;
    const float* rtt = mesh.row(d).data();
    const float* loss = mesh.loss_row(d).data();
    for (std::size_t i = 0; i < n; ++i) {
      const topo::PingTargetId t = targets[i];
      const float score = score_of(rtt[t], loss[t]);
      if (fill[i] == k && !(score < worst[i])) continue;
      Candidate* row = out + i * k;
      fold(row, fill[i], k, Candidate{static_cast<DeploymentId>(d), score});
      if (fill[i] == k) worst[i] = row[k - 1].score_ms;
    }
  }
  for (std::size_t i = 0; i < n; ++i) pad(out + i * k, fill[i], k);
}

}  // namespace

float path_score(TrafficClass klass, float rtt_ms, float loss_rate) noexcept {
  switch (klass) {
    case TrafficClass::web:
      return rtt_ms;
    case TrafficClass::video:
      // Mathis et al.: TCP throughput ~ MSS / (RTT * sqrt(p)); minimizing
      // RTT*sqrt(p) maximizes it. Floor the loss so pristine paths still
      // rank by latency.
      return rtt_ms * std::sqrt(std::max(loss_rate, 1e-4F));
  }
  return rtt_ms;
}

void top_k_by_target(const PingMesh& mesh, TrafficClass klass,
                     std::span<const topo::PingTargetId> targets,
                     std::span<const std::uint8_t> alive, std::size_t k,
                     std::span<Candidate> out) {
  if (k == 0 || out.size() != targets.size() * k) {
    throw std::invalid_argument{"top_k_by_target: out must hold k > 0 rows per target"};
  }
  if (!alive.empty() && alive.size() != mesh.deployment_count()) {
    throw std::invalid_argument{"top_k_by_target: alive mask must cover every deployment"};
  }
  // One instantiation per class keeps the score function out of the
  // inner loop's branches.
  switch (klass) {
    case TrafficClass::web:
      fold_rows(mesh, targets, alive, k, out.data(), [](float rtt, float /*loss*/) {
        return path_score(TrafficClass::web, rtt, 0.0F);
      });
      return;
    case TrafficClass::video:
      fold_rows(mesh, targets, alive, k, out.data(), [](float rtt, float loss) {
        return path_score(TrafficClass::video, rtt, loss);
      });
      return;
  }
}

Scoring Scoring::build(const topo::World& world, const CdnNetwork& network, const PingMesh& mesh,
                       std::size_t top_k, TrafficClass klass, bool cluster_scores) {
  if (top_k == 0) throw std::invalid_argument{"Scoring::build: top_k must be positive"};
  if (mesh.deployment_count() != network.size() ||
      mesh.target_count() != world.ping_targets.size()) {
    throw std::invalid_argument{"Scoring::build: mesh does not match world/network"};
  }
  Scoring scoring;
  scoring.top_k_ = top_k;
  scoring.target_count_ = mesh.target_count();
  const std::size_t n_dep = mesh.deployment_count();

  // Per ping target: one deployment-major pass over the mesh.
  scoring.by_target_.resize(scoring.target_count_ * top_k);
  std::vector<topo::PingTargetId> targets(scoring.target_count_);
  std::iota(targets.begin(), targets.end(), topo::PingTargetId{0});
  top_k_by_target(mesh, klass, targets, {}, top_k, scoring.by_target_);

  // Per LDNS cluster: traffic-weighted member targets.
  // Member weights: demand x use-fraction of each block, grouped by the
  // block's ping target. Skipped (cluster_scores=false) for non-CANS
  // deployments at paper scale — the aggregation walks every association
  // entry per deployment, the dominant cost at millions of blocks;
  // cluster_candidates then falls back to per-target lists.
  const std::size_t n_ldns = world.ldnses.size();
  scoring.cluster_has_data_.resize(n_ldns, false);
  scoring.ldns_target_.resize(n_ldns, 0);
  for (std::size_t l = 0; l < n_ldns; ++l) {
    scoring.ldns_target_[l] = world.ldnses[l].ping_target;
  }
  if (!cluster_scores) return scoring;
  std::vector<std::unordered_map<topo::PingTargetId, double>> members(n_ldns);
  for (const topo::ClientBlock& block : world.blocks) {
    for (const topo::LdnsUse& use : world.ldns_uses(block)) {
      members[use.ldns][block.ping_target] += block.demand * use.fraction;
    }
  }
  scoring.by_cluster_.resize(n_ldns * top_k);
  for (std::size_t l = 0; l < n_ldns; ++l) {
    if (members[l].empty()) continue;
    scoring.cluster_has_data_[l] = true;
    double wsum = 0.0;
    for (const auto& [target, weight] : members[l]) wsum += weight;
    Candidate* row = &scoring.by_cluster_[l * top_k];
    std::size_t fill = 0;
    for (std::size_t d = 0; d < n_dep; ++d) {
      double score = 0.0;
      for (const auto& [target, weight] : members[l]) {
        score += weight * static_cast<double>(
                              path_score(klass, mesh.rtt_ms(d, target), mesh.loss_rate(d, target)));
      }
      fold(row, fill, top_k,
           Candidate{static_cast<DeploymentId>(d), static_cast<float>(score / wsum)});
    }
    pad(row, fill, top_k);
  }
  return scoring;
}

std::span<const Candidate> Scoring::target_candidates(topo::PingTargetId target) const {
  if (target >= target_count_) throw std::out_of_range{"Scoring: unknown ping target"};
  return {by_target_.data() + static_cast<std::size_t>(target) * top_k_, top_k_};
}

std::span<const Candidate> Scoring::cluster_candidates(topo::LdnsId ldns) const {
  if (ldns >= cluster_has_data_.size()) throw std::out_of_range{"Scoring: unknown LDNS"};
  if (!cluster_has_data_[ldns]) return target_candidates(ldns_target_[ldns]);
  return {by_cluster_.data() + static_cast<std::size_t>(ldns) * top_k_, top_k_};
}

}  // namespace eum::cdn
