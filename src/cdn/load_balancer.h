// Two-level load balancing (paper §2.2, "Server Assignment").
//
// Global load balancing assigns a server *cluster* to each mapping unit,
// combining the scoring candidates with liveness and capacity. Local load
// balancing then picks servers *within* the cluster via rendezvous
// (highest-random-weight) hashing on the domain name — the cache-affinity
// property: the same domain lands on the same servers of a cluster, so a
// cluster stores each object on few disks. Two or more servers are
// returned "as additional precaution against transient failures" (§1).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "cdn/network.h"
#include "cdn/ping_mesh.h"
#include "cdn/scoring.h"

namespace eum::cdn {

struct GlobalLbConfig {
  /// When true, clusters loaded beyond capacity are skipped and load is
  /// tracked per assignment.
  bool load_aware = true;
  /// A cluster is considered full at load >= overload_factor * capacity.
  double overload_factor = 1.0;
};

class GlobalLoadBalancer {
 public:
  /// `network`, `scoring` and `mesh` are borrowed and must outlive the LB.
  GlobalLoadBalancer(CdnNetwork* network, const Scoring* scoring, const PingMesh* mesh,
                     GlobalLbConfig config = {});

  /// Choose a cluster for a ping-target mapping unit (EU / NS units),
  /// charging `load_units` to it. Falls back to a full mesh-column scan
  /// when every precomputed candidate is dead or full; returns nullopt
  /// only when no live cluster has spare capacity.
  [[nodiscard]] std::optional<DeploymentId> assign_for_target(topo::PingTargetId target,
                                                              double load_units);

  /// Same for an LDNS client-cluster unit (CANS).
  [[nodiscard]] std::optional<DeploymentId> assign_for_cluster(topo::LdnsId ldns,
                                                               double load_units);

 private:
  [[nodiscard]] bool usable(const Deployment& d, double load_units) const noexcept;
  [[nodiscard]] std::optional<DeploymentId> pick(std::span<const Candidate> candidates,
                                                 topo::PingTargetId fallback_target,
                                                 double load_units);

  CdnNetwork* network_;
  const Scoring* scoring_;
  const PingMesh* mesh_;
  GlobalLbConfig config_;
};

/// The rendezvous weight of `server` for a domain whose name hashes to
/// `domain_hash` (util::fnv1a64 of the name). Every server ranking — live
/// and snapshot — uses this one formula, so a domain keeps its "home"
/// servers whichever path answered.
[[nodiscard]] std::uint64_t rendezvous_weight(std::uint64_t domain_hash,
                                              net::IpV4Addr server) noexcept;

/// One rendezvous-hashing rank entry: a server's weight and its index in
/// the cluster's server list.
struct RankedServer {
  std::uint64_t weight = 0;
  std::size_t index = 0;
};

/// Partial selection of the `k` heaviest servers, best first, without
/// sorting the whole cluster. Offer servers in ascending index order: an
/// equal weight ranks behind the earlier server, so ranked() equals a
/// stable descending sort by weight cut to `k`. Up to kInline entries
/// live in place, so the usual answer size never allocates.
class RendezvousTop {
 public:
  static constexpr std::size_t kInline = 8;

  explicit RendezvousTop(std::size_t k);

  void offer(std::uint64_t weight, std::size_t index) noexcept;

  [[nodiscard]] std::span<const RankedServer> ranked() const noexcept {
    return {data(), filled_};
  }

 private:
  [[nodiscard]] RankedServer* data() noexcept {
    return k_ <= kInline ? inline_.data() : spill_.data();
  }
  [[nodiscard]] const RankedServer* data() const noexcept {
    return k_ <= kInline ? inline_.data() : spill_.data();
  }

  std::size_t k_;
  std::size_t filled_ = 0;
  std::array<RankedServer, kInline> inline_{};
  std::vector<RankedServer> spill_;  ///< used only when k_ > kInline
};

/// Local load balancing within one cluster.
class LocalLoadBalancer {
 public:
  explicit LocalLoadBalancer(std::size_t servers_per_answer = 2)
      : servers_per_answer_(servers_per_answer) {}

  /// Pick `servers_per_answer` live servers for `domain` by rendezvous
  /// hashing, skipping servers loaded beyond `server_capacity` when
  /// positive. Returns fewer (possibly zero) when the cluster is degraded.
  [[nodiscard]] std::vector<net::IpAddr> pick_servers(Deployment& deployment,
                                                      std::string_view domain,
                                                      double load_units = 0.0,
                                                      double server_capacity = 0.0) const;

  [[nodiscard]] std::size_t servers_per_answer() const noexcept { return servers_per_answer_; }

 private:
  std::size_t servers_per_answer_;
};

}  // namespace eum::cdn
