#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include "cdn/load_balancer.h"
#include "cdn/mapping.h"
#include "cdn/network.h"
#include "cdn/ping_mesh.h"
#include "cdn/scoring.h"
#include "test_world.h"
#include "util/rng.h"

namespace eum::cdn {
namespace {

using eum::testing::test_latency;
using eum::testing::tiny_world;

// ---------- CdnNetwork ----------

TEST(CdnNetwork, BuildAssignsDistinctServerBlocks) {
  const auto& world = tiny_world();
  const CdnNetwork network = CdnNetwork::build(world, 40, 6);
  EXPECT_EQ(network.size(), 40U);
  std::set<std::string> blocks;
  for (const Deployment& d : network.deployments()) {
    EXPECT_EQ(d.servers.size(), 6U);
    EXPECT_TRUE(blocks.insert(d.server_block.to_string()).second);
    for (const Server& s : d.servers) {
      EXPECT_TRUE(d.server_block.contains(net::IpAddr{s.address}));
    }
  }
}

TEST(CdnNetwork, DeploymentOfFindsOwner) {
  const auto& world = tiny_world();
  const CdnNetwork network = CdnNetwork::build(world, 10);
  const Deployment& d = network.deployments()[3];
  EXPECT_EQ(network.deployment_of(net::IpAddr{d.servers[0].address}), &d);
  EXPECT_EQ(network.deployment_of(*net::IpAddr::parse("8.8.8.8")), nullptr);
}

TEST(CdnNetwork, BuildRejectsBadArguments) {
  const auto& world = tiny_world();
  EXPECT_THROW(CdnNetwork::build(world, world.deployment_universe.size() + 1),
               std::invalid_argument);
  EXPECT_THROW(CdnNetwork::build(world, 5, 0), std::invalid_argument);
  EXPECT_THROW(CdnNetwork::build(world, 5, 300), std::invalid_argument);
}

TEST(CdnNetwork, LivenessControls) {
  const auto& world = tiny_world();
  CdnNetwork network = CdnNetwork::build(world, 5, 3);
  network.set_cluster_alive(2, false);
  EXPECT_FALSE(network.deployments()[2].alive);
  network.set_server_alive(3, 1, false);
  EXPECT_EQ(network.deployments()[3].alive_servers(), 2U);
  EXPECT_THROW(network.set_cluster_alive(99, false), std::out_of_range);
}

// ---------- PingMesh ----------

TEST(PingMesh, DimensionsMatch) {
  const auto& world = tiny_world();
  const CdnNetwork network = CdnNetwork::build(world, 12);
  const PingMesh mesh = PingMesh::measure(world, network, test_latency());
  EXPECT_EQ(mesh.deployment_count(), 12U);
  EXPECT_EQ(mesh.target_count(), world.ping_targets.size());
  for (std::size_t d = 0; d < mesh.deployment_count(); ++d) {
    EXPECT_EQ(mesh.row(d).size(), mesh.target_count());
    for (std::size_t t = 0; t < mesh.target_count(); ++t) {
      EXPECT_GT(mesh.rtt_ms(d, static_cast<topo::PingTargetId>(t)), 0.0F);
    }
  }
}

TEST(PingMesh, NetworkAndSiteMeasurementsAgree) {
  // Measuring through a CdnNetwork must equal measuring the raw sites
  // (salting is by universe site id).
  const auto& world = tiny_world();
  const CdnNetwork network = CdnNetwork::build(world, 8);
  const PingMesh via_network = PingMesh::measure(world, network, test_latency());
  const PingMesh via_sites = PingMesh::measure_sites(
      world, std::span(world.deployment_universe.data(), 8), test_latency());
  for (std::size_t d = 0; d < 8; ++d) {
    for (std::size_t t = 0; t < via_network.target_count(); ++t) {
      EXPECT_FLOAT_EQ(via_network.rtt_ms(d, static_cast<topo::PingTargetId>(t)),
                      via_sites.rtt_ms(d, static_cast<topo::PingTargetId>(t)));
    }
  }
}

// ---------- Scoring ----------

TEST(Scoring, TargetCandidatesAreSortedTopK) {
  const auto& world = tiny_world();
  const CdnNetwork network = CdnNetwork::build(world, 30);
  const PingMesh mesh = PingMesh::measure(world, network, test_latency());
  const Scoring scoring = Scoring::build(world, network, mesh, 5);
  for (topo::PingTargetId t = 0; t < 50; ++t) {
    const auto candidates = scoring.target_candidates(t);
    ASSERT_EQ(candidates.size(), 5U);
    // Sorted ascending and matching a brute-force minimum.
    float brute_min = std::numeric_limits<float>::infinity();
    for (std::size_t d = 0; d < network.size(); ++d) brute_min = std::min(brute_min, mesh.rtt_ms(d, t));
    EXPECT_FLOAT_EQ(candidates[0].score_ms, brute_min);
    for (std::size_t i = 1; i < candidates.size(); ++i) {
      EXPECT_LE(candidates[i - 1].score_ms, candidates[i].score_ms);
    }
  }
}

TEST(Scoring, TopKLargerThanDeploymentsPadsWithInfinity) {
  const auto& world = tiny_world();
  const CdnNetwork network = CdnNetwork::build(world, 3);
  const PingMesh mesh = PingMesh::measure(world, network, test_latency());
  const Scoring scoring = Scoring::build(world, network, mesh, 6);
  const auto candidates = scoring.target_candidates(0);
  ASSERT_EQ(candidates.size(), 6U);
  EXPECT_TRUE(std::isfinite(candidates[2].score_ms));
  EXPECT_FALSE(std::isfinite(candidates[3].score_ms));
}

// ---------- top_k_by_target (the deployment-major kernel) ----------

/// Brute-force reference: a per-target column scan and a partial_sort
/// under the (score, deployment id) order, padded with {0, +inf}.
std::vector<Candidate> reference_top_k(const PingMesh& mesh, TrafficClass klass,
                                       const std::vector<topo::PingTargetId>& targets,
                                       const std::vector<std::uint8_t>& alive, std::size_t k) {
  std::vector<Candidate> out;
  for (const topo::PingTargetId t : targets) {
    std::vector<Candidate> column;
    for (std::size_t d = 0; d < mesh.deployment_count(); ++d) {
      if (!alive.empty() && alive[d] == 0) continue;
      column.push_back(Candidate{static_cast<DeploymentId>(d),
                                 path_score(klass, mesh.rtt_ms(d, t), mesh.loss_rate(d, t))});
    }
    const std::size_t keep = std::min(k, column.size());
    std::partial_sort(column.begin(), column.begin() + static_cast<std::ptrdiff_t>(keep),
                      column.end(), [](const Candidate& a, const Candidate& b) {
                        if (a.score_ms != b.score_ms) return a.score_ms < b.score_ms;
                        return a.deployment < b.deployment;
                      });
    for (std::size_t i = 0; i < k; ++i) {
      out.push_back(i < keep ? column[i]
                             : Candidate{0, std::numeric_limits<float>::infinity()});
    }
  }
  return out;
}

/// Candidate arrays equal bit for bit (ids and score bit patterns).
bool bit_identical(const std::vector<Candidate>& a, const std::vector<Candidate>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].deployment != b[i].deployment ||
        std::bit_cast<std::uint32_t>(a[i].score_ms) !=
            std::bit_cast<std::uint32_t>(b[i].score_ms)) {
      return false;
    }
  }
  return true;
}

TEST(TopKKernel, MatchesPartialSortReferenceOnRandomMeshes) {
  util::Rng rng{0x70b4};
  const auto below = [&rng](std::size_t n) { return static_cast<std::size_t>(rng() % n); };
  const float inf = std::numeric_limits<float>::infinity();
  for (int trial = 0; trial < 400; ++trial) {
    const std::size_t deployments = 1 + below(40);
    const std::size_t n_targets = 1 + below(30);
    // Scores from a handful of values force ties; some paths are +inf.
    std::vector<float> rtt(deployments * n_targets);
    std::vector<float> loss(rtt.size());
    for (std::size_t i = 0; i < rtt.size(); ++i) {
      rtt[i] = below(8) == 0 ? inf : static_cast<float>(below(6)) * 2.5F;
      loss[i] = static_cast<float>(below(4)) * 0.01F;
    }
    const PingMesh mesh = PingMesh::from_matrix(deployments, n_targets, rtt, loss);
    // Alive masks: all (empty span), sparse, dense, or none alive.
    std::vector<std::uint8_t> alive;
    const std::size_t mode = below(4);
    if (mode != 0) {
      alive.resize(deployments);
      for (auto& a : alive) {
        a = mode == 1 ? static_cast<std::uint8_t>(below(5) == 0)
            : mode == 2 ? static_cast<std::uint8_t>(below(5) != 0)
                        : std::uint8_t{0};
      }
    }
    // Requested targets: any order, repeats allowed.
    std::vector<topo::PingTargetId> targets(1 + below(2 * n_targets));
    for (auto& t : targets) t = static_cast<topo::PingTargetId>(below(n_targets));
    // k from 1 up to past the deployment count.
    const std::size_t k = 1 + below(deployments + 4);
    for (const TrafficClass klass : {TrafficClass::web, TrafficClass::video}) {
      std::vector<Candidate> got(targets.size() * k, Candidate{7, -1.0F});
      top_k_by_target(mesh, klass, targets, alive, k, got);
      ASSERT_TRUE(bit_identical(got, reference_top_k(mesh, klass, targets, alive, k)))
          << "trial " << trial << " class " << static_cast<int>(klass) << " k " << k
          << " deployments " << deployments << " alive mode " << mode;
    }
  }
}

TEST(TopKKernel, MatchesScoringTablesOnAMeasuredMesh) {
  const auto& world = tiny_world();
  const CdnNetwork network = CdnNetwork::build(world, 30);
  const PingMesh mesh = PingMesh::measure(world, network, test_latency());
  std::vector<topo::PingTargetId> targets(mesh.target_count());
  for (std::size_t t = 0; t < targets.size(); ++t) {
    targets[t] = static_cast<topo::PingTargetId>(t);
  }
  for (const TrafficClass klass : {TrafficClass::web, TrafficClass::video}) {
    std::vector<Candidate> got(targets.size() * 8);
    top_k_by_target(mesh, klass, targets, {}, 8, got);
    EXPECT_TRUE(bit_identical(got, reference_top_k(mesh, klass, targets, {}, 8)));
  }
}

TEST(TopKKernel, RejectsMisSizedOutputsAndMasks) {
  const PingMesh mesh = PingMesh::from_matrix(2, 3, std::vector<float>(6, 1.0F),
                                              std::vector<float>(6, 0.0F));
  const std::vector<topo::PingTargetId> targets{0, 2};
  std::vector<Candidate> out(4);
  EXPECT_THROW(top_k_by_target(mesh, TrafficClass::web, targets, {}, 3, out),
               std::invalid_argument);
  EXPECT_THROW(top_k_by_target(mesh, TrafficClass::web, targets, {}, 0, out),
               std::invalid_argument);
  const std::vector<std::uint8_t> short_mask{1};
  EXPECT_THROW(top_k_by_target(mesh, TrafficClass::web, targets, short_mask, 2, out),
               std::invalid_argument);
  EXPECT_THROW(PingMesh::from_matrix(2, 2, std::vector<float>(3), std::vector<float>(3)),
               std::invalid_argument);
}

TEST(Scoring, ClusterCandidatesFavorClientCentroid) {
  // The best cluster deployment minimizes the weighted mean over the
  // LDNS's member targets; verify against brute force for a busy LDNS.
  const auto& world = tiny_world();
  const CdnNetwork network = CdnNetwork::build(world, 25);
  const PingMesh mesh = PingMesh::measure(world, network, test_latency());
  const Scoring scoring = Scoring::build(world, network, mesh, 4);

  // Find the busiest LDNS and its members.
  std::unordered_map<topo::LdnsId, std::unordered_map<topo::PingTargetId, double>> members;
  for (const topo::ClientBlock& block : world.blocks) {
    for (const topo::LdnsUse& use : world.ldns_uses(block)) {
      members[use.ldns][block.ping_target] += block.demand * use.fraction;
    }
  }
  topo::LdnsId busiest = members.begin()->first;
  std::size_t best_size = 0;
  for (const auto& [id, m] : members) {
    if (m.size() > best_size) {
      best_size = m.size();
      busiest = id;
    }
  }
  double brute_best = std::numeric_limits<double>::infinity();
  DeploymentId brute_dep = 0;
  for (std::size_t d = 0; d < network.size(); ++d) {
    double score = 0.0;
    double wsum = 0.0;
    for (const auto& [target, weight] : members[busiest]) {
      score += weight * mesh.rtt_ms(d, target);
      wsum += weight;
    }
    score /= wsum;
    if (score < brute_best) {
      brute_best = score;
      brute_dep = static_cast<DeploymentId>(d);
    }
  }
  const auto candidates = scoring.cluster_candidates(busiest);
  EXPECT_EQ(candidates[0].deployment, brute_dep);
  EXPECT_NEAR(candidates[0].score_ms, brute_best, 1e-2);
}

TEST(Scoring, RejectsMismatchedMesh) {
  const auto& world = tiny_world();
  const CdnNetwork big = CdnNetwork::build(world, 10);
  const CdnNetwork small = CdnNetwork::build(world, 5);
  const PingMesh mesh = PingMesh::measure(world, big, test_latency());
  EXPECT_THROW(Scoring::build(world, small, mesh, 4), std::invalid_argument);
  EXPECT_THROW(Scoring::build(world, big, mesh, 0), std::invalid_argument);
}

// ---------- GlobalLoadBalancer ----------

struct LbFixture : ::testing::Test {
  LbFixture()
      : network(CdnNetwork::build(tiny_world(), 20, 4, 100.0)),
        mesh(PingMesh::measure(tiny_world(), network, test_latency())),
        scoring(Scoring::build(tiny_world(), network, mesh, 4)) {}

  CdnNetwork network;
  PingMesh mesh;
  Scoring scoring;
};

TEST_F(LbFixture, AssignsBestCandidate) {
  GlobalLoadBalancer lb{&network, &scoring, &mesh};
  const auto assigned = lb.assign_for_target(0, 1.0);
  ASSERT_TRUE(assigned.has_value());
  EXPECT_EQ(*assigned, scoring.target_candidates(0)[0].deployment);
  EXPECT_DOUBLE_EQ(network.deployments()[*assigned].load, 1.0);
}

TEST_F(LbFixture, SkipsDeadCluster) {
  GlobalLoadBalancer lb{&network, &scoring, &mesh};
  const auto candidates = scoring.target_candidates(0);
  network.set_cluster_alive(candidates[0].deployment, false);
  const auto assigned = lb.assign_for_target(0, 1.0);
  ASSERT_TRUE(assigned.has_value());
  EXPECT_EQ(*assigned, candidates[1].deployment);
}

TEST_F(LbFixture, SpillsOnOverload) {
  GlobalLoadBalancer lb{&network, &scoring, &mesh};
  const auto candidates = scoring.target_candidates(0);
  network.deployments()[candidates[0].deployment].load = 99.5;  // capacity 100
  const auto assigned = lb.assign_for_target(0, 1.0);
  ASSERT_TRUE(assigned.has_value());
  EXPECT_EQ(*assigned, candidates[1].deployment);
}

TEST_F(LbFixture, LoadUnawareIgnoresCapacity) {
  GlobalLbConfig config;
  config.load_aware = false;
  GlobalLoadBalancer lb{&network, &scoring, &mesh, config};
  const auto candidates = scoring.target_candidates(0);
  network.deployments()[candidates[0].deployment].load = 1e12;
  const auto assigned = lb.assign_for_target(0, 1.0);
  ASSERT_TRUE(assigned.has_value());
  EXPECT_EQ(*assigned, candidates[0].deployment);
}

TEST_F(LbFixture, FullScanFallbackWhenCandidatesDead) {
  GlobalLoadBalancer lb{&network, &scoring, &mesh};
  for (const Candidate& c : scoring.target_candidates(0)) {
    if (std::isfinite(c.score_ms)) network.set_cluster_alive(c.deployment, false);
  }
  const auto assigned = lb.assign_for_target(0, 1.0);
  ASSERT_TRUE(assigned.has_value());
  EXPECT_TRUE(network.deployments()[*assigned].alive);
}

TEST_F(LbFixture, NulloptWhenEverythingDead) {
  GlobalLoadBalancer lb{&network, &scoring, &mesh};
  for (std::size_t d = 0; d < network.size(); ++d) {
    network.set_cluster_alive(static_cast<DeploymentId>(d), false);
  }
  EXPECT_FALSE(lb.assign_for_target(0, 1.0).has_value());
}

TEST_F(LbFixture, OverloadFactorExtendsCapacity) {
  GlobalLbConfig config;
  config.overload_factor = 2.0;
  GlobalLoadBalancer lb{&network, &scoring, &mesh, config};
  const auto candidates = scoring.target_candidates(0);
  network.deployments()[candidates[0].deployment].load = 150.0;  // 1.5x capacity
  const auto assigned = lb.assign_for_target(0, 1.0);
  ASSERT_TRUE(assigned.has_value());
  EXPECT_EQ(*assigned, candidates[0].deployment);
}

// ---------- LocalLoadBalancer ----------

TEST(LocalLoadBalancer, SameDomainSameServers) {
  CdnNetwork network = CdnNetwork::build(tiny_world(), 1, 8);
  Deployment& cluster = network.deployments()[0];
  const LocalLoadBalancer lb{2};
  const auto first = lb.pick_servers(cluster, "www.shop.example");
  const auto second = lb.pick_servers(cluster, "www.shop.example");
  EXPECT_EQ(first, second);
  EXPECT_EQ(first.size(), 2U);
}

TEST(RendezvousTop, MatchesSortReferenceWithTiesByIndex) {
  util::Rng rng{0x4e5d};
  const auto below = [&rng](std::size_t n) { return static_cast<std::size_t>(rng() % n); };
  for (int trial = 0; trial < 2000; ++trial) {
    const std::size_t servers = below(40);
    // Half the trials draw weights from a handful of values, forcing ties;
    // the rest use full 64-bit rendezvous weights.
    const bool ties = trial % 2 == 0;
    std::vector<RankedServer> all(servers);
    for (std::size_t i = 0; i < servers; ++i) {
      all[i] = RankedServer{ties ? below(4) : rendezvous_weight(rng(), net::IpV4Addr{10, 0, 0, 1}),
                            i};
    }
    // k from 0 up past the server count, across the inline/spill boundary.
    const std::size_t k = below(RendezvousTop::kInline + 6);
    RendezvousTop top{k};
    for (const RankedServer& r : all) top.offer(r.weight, r.index);

    std::vector<RankedServer> reference = all;
    std::sort(reference.begin(), reference.end(), [](const RankedServer& a, const RankedServer& b) {
      return a.weight != b.weight ? a.weight > b.weight : a.index < b.index;
    });
    reference.resize(std::min(k, servers));
    ASSERT_EQ(top.ranked().size(), reference.size()) << "trial " << trial;
    for (std::size_t i = 0; i < reference.size(); ++i) {
      ASSERT_EQ(top.ranked()[i].index, reference[i].index) << "trial " << trial << " rank " << i;
      ASSERT_EQ(top.ranked()[i].weight, reference[i].weight) << "trial " << trial << " rank " << i;
    }
  }
}

TEST(LocalLoadBalancer, DifferentDomainsSpreadAcrossServers) {
  CdnNetwork network = CdnNetwork::build(tiny_world(), 1, 8);
  Deployment& cluster = network.deployments()[0];
  const LocalLoadBalancer lb{2};
  std::set<std::uint32_t> used;
  for (int i = 0; i < 40; ++i) {
    const auto servers = lb.pick_servers(cluster, "domain-" + std::to_string(i) + ".example");
    for (const net::IpAddr& s : servers) used.insert(s.v4().value());
  }
  EXPECT_GE(used.size(), 6U);  // rendezvous hashing spreads domains
}

TEST(LocalLoadBalancer, SkipsDeadServers) {
  CdnNetwork network = CdnNetwork::build(tiny_world(), 1, 4);
  Deployment& cluster = network.deployments()[0];
  const LocalLoadBalancer lb{2};
  const auto before = lb.pick_servers(cluster, "x.example");
  // Kill the first-ranked server; the answer changes but stays live.
  for (std::size_t i = 0; i < cluster.servers.size(); ++i) {
    if (net::IpAddr{cluster.servers[i].address} == before[0]) {
      cluster.servers[i].alive = false;
    }
  }
  const auto after = lb.pick_servers(cluster, "x.example");
  EXPECT_EQ(after.size(), 2U);
  EXPECT_EQ(std::find(after.begin(), after.end(), before[0]), after.end());
  // Minimal disruption: the surviving pick is retained.
  EXPECT_NE(std::find(after.begin(), after.end(), before[1]), after.end());
}

TEST(LocalLoadBalancer, DegradedClusterReturnsFewer) {
  CdnNetwork network = CdnNetwork::build(tiny_world(), 1, 2);
  Deployment& cluster = network.deployments()[0];
  cluster.servers[0].alive = false;
  const LocalLoadBalancer lb{2};
  EXPECT_EQ(lb.pick_servers(cluster, "x.example").size(), 1U);
  cluster.servers[1].alive = false;
  EXPECT_TRUE(lb.pick_servers(cluster, "x.example").empty());
}

TEST(LocalLoadBalancer, ServerCapacitySkipsLoaded) {
  CdnNetwork network = CdnNetwork::build(tiny_world(), 1, 3);
  Deployment& cluster = network.deployments()[0];
  const LocalLoadBalancer lb{2};
  const auto initial = lb.pick_servers(cluster, "y.example", 5.0, 8.0);
  EXPECT_EQ(initial.size(), 2U);
  // The two picked servers carry 2.5 each; a further 7-unit request
  // exceeds their capacity of 8, so the third server must be chosen.
  const auto next = lb.pick_servers(cluster, "y.example", 7.0, 8.0);
  ASSERT_EQ(next.size(), 1U);
  EXPECT_EQ(std::find(initial.begin(), initial.end(), next[0]), initial.end());
}

}  // namespace
}  // namespace eum::cdn
