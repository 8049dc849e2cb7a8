// Scale machinery of the map-making control plane: the ShardPool worker
// pool, the latency-vector MappingUnits partition, the delta-rebuild path
// (differentially pinned against full rebuilds), and the two liveness
// regression suites — the background thread that must notice a watched
// monitor, and the mid-build transition that must survive to the next
// tick — plus the clock-wake protocol and fail-static background
// rebuilds. ShardedConcurrency and MapMakerLiveness run under TSan via
// scripts/tsan_check.sh.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "cdn/liveness.h"
#include "cdn/mapping.h"
#include "cdn/ping_mesh.h"
#include "control/map_maker.h"
#include "control/map_snapshot.h"
#include "control/mapping_units.h"
#include "test_world.h"
#include "util/shard_pool.h"
#include "util/sim_clock.h"

namespace eum::control {
namespace {

using namespace std::chrono_literals;
using testing::test_latency;
using testing::tiny_world;

// ---------------------------------------------------------------------------
// ShardPool

TEST(ShardPool, EveryJobRunsExactlyOnce) {
  util::ShardPool pool{3};
  EXPECT_EQ(pool.worker_count(), 3U);
  constexpr std::size_t kJobs = 1000;
  std::vector<std::atomic<int>> runs(kJobs);
  pool.run(kJobs, [&](std::size_t job) { runs[job].fetch_add(1, std::memory_order_relaxed); });
  for (std::size_t i = 0; i < kJobs; ++i) {
    EXPECT_EQ(runs[i].load(std::memory_order_relaxed), 1) << "job " << i;
  }
}

TEST(ShardPool, ZeroWorkersRunsOnTheCaller) {
  util::ShardPool pool{0};
  EXPECT_EQ(pool.worker_count(), 0U);
  const std::thread::id caller = std::this_thread::get_id();
  std::size_t ran = 0;
  pool.run(64, [&](std::size_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    ++ran;
  });
  EXPECT_EQ(ran, 64U);
}

TEST(ShardPool, ExceptionPropagatesAndPoolStaysUsable) {
  util::ShardPool pool{2};
  std::atomic<int> ran{0};
  EXPECT_THROW(pool.run(100,
                        [&](std::size_t job) {
                          ran.fetch_add(1, std::memory_order_relaxed);
                          if (job == 42) throw std::runtime_error{"shard failed"};
                        }),
               std::runtime_error);
  // The batch drains even past the failure, and the pool survives it.
  EXPECT_EQ(ran.load(std::memory_order_relaxed), 100);
  std::atomic<int> again{0};
  pool.run(50, [&](std::size_t) { again.fetch_add(1, std::memory_order_relaxed); });
  EXPECT_EQ(again.load(std::memory_order_relaxed), 50);
}

TEST(ShardPool, ReusableAcrossManyBatches) {
  util::ShardPool pool{2};
  std::atomic<std::size_t> total{0};
  for (int batch = 0; batch < 20; ++batch) {
    pool.run(10, [&](std::size_t) { total.fetch_add(1, std::memory_order_relaxed); });
  }
  EXPECT_EQ(total.load(std::memory_order_relaxed), 200U);
}

// ---------------------------------------------------------------------------
// MappingUnits

struct UnitsFixture {
  const topo::World& world = tiny_world();
  cdn::CdnNetwork network = cdn::CdnNetwork::build(world, 40);
  cdn::PingMesh mesh = cdn::PingMesh::measure(world, network, test_latency());
};

TEST(MappingUnits, DeterministicAcrossRebuilds) {
  UnitsFixture fx;
  const auto a = MappingUnits::build(fx.mesh);
  const auto b = MappingUnits::build(fx.mesh);
  ASSERT_EQ(a->unit_count(), b->unit_count());
  EXPECT_EQ(a->fingerprint(), b->fingerprint());
  for (std::size_t t = 0; t < a->target_count(); ++t) {
    ASSERT_EQ(a->unit_of(static_cast<topo::PingTargetId>(t)),
              b->unit_of(static_cast<topo::PingTargetId>(t)));
  }
}

TEST(MappingUnits, PartitionCoversEveryTargetOnce) {
  UnitsFixture fx;
  const auto units = MappingUnits::build(fx.mesh);
  ASSERT_GE(units->unit_count(), 1U);
  ASSERT_EQ(units->target_count(), fx.mesh.target_count());
  std::vector<int> seen(units->target_count(), 0);
  for (std::size_t u = 0; u < units->unit_count(); ++u) {
    const auto unit = static_cast<MappingUnits::UnitId>(u);
    const auto members = units->members(unit);
    ASSERT_FALSE(members.empty());
    EXPECT_EQ(units->representative(unit), members.front());
    for (const topo::PingTargetId target : members) {
      EXPECT_EQ(units->unit_of(target), unit);
      ++seen[target];
    }
  }
  for (std::size_t t = 0; t < seen.size(); ++t) EXPECT_EQ(seen[t], 1) << "target " << t;
}

TEST(MappingUnits, ExactModeGroupsOnlyIdenticalColumns) {
  UnitsFixture fx;
  const auto units = MappingUnits::build(fx.mesh);  // epsilon 0
  for (std::size_t u = 0; u < units->unit_count(); ++u) {
    const auto unit = static_cast<MappingUnits::UnitId>(u);
    const topo::PingTargetId rep = units->representative(unit);
    for (const topo::PingTargetId member : units->members(unit)) {
      for (std::size_t d = 0; d < fx.mesh.deployment_count(); ++d) {
        ASSERT_EQ(fx.mesh.rtt_ms(d, member), fx.mesh.rtt_ms(d, rep))
            << "unit " << u << " member " << member;
        ASSERT_EQ(fx.mesh.loss_rate(d, member), fx.mesh.loss_rate(d, rep));
      }
    }
  }
}

TEST(MappingUnits, LargerEpsilonNeverSplitsFiner) {
  UnitsFixture fx;
  const auto exact = MappingUnits::build(fx.mesh);
  const auto coarse = MappingUnits::build(fx.mesh, MappingUnitsConfig{50.0F});
  EXPECT_LE(coarse->unit_count(), exact->unit_count());
  EXPECT_GE(coarse->unit_count(), 1U);
}

TEST(MappingUnits, RejectsBadEpsilon) {
  UnitsFixture fx;
  EXPECT_THROW(MappingUnits::build(fx.mesh, MappingUnitsConfig{-1.0F}), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Delta rebuilds: incremental output is pinned to full-rebuild output
// across a liveness flap sequence (kill, partial server kill, revive,
// multi-kill) — the serving-equality contract of ISSUE 9's tentpole.

struct DeltaFixture {
  const topo::World& world = tiny_world();
  cdn::CdnNetwork network = cdn::CdnNetwork::build(world, 40);
  cdn::MappingSystem mapping{&world, &network, &test_latency(), cdn::MappingConfig{}};
};

TEST(DeltaRebuild, IncrementalEqualsFullAcrossFlapSequence) {
  DeltaFixture fx;
  MapMakerConfig inc_config;
  inc_config.incremental = true;
  inc_config.scoring_shards = 3;
  MapMakerConfig full_config;
  full_config.incremental = false;
  full_config.scoring_shards = 1;
  MapMaker incremental{&fx.mapping, nullptr, inc_config};
  MapMaker full{&fx.mapping, nullptr, full_config};

  const auto compare = [&](const char* step) {
    const auto inc_snapshot = incremental.rebuild_now(true);
    const auto full_snapshot = full.rebuild_now(true);
    ASSERT_TRUE(inc_snapshot->serving_equal(*full_snapshot)) << step;
    EXPECT_FALSE(full_snapshot->delta()) << step;
    for (topo::LdnsId ldns = 0; ldns < 15; ++ldns) {
      const std::optional<topo::BlockId> block =
          ldns % 2 == 0 ? std::optional<topo::BlockId>{ldns * 11} : std::nullopt;
      const auto a = inc_snapshot->map(ldns, block, "www.g.cdn.example");
      const auto b = full_snapshot->map(ldns, block, "www.g.cdn.example");
      ASSERT_EQ(a.has_value(), b.has_value()) << step;
      if (!a) continue;
      EXPECT_EQ(a->deployment, b->deployment) << step;
      EXPECT_EQ(a->servers, b->servers) << step;
    }
  };

  compare("fresh");

  // An unchanged rebuild re-scores nothing on the delta path.
  const auto idle = incremental.rebuild_now(true);
  EXPECT_TRUE(idle->delta());
  EXPECT_EQ(idle->units_rescored(), 0U);

  fx.network.set_cluster_alive(3, false);
  compare("kill cluster 3");
  const auto after_kill = incremental.current();
  EXPECT_TRUE(after_kill->delta());
  EXPECT_LE(after_kill->units_rescored(), after_kill->units().unit_count());

  fx.network.set_server_alive(5, 0, false);  // partial: cluster 5 stays up
  compare("kill one server of cluster 5");

  fx.network.set_cluster_alive(3, true);
  compare("revive cluster 3");

  fx.network.set_cluster_alive(7, false);
  fx.network.set_cluster_alive(11, false);
  compare("kill clusters 7 and 11 together");

  fx.network.set_cluster_alive(7, true);
  fx.network.set_cluster_alive(11, true);
  fx.network.set_server_alive(5, 0, true);
  compare("revive everything");
}

TEST(DeltaRebuild, SnapshotExposesTheUnitPartition) {
  DeltaFixture fx;
  MapMaker maker{&fx.mapping};
  const auto snapshot = maker.current();
  EXPECT_EQ(snapshot->units().fingerprint(), maker.units().fingerprint());
  EXPECT_EQ(snapshot->units_rescored(), maker.units().unit_count());
  EXPECT_FALSE(snapshot->delta());  // first build is always full
  // Unit candidates are live-only and (score, id)-ordered.
  for (std::size_t u = 0; u < maker.units().unit_count(); ++u) {
    const auto candidates =
        snapshot->unit_candidates(static_cast<MappingUnits::UnitId>(u));
    for (std::size_t i = 1; i < candidates.size(); ++i) {
      if (!std::isfinite(candidates[i].score_ms)) break;
      const bool ordered =
          candidates[i - 1].score_ms < candidates[i].score_ms ||
          (candidates[i - 1].score_ms == candidates[i].score_ms &&
           candidates[i - 1].deployment < candidates[i].deployment);
      ASSERT_TRUE(ordered) << "unit " << u << " slot " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Liveness regressions (the two bugs of ISSUE 9)

struct LivenessFixture {
  const topo::World& world = tiny_world();
  cdn::CdnNetwork network = cdn::CdnNetwork::build(world, 30);
  cdn::MappingSystem mapping{&world, &network, &test_latency(), cdn::MappingConfig{}};
};

// Headline bug: a MapMaker driven by start() (background-thread mode)
// never consulted its watched LivenessMonitor, so a cluster death was
// only routed around at the next periodic rebuild — here pushed out to
// ~forever. The fixed loop wakes whenever the monitor's clock makes a
// probe due, probes, and force-publishes on a transition.
TEST(MapMakerLiveness, BackgroundThreadRemapsAfterClusterDeath) {
  LivenessFixture fx;
  util::SimClock clock;
  std::atomic<cdn::DeploymentId> victim{0};
  std::atomic<bool> victim_healthy{true};
  cdn::LivenessMonitor monitor{
      &fx.network, &clock, [&](cdn::DeploymentId id, std::size_t) {
        return id != victim.load(std::memory_order_acquire) ||
               victim_healthy.load(std::memory_order_acquire);
      }};

  MapMakerConfig config;
  config.rescore_interval_s = 1'000'000;  // periodic rebuilds out of the picture
  MapMaker maker{&fx.mapping, &clock, config};
  maker.watch(&monitor);

  const auto initial = maker.current()->map(0, std::nullopt, "www.g.cdn.example");
  ASSERT_TRUE(initial.has_value());
  victim.store(initial->deployment, std::memory_order_release);

  maker.start(1h);  // only the monitor can trigger a rebuild now
  const auto flipped_at = std::chrono::steady_clock::now();
  victim_healthy.store(false, std::memory_order_release);
  // Advance simulated time so the monitor's probes come due (probe
  // interval 2s x down threshold 3); the rebuild thread runs the probes.
  const auto deadline = flipped_at + 10s;
  while (maker.rebuilds_for(RebuildReason::liveness) == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    clock.advance(2);
    std::this_thread::sleep_for(1ms);
  }
  const auto detected_at = std::chrono::steady_clock::now();
  maker.stop();

  ASSERT_GE(maker.rebuilds_for(RebuildReason::liveness), 1U)
      << "background thread never reacted to the liveness transition";
  // Bound the re-map latency: well under the 10s deadline even under
  // sanitizer overhead (each advance wakes the thread; probes were due
  // within a few advances).
  EXPECT_LT(detected_at - flipped_at, 5s);
  const auto snapshot = maker.current();
  const cdn::DeploymentId dead = victim.load(std::memory_order_acquire);
  EXPECT_TRUE(snapshot->clusters()[dead].servers.empty());
  const auto remapped = snapshot->map(0, std::nullopt, "www.g.cdn.example");
  ASSERT_TRUE(remapped.has_value());
  EXPECT_NE(remapped->deployment, dead);
}

// Second bug: rebuild_with_reason recorded the transition counter AFTER
// the build sampled liveness. A transition landing between scoring and
// publish was marked "seen" without ever being scored, so the next tick
// did not rebuild and the dead cluster kept serving until the periodic
// interval. The after_build_hook is the injection seam for exactly that
// window.
TEST(MapMakerLiveness, MidBuildTransitionSurvivesToTheNextTick) {
  LivenessFixture fx;
  util::SimClock clock;
  std::atomic<bool> cluster0_healthy{true};
  cdn::LivenessMonitor monitor{&fx.network, &clock,
                               [&](cdn::DeploymentId id, std::size_t) {
                                 return id != 0 ||
                                        cluster0_healthy.load(std::memory_order_acquire);
                               }};

  std::atomic<bool> armed{false};
  cdn::LivenessMonitor* monitor_ptr = &monitor;
  MapMakerConfig config;
  config.rescore_interval_s = 1'000'000;
  config.after_build_hook = [&] {
    if (!armed.exchange(false, std::memory_order_acq_rel)) return;
    // The build has read liveness; kill cluster 0 in the window before
    // the maker records what it has seen.
    cluster0_healthy.store(false, std::memory_order_release);
    for (int i = 0; i < 3; ++i) {
      clock.advance(2);
      (void)monitor_ptr->tick();
    }
  };
  MapMaker maker{&fx.mapping, &clock, config};
  maker.watch(&monitor);
  ASSERT_FALSE(maker.tick());

  armed.store(true, std::memory_order_release);
  const auto built = maker.rebuild_now(true);
  // The transition landed after scoring: this snapshot must still carry
  // the old liveness...
  EXPECT_FALSE(built->clusters()[0].servers.empty());
  ASSERT_GT(monitor.transitions(), 0U);
  // ...and the very next tick must treat it as unseen and republish.
  EXPECT_TRUE(maker.tick()) << "mid-build transition was lost";
  EXPECT_GE(maker.rebuilds_for(RebuildReason::liveness), 1U);
  EXPECT_TRUE(maker.current()->clusters()[0].servers.empty());
}

// The wake protocol: the background thread sleeps until the watched
// monitor's clock makes a probe due. A lost wake-up (a clock change that
// lands between the thread's predicate check and its wait) would leave a
// flap unpublished, so every flap here is driven by exactly one
// clock.advance(1) and must publish a routing-around map within 2s.

/// Poll until `done(current map)` holds or `timeout` passes.
template <typename Pred>
bool published_within(const MapMaker& maker, std::chrono::milliseconds timeout, Pred done) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!done(*maker.current())) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(20us);
  }
  return true;
}

/// An oracle that reports one cluster (or none, at -1) dead; probes at
/// every simulated second with single-probe thresholds, as a harness
/// flapping clusters through the production trigger would configure.
struct FlapOracle {
  std::atomic<std::int64_t> down{-1};
  cdn::LivenessMonitor monitor(cdn::CdnNetwork* network, const util::SimClock* clock) {
    return cdn::LivenessMonitor{
        network, clock,
        [this](cdn::DeploymentId id, std::size_t) {
          return static_cast<std::int64_t>(id) != down.load(std::memory_order_acquire);
        },
        cdn::LivenessConfig{1, 1, 1}};
  }
};

MapMakerConfig liveness_only_config() {
  MapMakerConfig config;
  config.rescore_interval_s = 1'000'000;
  return config;
}

TEST(MapMakerLiveness, BackToBackFlapsEachRemapOnOneClockAdvance) {
  LivenessFixture fx;
  util::SimClock clock;
  FlapOracle oracle;
  cdn::LivenessMonitor monitor = oracle.monitor(&fx.network, &clock);
  MapMaker maker{&fx.mapping, &clock, liveness_only_config()};
  maker.watch(&monitor);
  maker.start(1h);

  constexpr int kFlaps = 200;
  for (int i = 0; i < kFlaps; ++i) {
    const auto ldns = static_cast<topo::LdnsId>(i % fx.world.ldnses.size());
    const auto before = maker.current()->map(ldns, std::nullopt, "www.g.cdn.example");
    ASSERT_TRUE(before.has_value());
    const cdn::DeploymentId victim = before->deployment;
    oracle.down.store(victim, std::memory_order_release);
    clock.advance(1);
    ASSERT_TRUE(published_within(maker, 2s, [&](const MapSnapshot& map) {
      const auto routed = map.map(ldns, std::nullopt, "www.g.cdn.example");
      return routed.has_value() && routed->deployment != victim;
    })) << "kill " << i << " of cluster " << victim << " never routed around";
    oracle.down.store(-1, std::memory_order_release);
    clock.advance(1);
    ASSERT_TRUE(published_within(maker, 2s, [&](const MapSnapshot& map) {
      return !map.clusters()[victim].servers.empty();
    })) << "revive " << i << " of cluster " << victim << " never published";
  }
  maker.stop();
  EXPECT_EQ(maker.rebuilds_for(RebuildReason::liveness), 2U * kFlaps);
  EXPECT_EQ(maker.rebuild_failures(), 0U);
}

TEST(MapMakerLiveness, TwoMakersOnOneClockBothRemap) {
  LivenessFixture fx_a;
  LivenessFixture fx_b;
  util::SimClock clock;
  FlapOracle oracle_a;
  FlapOracle oracle_b;
  cdn::LivenessMonitor monitor_a = oracle_a.monitor(&fx_a.network, &clock);
  cdn::LivenessMonitor monitor_b = oracle_b.monitor(&fx_b.network, &clock);
  MapMaker maker_a{&fx_a.mapping, &clock, liveness_only_config()};
  MapMaker maker_b{&fx_b.mapping, &clock, liveness_only_config()};
  maker_a.watch(&monitor_a);
  maker_b.watch(&monitor_b);
  maker_a.start(1h);
  maker_b.start(1h);

  oracle_a.down.store(3, std::memory_order_release);
  oracle_b.down.store(5, std::memory_order_release);
  clock.advance(1);  // one clock change wakes both
  EXPECT_TRUE(published_within(maker_a, 2s, [](const MapSnapshot& map) {
    return map.clusters()[3].servers.empty();
  }));
  EXPECT_TRUE(published_within(maker_b, 2s, [](const MapSnapshot& map) {
    return map.clusters()[5].servers.empty();
  }));
  maker_a.stop();
  maker_b.stop();
}

TEST(MapMakerLiveness, DestroyedMakerIsNeverWokenAgain) {
  LivenessFixture fx;
  util::SimClock clock;
  FlapOracle oracle;
  cdn::LivenessMonitor monitor = oracle.monitor(&fx.network, &clock);
  {
    MapMaker doomed{&fx.mapping, &clock, liveness_only_config()};
    doomed.watch(&monitor);
    doomed.start(1h);
    clock.advance(1);
  }  // destroyed while started: the destructor must unsubscribe
  // A dangling subscription would call into the freed maker (ASan).
  for (int i = 0; i < 50; ++i) clock.advance(1);

  // The clock and monitor carry on with a new maker.
  MapMaker maker{&fx.mapping, &clock, liveness_only_config()};
  maker.watch(&monitor);
  maker.start(1h);
  oracle.down.store(2, std::memory_order_release);
  clock.advance(1);
  EXPECT_TRUE(published_within(maker, 2s, [](const MapSnapshot& map) {
    return map.clusters()[2].servers.empty();
  }));
  maker.stop();
}

// Fail-static: a rebuild that throws on the background thread used to
// escape run_loop and std::terminate the process. It must instead be
// counted, leave the last good map serving, not spin, and be retried on
// the next wake.
TEST(MapMakerLiveness, ThrowingBackgroundRebuildKeepsTheLastGoodMap) {
  LivenessFixture fx;
  util::SimClock clock;
  FlapOracle oracle;
  cdn::LivenessMonitor monitor = oracle.monitor(&fx.network, &clock);
  std::atomic<bool> armed{false};
  MapMakerConfig config = liveness_only_config();
  config.after_build_hook = [&] {
    if (armed.exchange(false, std::memory_order_acq_rel)) {
      throw std::runtime_error{"injected rebuild failure"};
    }
  };
  MapMaker maker{&fx.mapping, &clock, config};
  maker.watch(&monitor);
  (void)monitor.tick();  // the round due at time 0, before the thread owns the monitor
  const std::uint64_t good_version = maker.version();

  armed.store(true, std::memory_order_release);
  maker.start(1h);
  oracle.down.store(4, std::memory_order_release);
  clock.advance(1);
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (maker.rebuild_failures() == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(100us);
  }
  ASSERT_EQ(maker.rebuild_failures(), 1U);
  // No spin: without a new wake the failed rebuild is not retried.
  std::this_thread::sleep_for(50ms);
  EXPECT_EQ(maker.rebuild_failures(), 1U);
  EXPECT_EQ(maker.version(), good_version);
  EXPECT_FALSE(maker.current()->clusters()[4].servers.empty());  // last good map

  clock.advance(1);  // the next due probe retries the unseen transition
  EXPECT_TRUE(published_within(maker, 2s, [](const MapSnapshot& map) {
    return map.clusters()[4].servers.empty();
  }));
  EXPECT_EQ(maker.rebuild_failures(), 1U);
  EXPECT_GE(maker.rebuilds_for(RebuildReason::liveness), 1U);

  // A failed requested rebuild is redone, still forced, at the next wake.
  armed.store(true, std::memory_order_release);
  maker.request_rebuild();
  const auto request_deadline = std::chrono::steady_clock::now() + 5s;
  while (maker.rebuild_failures() < 2 &&
         std::chrono::steady_clock::now() < request_deadline) {
    std::this_thread::sleep_for(100us);
  }
  ASSERT_EQ(maker.rebuild_failures(), 2U);
  EXPECT_EQ(maker.rebuilds_for(RebuildReason::requested), 0U);
  clock.advance(1);
  const auto retry_deadline = std::chrono::steady_clock::now() + 5s;
  while (maker.rebuilds_for(RebuildReason::requested) == 0 &&
         std::chrono::steady_clock::now() < retry_deadline) {
    std::this_thread::sleep_for(100us);
  }
  maker.stop();
  EXPECT_EQ(maker.rebuilds_for(RebuildReason::requested), 1U);
  EXPECT_EQ(maker.rebuild_failures(), 2U);
}

// A probe round whose oracle throws stays due; it is retried only once
// the clock moves again, never in a spin.
TEST(MapMakerLiveness, ThrowingProbeRetriesOnTheNextClockChange) {
  LivenessFixture fx;
  util::SimClock clock;
  std::atomic<int> throws_left{0};
  std::atomic<bool> cluster6_healthy{true};
  cdn::LivenessMonitor monitor{&fx.network, &clock,
                               [&](cdn::DeploymentId id, std::size_t) {
                                 if (throws_left.load(std::memory_order_acquire) > 0) {
                                   throws_left.fetch_sub(1, std::memory_order_acq_rel);
                                   throw std::runtime_error{"probe failed"};
                                 }
                                 return id != 6 ||
                                        cluster6_healthy.load(std::memory_order_acquire);
                               },
                               cdn::LivenessConfig{1, 1, 1}};
  MapMaker maker{&fx.mapping, &clock, liveness_only_config()};
  maker.watch(&monitor);
  (void)monitor.tick();
  maker.start(1h);

  throws_left.store(1, std::memory_order_release);
  cluster6_healthy.store(false, std::memory_order_release);
  clock.advance(1);
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (maker.rebuild_failures() == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(100us);
  }
  ASSERT_EQ(maker.rebuild_failures(), 1U);
  std::this_thread::sleep_for(50ms);
  EXPECT_EQ(maker.rebuild_failures(), 1U) << "a due probe that threw was retried in a spin";

  clock.advance(1);
  EXPECT_TRUE(published_within(maker, 2s, [](const MapSnapshot& map) {
    return map.clusters()[6].servers.empty();
  }));
  maker.stop();
  EXPECT_EQ(maker.rebuild_failures(), 1U);
}

// ---------------------------------------------------------------------------
// TSan-gated: sharded scoring in the background thread racing
// request_rebuild(), oracle flips, and lock-free readers.

TEST(ShardedConcurrency, PoolScoringRacesRequestsAndReaders) {
  LivenessFixture fx;
  util::SimClock clock;
  std::atomic<bool> cluster0_healthy{true};
  cdn::LivenessMonitor monitor{&fx.network, &clock,
                               [&](cdn::DeploymentId id, std::size_t) {
                                 return id != 0 ||
                                        cluster0_healthy.load(std::memory_order_acquire);
                               }};
  MapMakerConfig config;
  config.rescore_interval_s = 1'000'000;
  config.scoring_shards = 4;
  config.publish_unchanged = true;
  MapMaker maker{&fx.mapping, &clock, config};
  maker.watch(&monitor);
  maker.start(2ms);

  std::atomic<bool> stop{false};
  std::thread flipper{[&] {
    bool healthy = true;
    while (!stop.load(std::memory_order_relaxed)) {
      healthy = !healthy;
      cluster0_healthy.store(healthy, std::memory_order_release);
      clock.advance(2);
      std::this_thread::sleep_for(1ms);
    }
  }};

  std::uint64_t served = 0;
  for (int i = 0; i < 200; ++i) {
    if (i % 10 == 0) maker.request_rebuild();
    const auto snapshot = maker.current();
    const auto ldns = static_cast<topo::LdnsId>(i % fx.world.ldnses.size());
    if (snapshot->map(ldns, std::nullopt, "www.g.cdn.example")) ++served;
    std::this_thread::sleep_for(500us);
  }
  stop.store(true, std::memory_order_relaxed);
  flipper.join();
  maker.stop();
  EXPECT_GT(served, 0U);
  EXPECT_GE(maker.version(), 2U);  // republishes really happened
}

}  // namespace
}  // namespace eum::control
