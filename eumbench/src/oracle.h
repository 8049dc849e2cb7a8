// Answer correctness, judged from outside the serve path: a response is
// right when it is exactly what MapSnapshot::map decides at zero load for
// a snapshot that was live while the query was in flight, with the id,
// question and ECS option echoed as RFC 7871 asks.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "control/map_maker.h"
#include "control/map_snapshot.h"
#include "dns/types.h"
#include "load/traffic.h"
#include "net/ip.h"
#include "topo/world.h"

namespace eumbench {

/// The map versions published while the harness runs, kept alive so a
/// response can be checked against the map it was served from. Only the
/// newest kKeptVersions are kept: far more publishes than any query can
/// see in flight, and the harness's memory stays flat under churn.
class SnapshotHistory {
 public:
  static constexpr std::size_t kKeptVersions = 64;

  explicit SnapshotHistory(eum::control::MapMaker* maker);

  /// Record the maker's current snapshot (idempotent per version).
  std::shared_ptr<const eum::control::MapSnapshot> capture();

  /// The snapshot of `version`, or null when it was never captured.
  [[nodiscard]] std::shared_ptr<const eum::control::MapSnapshot> get(std::uint64_t version);

  [[nodiscard]] std::uint64_t version() const { return maker_->version(); }

 private:
  eum::control::MapMaker* maker_;
  std::mutex mutex_;
  std::map<std::uint64_t, std::shared_ptr<const eum::control::MapSnapshot>> by_version_;
};

/// What a correct response to one query carries.
struct Expected {
  eum::dns::Rcode rcode = eum::dns::Rcode::no_error;
  std::vector<eum::net::IpAddr> addresses;  ///< sorted
  int scope = -1;                           ///< ECS scope; -1 = no ECS option
};

class Oracle {
 public:
  Oracle(const eum::topo::World& world, const eum::load::TrafficModel& model,
         eum::topo::LdnsId fallback_ldns);

  [[nodiscard]] Expected expect(const eum::load::QuerySpec& spec,
                                const eum::control::MapSnapshot& snapshot) const;

  /// True when `response` answers query `spec` (sent with `id`) exactly as
  /// `snapshot` decides.
  [[nodiscard]] bool matches(std::span<const std::uint8_t> response,
                             const eum::load::QuerySpec& spec, std::uint16_t id,
                             const eum::control::MapSnapshot& snapshot) const;

  /// The first version in [lo, hi] whose snapshot `response` matches;
  /// nullopt when it matches none of them (or none is available).
  [[nodiscard]] std::optional<std::uint64_t> matching_version(
      std::span<const std::uint8_t> response, const eum::load::QuerySpec& spec,
      std::uint16_t id, SnapshotHistory& history, std::uint64_t lo, std::uint64_t hi) const;

  /// The client block the ECS option of `spec` names, if it is in the world.
  [[nodiscard]] std::optional<eum::topo::BlockId> block_of(
      const eum::load::QuerySpec& spec) const;

 private:
  const eum::load::TrafficModel& model_;
  eum::topo::LdnsId fallback_ldns_;
  /// The harness's own index of the world's /24 blocks by base address.
  std::unordered_map<std::uint32_t, eum::topo::BlockId> blocks_;
};

}  // namespace eumbench
