#include "oracle.h"

#include <algorithm>

#include "dns/message.h"
#include "dns/wire.h"

namespace eumbench {

using namespace eum;

SnapshotHistory::SnapshotHistory(control::MapMaker* maker) : maker_(maker) { (void)capture(); }

std::shared_ptr<const control::MapSnapshot> SnapshotHistory::capture() {
  std::shared_ptr<const control::MapSnapshot> current = maker_->current();
  const std::scoped_lock lock{mutex_};
  by_version_.try_emplace(current->version(), current);
  while (by_version_.size() > kKeptVersions) by_version_.erase(by_version_.begin());
  return current;
}

std::shared_ptr<const control::MapSnapshot> SnapshotHistory::get(std::uint64_t version) {
  {
    const std::scoped_lock lock{mutex_};
    if (const auto it = by_version_.find(version); it != by_version_.end()) return it->second;
  }
  std::shared_ptr<const control::MapSnapshot> current = capture();
  return current->version() == version ? current : nullptr;
}

Oracle::Oracle(const topo::World& world, const load::TrafficModel& model,
               topo::LdnsId fallback_ldns)
    : model_(model), fallback_ldns_(fallback_ldns) {
  blocks_.reserve(world.blocks.size());
  for (const topo::ClientBlock& block : world.blocks) {
    if (block.prefix.family() == net::Family::v4 && block.prefix.length() == 24) {
      blocks_.emplace(block.prefix.address().v4().value(), block.id);
    }
  }
}

std::optional<topo::BlockId> Oracle::block_of(const load::QuerySpec& spec) const {
  if (!spec.ecs || spec.ecs->family() != net::Family::v4) return std::nullopt;
  // The /24 at the announced address: host and wider announcements are
  // mapped by the /24 their (truncated) address falls in.
  const std::uint32_t base = spec.ecs->address().v4().value() & 0xFFFFFF00U;
  const auto it = blocks_.find(base);
  if (it == blocks_.end()) return std::nullopt;
  return it->second;
}

Expected Oracle::expect(const load::QuerySpec& spec, const control::MapSnapshot& snapshot) const {
  Expected expected;
  const std::optional<topo::BlockId> block = block_of(spec);
  const std::optional<cdn::MapResult> result =
      snapshot.map(fallback_ldns_, block, model_.qname(spec.qname_rank).to_string(), 0.0);
  if (!result) {
    expected.rcode = dns::Rcode::nx_domain;
  } else {
    for (const net::IpAddr& server : result->servers) {
      if (server.is_v4()) expected.addresses.push_back(server);  // A questions only
    }
    std::sort(expected.addresses.begin(), expected.addresses.end());
  }
  // A negative answer carries no ECS option; a positive one echoes the
  // query's option with scope min(answer scope, source length).
  if (spec.ecs && result) {
    const int answer_scope = block ? snapshot.config().ecs_scope_len : 0;
    expected.scope = std::min(answer_scope, spec.ecs->source_prefix_len());
  }
  return expected;
}

bool Oracle::matches(std::span<const std::uint8_t> response, const load::QuerySpec& spec,
                     std::uint16_t id, const control::MapSnapshot& snapshot) const {
  dns::Message msg;
  try {
    msg = dns::Message::decode(response);
  } catch (const dns::WireError&) {
    return false;
  }
  const Expected expected = expect(spec, snapshot);
  if (msg.header.id != id || !msg.header.is_response || msg.header.truncated ||
      msg.header.rcode != expected.rcode) {
    return false;
  }
  if (msg.questions.size() != 1 || msg.questions.front().name != model_.qname(spec.qname_rank) ||
      msg.questions.front().type != dns::RecordType::A ||
      msg.questions.front().rclass != dns::RecordClass::IN) {
    return false;
  }
  std::vector<net::IpAddr> got = msg.answer_addresses();
  std::sort(got.begin(), got.end());
  if (got != expected.addresses) return false;
  if (msg.edns.has_value() != spec.edns) return false;
  const dns::ClientSubnetOption* ecs = msg.client_subnet();
  if (expected.scope < 0) return ecs == nullptr;
  return ecs != nullptr && ecs->scope_prefix_len() == expected.scope &&
         ecs->source_prefix_len() == spec.ecs->source_prefix_len() &&
         ecs->address() == spec.ecs->address();
}

std::optional<std::uint64_t> Oracle::matching_version(std::span<const std::uint8_t> response,
                                                      const load::QuerySpec& spec,
                                                      std::uint16_t id, SnapshotHistory& history,
                                                      std::uint64_t lo, std::uint64_t hi) const {
  for (std::uint64_t v = lo; v <= hi; ++v) {
    const std::shared_ptr<const control::MapSnapshot> snapshot = history.get(v);
    if (snapshot != nullptr && matches(response, spec, id, *snapshot)) return v;
  }
  return std::nullopt;
}

}  // namespace eumbench
