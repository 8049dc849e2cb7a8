#include "workload.h"

#include <stdexcept>

#include "util/rng.h"

namespace eumbench {

using namespace eum;

namespace {

// hot_repeat: a handful of resolvers, each announcing a few /24 client
// blocks, over a handful of qnames. Every key fits the answer cache many
// times over, so after warm-up nearly every query is a cache hit.
constexpr std::size_t kHotLdnses = 4;
constexpr std::size_t kHotBlocksPerLdns = 4;
constexpr std::size_t kHotQnames = 8;

// ecs_diverse: the end-user-mapping regime. Top 4096 resolvers of the
// world by demand, 4096 qnames with a flat popularity law, and an ECS mix
// that includes host (/32) and wider-than-/24 announcements, so the
// per-worker answer cache misses about half the time.
constexpr std::size_t kDiverseLdnses = 4096;
constexpr std::size_t kDiverseQnames = 4096;
constexpr double kDiverseQnameZipf = 0.3;

load::TrafficConfig traffic_config(WorkloadKind kind, std::uint64_t seed) {
  load::TrafficConfig config;
  config.seed = seed;
  if (kind == WorkloadKind::hot_repeat) {
    config.max_ldnses = kHotLdnses;
    config.qnames = kHotQnames;
    config.edns_fraction = 1.0;
    config.ecs_fraction = 1.0;
    config.ecs_host_fraction = 0.0;
    config.ecs_wide_fraction = 0.0;
  } else {
    config.max_ldnses = kDiverseLdnses;
    config.qnames = kDiverseQnames;
    config.qname_zipf_s = kDiverseQnameZipf;
  }
  return config;
}

}  // namespace

WorkloadKind parse_workload(const std::string& name) {
  if (name == "hot_repeat") return WorkloadKind::hot_repeat;
  if (name == "ecs_diverse") return WorkloadKind::ecs_diverse;
  if (name == "remap_churn") return WorkloadKind::remap_churn;
  throw std::invalid_argument{"unknown workload: " + name};
}

const char* to_string(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::hot_repeat: return "hot_repeat";
    case WorkloadKind::ecs_diverse: return "ecs_diverse";
    case WorkloadKind::remap_churn: return "remap_churn";
  }
  return "unknown";
}

Workload::Workload(WorkloadKind kind, const topo::World& world, std::uint64_t seed)
    : kind_(kind), seed_(seed) {
  const load::TrafficConfig config = traffic_config(kind, seed);
  model_ = std::make_unique<load::TrafficModel>(load::LdnsPopulation::from_world(world, config),
                                                config);
  if (kind == WorkloadKind::hot_repeat) {
    for (const load::LdnsSource& source : model_->population().sources()) {
      for (std::size_t b = 0; b < source.blocks.size() && b < kHotBlocksPerLdns; ++b) {
        hot_blocks_.push_back(source.blocks[b]);
      }
    }
    if (hot_blocks_.empty()) throw std::runtime_error{"hot_repeat: world has no blocks"};
  }
}

std::vector<load::QuerySpec> Workload::generate(std::size_t count, std::uint64_t stream) const {
  util::Rng rng{seed_ * 0x9e3779b97f4a7c15ULL + stream + 1};
  std::vector<load::QuerySpec> specs;
  specs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    if (kind_ == WorkloadKind::hot_repeat) {
      load::QuerySpec spec;
      const std::size_t key = rng.below(hot_blocks_.size());
      spec.ldns = static_cast<std::uint32_t>(key / kHotBlocksPerLdns);
      spec.qname_rank = static_cast<std::uint32_t>(1 + rng.below(kHotQnames));
      spec.edns = true;
      spec.ecs = dns::ClientSubnetOption::for_query(hot_blocks_[key].address(), 24);
      specs.push_back(spec);
    } else {
      specs.push_back(model_->draw(rng));
    }
  }
  return specs;
}

}  // namespace eumbench
