#include "cdn/ping_mesh.h"

#include <stdexcept>

#include "util/hash.h"

namespace eum::cdn {

PingMesh PingMesh::from_matrix(std::size_t deployments, std::size_t targets,
                               std::vector<float> rtt_ms, std::vector<float> loss_rate) {
  if (rtt_ms.size() != deployments * targets || loss_rate.size() != rtt_ms.size()) {
    throw std::invalid_argument{"PingMesh::from_matrix: matrices must be deployments x targets"};
  }
  PingMesh mesh;
  mesh.rows_ = deployments;
  mesh.cols_ = targets;
  mesh.data_ = std::move(rtt_ms);
  mesh.loss_ = std::move(loss_rate);
  return mesh;
}

PingMesh PingMesh::measure(const topo::World& world, const CdnNetwork& network,
                           const topo::LatencyModel& latency) {
  PingMesh mesh;
  mesh.rows_ = network.size();
  mesh.cols_ = world.ping_targets.size();
  mesh.data_.resize(mesh.rows_ * mesh.cols_);
  mesh.loss_.resize(mesh.rows_ * mesh.cols_);
  for (std::size_t d = 0; d < mesh.rows_; ++d) {
    const Deployment& deployment = network.deployments()[d];
    for (std::size_t t = 0; t < mesh.cols_; ++t) {
      // Salt by the universe-wide site id so measurements are identical
      // whether taken through a CdnNetwork or a raw site list.
      const std::uint64_t salt = util::hash_combine(util::mix64(0xdeb107 + deployment.site_id),
                                                    static_cast<std::uint64_t>(t));
      mesh.data_[d * mesh.cols_ + t] = static_cast<float>(latency.expected_rtt_ms(
          deployment.location, world.ping_targets[t].location, salt));
      mesh.loss_[d * mesh.cols_ + t] = static_cast<float>(latency.expected_loss_rate(
          deployment.location, world.ping_targets[t].location, salt));
    }
  }
  return mesh;
}

PingMesh PingMesh::measure_sites(const topo::World& world,
                                 std::span<const topo::DeploymentSite> sites,
                                 const topo::LatencyModel& latency) {
  PingMesh mesh;
  mesh.rows_ = sites.size();
  mesh.cols_ = world.ping_targets.size();
  mesh.data_.resize(mesh.rows_ * mesh.cols_);
  mesh.loss_.resize(mesh.rows_ * mesh.cols_);
  for (std::size_t d = 0; d < mesh.rows_; ++d) {
    for (std::size_t t = 0; t < mesh.cols_; ++t) {
      // Salt by the universe-wide site id so a site's measurements do not
      // depend on which subset it appears in.
      const std::uint64_t salt =
          util::hash_combine(util::mix64(0xdeb107 + sites[d].id), static_cast<std::uint64_t>(t));
      mesh.data_[d * mesh.cols_ + t] = static_cast<float>(
          latency.expected_rtt_ms(sites[d].location, world.ping_targets[t].location, salt));
      mesh.loss_[d * mesh.cols_ + t] = static_cast<float>(latency.expected_loss_rate(
          sites[d].location, world.ping_targets[t].location, salt));
    }
  }
  return mesh;
}

}  // namespace eum::cdn
