#include "sim/datacenter.hpp"

#include <optional>

#include "core/error.hpp"

namespace slackvm::sim {

Datacenter Datacenter::dedicated(core::Resources host_config,
                                 std::vector<core::OversubLevel> levels,
                                 const PolicyFactory& factory, double mem_oversub) {
  return dedicated_fleet(sched::FleetSpec::uniform(host_config), std::move(levels),
                         factory, mem_oversub);
}

Datacenter Datacenter::dedicated_fleet(const sched::FleetSpec& fleet,
                                       std::vector<core::OversubLevel> levels,
                                       const PolicyFactory& factory,
                                       double mem_oversub) {
  SLACKVM_ASSERT(!levels.empty());
  Datacenter dc;
  dc.shared_ = false;
  for (core::OversubLevel level : levels) {
    SLACKVM_ASSERT(!dc.level_to_cluster_.contains(level.ratio()));
    dc.level_to_cluster_.emplace(level.ratio(), dc.clusters_.size());
    dc.clusters_.push_back(std::make_unique<sched::VCluster>(
        "dedicated-" + core::to_string(level), fleet, factory(), mem_oversub));
  }
  return dc;
}

Datacenter Datacenter::shared(core::Resources host_config, const PolicyFactory& factory,
                              double mem_oversub) {
  return shared_fleet(sched::FleetSpec::uniform(host_config), factory, mem_oversub);
}

Datacenter Datacenter::shared_fleet(const sched::FleetSpec& fleet,
                                    const PolicyFactory& factory, double mem_oversub) {
  Datacenter dc;
  dc.shared_ = true;
  dc.clusters_.push_back(std::make_unique<sched::VCluster>("slackvm-shared", fleet,
                                                           factory(), mem_oversub));
  return dc;
}

Datacenter Datacenter::shared_sharded(core::Resources host_config,
                                      const PolicyFactory& factory, std::size_t shards,
                                      double mem_oversub) {
  return shared_sharded_fleet(sched::FleetSpec::uniform(host_config), factory, shards,
                              mem_oversub);
}

Datacenter Datacenter::shared_sharded_fleet(const sched::FleetSpec& fleet,
                                            const PolicyFactory& factory,
                                            std::size_t shards, double mem_oversub) {
  SLACKVM_ASSERT(shards >= 1);
  if (shards == 1) {
    return shared_fleet(fleet, factory, mem_oversub);
  }
  Datacenter dc;
  dc.shared_ = true;
  for (std::size_t shard = 0; shard < shards; ++shard) {
    dc.clusters_.push_back(std::make_unique<sched::VCluster>(
        "slackvm-shard-" + std::to_string(shard), fleet, factory(), mem_oversub));
  }
  return dc;
}

std::size_t Datacenter::route(core::VmId id, const core::VmSpec& spec) const {
  if (shared_) {
    // Single shared cluster routes everything to 0; the cell-partitioned
    // variant spreads VMs by id — a pure function, never by load, so shards
    // can route concurrently without coordination.
    return clusters_.size() == 1 ? 0
                                 : static_cast<std::size_t>(id.value % clusters_.size());
  }
  const auto it = level_to_cluster_.find(spec.level.ratio());
  if (it == level_to_cluster_.end()) {
    SLACKVM_THROW("Datacenter: no dedicated cluster for level " +
                  core::to_string(spec.level));
  }
  return it->second;
}

sched::HostId Datacenter::deploy(core::VmId id, const core::VmSpec& spec) {
  const auto host = try_deploy(id, spec);
  if (!host) {
    SLACKVM_THROW("Datacenter::deploy: cannot place VM");
  }
  return *host;
}

std::optional<sched::HostId> Datacenter::try_deploy(core::VmId id,
                                                    const core::VmSpec& spec) {
  // Routing is pure and the mutation touches only the routed cluster, so
  // concurrent shards may deploy into disjoint clusters without races.
  return clusters_[route(id, spec)]->try_place(id, spec);
}

void Datacenter::set_max_hosts_per_cluster(std::size_t max_hosts) {
  for (const auto& cluster : clusters_) {
    cluster->set_max_hosts(max_hosts);
  }
}

void Datacenter::set_index_enabled(bool enabled) {
  for (const auto& cluster : clusters_) {
    cluster->set_index_enabled(enabled);
  }
}

void Datacenter::reset() {
  for (const auto& cluster : clusters_) {
    cluster->reset();
  }
}

void Datacenter::reserve(std::size_t expected_vms) {
  // Dedicated mode splits the trace across level clusters; per-cluster
  // shares are unknown up front, so hint the even split (under-reserving
  // just leaves growth amortized, as before).
  const std::size_t per_cluster = expected_vms / clusters_.size() + 1;
  for (const auto& cluster : clusters_) {
    cluster->reserve(per_cluster);
  }
}

void Datacenter::remove(core::VmId id) {
  for (const auto& cluster : clusters_) {
    if (cluster->try_remove(id)) {
      return;
    }
  }
  SLACKVM_THROW("Datacenter::remove: unknown VM");
}

std::vector<std::pair<core::VmId, core::VmSpec>> Datacenter::fail_host(
    std::size_t cluster_index, sched::HostId host) {
  return clusters_.at(cluster_index)->fail_host(host);
}

std::size_t Datacenter::opened_pms() const {
  std::size_t total = 0;
  for (const auto& cluster : clusters_) {
    total += cluster->opened_hosts();
  }
  return total;
}

std::size_t Datacenter::active_pms() const {
  // O(clusters): each cluster keeps a running non-empty count, so the
  // per-event metrics observation no longer walks the whole fleet.
  std::size_t active = 0;
  for (const auto& cluster : clusters_) {
    active += cluster->nonempty_hosts();
  }
  return active;
}

const std::map<std::string, std::size_t>& Datacenter::opened_per_cluster() const {
  if (opened_cache_.size() != clusters_.size()) {
    opened_cache_.clear();
    for (const auto& cluster : clusters_) {
      opened_cache_.emplace(cluster->name(), 0);
    }
  }
  for (const auto& cluster : clusters_) {
    opened_cache_.find(cluster->name())->second = cluster->opened_hosts();
  }
  return opened_cache_;
}

core::Resources Datacenter::total_alloc() const {
  core::Resources total;
  for (const auto& cluster : clusters_) {
    total += cluster->total_alloc();
  }
  return total;
}

core::Resources Datacenter::total_config() const {
  core::Resources total;
  for (const auto& cluster : clusters_) {
    total += cluster->total_config();
  }
  return total;
}

std::size_t Datacenter::vm_count() const {
  std::size_t total = 0;
  for (const auto& cluster : clusters_) {
    total += cluster->vm_count();
  }
  return total;
}

}  // namespace slackvm::sim
