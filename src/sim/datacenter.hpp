// Simulated datacenter: the CloudSimPlus substitute (paper §VII-B).
//
// Two provisioning modes:
//  * Dedicated — the baseline: one elastic VCluster per oversubscription
//    level (each PM adheres to a single level), First-Fit placement;
//  * Shared — SlackVM: a single elastic VCluster whose PMs co-host all
//    levels through vNode accounting, progress-score placement.
// Both modes open a PM only when no open PM fits, so the number of opened
// PMs is the minimal cluster size under the policy.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/oversub.hpp"
#include "sched/vcluster.hpp"

namespace slackvm::sim {

/// Creates a fresh placement policy; a factory (not an instance) because the
/// dedicated mode needs one policy object per level cluster.
using PolicyFactory = std::function<std::unique_ptr<sched::PlacementPolicy>()>;

class Datacenter {
 public:
  /// Baseline: dedicated clusters, one per level in `levels`. A
  /// `mem_oversub` > 1 enables limited DRAM oversubscription on every PM.
  static Datacenter dedicated(core::Resources host_config,
                              std::vector<core::OversubLevel> levels,
                              const PolicyFactory& factory, double mem_oversub = 1.0);

  /// SlackVM: one shared multi-oversubscription cluster.
  static Datacenter shared(core::Resources host_config, const PolicyFactory& factory,
                           double mem_oversub = 1.0);

  /// Cell-partitioned SlackVM: `shards` independent shared clusters, VMs
  /// routed by id (VmId % shards). This is the shared-fleet organisation the
  /// sharded simulator (sim/shard.hpp) runs concurrently — each cell is an
  /// isolated placement domain, mirroring production cell/zone partitioning.
  /// With shards == 1 it is exactly shared(). Note that for shards > 1 the
  /// packing itself differs from the single shared cluster (cells cannot
  /// borrow capacity from each other); the determinism guarantee is that a
  /// given shard count packs bit-identically at every thread count.
  static Datacenter shared_sharded(core::Resources host_config,
                                   const PolicyFactory& factory, std::size_t shards,
                                   double mem_oversub = 1.0);

  /// Heterogeneous-fleet variants (paper §VI: Algorithm 2 computes the
  /// target ratio per PM, accommodating mixed hardware generations).
  static Datacenter dedicated_fleet(const sched::FleetSpec& fleet,
                                    std::vector<core::OversubLevel> levels,
                                    const PolicyFactory& factory,
                                    double mem_oversub = 1.0);
  static Datacenter shared_fleet(const sched::FleetSpec& fleet,
                                 const PolicyFactory& factory,
                                 double mem_oversub = 1.0);
  static Datacenter shared_sharded_fleet(const sched::FleetSpec& fleet,
                                         const PolicyFactory& factory,
                                         std::size_t shards, double mem_oversub = 1.0);

  /// Cluster index a deployment of (id, spec) routes to: the level's
  /// dedicated cluster, cluster 0 (single shared), or VmId % clusters
  /// (shared_sharded). Pure in (id, spec) and the fixed cluster layout, so
  /// concurrent shards may call it freely; throws for a level no dedicated
  /// cluster serves.
  [[nodiscard]] std::size_t route(core::VmId id, const core::VmSpec& spec) const;

  /// Deploy a VM (routes to the level's cluster in dedicated mode).
  /// Throws when the spec cannot fit on an empty PM.
  sched::HostId deploy(core::VmId id, const core::VmSpec& spec);

  /// Like deploy() but returns std::nullopt instead of throwing when the VM
  /// cannot be placed (fixed-fleet mode).
  std::optional<sched::HostId> try_deploy(core::VmId id, const core::VmSpec& spec);

  /// Cap every cluster's fleet size (fixed-fleet mode). In dedicated mode
  /// the cap applies per level cluster.
  void set_max_hosts_per_cluster(std::size_t max_hosts);

  /// Toggle every cluster's incremental placement index: a test and bench
  /// hook (ExperimentConfig::use_index), not a scenario knob. Selection is
  /// identical either way; off places through PlacementPolicy::select. The
  /// planners and the heat feeder run the same code either way.
  void set_index_enabled(bool enabled);

  /// Return to the state of a freshly built datacenter of the same layout
  /// (VCluster::reset on every cluster), keeping every container's storage,
  /// so a sweep can replay cell after cell on one datacenter without
  /// regrowing it. A replay on a reset datacenter yields the RunResult a
  /// new one would.
  void reset();

  /// Pre-size per-cluster containers for an expected number of VM
  /// deployments (trace-size hint). Purely a performance hint.
  void reserve(std::size_t expected_vms);

  /// Remove a deployed VM; throws for unknown ids. Resolved by probing the
  /// clusters (there are at most a handful) — the serial convenience path;
  /// the sharded engine removes through route() + cluster() instead.
  void remove(core::VmId id);

  /// Fail one host of one cluster (sim/fault.hpp): evicts every VM it ran —
  /// returned in ascending VmId order, already detached from the datacenter
  /// — and marks the host FAILED until VCluster::repair_host. Draining,
  /// repairing and drain-time migration keep VMs inside their cluster, so
  /// the fault injector drives those directly through cluster(); only
  /// failure changes VM membership and needs this datacenter-level hook.
  [[nodiscard]] std::vector<std::pair<core::VmId, core::VmSpec>> fail_host(
      std::size_t cluster_index, sched::HostId host);

  [[nodiscard]] bool is_shared() const noexcept { return shared_; }

  /// Total PMs ever opened across clusters (the headline metric).
  [[nodiscard]] std::size_t opened_pms() const;

  /// PMs currently hosting at least one VM (can shrink after departures or
  /// migration-driven consolidation; emptied PMs could be powered down).
  [[nodiscard]] std::size_t active_pms() const;

  /// Opened PMs per cluster, keyed by cluster name. Cluster names are fixed
  /// at construction, so the returned map is a member cache whose counts are
  /// refreshed in place — calling this in a per-tick metric loop allocates
  /// nothing after the first call. The reference stays valid for the
  /// datacenter's lifetime (contents refresh on each call).
  [[nodiscard]] const std::map<std::string, std::size_t>& opened_per_cluster() const;

  /// Aggregate allocation / capacity over all opened PMs.
  [[nodiscard]] core::Resources total_alloc() const;
  [[nodiscard]] core::Resources total_config() const;

  /// Currently running VMs.
  [[nodiscard]] std::size_t vm_count() const;

  [[nodiscard]] const std::vector<std::unique_ptr<sched::VCluster>>& clusters() const {
    return clusters_;
  }

  /// Mutable cluster access (e.g. to install placement filters).
  [[nodiscard]] sched::VCluster& cluster(std::size_t index) {
    return *clusters_.at(index);
  }

 private:
  Datacenter() = default;

  bool shared_ = false;
  std::vector<std::unique_ptr<sched::VCluster>> clusters_;
  /// level ratio -> index into clusters_ (dedicated mode only).
  std::map<std::uint8_t, std::size_t> level_to_cluster_;
  /// opened_per_cluster() cache: keys seeded once, counts refreshed in place.
  mutable std::map<std::string, std::size_t> opened_cache_;
};

}  // namespace slackvm::sim
