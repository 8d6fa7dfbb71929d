// The SlackVM local scheduler (paper §V): manages the vNodes of one PM.
//
// Responsibilities:
//  * translate VM deployments/removals into vNode create/grow/shrink/destroy
//    operations with topology-aware CPU selection;
//  * enforce the per-level capacity invariant (no more than n vCPUs per
//    physical thread in an n:1 vNode) and the PM-wide memory bound (memory
//    is not oversubscribed by default; a limited DRAM ratio is optional);
//  * emit pinning updates so a hypervisor shim (or the QoS model) can re-pin
//    every VM of a resized vNode to the node's new CPU range;
//  * optionally pool oversubscribed levels (§V-B): a VM of level n may join
//    a stricter vNode m:1 (m < n) — an "upgrade" — when its own level's
//    vNode cannot grow, as long as the stricter ratio still holds.
//
// Hot-path bookkeeping is incremental: the Algorithm-1 distance matrix is
// interned per hardware model (topo::DistanceMatrixCache) instead of rebuilt
// per manager, occupied CPUs and the level→vNode map are maintained across
// operations rather than recomputed, and CPU selection runs
// local/placement.hpp with a reused scratch over one persistent distance
// frontier per vNode, seeded with the node. The per-step-rescan reference
// (tests/reference/local_cpus.hpp) checks every resize in the tests: each
// deploy, remove or retune must change at most one vNode's CPU set, exactly
// as the reference selection applied to the state before it would.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "core/resources.hpp"
#include "core/vm.hpp"
#include "local/placement.hpp"
#include "local/vnode.hpp"
#include "topology/cpu_topology.hpp"
#include "topology/distance.hpp"

namespace slackvm::local {

/// How the manager reacts when the natural vNode for a VM cannot grow.
enum class PoolingPolicy : std::uint8_t {
  kNone,     ///< strict: one level per vNode, fail if it cannot grow
  kUpgrade,  ///< §V-B: place into a stricter existing vNode when feasible
};

/// New pinning for one VM (all CPUs of its — possibly resized — vNode).
struct PinUpdate {
  core::VmId vm{};
  topo::CpuSet cpus;
};

/// Outcome of a successful deployment.
struct DeployResult {
  VNodeId vnode = 0;
  bool pooled = false;            ///< true when the VM was upgraded into a stricter node
  std::vector<PinUpdate> repins;  ///< includes the new VM itself
};

class VNodeManager {
 public:
  /// `mem_oversub` >= 1 allows committed memory up to total_mem * ratio
  /// (limited DRAM oversubscription, paper footnote 2 / §VIII).
  explicit VNodeManager(const topo::CpuTopology& topo,
                        PoolingPolicy pooling = PoolingPolicy::kNone,
                        double mem_oversub = 1.0);

  /// Memory admission bound of this PM.
  [[nodiscard]] core::MemMib mem_capacity() const noexcept {
    return static_cast<core::MemMib>(static_cast<double>(topo_.total_mem()) *
                                     mem_oversub_);
  }

  /// Non-mutating feasibility check mirroring deploy()'s logic. The computed
  /// target is cached against the manager's state epoch, so an immediately
  /// following deploy() of the same spec reuses it instead of re-running the
  /// placement engine.
  [[nodiscard]] bool can_host(const core::VmSpec& spec) const;

  /// Deploy a VM; returns std::nullopt if it does not fit.
  std::optional<DeployResult> deploy(core::VmId id, const core::VmSpec& spec);

  /// Drain mode (the local half of the cluster-level host lifecycle,
  /// sched/host_state.hpp): while set, admission stops — can_host is false
  /// and deploy refuses — but removals proceed and keep shrinking vNodes,
  /// so an emptying PM releases its CPUs as the evacuation progresses.
  void set_draining(bool draining) noexcept { draining_ = draining; }
  [[nodiscard]] bool draining() const noexcept { return draining_; }

  /// Remove a VM; returns the pin updates of the surviving VMs of its vNode.
  /// Throws if the VM is unknown.
  std::vector<PinUpdate> remove(core::VmId id);

  /// Dynamic oversubscription (§VIII): retune a vNode's effective level
  /// within [1, contract]. Tightening may grow the node's CPU set and
  /// returns std::nullopt — state unchanged — when the PM lacks free CPUs;
  /// relaxing shrinks it. On success returns the node's pin updates.
  /// Throws for unknown vNode ids or levels laxer than the contract.
  std::optional<std::vector<PinUpdate>> retune(VNodeId vnode,
                                               core::OversubLevel effective);

  // --- observers -----------------------------------------------------------
  [[nodiscard]] const topo::CpuTopology& topology() const noexcept { return topo_; }
  [[nodiscard]] const std::map<VNodeId, VNode>& vnodes() const noexcept { return vnodes_; }
  [[nodiscard]] const topo::CpuSet& free_cpus() const noexcept { return free_cpus_; }
  /// CPUs owned by any vNode — the complement of free_cpus(), maintained
  /// incrementally (seed selection reads it on every new-vNode deploy).
  [[nodiscard]] const topo::CpuSet& occupied_cpus() const noexcept {
    return occupied_cpus_;
  }
  [[nodiscard]] core::MemMib committed_mem() const noexcept { return committed_mem_; }
  [[nodiscard]] std::size_t vm_count() const noexcept { return vm_to_vnode_.size(); }
  [[nodiscard]] bool hosts(core::VmId vm) const { return vm_to_vnode_.contains(vm); }

  /// Times the placement engine (pick_target) actually ran — cache hits from
  /// a can_host()/deploy() pair count once. Test/diagnostic instrumentation.
  [[nodiscard]] std::size_t pick_target_calls() const noexcept {
    return pick_target_calls_;
  }

  /// PM allocation in Algorithm-2 currency: physical threads owned by vNodes
  /// and committed memory.
  [[nodiscard]] core::Resources alloc() const;

  /// PM hardware configuration.
  [[nodiscard]] core::Resources config() const noexcept { return topo_.config(); }

  /// Existing vNode at exactly this (contract) level, if any. O(log levels)
  /// via the maintained level map.
  [[nodiscard]] const VNode* find_level(core::OversubLevel level) const;

  /// CPUs of the vNode hosting `vm`; throws for unknown VMs.
  [[nodiscard]] const topo::CpuSet& pin_of(core::VmId vm) const;

  /// Validate all internal invariants (tests / debugging); throws on
  /// violation. Cheap enough to run after every operation in tests.
  void check_invariants() const;

 private:
  struct Target {
    VNodeId vnode;
    bool pooled;
  };

  [[nodiscard]] std::optional<Target> pick_target(const core::VmSpec& spec) const;
  /// pick_target behind the state-epoch memo shared by can_host and deploy.
  [[nodiscard]] std::optional<Target> target_for(const core::VmSpec& spec) const;
  [[nodiscard]] bool node_can_take(const VNode& node, const core::VmSpec& spec,
                                   bool as_pool) const;
  void claim_cpus(const topo::CpuSet& cpus);
  void release_cpus(const topo::CpuSet& cpus);
  std::vector<PinUpdate> resize_node(VNode& node);
  std::vector<PinUpdate> repins_for(const VNode& node) const;

  const topo::CpuTopology& topo_;
  std::shared_ptr<const topo::DistanceMatrix> distances_;
  PoolingPolicy pooling_;
  double mem_oversub_ = 1.0;
  bool draining_ = false;
  std::map<VNodeId, VNode> vnodes_;  // ordered for deterministic iteration
  std::map<core::VmId, VNodeId> vm_to_vnode_;
  std::map<core::OversubLevel, VNodeId> level_to_vnode_;  // contract level → node
  topo::CpuSet free_cpus_;
  topo::CpuSet occupied_cpus_;
  core::MemMib committed_mem_ = 0;
  VNodeId next_id_ = 0;
  PlacementScratch scratch_;
  // Persistent per-vNode distance frontiers, one per entry of vnodes_: the
  // min frontier is built by the seed selection and survives every resize,
  // the sum frontier is built by the first release — see placement.hpp.
  // Audited against recomputation by check_invariants.
  std::map<VNodeId, DistanceFrontier> frontiers_;

  // Target memo: valid while nothing mutated since it was computed.
  std::uint64_t state_epoch_ = 0;
  mutable bool cache_valid_ = false;
  mutable std::uint64_t cache_epoch_ = 0;
  mutable core::VmSpec cached_spec_{};
  mutable std::optional<Target> cached_target_;
  mutable std::size_t pick_target_calls_ = 0;
};

}  // namespace slackvm::local
