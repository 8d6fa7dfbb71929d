#include "local/vnode_manager.hpp"

#include <algorithm>

#include "core/error.hpp"

namespace slackvm::local {

VNodeManager::VNodeManager(const topo::CpuTopology& topo, PoolingPolicy pooling,
                           double mem_oversub)
    : topo_(topo),
      distances_(topo::DistanceMatrixCache::shared(topo)),
      pooling_(pooling),
      mem_oversub_(mem_oversub),
      free_cpus_(topo.all_cpus()),
      occupied_cpus_(topo.cpu_count()) {
  SLACKVM_ASSERT(mem_oversub >= 1.0);
}

bool VNodeManager::can_host(const core::VmSpec& spec) const {
  if (draining_) {
    return false;
  }
  if (committed_mem_ + spec.mem_mib > mem_capacity()) {
    return false;
  }
  return target_for(spec).has_value();
}

std::optional<VNodeManager::Target> VNodeManager::target_for(
    const core::VmSpec& spec) const {
  if (cache_valid_ && cache_epoch_ == state_epoch_ && cached_spec_ == spec) {
    return cached_target_;
  }
  ++pick_target_calls_;
  cached_target_ = pick_target(spec);
  cached_spec_ = spec;
  cache_epoch_ = state_epoch_;
  cache_valid_ = true;
  return cached_target_;
}

bool VNodeManager::node_can_take(const VNode& node, const core::VmSpec& spec,
                                 bool as_pool) const {
  if (as_pool) {
    // §V-B pooling: only among oversubscribed nodes, and only by upgrading a
    // laxer VM into a stricter node (the stricter guarantee subsumes the
    // laxer one — never the other way around).
    if (!node.level().oversubscribed() || !node.level().stricter_than(spec.level)) {
      return false;
    }
  } else if (node.level() != spec.level) {
    return false;
  }
  const core::CoreCount needed = node.required_cores_with(spec.vcpus);
  const core::CoreCount have = node.core_count();
  const core::CoreCount delta = needed > have ? needed - have : 0;
  return delta <= free_cpus_.count();
}

std::optional<VNodeManager::Target> VNodeManager::pick_target(
    const core::VmSpec& spec) const {
  SLACKVM_ASSERT(spec.vcpus > 0);
  // 1. Grow the vNode of the VM's own level (at most one node per level,
  // found through the maintained level map).
  const auto own = level_to_vnode_.find(spec.level);
  if (own != level_to_vnode_.end() &&
      node_can_take(vnodes_.at(own->second), spec, /*as_pool=*/false)) {
    return Target{own->second, false};
  }
  // 2. Create a fresh vNode for this level if none exists yet.
  if (own == level_to_vnode_.end() &&
      spec.level.cores_for(spec.vcpus) <= free_cpus_.count()) {
    return Target{next_id_, false};
  }
  // 3. Pooling upgrade (§V-B): prefer the laxest stricter node so the VM's
  // effective upgrade — and the core over-allocation it causes — is minimal.
  // Walking the level map downwards from the VM's level visits stricter
  // nodes laxest-first, so the first feasible one wins.
  if (pooling_ == PoolingPolicy::kUpgrade) {
    for (auto it = level_to_vnode_.lower_bound(spec.level);
         it != level_to_vnode_.begin();) {
      --it;
      if (node_can_take(vnodes_.at(it->second), spec, /*as_pool=*/true)) {
        return Target{it->second, true};
      }
    }
  }
  return std::nullopt;
}

void VNodeManager::claim_cpus(const topo::CpuSet& cpus) {
  free_cpus_ -= cpus;
  occupied_cpus_ |= cpus;
}

void VNodeManager::release_cpus(const topo::CpuSet& cpus) {
  free_cpus_ |= cpus;
  occupied_cpus_ -= cpus;
}

std::optional<DeployResult> VNodeManager::deploy(core::VmId id, const core::VmSpec& spec) {
  SLACKVM_ASSERT(!vm_to_vnode_.contains(id));
  if (draining_ || committed_mem_ + spec.mem_mib > mem_capacity()) {
    return std::nullopt;
  }
  const auto target = target_for(spec);
  if (!target) {
    return std::nullopt;
  }
  ++state_epoch_;

  auto it = vnodes_.find(target->vnode);
  if (it == vnodes_.end()) {
    // Create a new vNode seeded as far as possible from existing ones; the
    // seed selection builds the node's persistent frontier as it goes, so
    // the node's first grow starts from it instead of a rebuild.
    const core::CoreCount needed = spec.level.cores_for(spec.vcpus);
    const auto seed = choose_seed_cpus(*distances_, free_cpus_, occupied_cpus_, needed,
                                       scratch_, &frontiers_[next_id_]);
    SLACKVM_ASSERT(seed.has_value());
    VNode node(next_id_, spec.level, topo_.cpu_count());
    node.assign_cpus(*seed);
    claim_cpus(*seed);
    it = vnodes_.emplace(next_id_, std::move(node)).first;
    level_to_vnode_.emplace(spec.level, next_id_);
    ++next_id_;
  }

  VNode& node = it->second;
  node.add_vm(id, spec);
  vm_to_vnode_.emplace(id, node.id());
  committed_mem_ += spec.mem_mib;

  DeployResult result;
  result.vnode = node.id();
  result.pooled = target->pooled;
  result.repins = resize_node(node);
  return result;
}

std::vector<PinUpdate> VNodeManager::remove(core::VmId id) {
  const auto it = vm_to_vnode_.find(id);
  if (it == vm_to_vnode_.end()) {
    SLACKVM_THROW("VNodeManager::remove: unknown VM");
  }
  auto node_it = vnodes_.find(it->second);
  SLACKVM_ASSERT(node_it != vnodes_.end());
  VNode& node = node_it->second;
  ++state_epoch_;

  committed_mem_ -= node.spec_of(id).mem_mib;
  node.remove_vm(id);
  vm_to_vnode_.erase(it);

  if (node.empty()) {
    release_cpus(node.cpus());
    level_to_vnode_.erase(node.level());
    frontiers_.erase(node_it->first);
    vnodes_.erase(node_it);
    return {};
  }
  return resize_node(node);
}

std::optional<std::vector<PinUpdate>> VNodeManager::retune(VNodeId vnode,
                                                           core::OversubLevel effective) {
  const auto it = vnodes_.find(vnode);
  if (it == vnodes_.end()) {
    SLACKVM_THROW("VNodeManager::retune: unknown vNode");
  }
  VNode& node = it->second;
  if (node.level().stricter_than(effective)) {
    SLACKVM_THROW("VNodeManager::retune: effective level laxer than contract");
  }
  const core::CoreCount needed = effective.cores_for(node.committed_vcpus());
  const core::CoreCount have = node.core_count();
  if (needed > have && needed - have > free_cpus_.count()) {
    return std::nullopt;  // cannot tighten: not enough free CPUs
  }
  ++state_epoch_;
  node.set_effective_level(effective);
  return resize_node(node);
}

std::vector<PinUpdate> VNodeManager::resize_node(VNode& node) {
  const core::CoreCount needed = node.required_cores();
  const core::CoreCount have = node.core_count();
  // The persistent frontier of this vNode, seeded with the node and carried
  // across every grow/release so steady-state resizes cost O(steps·n) with
  // no rebuild.
  DistanceFrontier& frontier = frontiers_.at(node.id());
  if (needed > have) {
    const auto extension = choose_extension_cpus(*distances_, free_cpus_, node.cpus(),
                                                 needed - have, scratch_, &frontier);
    SLACKVM_ASSERT(extension.has_value());  // pick_target guaranteed room
    claim_cpus(*extension);
    node.assign_cpus(node.cpus() | *extension);
  } else if (needed < have) {
    const topo::CpuSet released = choose_release_cpus(*distances_, node.cpus(),
                                                      have - needed, scratch_, &frontier);
    release_cpus(released);
    node.assign_cpus(node.cpus() - released);
  }
  return repins_for(node);
}

std::vector<PinUpdate> VNodeManager::repins_for(const VNode& node) const {
  // Every VM of a resized vNode is (re)pinned to the node's full CPU range —
  // the in-node choice of a specific thread is left to the OS scheduler.
  // vm_ids() is maintained sorted, so the update order is deterministic
  // without a per-resize sort.
  std::vector<PinUpdate> repins;
  repins.reserve(node.vm_ids().size());
  for (core::VmId vm : node.vm_ids()) {
    repins.push_back(PinUpdate{vm, node.cpus()});
  }
  return repins;
}

core::Resources VNodeManager::alloc() const {
  core::CoreCount cores = 0;
  for (const auto& [id, node] : vnodes_) {
    cores += node.core_count();
  }
  return core::Resources{cores, committed_mem_};
}

const VNode* VNodeManager::find_level(core::OversubLevel level) const {
  const auto it = level_to_vnode_.find(level);
  return it == level_to_vnode_.end() ? nullptr : &vnodes_.at(it->second);
}

const topo::CpuSet& VNodeManager::pin_of(core::VmId vm) const {
  const auto it = vm_to_vnode_.find(vm);
  if (it == vm_to_vnode_.end()) {
    SLACKVM_THROW("VNodeManager::pin_of: unknown VM");
  }
  return vnodes_.at(it->second).cpus();
}

void VNodeManager::check_invariants() const {
  topo::CpuSet seen = free_cpus_;
  core::MemMib mem = 0;
  std::size_t vms = 0;
  for (const auto& [id, node] : vnodes_) {
    SLACKVM_ASSERT(!node.empty());
    SLACKVM_ASSERT(node.capacity_ok());
    SLACKVM_ASSERT(node.core_count() == node.required_cores());
    SLACKVM_ASSERT(!seen.intersects(node.cpus()));
    seen |= node.cpus();
    mem += node.committed_mem();
    vms += node.vm_count();
    SLACKVM_ASSERT(level_to_vnode_.contains(node.level()));
    SLACKVM_ASSERT(level_to_vnode_.at(node.level()) == id);
    SLACKVM_ASSERT(std::ranges::is_sorted(node.vm_ids()));
    for (core::VmId vm : node.vm_ids()) {
      SLACKVM_ASSERT(vm_to_vnode_.at(vm) == id);
    }
    // Every node's frontier (its min half always, its sum half once a
    // release built it) must match a from-scratch recomputation — the
    // work-avoidance cache may never drift from the node's CPU set.
    const DistanceFrontier& frontier = frontiers_.at(id);
    SLACKVM_ASSERT(frontier.min_valid);
    SLACKVM_ASSERT(frontier.min_dist.size() == topo_.cpu_count());
    SLACKVM_ASSERT(frontier.min_count.size() == topo_.cpu_count());
    for (std::size_t cpu = 0; cpu < topo_.cpu_count(); ++cpu) {
      const auto min =
          distances_->min_distance_to(static_cast<topo::CpuId>(cpu), node.cpus());
      SLACKVM_ASSERT(frontier.min_dist[cpu] == min);
      std::uint32_t witnesses = 0;
      node.cpus().for_each_cpu([&](topo::CpuId member) {
        if ((*distances_)(static_cast<topo::CpuId>(cpu), member) == min) {
          ++witnesses;
        }
      });
      SLACKVM_ASSERT(frontier.min_count[cpu] == witnesses);
    }
    if (frontier.total_valid) {
      SLACKVM_ASSERT(frontier.total_dist.size() == topo_.cpu_count());
      for (std::size_t cpu = 0; cpu < topo_.cpu_count(); ++cpu) {
        SLACKVM_ASSERT(frontier.total_dist[cpu] ==
                       distances_->total_distance_to(static_cast<topo::CpuId>(cpu),
                                                     node.cpus()));
      }
    }
  }
  SLACKVM_ASSERT(seen == topo_.all_cpus());
  SLACKVM_ASSERT(occupied_cpus_ == topo_.all_cpus() - free_cpus_);
  SLACKVM_ASSERT(level_to_vnode_.size() == vnodes_.size());
  SLACKVM_ASSERT(frontiers_.size() == vnodes_.size());
  SLACKVM_ASSERT(mem == committed_mem_);
  SLACKVM_ASSERT(mem <= mem_capacity());
  SLACKVM_ASSERT(vms == vm_to_vnode_.size());
}

}  // namespace slackvm::local
