#include "sched/host_state.hpp"

#include <algorithm>

#include "core/error.hpp"

namespace slackvm::sched {

namespace {

/// First hosted VM with an id not below `id`.
template <typename Vms>
auto lower_bound_id(Vms& vms, core::VmId id) {
  return std::ranges::lower_bound(vms, id, {}, &HostedVm::first);
}

}  // namespace

const char* to_string(HostPhase phase) noexcept {
  switch (phase) {
    case HostPhase::kUp:
      return "up";
    case HostPhase::kDraining:
      return "draining";
    case HostPhase::kFailed:
      return "failed";
  }
  return "?";
}

HostState::HostState(HostId id, core::Resources config, double mem_oversub)
    : id_(id), config_(config), mem_oversub_(mem_oversub) {
  SLACKVM_ASSERT(config.cores > 0 && config.mem_mib > 0);
  SLACKVM_ASSERT(mem_oversub >= 1.0);
}

void HostState::revive(HostId id, core::Resources config, double mem_oversub) {
  std::vector<HostedVm> vms = std::move(vms_);
  std::unordered_map<core::VmId, core::VmSpec> reservations = std::move(reservations_);
  *this = HostState(id, config, mem_oversub);
  vms.clear();
  reservations.clear();
  vms_ = std::move(vms);
  reservations_ = std::move(reservations);
}

core::CoreCount HostState::cores_with(const core::VmSpec& spec) const noexcept {
  // Only the spec's own vNode changes, so the incremental ceil-rounded
  // demand is O(1) instead of a sweep over all levels.
  const std::uint8_t ratio = spec.level.ratio();
  const core::VcpuCount vcpus = vcpus_per_level_[ratio];
  return alloc_cores_ - core::ceil_div<core::CoreCount>(vcpus, ratio) +
         core::ceil_div<core::CoreCount>(vcpus + spec.vcpus, ratio);
}

bool HostState::fits(const core::VmSpec& spec) const noexcept {
  if (committed_mem_ + spec.mem_mib > mem_capacity()) {
    return false;
  }
  return cores_with(spec) <= config_.cores;
}

void HostState::add(core::VmId id, const core::VmSpec& spec) {
  SLACKVM_ASSERT(fits(spec));
  if (vms_.empty() || vms_.back().first < id) {
    vms_.emplace_back(id, spec);
  } else {
    const auto pos = lower_bound_id(vms_, id);
    SLACKVM_ASSERT(pos->first != id);
    vms_.emplace(pos, id, spec);
  }
  vcpus_per_level_[spec.level.ratio()] += spec.vcpus;
  committed_mem_ += spec.mem_mib;
  recompute_alloc_cores();
  ++epoch_;
}

void HostState::remove(core::VmId id) {
  const auto it = lower_bound_id(vms_, id);
  if (it == vms_.end() || it->first != id) {
    SLACKVM_THROW("HostState::remove: unknown VM");
  }
  const core::VmSpec& spec = it->second;
  vcpus_per_level_[spec.level.ratio()] -= spec.vcpus;
  committed_mem_ -= spec.mem_mib;
  vms_.erase(it);
  recompute_alloc_cores();
  ++epoch_;
}

std::vector<HostedVm> HostState::evict_all() {
  if (vms_.empty()) {
    return {};
  }
  for (const auto& [id, spec] : vms_) {
    vcpus_per_level_[spec.level.ratio()] -= spec.vcpus;
    committed_mem_ -= spec.mem_mib;
  }
  recompute_alloc_cores();
  ++epoch_;
  // Copy the victims out and clear in place: the host keeps its vector's
  // capacity, so refilling it after a repair allocates nothing.
  std::vector<HostedVm> victims(vms_.begin(), vms_.end());
  vms_.clear();
  return victims;
}

void HostState::reserve(core::VmId id, const core::VmSpec& spec) {
  SLACKVM_ASSERT(!reservations_.contains(id));
  SLACKVM_ASSERT(fits(spec));
  reservations_.emplace(id, spec);
  vcpus_per_level_[spec.level.ratio()] += spec.vcpus;
  committed_mem_ += spec.mem_mib;
  recompute_alloc_cores();
  ++epoch_;
}

void HostState::release_reservation(core::VmId id) {
  const auto it = reservations_.find(id);
  if (it == reservations_.end()) {
    SLACKVM_THROW("HostState::release_reservation: unknown VM");
  }
  const core::VmSpec& spec = it->second;
  vcpus_per_level_[spec.level.ratio()] -= spec.vcpus;
  committed_mem_ -= spec.mem_mib;
  reservations_.erase(it);
  recompute_alloc_cores();
  ++epoch_;
}

core::VcpuCount HostState::committed_vcpus(core::OversubLevel level) const noexcept {
  return vcpus_per_level_[level.ratio()];
}

std::map<core::OversubLevel, core::VcpuCount> HostState::level_commitments() const {
  std::map<core::OversubLevel, core::VcpuCount> out;
  for (std::uint8_t ratio = 1; ratio <= core::OversubLevel::kMaxRatio; ++ratio) {
    if (vcpus_per_level_[ratio] > 0) {
      out.emplace(core::OversubLevel{ratio}, vcpus_per_level_[ratio]);
    }
  }
  return out;
}

const core::VmSpec& HostState::spec_of(core::VmId id) const {
  const auto it = lower_bound_id(vms_, id);
  if (it == vms_.end() || it->first != id) {
    SLACKVM_THROW("HostState::spec_of: unknown VM");
  }
  return it->second;
}

bool HostState::hosts_vm(core::VmId id) const noexcept {
  const auto it = lower_bound_id(vms_, id);
  return it != vms_.end() && it->first == id;
}

void HostState::recompute_alloc_cores() noexcept {
  core::CoreCount total = 0;
  for (std::uint8_t ratio = 1; ratio <= core::OversubLevel::kMaxRatio; ++ratio) {
    if (vcpus_per_level_[ratio] > 0) {
      total += core::ceil_div<core::CoreCount>(vcpus_per_level_[ratio], ratio);
    }
  }
  alloc_cores_ = total;
}

}  // namespace slackvm::sched
