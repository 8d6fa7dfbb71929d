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

HostState::HostState(HostId id, core::Resources config, double mem_oversub,
                     std::pmr::memory_resource* pool)
    : vms_(pool), reservations_(pool) {
  revive(id, config, mem_oversub);
}

void HostState::revive(HostId id, core::Resources config, double mem_oversub) {
  SLACKVM_ASSERT(config.cores > 0 && config.mem_mib > 0);
  SLACKVM_ASSERT(mem_oversub >= 1.0);
  id_ = id;
  load_ = HostLoad{};
  load_.config = config;
  load_.mem_capacity =
      static_cast<core::MemMib>(static_cast<double>(config.mem_mib) * mem_oversub);
  vms_.clear();
  reservations_.clear();
}

void HostState::add(core::VmId id, const core::VmSpec& spec) {
  SLACKVM_ASSERT(load_.fits(spec));
  if (vms_.empty() || vms_.back().first < id) {
    vms_.emplace_back(id, spec);
  } else {
    const auto pos = lower_bound_id(vms_, id);
    SLACKVM_ASSERT(pos->first != id);
    vms_.emplace(pos, id, spec);
  }
  load_.book(spec);
  ++load_.epoch;
}

void HostState::remove(core::VmId id) {
  const auto it = lower_bound_id(vms_, id);
  if (it == vms_.end() || it->first != id) {
    SLACKVM_THROW("HostState::remove: unknown VM");
  }
  load_.unbook(it->second);
  vms_.erase(it);
  ++load_.epoch;
}

std::vector<HostedVm> HostState::evict_all() {
  if (vms_.empty()) {
    return {};
  }
  for (const auto& [id, spec] : vms_) {
    load_.unbook(spec);
  }
  ++load_.epoch;
  // Copy the victims out and clear in place: the host keeps its vector's
  // capacity, so refilling it after a repair allocates nothing.
  std::vector<HostedVm> victims(vms_.begin(), vms_.end());
  vms_.clear();
  return victims;
}

void HostState::reserve(core::VmId id, const core::VmSpec& spec) {
  SLACKVM_ASSERT(!reservations_.contains(id));
  SLACKVM_ASSERT(load_.fits(spec));
  reservations_.emplace(id, spec);
  load_.book(spec);
  ++load_.epoch;
}

void HostState::release_reservation(core::VmId id) {
  const auto it = reservations_.find(id);
  if (it == reservations_.end()) {
    SLACKVM_THROW("HostState::release_reservation: unknown VM");
  }
  load_.unbook(it->second);
  reservations_.erase(it);
  ++load_.epoch;
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

}  // namespace slackvm::sched
