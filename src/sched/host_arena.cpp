#include "sched/host_arena.hpp"

#include <sstream>

#include "core/error.hpp"

namespace slackvm::sched {

void HostArena::copy_row(const HostState& host) {
  const HostId id = host.id();
  epoch_[id] = host.epoch();
  phase_[id] = static_cast<std::uint8_t>(host.phase());
  alloc_cores_[id] = host.alloc().cores;
  committed_mem_[id] = host.alloc().mem_mib;
  mem_capacity_[id] = host.mem_capacity();
  config_cores_[id] = host.config().cores;
  config_mem_[id] = host.config().mem_mib;
  vm_count_[id] = static_cast<std::uint32_t>(host.vm_count());
  heat_[id] = host.heat();
  heat_bucket_[id] = host.heat_bucket();
  heat_bucket_width_[id] = host.heat_bucket_width();
  core::VcpuCount* levels = &vcpus_per_level_[std::size_t{id} * kLevels];
  levels[0] = 0;
  for (std::uint8_t ratio = 1; ratio <= core::OversubLevel::kMaxRatio; ++ratio) {
    levels[ratio] = host.committed_vcpus(core::OversubLevel{ratio});
  }
}

void HostArena::push_host(const HostState& host) {
  SLACKVM_ASSERT(host.id() == size());
  epoch_.emplace_back();
  phase_.emplace_back();
  alloc_cores_.emplace_back();
  committed_mem_.emplace_back();
  mem_capacity_.emplace_back();
  config_cores_.emplace_back();
  config_mem_.emplace_back();
  vm_count_.emplace_back();
  heat_.emplace_back();
  heat_bucket_.emplace_back();
  heat_bucket_width_.emplace_back();
  vcpus_per_level_.resize(vcpus_per_level_.size() + kLevels);
  copy_row(host);
  total_alloc_ += host.alloc();
  total_config_ += host.config();
  if (!host.empty()) {
    ++nonempty_;
  }
}

void HostArena::pop_host() {
  SLACKVM_ASSERT(!epoch_.empty());
  const std::size_t id = size() - 1;
  // Only empty openings are ever rolled back.
  SLACKVM_ASSERT(vm_count_[id] == 0);
  total_alloc_ -= core::Resources{alloc_cores_[id], committed_mem_[id]};
  total_config_ -= core::Resources{config_cores_[id], config_mem_[id]};
  epoch_.pop_back();
  phase_.pop_back();
  alloc_cores_.pop_back();
  committed_mem_.pop_back();
  mem_capacity_.pop_back();
  config_cores_.pop_back();
  config_mem_.pop_back();
  vm_count_.pop_back();
  heat_.pop_back();
  heat_bucket_.pop_back();
  heat_bucket_width_.pop_back();
  vcpus_per_level_.resize(vcpus_per_level_.size() - kLevels);
}

void HostArena::refresh(const HostState& host) {
  const HostId id = host.id();
  SLACKVM_ASSERT(id < size());
  total_alloc_.cores += host.alloc().cores - alloc_cores_[id];
  total_alloc_.mem_mib += host.alloc().mem_mib - committed_mem_[id];
  total_config_.cores += host.config().cores - config_cores_[id];
  total_config_.mem_mib += host.config().mem_mib - config_mem_[id];
  const bool was_empty = vm_count_[id] == 0;
  const bool is_empty = host.empty();
  if (was_empty && !is_empty) {
    ++nonempty_;
  } else if (!was_empty && is_empty) {
    --nonempty_;
  }
  copy_row(host);
}

void HostArena::reserve(std::size_t hosts) {
  epoch_.reserve(hosts);
  phase_.reserve(hosts);
  alloc_cores_.reserve(hosts);
  committed_mem_.reserve(hosts);
  mem_capacity_.reserve(hosts);
  config_cores_.reserve(hosts);
  config_mem_.reserve(hosts);
  vm_count_.reserve(hosts);
  heat_.reserve(hosts);
  heat_bucket_.reserve(hosts);
  heat_bucket_width_.reserve(hosts);
  vcpus_per_level_.reserve(hosts * kLevels);
}

void HostArena::reset() noexcept {
  epoch_.clear();
  phase_.clear();
  alloc_cores_.clear();
  committed_mem_.clear();
  mem_capacity_.clear();
  config_cores_.clear();
  config_mem_.clear();
  vm_count_.clear();
  heat_.clear();
  heat_bucket_.clear();
  heat_bucket_width_.clear();
  vcpus_per_level_.clear();
  total_alloc_ = {};
  total_config_ = {};
  nonempty_ = 0;
}

bool HostArena::can_host(HostId host, const core::VmSpec& spec) const noexcept {
  if (static_cast<HostPhase>(phase_[host]) != HostPhase::kUp) {
    return false;
  }
  if (committed_mem_[host] + spec.mem_mib > mem_capacity_[host]) {
    return false;
  }
  // Incremental integer-core rule, identical to HostState::cores_with: only
  // the VM's own level changes its vNode's ceil-rounded core count.
  const std::uint8_t ratio = spec.level.ratio();
  const core::VcpuCount committed =
      vcpus_per_level_[std::size_t{host} * kLevels + ratio];
  const core::CoreCount cores =
      alloc_cores_[host] - core::ceil_div<core::CoreCount>(committed, ratio) +
      core::ceil_div<core::CoreCount>(committed + spec.vcpus, ratio);
  return cores <= config_cores_[host];
}

std::vector<std::string> HostArena::check(std::span<const HostState> hosts) const {
  std::vector<std::string> out;
  const auto fail = [&out](HostId id, const std::string& message) {
    std::ostringstream os;
    os << "arena host " << id << ": " << message;
    out.push_back(os.str());
  };
  if (hosts.size() != size()) {
    out.push_back("arena mirrors " + std::to_string(size()) + " hosts but cluster has " +
                  std::to_string(hosts.size()));
    return out;
  }
  core::Resources alloc;
  core::Resources config;
  std::size_t nonempty = 0;
  for (const HostState& host : hosts) {
    const HostId id = host.id();
    if (epoch_[id] != host.epoch()) {
      fail(id, "epoch " + std::to_string(epoch_[id]) + " != " +
                   std::to_string(host.epoch()));
    }
    if (static_cast<HostPhase>(phase_[id]) != host.phase()) {
      fail(id, std::string("phase ") + to_string(static_cast<HostPhase>(phase_[id])) +
                   " != " + to_string(host.phase()));
    }
    if (alloc_cores_[id] != host.alloc().cores ||
        committed_mem_[id] != host.alloc().mem_mib) {
      fail(id, "alloc mirror drift");
    }
    if (mem_capacity_[id] != host.mem_capacity()) {
      fail(id, "mem_capacity mirror drift");
    }
    if (config_cores_[id] != host.config().cores ||
        config_mem_[id] != host.config().mem_mib) {
      fail(id, "config mirror drift");
    }
    if (vm_count_[id] != host.vm_count()) {
      fail(id, "vm_count " + std::to_string(vm_count_[id]) + " != " +
                   std::to_string(host.vm_count()));
    }
    // Exact comparison on purpose: the column is copied verbatim, so any
    // difference at all is mirror drift, not floating-point noise.
    if (heat_[id] != host.heat()) {
      fail(id, "heat " + std::to_string(heat_[id]) + " != " +
                   std::to_string(host.heat()));
    }
    if (heat_bucket_[id] != host.heat_bucket()) {
      fail(id, "heat bucket " + std::to_string(heat_bucket_[id]) + " != " +
                   std::to_string(host.heat_bucket()));
    }
    if (heat_bucket_width_[id] != host.heat_bucket_width()) {
      fail(id, "heat bucket width " + std::to_string(heat_bucket_width_[id]) +
                   " != " + std::to_string(host.heat_bucket_width()));
    }
    for (std::uint8_t ratio = 1; ratio <= core::OversubLevel::kMaxRatio; ++ratio) {
      const core::VcpuCount mirrored =
          vcpus_per_level_[std::size_t{id} * kLevels + ratio];
      if (mirrored != host.committed_vcpus(core::OversubLevel{ratio})) {
        fail(id, "level " + std::to_string(ratio) + " vCPU mirror drift");
      }
    }
    alloc += host.alloc();
    config += host.config();
    if (!host.empty()) {
      ++nonempty;
    }
  }
  if (alloc != total_alloc_) {
    out.push_back("arena total_alloc drift");
  }
  if (config != total_config_) {
    out.push_back("arena total_config drift");
  }
  if (nonempty != nonempty_) {
    out.push_back("arena nonempty count " + std::to_string(nonempty_) + " != " +
                  std::to_string(nonempty));
  }
  return out;
}

}  // namespace slackvm::sched
