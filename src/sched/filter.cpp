#include "sched/filter.hpp"

#include "core/error.hpp"

namespace slackvm::sched {

MaxVmsFilter::MaxVmsFilter(std::size_t max_vms) : max_vms_(max_vms) {
  SLACKVM_ASSERT(max_vms >= 1);
}

bool MaxVmsFilter::admits(const HostState& host, const core::VmSpec& spec) const {
  (void)spec;
  return host.vm_count() < max_vms_;
}

std::string MaxVmsFilter::name() const {
  return "max-vms(" + std::to_string(max_vms_) + ")";
}

bool LevelExclusiveFilter::admits(const HostState& host,
                                  const core::VmSpec& spec) const {
  // Admit on an empty host, or when the only level with a commitment is the
  // VM's own: any committed level other than spec.level rejects.
  for (std::uint8_t ratio = 1; ratio <= core::OversubLevel::kMaxRatio; ++ratio) {
    if (ratio != spec.level.ratio() &&
        host.committed_vcpus(core::OversubLevel{ratio}) > 0) {
      return false;
    }
  }
  return true;
}

HeadroomFilter::HeadroomFilter(double cpu_headroom, double mem_headroom)
    : cpu_headroom_(cpu_headroom), mem_headroom_(mem_headroom) {
  SLACKVM_ASSERT(cpu_headroom >= 0.0 && cpu_headroom < 1.0);
  SLACKVM_ASSERT(mem_headroom >= 0.0 && mem_headroom < 1.0);
}

bool HeadroomFilter::admits(const HostState& host, const core::VmSpec& spec) const {
  const auto cpu_cap = static_cast<double>(host.config().cores) * (1.0 - cpu_headroom_);
  const auto mem_cap = static_cast<double>(host.config().mem_mib) * (1.0 - mem_headroom_);
  return static_cast<double>(host.load().cores_with(spec)) <= cpu_cap &&
         static_cast<double>(host.alloc().mem_mib + spec.mem_mib) <= mem_cap;
}

std::string HeadroomFilter::name() const {
  return "headroom(cpu=" + std::to_string(cpu_headroom_) +
         ",mem=" + std::to_string(mem_headroom_) + ")";
}

FilterChain& FilterChain::add(std::unique_ptr<Filter> filter) {
  SLACKVM_ASSERT(filter != nullptr);
  filters_.push_back(std::move(filter));
  return *this;
}

bool FilterChain::admits(const HostState& host, const core::VmSpec& spec) const {
  for (const auto& filter : filters_) {
    if (!filter->admits(host, spec)) {
      return false;
    }
  }
  return true;
}

std::string FilterChain::name() const {
  std::string out = "chain(";
  for (std::size_t i = 0; i < filters_.size(); ++i) {
    if (i > 0) {
      out += '+';
    }
    out += filters_[i]->name();
  }
  out += ')';
  return out;
}

}  // namespace slackvm::sched
