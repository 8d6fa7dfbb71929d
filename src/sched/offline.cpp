#include "sched/offline.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "core/error.hpp"

namespace slackvm::sched {

namespace {

/// Pack in the given order with a target-selection callback.
template <typename PickHost>
std::size_t pack_ordered(std::vector<core::VmSpec> vms, const core::Resources& host,
                         SizeMeasure measure, PickHost pick) {
  std::ranges::stable_sort(vms, [&host, measure](const auto& a, const auto& b) {
    return size_key(a, host, measure) > size_key(b, host, measure);
  });
  std::vector<HostState> hosts;
  std::uint64_t next_id = 1;
  for (const core::VmSpec& vm : vms) {
    std::optional<std::size_t> target = pick(hosts, vm);
    if (!target) {
      hosts.emplace_back(static_cast<HostId>(hosts.size()), host);
      if (!hosts.back().can_host(vm)) {
        SLACKVM_THROW("offline packing: VM exceeds an empty PM");
      }
      target = hosts.size() - 1;
    }
    hosts[*target].add(core::VmId{next_id++}, vm);
  }
  return hosts.size();
}

}  // namespace

double size_key(const core::VmSpec& vm, const core::Resources& host,
                SizeMeasure measure) {
  const double cores = static_cast<double>(vm.physical_cores()) /
                       static_cast<double>(host.cores);
  const double mem =
      static_cast<double>(vm.mem_mib) / static_cast<double>(host.mem_mib);
  switch (measure) {
    case SizeMeasure::kCores:
      return cores;
    case SizeMeasure::kMemory:
      return mem;
    case SizeMeasure::kMaxNormalized:
      return std::max(cores, mem);
    case SizeMeasure::kSumNormalized:
      return cores + mem;
  }
  SLACKVM_THROW("invalid SizeMeasure");
}

std::size_t lower_bound_pms(std::span<const core::VmSpec> vms,
                            const core::Resources& host) {
  SLACKVM_ASSERT(host.cores > 0 && host.mem_mib > 0);
  double frac_cores = 0.0;
  double mem = 0.0;
  for (const core::VmSpec& vm : vms) {
    frac_cores += static_cast<double>(vm.vcpus) / vm.level.ratio();
    mem += static_cast<double>(vm.mem_mib);
  }
  const double by_cpu = frac_cores / static_cast<double>(host.cores);
  const double by_mem = mem / static_cast<double>(host.mem_mib);
  return static_cast<std::size_t>(std::ceil(std::max(by_cpu, by_mem) - 1e-9));
}

std::size_t pack_ffd(std::span<const core::VmSpec> vms, const core::Resources& host,
                     SizeMeasure measure) {
  return pack_ordered(
      std::vector<core::VmSpec>(vms.begin(), vms.end()), host, measure,
      [](const std::vector<HostState>& hosts,
         const core::VmSpec& vm) -> std::optional<std::size_t> {
        for (std::size_t h = 0; h < hosts.size(); ++h) {
          if (hosts[h].can_host(vm)) {
            return h;
          }
        }
        return std::nullopt;
      });
}

std::size_t pack_bfd(std::span<const core::VmSpec> vms, const core::Resources& host,
                     SizeMeasure measure) {
  return pack_ordered(
      std::vector<core::VmSpec>(vms.begin(), vms.end()), host, measure,
      [&host](const std::vector<HostState>& hosts,
              const core::VmSpec& vm) -> std::optional<std::size_t> {
        std::optional<std::size_t> best;
        double best_residual = 0.0;
        for (std::size_t h = 0; h < hosts.size(); ++h) {
          if (!hosts[h].can_host(vm)) {
            continue;
          }
          const double residual =
              static_cast<double>(host.cores - hosts[h].load().cores_with(vm)) /
                  static_cast<double>(host.cores) +
              static_cast<double>(host.mem_mib - hosts[h].alloc().mem_mib -
                                  vm.mem_mib) /
                  static_cast<double>(host.mem_mib);
          if (!best || residual < best_residual) {
            best = h;
            best_residual = residual;
          }
        }
        return best;
      });
}

}  // namespace slackvm::sched
