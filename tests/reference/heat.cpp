#include "reference/heat.hpp"

#include "workload/usage.hpp"

namespace slackvm::reference {

std::vector<sim::HostUsage> sample_host_usage(const sched::VCluster& cluster,
                                              core::SimTime t) {
  const std::vector<sched::HostState>& hosts = cluster.hosts();
  std::vector<sim::HostUsage> out;
  out.reserve(hosts.size());
  for (const sched::HostState& host : hosts) {
    sim::HostUsage usage;
    usage.capacity_cores = host.config().cores;
    // Ascending-VmId summation (the host's own VM order): the heat this
    // feeds steers placement, so the float result is pinned to that order.
    for (const auto& [vm, spec] : host.vms()) {
      usage.demand_cores += static_cast<double>(spec.vcpus) *
                            workload::UsageSignal(vm, spec.usage).at(t);
    }
    out.push_back(usage);
  }
  return out;
}

std::size_t update_cluster_heat_naive(sched::VCluster& cluster, core::SimTime t,
                                      double alpha, double bucket_width) {
  const std::vector<sim::HostUsage> usage = sample_host_usage(cluster, t);
  for (sched::HostId h = 0; h < usage.size(); ++h) {
    const double q =
        usage[h].capacity_cores > 0
            ? usage[h].demand_cores / static_cast<double>(usage[h].capacity_cores)
            : 0.0;
    cluster.set_host_heat(
        h, alpha * q + (1.0 - alpha) * cluster.host_heat(h), bucket_width);
  }
  return usage.size();
}

}  // namespace slackvm::reference
