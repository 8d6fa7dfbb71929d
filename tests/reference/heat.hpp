// Naive reference of the heat feeder: every tick re-derives every host's
// demand from its VMs' usage signals. sim::update_cluster_heat, which
// patches cached term lists from the membership journal instead, must keep
// every host's heat bit-identical to this (HeatCacheDifferential.*).
#pragma once

#include <cstddef>
#include <vector>

#include "core/units.hpp"
#include "sched/vcluster.hpp"
#include "sim/usage_monitor.hpp"

namespace slackvm::reference {

/// Per-host demand breakdown of one cluster at time `t`, indexed by HostId.
/// Each host's demand sums its VMs in ascending VmId order (the order
/// HostState::vms() lists them), which pins the floating-point result.
[[nodiscard]] std::vector<sim::HostUsage> sample_host_usage(
    const sched::VCluster& cluster, core::SimTime t);

/// One heat tick from sample_host_usage: the EWMA and quantization of
/// sim::update_cluster_heat, with no cache. Returns the hosts refreshed.
std::size_t update_cluster_heat_naive(sched::VCluster& cluster, core::SimTime t,
                                      double alpha, double bucket_width);

}  // namespace slackvm::reference
