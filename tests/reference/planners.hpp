// Naive reference passes of the two rebalance planners.
//
// Both copy the whole HostState fleet and answer every question with an
// O(hosts) scan, which makes them short enough to read as a specification.
// sched::Rebalancer::plan and plan_interference must reproduce them move for
// move (PlanDifferential.*, InterferenceDifferential.*); the shipped
// libraries carry only those fast passes.
#pragma once

#include <cstddef>

#include "sched/rebalancer.hpp"
#include "sched/scorer.hpp"
#include "sched/vcluster.hpp"

namespace slackvm::perf {
class ContentionModel;
}  // namespace slackvm::perf

namespace slackvm::reference {

/// Drain-and-consolidate, one fleet copy per drain attempt: repeatedly try
/// to empty the untried non-empty host with the fewest VMs (ties to the
/// lowest id), moving each of its VMs, lowest VmId first, to the
/// highest-scoring other host that can take it (ties to the lowest id). A
/// drain that strands a VM is undone whole. The cluster is not modified.
[[nodiscard]] sched::MigrationPlan plan_naive(const sched::VCluster& cluster,
                                              const sched::Scorer& scorer,
                                              std::size_t max_migrations);

/// Polluter pass over a fleet copy: see Rebalancer::plan_interference for
/// the rules; every hottest/coolest choice here is a full scan.
[[nodiscard]] sched::MigrationPlan plan_interference_naive(
    const sched::VCluster& cluster, const perf::ContentionModel& model,
    const sched::InterferenceOptions& options);

}  // namespace slackvm::reference
