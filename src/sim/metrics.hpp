// Run-level metrics of a trace replay.
#pragma once

#include <map>
#include <string>

#include "core/resources.hpp"
#include "core/stats.hpp"

namespace slackvm::sim {

/// Result of replaying one trace against one Datacenter.
struct RunResult {
  std::size_t opened_pms = 0;  ///< minimal cluster size under the policy
  std::size_t peak_active_pms = 0;  ///< peak concurrently non-empty PMs
  std::size_t migrations = 0;       ///< live migrations performed (if enabled)
  std::map<std::string, std::size_t> opened_per_cluster;

  std::size_t placed_vms = 0;
  std::size_t peak_vms = 0;  ///< peak concurrently running VMs

  /// Time-weighted mean share of unallocated CPU (resp. memory) over the
  /// opened PMs, across the whole run — the Fig. 3 quantities.
  double avg_unalloc_cpu_share = 0.0;
  double avg_unalloc_mem_share = 0.0;

  /// Snapshot of the unallocated shares at the moment of peak CPU
  /// allocation (the "full datacenter" view).
  double peak_unalloc_cpu_share = 0.0;
  double peak_unalloc_mem_share = 0.0;

  /// Inputs of the energy model (sim/power.hpp).
  core::SimTime duration = 0.0;      ///< observed span of the run
  double avg_active_pms = 0.0;       ///< time-weighted non-empty PMs
  double avg_alloc_cores = 0.0;      ///< time-weighted allocated cores

  // --- fault injection (sim/fault.hpp); all zero with faults disabled ----
  // Once the queue drains, every evicted VM is accounted exactly once:
  // evacuated_vms == evac_replaced + evac_departed + degraded_vms.
  std::size_t host_failures = 0;     ///< failures applied to a live host
  std::size_t host_repairs = 0;      ///< hosts brought back to UP
  std::size_t drained_hosts = 0;     ///< UP -> DRAINING transitions applied
  std::size_t evacuated_vms = 0;     ///< VMs evicted by host failures
  std::size_t evac_replaced = 0;     ///< victims re-placed (now or on retry)
  std::size_t evac_migrated = 0;     ///< VMs moved off draining hosts pre-failure
  std::size_t evac_retries = 0;      ///< backoff retry attempts for victims
  std::size_t evac_departed = 0;     ///< victims departing while still waiting
  std::size_t degraded_vms = 0;      ///< victims parked in the degraded queue
  std::size_t deferred_arrivals = 0; ///< arrivals deferred for lack of capacity
  std::size_t arrivals_dropped = 0;  ///< deferred arrivals never placed

  // --- time-extended migrations (sim/migration.hpp); zero in instant mode --
  // Once the queue drains, every accepted rebalance intent is terminal in
  // exactly one bucket:
  //   mig_planned == mig_committed + mig_cancelled + mig_rolled_back
  //                  + mig_timed_out + mig_degraded.
  std::size_t mig_planned = 0;      ///< rebalance intents accepted by the engine
  std::size_t mig_committed = 0;    ///< flights that completed and moved the VM
  std::size_t mig_cancelled = 0;    ///< intents overtaken by departure/failure/drain of the source
  std::size_t mig_rolled_back = 0;  ///< flights aborted by dest failure/drain, retries exhausted
  std::size_t mig_timed_out = 0;    ///< flights aborted by the pre-copy timeout
  std::size_t mig_degraded = 0;     ///< intents parked after no destination was found
  std::size_t mig_retries = 0;      ///< backoff retry attempts (not part of the identity)

  // --- interference loop (sched/rebalancer.hpp polluter pass + the heat
  // feeder in sim/usage_monitor.hpp); all zero with interference disabled.
  // Every planned eviction lands in exactly one terminal bucket:
  //   itf_evictions == itf_applied + itf_requested + itf_skipped
  // (instant mode splits between applied and skipped; engine mode hands
  // every eviction over as an intent, which then also shows up in the
  // mig_* identity above).
  std::size_t heat_updates = 0;   ///< per-host heat EWMA refreshes
  std::size_t itf_passes = 0;     ///< polluter-detection passes run
  std::size_t itf_hot_hosts = 0;  ///< hosts found above the inflation threshold
  std::size_t itf_evictions = 0;  ///< polluter evictions planned
  std::size_t itf_applied = 0;    ///< evictions applied instantly
  std::size_t itf_requested = 0;  ///< evictions handed to the MigrationEngine
  std::size_t itf_skipped = 0;    ///< planned evictions no longer applicable

  /// Field-wise, doubles compared exactly: the determinism contracts
  /// (thread counts, shard counts, reset datacenters) promise identical
  /// bits, not approximate agreement.
  friend bool operator==(const RunResult&, const RunResult&) = default;
};

/// Streaming collector driven by the replay loop.
class MetricsCollector {
 public:
  /// Record cluster state after an event at `time`.
  void observe(core::SimTime time, const core::Resources& alloc,
               const core::Resources& config, std::size_t running_vms,
               std::size_t active_pms);

  /// Finalize at `end_time` into `result` (fills the share/peak fields).
  void finish(core::SimTime end_time, RunResult& result) const;

 private:
  core::TimeWeightedMean unalloc_cpu_;
  core::TimeWeightedMean unalloc_mem_;
  core::TimeWeightedMean active_pms_;
  core::TimeWeightedMean alloc_cores_;
  std::size_t peak_vms_ = 0;
  core::CoreCount peak_alloc_cores_ = 0;
  double peak_cpu_share_ = 0.0;
  double peak_mem_share_ = 0.0;
};

}  // namespace slackvm::sim
