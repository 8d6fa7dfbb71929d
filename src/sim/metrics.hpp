// Run-level metrics of a trace replay.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

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

  /// Calls `f(name, &RunResult::member)` for every member, once each, in
  /// declaration order: the one list of run fields. The shard merge
  /// (`replay_sharded` sums the counters), `mean_result` (rounded means of
  /// counts, plain means of doubles, per-key means of the map), the golden
  /// dump and `expect_identical` (tests/) iterate it instead of naming
  /// fields. A new member needs its row here, or the static_assert below
  /// the struct fails to compile.
  template <class F>
  static constexpr void for_each_field(F&& f) {
    f("opened_pms", &RunResult::opened_pms);
    f("peak_active_pms", &RunResult::peak_active_pms);
    f("migrations", &RunResult::migrations);
    f("opened_per_cluster", &RunResult::opened_per_cluster);
    f("placed_vms", &RunResult::placed_vms);
    f("peak_vms", &RunResult::peak_vms);
    f("avg_unalloc_cpu_share", &RunResult::avg_unalloc_cpu_share);
    f("avg_unalloc_mem_share", &RunResult::avg_unalloc_mem_share);
    f("peak_unalloc_cpu_share", &RunResult::peak_unalloc_cpu_share);
    f("peak_unalloc_mem_share", &RunResult::peak_unalloc_mem_share);
    f("duration", &RunResult::duration);
    f("avg_active_pms", &RunResult::avg_active_pms);
    f("avg_alloc_cores", &RunResult::avg_alloc_cores);
    f("host_failures", &RunResult::host_failures);
    f("host_repairs", &RunResult::host_repairs);
    f("drained_hosts", &RunResult::drained_hosts);
    f("evacuated_vms", &RunResult::evacuated_vms);
    f("evac_replaced", &RunResult::evac_replaced);
    f("evac_migrated", &RunResult::evac_migrated);
    f("evac_retries", &RunResult::evac_retries);
    f("evac_departed", &RunResult::evac_departed);
    f("degraded_vms", &RunResult::degraded_vms);
    f("deferred_arrivals", &RunResult::deferred_arrivals);
    f("arrivals_dropped", &RunResult::arrivals_dropped);
    f("mig_planned", &RunResult::mig_planned);
    f("mig_committed", &RunResult::mig_committed);
    f("mig_cancelled", &RunResult::mig_cancelled);
    f("mig_rolled_back", &RunResult::mig_rolled_back);
    f("mig_timed_out", &RunResult::mig_timed_out);
    f("mig_degraded", &RunResult::mig_degraded);
    f("mig_retries", &RunResult::mig_retries);
    f("heat_updates", &RunResult::heat_updates);
    f("itf_passes", &RunResult::itf_passes);
    f("itf_hot_hosts", &RunResult::itf_hot_hosts);
    f("itf_evictions", &RunResult::itf_evictions);
    f("itf_applied", &RunResult::itf_applied);
    f("itf_requested", &RunResult::itf_requested);
    f("itf_skipped", &RunResult::itf_skipped);
  }
};

// The members tile the struct without padding, so a member without its
// for_each_field row leaves the sum short.
static_assert(
    [] {
      std::size_t bytes = 0;
      RunResult::for_each_field(
          [&bytes]<class T>(const char*, T RunResult::*) { bytes += sizeof(T); });
      return bytes;
    }() == sizeof(RunResult),
    "every RunResult member needs a row in RunResult::for_each_field");

/// The counter identities of one drained replay (the comments on the fault,
/// mig_* and itf_* blocks above), one message per broken identity, naming
/// its counters; empty, and allocation-free, when all hold. For
/// single-replay results only: a mean_result's rounding may break them.
std::vector<std::string> counter_identity_violations(const RunResult& r);

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
