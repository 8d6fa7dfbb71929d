// Trace replay: drive a Datacenter with a workload trace through the
// event queue and collect run metrics. Both overloads are the one-shard
// case of the replay loop in sim/shard.hpp.
#pragma once

#include <optional>

#include "sched/rebalancer.hpp"
#include "sim/datacenter.hpp"
#include "sim/event_queue.hpp"
#include "sim/fault.hpp"
#include "sim/metrics.hpp"
#include "sim/migration.hpp"
#include "sim/usage_monitor.hpp"
#include "workload/trace.hpp"

namespace slackvm::sim {

class EventSource;

/// Periodic live-migration consolidation during a replay (paper §VII-B2a
/// future work). With `migration.enabled`, each pass hands its plan to a
/// MigrationEngine and the moves become time-extended flights with
/// reservations, retry/backoff and rollback (sim/migration.hpp); otherwise
/// plans apply instantaneously.
/// With `interference.enabled`, the replay additionally (a) refreshes every
/// host's heat EWMA from the usage signals each heat_interval, and (b)
/// prepends a polluter-detection pass (Rebalancer::plan_interference) to
/// every consolidation pass, evicting the heaviest contributor of each
/// over-threshold host toward a cooler one.
struct RebalanceOptions {
  core::SimTime interval = 6.0 * 3600;      ///< consolidation pass period
  std::size_t budget_per_pass = 64;         ///< migration cap per cluster/pass
  MigrationConfig migration{};              ///< time-extended flight knobs
  sched::InterferenceOptions interference{};  ///< heat + polluter-pass knobs
};

/// Drain `source` (sim/event_source.hpp) against `dc` (which must be
/// fresh or reset, see Datacenter::reset): replay_sharded with one shard and these three schedules. Rows
/// are pulled lazily, so resident memory is O(active window) — a multi-GB
/// trace streams through without ever being materialized. With `rebalance`
/// set, a consolidation pass runs every interval; with `usage_monitor` set,
/// effective-usage samples are taken at the monitor's interval throughout
/// the run. With `faults` set (and enabled), a FaultInjector drives host
/// failures/drains/repairs and the evacuation engine through the same
/// event queue; pass the config through resolve_fault_seed first when its
/// seed should follow the workload seed. Any of those three schedules
/// needs the horizon before the first event fires: the call throws if the
/// source has no horizon hint (pre-scan with TraceReader::scan, or
/// materialize). Deterministic; while the debug-audit flag is set
/// (sim/audit.hpp), every event is followed by an invariant audit that
/// throws on the first violation.
[[nodiscard]] RunResult replay(Datacenter& dc, EventSource& source,
                               const std::optional<RebalanceOptions>& rebalance =
                                   std::nullopt,
                               UsageMonitor* usage_monitor = nullptr,
                               const FaultConfig* faults = nullptr);

/// Replay a materialized trace: wraps it in a MaterializedSource and runs
/// the loop above, so the two paths are bit-identical by construction.
[[nodiscard]] RunResult replay(Datacenter& dc, const workload::Trace& trace,
                               const std::optional<RebalanceOptions>& rebalance =
                                   std::nullopt,
                               UsageMonitor* usage_monitor = nullptr,
                               const FaultConfig* faults = nullptr);

}  // namespace slackvm::sim
