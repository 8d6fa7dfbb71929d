// Fault injection: host failures, drains and repairs driven through the
// discrete-event simulator, with a deterministic evacuation engine.
//
// The paper's packing claim is only useful if every oversubscription
// level's constraint survives the events a production fleet actually sees —
// capacity loss above all (cf. Coach's mitigation planning and the SAP
// dataset's failure-driven rescheduling churn). This subsystem adds that
// dimension to the simulator:
//
//  * *Schedules* — faults come from two sources, freely mixed: a
//    seed-derived timetable (`count` failures at times uniform over the
//    horizon, host slots resolved against the live fleet at fire time; all
//    randomness flows through core::derive_seed so a schedule depends only
//    on (seed, k)) and explicit scenario directives
//    (`fail host=3 at=86400`). Seeded failures auto-repair after
//    `repair_delay`; explicit ones repair only when a directive says so.
//  * *Evacuation* — failing a host evicts its VMs (ascending VmId order)
//    and re-places each through the exact policy/index path every other
//    placement takes. A victim with no feasible target enters a bounded
//    exponential-backoff retry loop (`backoff_base * 2^k`, `max_retries`
//    attempts); when retries are exhausted it is parked in the *degraded
//    queue* — counted in RunResult::degraded_vms — instead of aborting the
//    run. Arrivals that find no capacity (fixed fleets) take the same
//    graceful path.
//  * *Drains* — with `drain_lead > 0`, each seeded failure is preceded by a
//    graceful drain: admission stops and VMs are live-migrated off through
//    the policy path; whatever could not move is evacuated by the failure.
//
// Everything is replayed through the EventQueue (ties break by insertion
// order), so a fault-heavy run is bit-identical across parallelism
// settings and with the placement index on or off — proven by
// tests/sim_fault_test.cpp.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/rng.hpp"
#include "core/vm.hpp"
#include "sim/datacenter.hpp"
#include "sim/event_queue.hpp"
#include "sim/metrics.hpp"

namespace slackvm::sim {

class MigrationEngine;

/// One explicit fault event (a scenario `fail|drain|repair` directive).
struct FaultDirective {
  enum class Kind : std::uint8_t { kFail, kDrain, kRepair };
  Kind kind = Kind::kFail;
  core::SimTime at = 0;
  sched::HostId host = 0;
  std::size_t cluster = 0;  ///< cluster index (0 in shared mode)

  friend bool operator==(const FaultDirective&, const FaultDirective&) = default;
};

/// Fault-injection knobs (ExperimentConfig::faults; scenario keys in
/// sim/scenario.hpp). Default-constructed == fault injection off.
struct FaultConfig {
  /// Seed-derived host failures spread uniformly over the trace horizon.
  std::size_t count = 0;
  /// Base seed of the fault timetable; 0 = derive from the workload seed
  /// (resolve_fault_seed), so repetitions see independent schedules.
  std::uint64_t seed = 0;
  /// FAILED → UP delay for seeded failures (default 4 h).
  core::SimTime repair_delay = 4.0 * 3600;
  /// Grace period before each seeded failure during which the host drains
  /// (admission stops, VMs migrate off). 0 = hard kill.
  core::SimTime drain_lead = 0.0;
  /// Bounded retry/backoff of the evacuation engine: a victim is retried at
  /// backoff_base, 2x, 4x, ... after its immediate re-place attempt fails,
  /// at most max_retries times, then degrades.
  std::size_t max_retries = 5;
  core::SimTime backoff_base = 60.0;
  /// Explicit events, applied in addition to the seeded timetable.
  std::vector<FaultDirective> directives;

  [[nodiscard]] bool enabled() const noexcept {
    return count > 0 || !directives.empty();
  }
};

/// Stable stream index separating the fault timetable from every other
/// consumer of the workload seed (same pinning rationale as
/// core::derive_seed's golden constants).
inline constexpr std::uint64_t kFaultSeedStream = 0xFA173EED;

/// Copy of `config` with seed 0 resolved to derive_seed(workload_seed,
/// kFaultSeedStream); explicit seeds pass through untouched.
[[nodiscard]] FaultConfig resolve_fault_seed(FaultConfig config,
                                             std::uint64_t workload_seed) noexcept;

/// Which slice of the datacenter a FaultInjector drives: clusters whose
/// index is `shard` modulo `of`. The default ({0, 1}) is the whole
/// datacenter — a one-shard replay. The sharded loop (sim/shard.hpp) gives
/// each shard its own injector scoped to its clusters; every injector arms
/// the full seeded timetable and keeps exactly the events it owns, so the
/// union across shards is the one-shard timetable, split without overlap.
struct ShardScope {
  std::size_t shard = 0;
  std::size_t of = 1;

  [[nodiscard]] bool owns(std::size_t cluster) const noexcept {
    return cluster % of == shard;
  }
};

/// Drives one replay's fault timetable and evacuation queue. Owned by
/// replay(); all mutation happens inside queue events, so the injector is
/// exactly as deterministic as the queue.
class FaultInjector {
 public:
  /// `observe` is replay()'s metrics observation callback, invoked after
  /// every state-changing fault event. All references must outlive the
  /// injector (replay scope).
  /// `scope` restricts the injector to the clusters it owns (sharded runs);
  /// the default is the whole datacenter.
  FaultInjector(Datacenter& dc, EventQueue& queue, const FaultConfig& config,
                RunResult& result, std::function<void(core::SimTime)> observe,
                ShardScope scope = {});

  /// Schedule the whole timetable (seeded + directives) onto the queue.
  /// Call once, after the trace events are scheduled, so equal-time faults
  /// fire after the workload events that tie with them.
  void arm(core::SimTime horizon);

  /// Notify this engine (sim/migration.hpp) *before* a drain or failure
  /// mutates the fleet, so in-flight migration reservations on the dying
  /// host roll back and flights off it convert to evacuations. nullptr
  /// (the default) disarms the hook. The engine must outlive the injector.
  void set_migration_engine(MigrationEngine* engine) noexcept {
    migration_engine_ = engine;
  }

  /// Arrival path under fault injection: place now, or defer into the
  /// retry/degraded machinery when no capacity admits the VM.
  void deploy_or_defer(core::VmId id, const core::VmSpec& spec, core::SimTime now);

  /// Departure of a VM that is not currently placed (waiting for a retry or
  /// parked in the degraded queue): account for it and return true. Returns
  /// false when the VM is unknown here and the caller must remove it from
  /// the datacenter as usual.
  bool absorb_departure(core::VmId id);

  /// VMs currently waiting for a retry (0 once the queue has drained).
  [[nodiscard]] std::size_t pending() const noexcept { return pending_.size(); }

  /// VMs parked in the degraded queue right now (metrics count admissions,
  /// this counts current occupancy: departures leave the queue).
  [[nodiscard]] std::size_t degraded() const noexcept { return degraded_.size(); }

 private:
  struct Pending {
    core::VmSpec spec;
    std::size_t attempts = 0;    ///< failed placement attempts so far
    bool from_failure = false;   ///< evacuation victim vs deferred arrival
  };

  void schedule_seeded(std::size_t k, core::SimTime horizon);
  void schedule_directive(const FaultDirective& directive);

  /// Resolve a seeded host slot against the cluster's live fleet; the fault
  /// fizzles when the cluster has no UP host to hit.
  void fire_seeded_begin(std::size_t cluster, std::uint64_t host_slot,
                         core::SimTime fail_at, core::SimTime now);
  void fire_drain(std::size_t cluster, sched::HostId host, core::SimTime now);
  void fire_fail(std::size_t cluster, sched::HostId host, bool auto_repair,
                 core::SimTime now);
  void fire_repair(std::size_t cluster, sched::HostId host, core::SimTime now);

  /// Immediate re-place attempt; on failure enters the retry queue.
  void place_or_queue(core::VmId id, const core::VmSpec& spec, bool from_failure,
                      core::SimTime now);
  void schedule_retry(core::VmId id, std::size_t attempts, core::SimTime now);
  void retry(core::VmId id, core::SimTime now);

  Datacenter& dc_;
  EventQueue& queue_;
  FaultConfig config_;
  ShardScope scope_;
  RunResult& result_;
  std::function<void(core::SimTime)> observe_;
  MigrationEngine* migration_engine_ = nullptr;  ///< unowned; see setter
  std::unordered_map<core::VmId, Pending> pending_;
  std::unordered_set<core::VmId> degraded_;
};

}  // namespace slackvm::sim
