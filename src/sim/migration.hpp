// Time-extended live migration: flights, reservations, rollback.
//
// sched::Rebalancer's apply_plan moves VMs instantaneously — the right
// differential reference, but it sidesteps everything that makes migration
// hard in production (and everything the paper defers in §VII-B2a):
// migrations take time, consume bandwidth, fail mid-flight, and race with
// host failures. The MigrationEngine makes each planned migration a
// *flight* on the event queue:
//
//  * *Pre-copy duration* — a flight takes spec.mem_mib / bandwidth_mibps
//    seconds (the dominant cost of pre-copy live migration is shipping the
//    guest's memory), bounded by per-host concurrency caps on both the
//    source and the destination (the bandwidth budget of a single NIC).
//  * *Reservation* — for the whole flight the destination double-books the
//    VM's footprint (HostState::reserve): fits()/can_host(), the placement
//    index and the cluster's running totals all see the booked capacity, so
//    no concurrent placement can strand the flight. Commit atomically swaps
//    the booking for the VM (VCluster::commit_migration).
//  * *Failure semantics* — deterministic, audited:
//      - destination fails or drains mid-flight → the flight aborts, the
//        reservation rolls back, and the intent retries with bounded
//        exponential backoff (backoff_base * 2^k, max_retries), then parks;
//      - source fails → the intent is cancelled and the VM takes the PR 3
//        evacuation path (the FaultInjector re-places it);
//      - source drains → the intent is cancelled; migrate_off owns the VM;
//      - the VM departs → the intent is cancelled wherever it stood;
//      - pre-copy exceeds `timeout` → the flight aborts terminally
//        (durations are deterministic, so a retry would time out again).
//  * *Accounting identity* — every accepted intent ends in exactly one
//    terminal bucket; once the queue drains,
//      mig_planned == mig_committed + mig_cancelled + mig_rolled_back
//                     + mig_timed_out + mig_degraded
//    which sim::audit() re-checks through MigrationEngine::audit().
//
// Determinism: all engine state is per-cluster (waiting FIFO, in-flight
// set, per-host busy counts), every decision happens inside a queue event,
// and flights are scanned in ascending VmId order on fault notifications —
// so a sharded run (one engine per shard, scoped to its clusters) schedules
// exactly the serial per-cluster event sequence, and results are
// bit-identical across shards x index x faults x threads
// (tests/sim_migration_test.cpp).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/vm.hpp"
#include "sched/rebalancer.hpp"
#include "sched/scorer.hpp"
#include "sim/datacenter.hpp"
#include "sim/event_queue.hpp"
#include "sim/fault.hpp"
#include "sim/metrics.hpp"

namespace slackvm::sim {

/// Knobs of the time-extended migration engine (RebalanceOptions::migration;
/// scenario keys in sim/scenario.hpp). Default-constructed == disabled: the
/// rebalance loop then applies plans instantaneously through
/// sched::Rebalancer::apply_plan — the PR 3 reference path (--migration=instant).
struct MigrationConfig {
  /// Run migrations as time-extended flights. Off = instant apply_plan.
  bool enabled = false;
  /// Pre-copy bandwidth per flight: a flight lasts spec.mem_mib /
  /// bandwidth_mibps seconds.
  double bandwidth_mibps = 1024.0;
  /// Concurrent flights a single host may source *or* sink (its NIC budget).
  std::size_t max_concurrent_per_host = 2;
  /// In-flight budget per cluster: further intents queue FIFO. Per cluster —
  /// never global — so the shard engines evolve exactly like a one-shard one.
  std::size_t max_in_flight = 16;
  /// Abort a flight whose pre-copy has not completed after this long
  /// (0 = never). Timeouts are terminal: durations are deterministic, so a
  /// retry of the same VM would time out again.
  core::SimTime timeout = 0.0;
  /// Bounded retry/backoff after a destination-side abort or a launch that
  /// found no destination: backoff_base, 2x, 4x, ... at most max_retries
  /// times, then the intent parks (mig_degraded / mig_rolled_back).
  std::size_t max_retries = 3;
  core::SimTime backoff_base = 60.0;
};

/// Drives every in-flight migration of one replay (or one shard of it: pass
/// the shard's scope and the engine ignores clusters it does not own).
/// Owned by replay()/replay_sharded(); all mutation happens inside queue
/// events, so the engine is exactly as deterministic as the queue.
class MigrationEngine {
 public:
  /// `observe` is the replay's metrics observation callback, invoked after
  /// every state-changing migration event. All references must outlive the
  /// engine (replay scope).
  MigrationEngine(Datacenter& dc, EventQueue& queue, const MigrationConfig& config,
                  RunResult& result, std::function<void(core::SimTime)> observe,
                  ShardScope scope = {});

  /// Accept one planned migration as an intent. Returns false — and does
  /// not count it as planned — when the VM already has an active intent, is
  /// parked, is not placed in `cluster`, or would move onto its own host.
  /// Accepted intents join the cluster's FIFO and launch as soon as the
  /// in-flight budget and the per-host caps allow.
  bool request(std::size_t cluster, const sched::Migration& migration,
               core::SimTime now);

  /// The host is about to FAIL (called by the FaultInjector *before*
  /// fail_host): flights sourcing from it convert into evacuations
  /// (cancelled — the eviction re-places the VM), flights targeting it roll
  /// back their reservation and retry elsewhere.
  void on_host_failing(std::size_t cluster, sched::HostId host, core::SimTime now);

  /// The host is about to DRAIN (called before drain_host + migrate_off):
  /// flights sourcing from it are cancelled (migrate_off owns the VMs now),
  /// flights targeting it roll back and retry elsewhere.
  void on_host_draining(std::size_t cluster, sched::HostId host, core::SimTime now);

  /// The VM is departing: cancel its intent (rolling back an in-flight
  /// reservation) and forget any parked state. The caller still removes the
  /// VM from the datacenter as usual.
  void on_departure(core::VmId id, core::SimTime now);

  /// Flights currently in the air, summed over this engine's clusters.
  /// Lock-free — the stall watchdog reads it from another thread.
  [[nodiscard]] std::size_t in_flight() const noexcept {
    return in_flight_total_.load(std::memory_order_relaxed);
  }

  /// Intents waiting or backing off (0 once the queue has drained).
  [[nodiscard]] std::size_t pending_intents() const noexcept {
    return intents_.size() - in_flight();
  }

  /// Re-derive the engine's invariants: the counter identity (with the
  /// still-active intents as the balancing term mid-run) and the
  /// reservation <-> flight bijection over the owned clusters. Returns one
  /// human-readable line per violation; sim::audit-style.
  [[nodiscard]] std::vector<std::string> audit() const;

 private:
  enum class Phase : std::uint8_t { kWaiting, kInFlight, kBackoff };

  struct Intent {
    std::size_t cluster = 0;
    Phase phase = Phase::kWaiting;
    std::size_t attempts = 0;       ///< failed launch/flight attempts so far
    sched::HostId hint = 0;         ///< planner's destination (first choice)
    // In-flight only:
    sched::HostId source = 0;
    sched::HostId dest = 0;
    core::VmSpec spec{};
    std::uint64_t ticket = 0;       ///< matches completion/timeout/retry events
  };

  /// Per-cluster launch state; index == cluster index.
  struct Lane {
    std::deque<core::VmId> waiting;  ///< FIFO of intents not yet launched
    std::size_t in_flight = 0;
    /// Flights sourced from / targeting each host (dense, grown on demand).
    std::vector<std::size_t> src_busy;
    std::vector<std::size_t> dst_busy;
  };

  /// Launch as many waiting intents as the budget and caps allow. The head
  /// may block on a saturated source host — progress is guaranteed because
  /// a saturated cap implies a flight whose completion pumps again.
  void pump(std::size_t cluster, core::SimTime now);

  /// Try to put the queue head in the air. Returns false when the head must
  /// stay queued (source cap saturated); everything else pops the head.
  bool launch_head(std::size_t cluster, core::SimTime now);

  /// Best destination by the scorer among UP hosts that can take the spec on
  /// top of their bookings, excluding the source and dst-saturated hosts;
  /// ties to the lowest HostId (the documented index tie-break).
  [[nodiscard]] std::optional<sched::HostId> pick_dest(const sched::VCluster& cl,
                                                       const Lane& lane,
                                                       sched::HostId source,
                                                       sched::HostId hint,
                                                       const core::VmSpec& spec) const;

  void complete(core::VmId vm, std::uint64_t ticket, core::SimTime now);
  void flight_timeout(core::VmId vm, std::uint64_t ticket, core::SimTime now);
  void retry(core::VmId vm, std::uint64_t ticket, core::SimTime now);

  /// Abort an in-flight intent: roll back the reservation and free the
  /// caps. The intent stays in intents_ for the caller to re-route.
  void abort_flight(core::VmId vm, Intent& intent);

  /// Dest-side abort: back off and retry, or roll back terminally once the
  /// retry budget is spent.
  void retry_or_roll_back(core::VmId vm, Intent& intent, core::SimTime now);

  /// No destination admitted the spec: back off and retry, or park
  /// (mig_degraded) once the retry budget is spent.
  void retry_or_degrade(core::VmId vm, Intent& intent, core::SimTime now);

  void erase_waiting(std::size_t cluster, core::VmId vm);
  [[nodiscard]] std::size_t& src_slot(std::size_t cluster, sched::HostId host);
  [[nodiscard]] std::size_t& dst_slot(std::size_t cluster, sched::HostId host);

  Datacenter& dc_;
  EventQueue& queue_;
  MigrationConfig config_;
  ShardScope scope_;
  RunResult& result_;
  std::function<void(core::SimTime)> observe_;
  std::unique_ptr<sched::Scorer> scorer_;  ///< destination re-pick at launch
  /// Ordered by VmId so fault notifications scan intents deterministically.
  std::map<core::VmId, Intent> intents_;
  /// Terminally failed intents (timed out / degraded / rolled back): no new
  /// intent is accepted for these VMs until they depart.
  std::unordered_set<core::VmId> parked_;
  std::vector<Lane> lanes_;  ///< index == cluster index (unowned stay empty)
  std::uint64_t next_ticket_ = 0;
  std::atomic<std::size_t> in_flight_total_{0};
};

}  // namespace slackvm::sim
