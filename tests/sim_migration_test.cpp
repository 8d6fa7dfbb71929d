// Live-migration engine suite: reservation accounting from HostState down
// to the arena and the audit, the flight lifecycle against every failure
// phase (commit, dest-fail rollback+retry, source-fail cancel, timeout,
// departure, no-destination degrade), the engine-driven rebalance loop
// under fault churn, and the acceptance matrix — a >= 100-failure replay
// bit-identical across shards x index x threads with the counter identity
// audited throughout.
#include "sim/migration.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/rng.hpp"
#include "expect_identical.hpp"
#include "reference/planners.hpp"
#include "sched/policy.hpp"
#include "sched/rebalancer.hpp"
#include "sched/vcluster.hpp"
#include "sim/audit.hpp"
#include "sim/fault.hpp"
#include "sim/replay.hpp"
#include "sim/shard.hpp"
#include "workload/catalog.hpp"
#include "workload/generator.hpp"
#include "workload/level_mix.hpp"

namespace slackvm::sim {
namespace {

using core::gib;
using core::OversubLevel;
using core::VmId;
using core::VmSpec;
using sched::HostId;
using sched::HostPhase;
using sched::VCluster;

const core::Resources kWorker{32, gib(128)};

VmSpec make_spec(core::VcpuCount vcpus, core::MemMib mem, std::uint8_t ratio) {
  VmSpec s;
  s.vcpus = vcpus;
  s.mem_mib = mem;
  s.level = OversubLevel{ratio};
  return s;
}

// --- reservation accounting -------------------------------------------------

TEST(MigrationReservation, HostStateBooksEveryColumnButStaysEmpty) {
  sched::HostState host(0, kWorker);
  const VmSpec spec = make_spec(8, gib(16), 1);
  host.reserve(VmId{7}, spec);
  // The booking participates in capacity accounting exactly like a hosted
  // VM...
  EXPECT_EQ(host.alloc(), (core::Resources{8, gib(16)}));
  EXPECT_FALSE(host.can_host(make_spec(25, gib(8), 1)));  // 33 cores booked
  // ...but the VM is not hosted: the host is still empty and evictable.
  EXPECT_TRUE(host.empty());
  EXPECT_EQ(host.vm_count(), 0U);
  EXPECT_EQ(host.reservation_count(), 1U);
  EXPECT_TRUE(host.has_reservation(VmId{7}));
  host.release_reservation(VmId{7});
  EXPECT_EQ(host.alloc(), (core::Resources{}));
  EXPECT_EQ(host.reservation_count(), 0U);
  EXPECT_TRUE(host.can_host(make_spec(32, gib(128), 1)));
}

TEST(MigrationReservation, VClusterBookingSteersPlacementAndCommits) {
  VCluster cl("mig", kWorker, sched::make_first_fit());
  cl.place(VmId{1}, make_spec(4, gib(8), 1));  // host 0
  // Book the rest of host 0's CPU: a booking that does not fit is refused
  // with no state change.
  EXPECT_FALSE(cl.try_reserve(0, VmId{2}, make_spec(29, gib(8), 1)));
  ASSERT_TRUE(cl.try_reserve(0, VmId{2}, make_spec(28, gib(8), 1)));
  EXPECT_TRUE(audit(cl).empty());
  // First-Fit would have taken host 0; the booking forces a new host.
  const auto placed = cl.try_place(VmId{3}, make_spec(8, gib(8), 1));
  ASSERT_TRUE(placed.has_value());
  EXPECT_EQ(*placed, 1U);
  // Commit: the reservation swaps for residency atomically.
  cl.place(VmId{4}, make_spec(2, gib(4), 1));  // lands on host 1 too
  ASSERT_TRUE(cl.try_reserve(1, VmId{1}, make_spec(4, gib(8), 1)));
  cl.commit_migration(VmId{1}, 1);
  EXPECT_EQ(cl.host_of(VmId{1}), 1U);
  EXPECT_EQ(cl.hosts()[1].reservation_count(), 0U);  // swapped for residency
  EXPECT_FALSE(cl.hosts()[1].has_reservation(VmId{1}));
  EXPECT_TRUE(audit(cl).empty());
  cl.release_reservation(0, VmId{2});  // host 0's booking is untouched
  EXPECT_TRUE(audit(cl).empty());
}

TEST(MigrationReservation, AuditFlagsBookingsStrandedOnDownHosts) {
  VCluster cl("mig", kWorker, sched::make_first_fit());
  cl.place(VmId{1}, make_spec(4, gib(8), 1));
  cl.place(VmId{2}, make_spec(30, gib(8), 1));  // opens host 1
  ASSERT_TRUE(cl.try_reserve(0, VmId{3}, make_spec(2, gib(4), 1)));
  EXPECT_TRUE(audit(cl).empty());
  // The engine always rolls reservations back *before* the injector downs a
  // host; a booking that survives onto a FAILED host is exactly the bug the
  // audit must catch.
  (void)cl.fail_host(0);
  const auto violations = audit(cl);
  ASSERT_FALSE(violations.empty());
  EXPECT_NE(violations.front().find("reservation"), std::string::npos);
}

// --- engine flight lifecycle ------------------------------------------------

/// A shared-cluster datacenter with a hand-driven queue and engine; tests
/// arrange hosts through cluster(0) and drive time with queue.run().
struct EngineHarness {
  Datacenter dc = Datacenter::shared(kWorker, sched::make_progress_policy);
  EventQueue queue;
  RunResult result;
  std::optional<MigrationEngine> engine;

  explicit EngineHarness(MigrationConfig config = make_config()) {
    engine.emplace(dc, queue, config, result, [](core::SimTime) {});
  }

  static MigrationConfig make_config() {
    MigrationConfig config;
    config.enabled = true;
    config.bandwidth_mibps = 1024.0;  // gib(8) of guest memory = 8 s in flight
    return config;
  }

  VCluster& cl() { return dc.cluster(0); }

  void expect_drained() {
    EXPECT_EQ(engine->in_flight(), 0U);
    EXPECT_EQ(engine->pending_intents(), 0U);
    EXPECT_TRUE(engine->audit().empty());
    expect_counter_identities(result);
    EXPECT_TRUE(audit(dc).empty());
  }
};

TEST(MigrationEngine, CommitsAPlannedFlightAfterPreCopy) {
  EngineHarness h;
  h.cl().place(VmId{1}, make_spec(32, gib(64), 1));  // fills host 0's CPU
  h.cl().place(VmId{2}, make_spec(4, gib(8), 1));    // opens host 1
  h.cl().remove(VmId{1});                            // host 0 empty but open
  ASSERT_TRUE(h.engine->request(0, {VmId{2}, 1, 0}, 0.0));
  EXPECT_EQ(h.result.mig_planned, 1U);
  EXPECT_EQ(h.engine->in_flight(), 1U);
  // In flight: the destination holds the booking, the VM still runs on the
  // source, and the invariants hold mid-flight.
  EXPECT_TRUE(h.cl().hosts()[0].has_reservation(VmId{2}));
  EXPECT_EQ(h.cl().host_of(VmId{2}), 1U);
  EXPECT_TRUE(audit(h.dc).empty());
  h.queue.run();
  EXPECT_EQ(h.result.mig_committed, 1U);
  EXPECT_EQ(h.result.migrations, 1U);  // committed flights are migrations too
  EXPECT_EQ(h.cl().host_of(VmId{2}), 0U);
  EXPECT_FALSE(h.cl().hosts()[0].has_reservation(VmId{2}));
  EXPECT_NEAR(h.queue.now(), 8.0, 1e-9);  // gib(8) / 1024 MiB/s
  h.expect_drained();
}

TEST(MigrationEngine, RejectsSelfMovesUnknownVmsAndDuplicates) {
  EngineHarness h;
  h.cl().place(VmId{1}, make_spec(32, gib(64), 1));
  h.cl().place(VmId{2}, make_spec(4, gib(8), 1));
  h.cl().remove(VmId{1});
  EXPECT_FALSE(h.engine->request(0, {VmId{2}, 1, 1}, 0.0));   // onto its own host
  EXPECT_FALSE(h.engine->request(0, {VmId{99}, 1, 0}, 0.0));  // not placed here
  ASSERT_TRUE(h.engine->request(0, {VmId{2}, 1, 0}, 0.0));
  EXPECT_FALSE(h.engine->request(0, {VmId{2}, 1, 0}, 0.0));  // already active
  EXPECT_EQ(h.result.mig_planned, 1U);  // rejections are never planned
  h.queue.run();
  h.expect_drained();
}

TEST(MigrationEngine, DestFailureMidFlightRollsBackAndRetriesElsewhere) {
  EngineHarness h;
  h.cl().place(VmId{1}, make_spec(32, gib(64), 1));  // host 0
  h.cl().place(VmId{2}, make_spec(4, gib(8), 1));    // host 1 (source)
  h.cl().place(VmId{3}, make_spec(32, gib(64), 1));  // opens host 2
  h.cl().remove(VmId{1});
  h.cl().remove(VmId{3});  // hosts 0 and 2 empty, open
  ASSERT_TRUE(h.engine->request(0, {VmId{2}, 1, 0}, 0.0));
  // Halfway through the 8 s pre-copy the destination dies. The injector
  // contract: notify the engine first, then mutate the cluster.
  h.queue.schedule(4.0, [&](core::SimTime t) {
    h.engine->on_host_failing(0, 0, t);
    (void)h.cl().fail_host(0);
  });
  h.queue.run();
  // Rolled back, backed off 60 s (attempt 1), relaunched at t=64 onto host 2
  // (the only viable destination left), committed at t=72.
  EXPECT_EQ(h.result.mig_committed, 1U);
  EXPECT_EQ(h.result.mig_retries, 1U);
  EXPECT_EQ(h.result.mig_rolled_back, 0U);
  EXPECT_EQ(h.cl().host_of(VmId{2}), 2U);
  EXPECT_EQ(h.cl().hosts()[0].reservation_count(), 0U);
  EXPECT_NEAR(h.queue.now(), 72.0, 1e-9);
  h.expect_drained();
}

TEST(MigrationEngine, DestFailureWithNoRetriesRollsBackTerminally) {
  MigrationConfig config = EngineHarness::make_config();
  config.max_retries = 0;
  EngineHarness h(config);
  h.cl().place(VmId{1}, make_spec(32, gib(64), 1));
  h.cl().place(VmId{2}, make_spec(4, gib(8), 1));
  h.cl().remove(VmId{1});
  ASSERT_TRUE(h.engine->request(0, {VmId{2}, 1, 0}, 0.0));
  h.queue.schedule(4.0, [&](core::SimTime t) {
    h.engine->on_host_failing(0, 0, t);
    (void)h.cl().fail_host(0);
  });
  h.queue.run();
  EXPECT_EQ(h.result.mig_rolled_back, 1U);
  EXPECT_EQ(h.result.mig_committed, 0U);
  EXPECT_EQ(h.cl().host_of(VmId{2}), 1U);  // never moved
  // Terminally failed intents park: the VM is refused until it departs.
  EXPECT_FALSE(h.engine->request(0, {VmId{2}, 1, 0}, h.queue.now()));
  h.engine->on_departure(VmId{2}, h.queue.now());
  h.cl().remove(VmId{2});
  h.queue.run();
  h.expect_drained();
}

TEST(MigrationEngine, SourceFailureMidFlightCancelsIntoEvacuation) {
  EngineHarness h;
  h.cl().place(VmId{1}, make_spec(32, gib(64), 1));
  h.cl().place(VmId{2}, make_spec(4, gib(8), 1));  // host 1 (source)
  h.cl().remove(VmId{1});
  ASSERT_TRUE(h.engine->request(0, {VmId{2}, 1, 0}, 0.0));
  h.queue.schedule(4.0, [&](core::SimTime t) {
    h.engine->on_host_failing(0, 1, t);  // the *source* dies
    (void)h.cl().fail_host(1);           // eviction owns the VM from here
  });
  h.queue.run();
  EXPECT_EQ(h.result.mig_cancelled, 1U);
  EXPECT_EQ(h.result.mig_committed, 0U);
  EXPECT_EQ(h.cl().hosts()[0].reservation_count(), 0U);  // rolled back
  EXPECT_FALSE(h.cl().contains(VmId{2}));                // evicted
  h.expect_drained();
}

TEST(MigrationEngine, SourceDrainMidFlightCancels) {
  EngineHarness h;
  h.cl().place(VmId{1}, make_spec(32, gib(64), 1));
  h.cl().place(VmId{2}, make_spec(4, gib(8), 1));
  h.cl().remove(VmId{1});
  ASSERT_TRUE(h.engine->request(0, {VmId{2}, 1, 0}, 0.0));
  h.queue.schedule(4.0, [&](core::SimTime t) {
    h.engine->on_host_draining(0, 1, t);  // migrate_off owns the VM now
    h.cl().drain_host(1);
  });
  h.queue.run();
  EXPECT_EQ(h.result.mig_cancelled, 1U);
  EXPECT_EQ(h.cl().hosts()[0].reservation_count(), 0U);
  EXPECT_EQ(h.cl().host_of(VmId{2}), 1U);  // still on the draining source
  h.expect_drained();
}

TEST(MigrationEngine, TimeoutAbortsTerminally) {
  MigrationConfig config = EngineHarness::make_config();
  config.timeout = 4.0;  // < the 8 s pre-copy
  EngineHarness h(config);
  h.cl().place(VmId{1}, make_spec(32, gib(64), 1));
  h.cl().place(VmId{2}, make_spec(4, gib(8), 1));
  h.cl().remove(VmId{1});
  ASSERT_TRUE(h.engine->request(0, {VmId{2}, 1, 0}, 0.0));
  h.queue.run();
  EXPECT_EQ(h.result.mig_timed_out, 1U);
  EXPECT_EQ(h.result.mig_committed, 0U);
  EXPECT_EQ(h.cl().host_of(VmId{2}), 1U);
  EXPECT_EQ(h.cl().hosts()[0].reservation_count(), 0U);
  // The stale completion event still pops at t=8 as a ticket-guarded no-op.
  EXPECT_NEAR(h.queue.now(), 8.0, 1e-9);
  // Deterministic durations: a retry would time out again, so it parks.
  EXPECT_FALSE(h.engine->request(0, {VmId{2}, 1, 0}, h.queue.now()));
  h.expect_drained();
}

TEST(MigrationEngine, TimeoutLongerThanFlightNeverFires) {
  MigrationConfig config = EngineHarness::make_config();
  config.timeout = 8.0;  // exactly the pre-copy duration: completion wins
  EngineHarness h(config);
  h.cl().place(VmId{1}, make_spec(32, gib(64), 1));
  h.cl().place(VmId{2}, make_spec(4, gib(8), 1));
  h.cl().remove(VmId{1});
  ASSERT_TRUE(h.engine->request(0, {VmId{2}, 1, 0}, 0.0));
  h.queue.run();
  EXPECT_EQ(h.result.mig_committed, 1U);
  EXPECT_EQ(h.result.mig_timed_out, 0U);
  h.expect_drained();
}

TEST(MigrationEngine, DepartureCancelsWaitingAndInFlightIntents) {
  MigrationConfig config = EngineHarness::make_config();
  config.max_in_flight = 1;
  EngineHarness h(config);
  h.cl().place(VmId{1}, make_spec(32, gib(64), 1));  // host 0
  h.cl().place(VmId{2}, make_spec(4, gib(8), 1));    // host 1
  h.cl().place(VmId{3}, make_spec(4, gib(8), 1));    // host 1
  h.cl().remove(VmId{1});
  ASSERT_TRUE(h.engine->request(0, {VmId{2}, 1, 0}, 0.0));  // in flight
  ASSERT_TRUE(h.engine->request(0, {VmId{3}, 1, 0}, 0.0));  // queued (budget 1)
  EXPECT_EQ(h.engine->in_flight(), 1U);
  EXPECT_EQ(h.engine->pending_intents(), 1U);
  // The queued VM departs: its intent evaporates without ever flying.
  h.engine->on_departure(VmId{3}, 0.0);
  h.cl().remove(VmId{3});
  h.queue.run();
  EXPECT_EQ(h.result.mig_cancelled, 1U);
  EXPECT_EQ(h.result.mig_committed, 1U);
  // Now an in-flight departure: the booking rolls back with the cancel.
  ASSERT_TRUE(h.engine->request(0, {VmId{2}, 0, 1}, h.queue.now()));
  EXPECT_EQ(h.engine->in_flight(), 1U);
  h.engine->on_departure(VmId{2}, h.queue.now());
  h.cl().remove(VmId{2});
  h.queue.run();
  EXPECT_EQ(h.result.mig_cancelled, 2U);
  EXPECT_EQ(h.result.mig_committed, 1U);
  h.expect_drained();
}

TEST(MigrationEngine, NoViableDestinationDegrades) {
  MigrationConfig config = EngineHarness::make_config();
  config.max_retries = 0;
  EngineHarness h(config);
  h.cl().place(VmId{1}, make_spec(4, gib(8), 1));      // host 0 (source)
  h.cl().place(VmId{2}, make_spec(32, gib(120), 1));   // host 1, full
  ASSERT_TRUE(h.engine->request(0, {VmId{1}, 0, 1}, 0.0));
  h.queue.run();
  // The planner's hint cannot take the spec and no other UP host can either
  // (the engine never opens hosts — packing tighter is the whole point).
  EXPECT_EQ(h.result.mig_degraded, 1U);
  EXPECT_EQ(h.result.mig_committed, 0U);
  EXPECT_EQ(h.cl().host_of(VmId{1}), 0U);
  h.expect_drained();
}

TEST(MigrationEngine, PerHostCapThrottlesConcurrentFlights) {
  MigrationConfig config = EngineHarness::make_config();
  config.max_concurrent_per_host = 1;  // one flight per NIC
  EngineHarness h(config);
  h.cl().place(VmId{1}, make_spec(32, gib(64), 1));  // host 0
  h.cl().place(VmId{2}, make_spec(4, gib(8), 1));    // host 1
  h.cl().place(VmId{3}, make_spec(4, gib(8), 1));    // host 1
  h.cl().remove(VmId{1});
  ASSERT_TRUE(h.engine->request(0, {VmId{2}, 1, 0}, 0.0));
  ASSERT_TRUE(h.engine->request(0, {VmId{3}, 1, 0}, 0.0));
  // Source host 1 may only pump one flight at a time: the second waits for
  // the first to land, so the flights serialize 8 s + 8 s.
  EXPECT_EQ(h.engine->in_flight(), 1U);
  h.queue.run();
  EXPECT_EQ(h.result.mig_committed, 2U);
  EXPECT_NEAR(h.queue.now(), 16.0, 1e-9);
  h.expect_drained();
}

// --- the rebalance loop under faults ----------------------------------------

workload::Trace make_trace(std::size_t population, std::uint64_t seed) {
  workload::GeneratorConfig cfg;
  cfg.target_population = population;
  cfg.horizon = 2.0 * 24 * 3600;
  cfg.mean_lifetime = 1.0 * 24 * 3600;
  cfg.seed = seed;
  workload::Generator gen(workload::azure_catalog(), workload::make_mix(34, 33, 33),
                          cfg);
  return gen.generate();
}

RebalanceOptions engine_rebalance() {
  RebalanceOptions reb;
  reb.interval = 2.0 * 3600;
  reb.budget_per_pass = 16;
  reb.migration.enabled = true;
  reb.migration.bandwidth_mibps = 64.0;  // slow pre-copy: flights span faults
  reb.migration.max_retries = 2;
  reb.migration.backoff_base = 300.0;
  return reb;
}

TEST(MigrationReplay, EngineLoopCommitsFlightsAndKeepsTheIdentity) {
  ScopedDebugAudit audit_every_event;
  const workload::Trace trace = make_trace(80, 21);
  FaultConfig faults;
  faults.count = 30;
  faults.seed = 777;
  faults.repair_delay = 3600.0;
  Datacenter dc = Datacenter::shared(kWorker, sched::make_progress_policy);
  const RunResult result = replay(dc, trace, engine_rebalance(), nullptr, &faults);
  EXPECT_GT(result.mig_planned, 0U);
  EXPECT_GT(result.mig_committed, 0U);
  EXPECT_GT(result.host_failures, 0U);
  expect_counter_identities(result);
  EXPECT_TRUE(audit(dc).empty());
  // The naive-scan escape hatch replays the identical decision sequence.
  Datacenter naive = Datacenter::shared(kWorker, sched::make_progress_policy);
  naive.set_index_enabled(false);
  const RunResult unindexed = replay(naive, trace, engine_rebalance(), nullptr,
                                     &faults);
  expect_identical(result, unindexed);
}

TEST(MigrationReplay, InstantModeLeavesFlightCountersAtZero) {
  const workload::Trace trace = make_trace(80, 21);
  RebalanceOptions reb;
  reb.interval = 2.0 * 3600;
  reb.budget_per_pass = 16;  // migration.enabled stays false: PR 3 semantics
  Datacenter dc = Datacenter::shared(kWorker, sched::make_progress_policy);
  const RunResult result = replay(dc, trace, reb, nullptr, nullptr);
  EXPECT_GT(result.migrations, 0U);
  EXPECT_EQ(result.mig_planned, 0U);
  EXPECT_EQ(result.mig_committed, 0U);
  EXPECT_TRUE(audit(dc).empty());
}

TEST(MigrationReplay, DirectedFaultsAtEveryPhaseStayIdenticalAndAudited) {
  // Hand-crafted fail/drain/repair directives land before, during and after
  // the rebalance passes, so flights get hit in every phase (the unit suite
  // above pins each transition; this pins the integrated replay: identical
  // across the index escape hatch, clean audits, identity intact).
  ScopedDebugAudit audit_every_event;
  const workload::Trace trace = make_trace(80, 33);
  FaultConfig faults;
  for (const double at : {1.0 * 3600, 3.0 * 3600, 5.0 * 3600, 9.0 * 3600,
                          13.0 * 3600, 21.0 * 3600}) {
    FaultDirective fail;
    fail.kind = FaultDirective::Kind::kFail;
    fail.host = static_cast<HostId>(static_cast<std::size_t>(at / 3600.0) % 3);
    fail.at = at;
    faults.directives.push_back(fail);
    FaultDirective repair;
    repair.kind = FaultDirective::Kind::kRepair;
    repair.host = fail.host;
    repair.at = at + 1800.0;
    faults.directives.push_back(repair);
  }
  FaultDirective drain;
  drain.kind = FaultDirective::Kind::kDrain;
  drain.host = 0;  // open since the first placement, so the drain never fizzles
  drain.at = 7.0 * 3600;
  faults.directives.push_back(drain);
  std::optional<RunResult> reference;
  for (const bool index : {true, false}) {
    Datacenter dc = Datacenter::shared(kWorker, sched::make_progress_policy);
    dc.set_index_enabled(index);
    const RunResult result = replay(dc, trace, engine_rebalance(), nullptr,
                                    &faults);
    EXPECT_GT(result.mig_planned, 0U);
    EXPECT_GT(result.host_failures, 0U);
    EXPECT_GT(result.drained_hosts, 0U);
    expect_counter_identities(result);
    EXPECT_TRUE(audit(dc).empty());
    if (reference) {
      expect_identical(*reference, result);
    } else {
      reference = result;
    }
  }
}

// --- differential churn: incremental consolidation vs the naive pass --------

TEST(PlanDifferential, ReservationChurnMatchesNaiveConsolidation) {
  // >= 10k randomized place/remove/fault/reserve/release/heat events; at
  // every checkpoint the incremental scratch-column plan() must reproduce
  // the verbatim naive drain-and-consolidate pass move-for-move. The
  // reservation churn is the migrate-suite angle: in-flight bookings load
  // the columns without appearing in the VM maps, and both passes must
  // respect them identically when scoring drain targets.
  VCluster cluster("resv-churn", kWorker, sched::make_slackvm_policy());
  const sched::Rebalancer rebalancer;
  core::SplitMix64 rng(0x2e5eULL);
  std::vector<VmId> live;
  std::vector<std::pair<HostId, VmId>> booked;
  std::uint64_t next_id = 1;
  for (int event = 0; event < 12000; ++event) {
    const std::uint64_t roll = rng.below(20);
    if (roll < 9 || live.empty()) {
      VmSpec spec = make_spec(
          static_cast<core::VcpuCount>(1 + rng.below(8)),
          gib(static_cast<std::int64_t>(1 + rng.below(16))),
          static_cast<std::uint8_t>(1 + rng.below(3)));
      const VmId id{next_id++};
      if (cluster.try_place(id, spec)) {
        live.push_back(id);
      }
    } else if (roll < 13) {
      const std::size_t pick = rng.below(live.size());
      const VmId id = live[pick];
      // Departing mid-flight is the engine's lifecycle to manage; here a
      // booked VM just stays put.
      bool has_booking = false;
      for (const auto& [h, vm] : booked) {
        has_booking = has_booking || vm == id;
      }
      if (!has_booking) {
        live[pick] = live.back();
        live.pop_back();
        cluster.remove(id);
      }
    } else if (roll < 15 && cluster.opened_hosts() > 1) {
      // Book a migration reservation for a live VM on another host; the
      // booking loads the target's columns until released below.
      const VmId vm = live[rng.below(live.size())];
      bool already_booked = false;
      for (const auto& [h, b] : booked) {
        already_booked = already_booked || b == vm;
      }
      const HostId from = cluster.host_of(vm);
      const HostId to = static_cast<HostId>(rng.below(cluster.opened_hosts()));
      if (!already_booked && to != from &&
          cluster.try_reserve(to, vm, cluster.hosts()[from].spec_of(vm))) {
        booked.emplace_back(to, vm);
      }
    } else if (roll < 17 && !booked.empty()) {
      const std::size_t pick = rng.below(booked.size());
      const auto [host, vm] = booked[pick];
      booked[pick] = booked.back();
      booked.pop_back();
      cluster.release_reservation(host, vm);
    } else if (roll < 18 && cluster.opened_hosts() > 0) {
      const HostId host = static_cast<HostId>(rng.below(cluster.opened_hosts()));
      if (cluster.host_phase(host) == HostPhase::kUp) {
        // Skip hosts holding live bookings: failing them would strand the
        // reservation (a lifecycle the engine tests own); keep this churn
        // about planning against booked columns.
        bool holds_booking = false;
        for (const auto& [h, vm] : booked) {
          holds_booking = holds_booking || h == host;
        }
        for (const auto& [h, vm] : booked) {
          holds_booking = holds_booking || cluster.host_of(vm) == host;
        }
        if (!holds_booking) {
          for (const auto& [vm, spec] : cluster.fail_host(host)) {
            std::erase(live, vm);
          }
        }
      } else {
        cluster.repair_host(host);
      }
    } else if (cluster.opened_hosts() > 0) {
      const HostId host = static_cast<HostId>(rng.below(cluster.opened_hosts()));
      cluster.set_host_heat(host, rng.uniform(0.0, 2.0), 0.25);
    }
    if (event % 200 == 199) {
      const sched::MigrationPlan a = rebalancer.plan(cluster, 16);
      const sched::MigrationPlan b =
          reference::plan_naive(cluster, rebalancer.scorer(), 16);
      ASSERT_EQ(a.migrations.size(), b.migrations.size()) << "event " << event;
      for (std::size_t i = 0; i < a.migrations.size(); ++i) {
        EXPECT_EQ(a.migrations[i].vm, b.migrations[i].vm);
        EXPECT_EQ(a.migrations[i].from, b.migrations[i].from);
        EXPECT_EQ(a.migrations[i].to, b.migrations[i].to);
      }
      EXPECT_EQ(a.hosts_emptied, b.hosts_emptied);
    }
    if (event % 2000 == 0) {
      EXPECT_TRUE(audit(cluster).empty()) << "event " << event;
    }
  }
  for (const auto& [host, vm] : booked) {
    cluster.release_reservation(host, vm);
  }
  EXPECT_TRUE(audit(cluster).empty());
}

// --- acceptance: >= 100 failures, bit-identical across the matrix -----------

TEST(MigrationAcceptance, HundredFailuresBitIdenticalAcrossShardsIndexThreads) {
  // The acceptance replay of ISSUE 8: a fault schedule applying >= 100 host
  // failures against the continuous engine-driven rebalance loop must keep
  // the counter identity, audit clean, and reproduce bit-for-bit across
  // shards {1,2,8} x index {on,off} x threads {1,2,8}.
  ScopedDebugAudit audit_every_event;
  const workload::Trace trace = make_trace(120, 42);
  FaultConfig faults;
  faults.count = 250;
  faults.seed = 777;
  faults.repair_delay = 1800.0;  // quick repairs keep failure targets UP
  const RebalanceOptions reb = engine_rebalance();

  const auto make_dc = [](bool index) {
    Datacenter dc = Datacenter::shared_sharded(kWorker,
                                               sched::make_progress_policy, 4);
    dc.set_index_enabled(index);
    return dc;
  };

  // Reference: the replay loop run on one shard.
  ShardOptions options;
  options.rebalance = reb;
  options.faults = &faults;
  Datacenter reference_dc = make_dc(true);
  const RunResult reference = replay_sharded(reference_dc, trace, options);
  ASSERT_GE(reference.host_failures, 100U);
  ASSERT_GT(reference.mig_planned, 0U);
  ASSERT_GT(reference.mig_committed, 0U);
  expect_counter_identities(reference);
  EXPECT_TRUE(audit(reference_dc).empty());

  for (const std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    for (const bool index : {true, false}) {
      for (const std::size_t threads :
           {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
        options.shards = shards;
        options.threads = threads;
        Datacenter dc = make_dc(index);
        const RunResult result = replay_sharded(dc, trace, options);
        SCOPED_TRACE("shards " + std::to_string(shards) + " index " +
                     std::to_string(index) + " threads " + std::to_string(threads));
        expect_identical(reference, result);
        EXPECT_TRUE(audit(dc).empty());
      }
    }
  }
}

}  // namespace
}  // namespace slackvm::sim
