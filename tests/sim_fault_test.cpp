// Fault-injection test harness: differential index-vs-naive equality under
// fault-heavy churn, invariant audits after every event across randomized
// schedules, the failed-host placement-index regression, the degraded-queue
// accounting, and the acceptance replay (>= 100 injected failures,
// bit-identical across parallelism and index settings).
#include "sim/fault.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <sstream>
#include <vector>

#include "core/rng.hpp"
#include "expect_identical.hpp"
#include "sched/filter.hpp"
#include "sched/vcluster.hpp"
#include "sim/audit.hpp"
#include "sim/experiment.hpp"
#include "sim/replay.hpp"
#include "sim/scenario.hpp"
#include "workload/catalog.hpp"
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

/// Catalog-shaped random spec (same scheme as the placement-index tests).
VmSpec random_spec(core::SplitMix64& rng) {
  const workload::LevelMix mix = workload::make_mix(34, 33, 33);
  VmSpec spec;
  spec.level = mix.sample(rng);
  const workload::Catalog& catalog =
      spec.level.oversubscribed()
          ? workload::azure_catalog().truncated(workload::kOversubMemCap)
          : workload::azure_catalog();
  const workload::Flavor& flavor = catalog.sample(rng);
  spec.vcpus = flavor.vcpus;
  spec.mem_mib = flavor.mem_mib;
  return spec;
}

struct PolicyCase {
  const char* label;
  std::unique_ptr<sched::PlacementPolicy> (*make)();
};

std::unique_ptr<sched::PlacementPolicy> make_slackvm_default() {
  return sched::make_slackvm_policy();
}

const PolicyCase kPolicies[] = {
    {"first-fit", sched::make_first_fit},   {"best-fit", sched::make_best_fit},
    {"worst-fit", sched::make_worst_fit},   {"progress", sched::make_progress_policy},
    {"slackvm", make_slackvm_default},
};

void expect_clean_audit(const VCluster& cluster, const char* label, std::size_t event) {
  const auto violations = audit(cluster);
  ASSERT_TRUE(violations.empty()) << label << " event " << event << ": "
                                  << violations.front();
}

/// Drive `events` randomized operations — place/remove/migrate interleaved
/// with fail/evacuate/repair and drain/migrate_off — through a naive and an
/// indexed cluster in lockstep, asserting the identical decision at every
/// step and a clean invariant audit throughout.
void run_fault_differential(const PolicyCase& policy, std::uint64_t seed,
                            std::size_t events) {
  VCluster naive("naive", kWorker, policy.make());
  naive.set_index_enabled(false);
  VCluster indexed("indexed", kWorker, policy.make());
  ASSERT_TRUE(indexed.index_enabled());

  core::SplitMix64 rng(seed);
  std::vector<VmId> live;
  std::vector<HostId> down;  // failed or draining, pending repair
  std::uint64_t next_id = 1;

  const auto place_both = [&](VmId vm, const VmSpec& spec,
                              std::size_t event) -> bool {
    const auto naive_host = naive.try_place(vm, spec);
    const auto indexed_host = indexed.try_place(vm, spec);
    EXPECT_EQ(naive_host, indexed_host)
        << policy.label << ": divergence at event " << event;
    return naive_host.has_value();
  };

  for (std::size_t e = 0; e < events; ++e) {
    if (e % 101 == 37 && naive.opened_hosts() > 1) {
      // Failure: evict the victims and re-place each through the policy
      // path, asserting both sides evict and choose identically.
      const auto host = static_cast<HostId>(rng.below(naive.opened_hosts()));
      const auto naive_victims = naive.fail_host(host);
      const auto indexed_victims = indexed.fail_host(host);
      ASSERT_EQ(naive_victims, indexed_victims)
          << policy.label << ": eviction divergence at event " << e;
      for (const auto& [vm, spec] : naive_victims) {
        // Elastic fleet: re-placement always succeeds (a fresh PM fits).
        ASSERT_TRUE(place_both(vm, spec, e));
      }
      down.push_back(host);
    } else if (e % 211 == 53 && naive.opened_hosts() > 1) {
      // Graceful drain: admission stops, then both sides migrate off the
      // same set of VMs through the policy path.
      const auto host = static_cast<HostId>(rng.below(naive.opened_hosts()));
      if (naive.host_phase(host) == HostPhase::kUp) {
        naive.drain_host(host);
        indexed.drain_host(host);
        ASSERT_EQ(naive.migrate_off(host), indexed.migrate_off(host))
            << policy.label << ": migrate_off divergence at event " << e;
        down.push_back(host);
      }
    } else if (e % 67 == 11 && !down.empty()) {
      const HostId host = down.front();
      down.erase(down.begin());
      naive.repair_host(host);
      indexed.repair_host(host);
    } else if (live.empty() || rng.below(10) < 6) {
      const VmId vm{next_id++};
      if (place_both(vm, random_spec(rng), e)) {
        live.push_back(vm);
      }
    } else {
      const std::size_t victim = rng.below(live.size());
      const VmId vm = live[victim];
      naive.remove(vm);
      indexed.remove(vm);
      live[victim] = live.back();
      live.pop_back();
    }
    if (e % 97 == 0 && !live.empty() && naive.opened_hosts() > 1) {
      // Migration attempts may target failed/draining hosts: both sides
      // must reject those identically (can_host is phase-aware).
      const VmId vm = live[rng.below(live.size())];
      const auto to = static_cast<HostId>(rng.below(naive.opened_hosts()));
      ASSERT_EQ(naive.migrate(vm, to), indexed.migrate(vm, to))
          << policy.label << ": migrate divergence at event " << e;
    }
    if (e % 500 == 0) {
      expect_clean_audit(naive, policy.label, e);
      expect_clean_audit(indexed, policy.label, e);
    }
  }
  EXPECT_EQ(naive.opened_hosts(), indexed.opened_hosts()) << policy.label;
  EXPECT_EQ(naive.total_alloc(), indexed.total_alloc()) << policy.label;
  EXPECT_EQ(naive.vm_count(), indexed.vm_count()) << policy.label;
  expect_clean_audit(naive, policy.label, events);
  expect_clean_audit(indexed, policy.label, events);
}

TEST(FaultDifferential, AllPoliciesMatchNaiveUnderFaultChurn) {
  // >= 10k randomized events per policy with failures, drains, repairs and
  // evacuations interleaved into the regular churn (acceptance criterion).
  std::uint64_t seed = 2001;
  for (const PolicyCase& policy : kPolicies) {
    SCOPED_TRACE(policy.label);
    run_fault_differential(policy, seed++, 10500);
  }
}

// --- placement-index lifecycle regressions --------------------------------

TEST(FaultIndexRegression, HeapMustNotServeFailedHostOfSameSpecClass) {
  // The lazy-deletion heap caches (host, epoch, score) per spec class. A
  // host failed and repaired between two places of the same class must be
  // skipped while FAILED: set_phase bumps the epoch, so the cached entry
  // goes stale. Without the bump the index would serve the failed host.
  for (const PolicyCase& policy : kPolicies) {
    VCluster naive("naive", kWorker, policy.make());
    naive.set_index_enabled(false);
    VCluster indexed("indexed", kWorker, policy.make());

    const VmSpec spec = make_spec(2, gib(4), 1);
    // First place of the class: both open host 0 and cache it.
    ASSERT_EQ(naive.try_place(VmId{1}, spec), indexed.try_place(VmId{1}, spec));
    const HostId host = naive.host_of(VmId{1});

    // Fail the cached host; its VM evacuates to a fresh PM on both sides.
    const auto naive_victims = naive.fail_host(host);
    const auto indexed_victims = indexed.fail_host(host);
    ASSERT_EQ(naive_victims, indexed_victims);
    for (const auto& [vm, s] : naive_victims) {
      ASSERT_EQ(naive.try_place(vm, s), indexed.try_place(vm, s)) << policy.label;
    }

    // Second place of the same class while the host is FAILED: the index
    // must agree with the naive scan (which skips it via can_host).
    const auto naive_second = naive.try_place(VmId{2}, spec);
    const auto indexed_second = indexed.try_place(VmId{2}, spec);
    ASSERT_EQ(naive_second, indexed_second) << policy.label;
    ASSERT_TRUE(naive_second.has_value());
    EXPECT_NE(*indexed_second, host) << policy.label << ": placed on a FAILED host";

    // After repair the host is eligible again — still in lockstep.
    naive.repair_host(host);
    indexed.repair_host(host);
    ASSERT_EQ(naive.try_place(VmId{3}, spec), indexed.try_place(VmId{3}, spec))
        << policy.label;
    expect_clean_audit(naive, policy.label, 0);
    expect_clean_audit(indexed, policy.label, 0);
  }
}

TEST(FaultIndexRegression, RebuildAfterBypassWindowSeesLifecycleChanges) {
  // While an extra filter is installed the index is dropped (bypass window)
  // and hears no epoch bumps. Hosts failed or repaired inside the window
  // must still be classified correctly by the rebuilt index afterwards.
  VCluster naive("naive", kWorker, sched::make_progress_policy());
  naive.set_index_enabled(false);
  VCluster indexed("indexed", kWorker, sched::make_progress_policy());

  core::SplitMix64 rng(31);
  std::uint64_t id = 1;
  for (int i = 0; i < 120; ++i) {
    const VmSpec spec = random_spec(rng);
    const VmId vm{id++};
    ASSERT_EQ(naive.try_place(vm, spec), indexed.try_place(vm, spec)) << i;
  }
  ASSERT_GT(naive.opened_hosts(), 2U);

  // Enter the bypass window and flip host phases while the index is blind.
  naive.set_filter(std::make_unique<sched::MaxVmsFilter>(64));
  indexed.set_filter(std::make_unique<sched::MaxVmsFilter>(64));
  for (const HostId host : {HostId{0}, HostId{1}}) {
    const auto naive_victims = naive.fail_host(host);
    const auto indexed_victims = indexed.fail_host(host);
    ASSERT_EQ(naive_victims, indexed_victims);
    for (const auto& [vm, s] : naive_victims) {
      ASSERT_EQ(naive.try_place(vm, s), indexed.try_place(vm, s));
    }
  }
  naive.repair_host(HostId{1});  // host 0 stays FAILED across the rebuild
  indexed.repair_host(HostId{1});

  // Clearing the filter re-arms the index from live state: host 0 must be
  // excluded, host 1 eligible, and every decision identical to naive.
  naive.set_filter(nullptr);
  indexed.set_filter(nullptr);
  for (int i = 0; i < 200; ++i) {
    const VmSpec spec = random_spec(rng);
    const VmId vm{id++};
    const auto naive_host = naive.try_place(vm, spec);
    const auto indexed_host = indexed.try_place(vm, spec);
    ASSERT_EQ(naive_host, indexed_host) << "post-bypass event " << i;
    ASSERT_TRUE(indexed_host.has_value());
    EXPECT_NE(*indexed_host, HostId{0}) << "placed on the still-FAILED host";
  }
  expect_clean_audit(naive, "bypass-naive", 0);
  expect_clean_audit(indexed, "bypass-indexed", 0);
}

// --- audit ground truth ----------------------------------------------------

TEST(Audit, FlagsVmOnFailedHostAndPassesCoherentState) {
  std::vector<sched::HostState> hosts;
  hosts.emplace_back(0, kWorker);
  hosts[0].add(VmId{1}, make_spec(4, gib(8), 2));
  EXPECT_TRUE(audit(std::span<const sched::HostState>(hosts)).empty());

  hosts[0].set_phase(HostPhase::kFailed);
  const auto violations = audit(std::span<const sched::HostState>(hosts));
  ASSERT_FALSE(violations.empty());
  EXPECT_NE(violations.front().find("FAILED"), std::string::npos);
}

TEST(Audit, HeatPastTheLargestBucketAuditsClean) {
  // set_heat files a quotient past the largest bucket in that bucket; the
  // audit must recompute the bucket with the same quantizer.
  std::vector<sched::HostState> hosts;
  hosts.emplace_back(0, kWorker);
  hosts[0].set_heat(1.0, 1e-12);
  ASSERT_EQ(hosts[0].heat_bucket(), std::numeric_limits<std::uint32_t>::max());
  const auto violations = audit(std::span<const sched::HostState>(hosts));
  EXPECT_TRUE(violations.empty()) << violations.front();
}

TEST(Audit, DebugAuditCheckThrowsInsideReplayOnViolation) {
  // debug_audit_check is wired into replay()'s observe path; prove the flag
  // gates it and that a violation actually throws.
  Datacenter dc = Datacenter::shared(kWorker, sched::make_progress_policy);
  dc.deploy(VmId{1}, make_spec(2, gib(4), 1));
  // Corrupt: mark the host FAILED while its VM is still on it. The public
  // lifecycle never does this (fail_host evicts first); reach around it.
  const_cast<sched::HostState&>(dc.clusters().front()->hosts()[0])
      .set_phase(HostPhase::kFailed);
  debug_audit_check(dc);  // flag off: no throw
  {
    ScopedDebugAudit enabled;
    EXPECT_THROW(debug_audit_check(dc), core::SlackError);
  }
  debug_audit_check(dc);  // scope restored the flag
}

// --- randomized schedules audited after every event ------------------------

TEST(FaultInvariant, RandomizedSchedulesAuditCleanAcross16Seeds) {
  // Seed-derived fault schedules over real generated workloads; the debug
  // audit runs the full invariant suite after *every* event and throws on
  // the first violation. Every victim must be accounted exactly once.
  ScopedDebugAudit audit_every_event;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    workload::GeneratorConfig gen;
    gen.target_population = 50;
    gen.horizon = 2.0 * 24 * 3600;
    gen.mean_lifetime = 1.0 * 24 * 3600;
    gen.seed = seed;
    const workload::Trace trace =
        workload::Generator(workload::ovhcloud_catalog(),
                            workload::distribution('F'), gen)
            .generate();

    FaultConfig faults;
    faults.count = 25;
    faults.seed = core::derive_seed(seed, kFaultSeedStream);
    faults.repair_delay = 6.0 * 3600;
    faults.drain_lead = (seed % 2 == 0) ? 1800.0 : 0.0;  // both fault styles
    Datacenter dc = Datacenter::shared(kWorker, sched::make_progress_policy);
    const RunResult result = replay(dc, trace, std::nullopt, nullptr, &faults);

    SCOPED_TRACE("seed " + std::to_string(seed));
    EXPECT_GT(result.host_failures, 0U);
    expect_counter_identities(result);
    EXPECT_EQ(result.degraded_vms, 0U);  // elastic fleet: nothing degrades
    EXPECT_TRUE(audit(dc).empty());
  }
}

// --- degraded queue / retry accounting --------------------------------------

TEST(FaultDegraded, ExhaustedFixedFleetParksVictimsInDegradedQueue) {
  // Two-PM fixed fleet, both full. Failing one strands its VMs: no retry
  // can succeed (no capacity, no repair), so after the bounded backoff
  // every victim must land in the degraded queue — not abort the run.
  std::vector<core::VmInstance> vms;
  for (std::uint64_t i = 0; i < 4; ++i) {
    core::VmInstance vm;
    vm.id = VmId{i + 1};
    vm.spec = make_spec(16, gib(32), 1);  // two per 32-core PM
    vm.arrival = 0.0;
    vm.departure = 100000.0;
    vms.push_back(vm);
  }
  const workload::Trace trace{std::move(vms)};

  FaultConfig faults;
  FaultDirective fail;
  fail.kind = FaultDirective::Kind::kFail;
  fail.host = 1;
  fail.at = 10.0;
  faults.directives.push_back(fail);
  faults.max_retries = 3;
  faults.backoff_base = 5.0;

  ScopedDebugAudit audit_every_event;
  Datacenter dc = Datacenter::shared(kWorker, sched::make_first_fit);
  dc.set_max_hosts_per_cluster(2);
  const RunResult result = replay(dc, trace, std::nullopt, nullptr, &faults);

  EXPECT_EQ(result.placed_vms, 4U);
  EXPECT_EQ(result.host_failures, 1U);
  EXPECT_EQ(result.evacuated_vms, 2U);
  EXPECT_EQ(result.evac_replaced, 0U);
  EXPECT_EQ(result.degraded_vms, 2U);
  EXPECT_EQ(result.evac_retries, 2U * 3U);  // both victims exhaust 3 retries
  expect_counter_identities(result);
}

TEST(FaultDegraded, VictimDepartingBeforeRetrySucceedsIsAbsorbed) {
  // The victim's natural departure lands between backoff retries; the
  // injector must absorb it (the VM is not in the datacenter) and account
  // it as evac_departed.
  std::vector<core::VmInstance> vms;
  for (std::uint64_t i = 0; i < 4; ++i) {
    core::VmInstance vm;
    vm.id = VmId{i + 1};
    vm.spec = make_spec(16, gib(32), 1);
    vm.arrival = 0.0;
    vm.departure = (i < 2) ? 100000.0 : 50.0;  // VMs 3 and 4 depart early
    vms.push_back(vm);
  }
  const workload::Trace trace{std::move(vms)};

  FaultConfig faults;
  FaultDirective fail;
  fail.kind = FaultDirective::Kind::kFail;
  fail.host = 1;  // first-fit fills host 0 with VMs 1-2, host 1 with 3-4
  fail.at = 10.0;
  faults.directives.push_back(fail);
  faults.max_retries = 5;
  faults.backoff_base = 30.0;  // first retry at t=40, second at t=100 > 50

  ScopedDebugAudit audit_every_event;
  Datacenter dc = Datacenter::shared(kWorker, sched::make_first_fit);
  dc.set_max_hosts_per_cluster(2);
  const RunResult result = replay(dc, trace, std::nullopt, nullptr, &faults);

  EXPECT_EQ(result.evacuated_vms, 2U);
  EXPECT_EQ(result.evac_departed, 2U);
  EXPECT_EQ(result.degraded_vms, 0U);
  expect_counter_identities(result);
}

TEST(FaultDegraded, ArrivalsDeferThenPlaceAfterRepair) {
  // Capacity is gone while the only free PM is FAILED; an arriving VM must
  // defer, then place on a backoff retry once the host is repaired.
  std::vector<core::VmInstance> vms;
  core::VmInstance first;
  first.id = VmId{1};
  first.spec = make_spec(32, gib(64), 1);
  first.arrival = 0.0;
  first.departure = 1000.0;
  core::VmInstance late;
  late.id = VmId{2};
  late.spec = make_spec(32, gib(64), 1);
  late.arrival = 20.0;  // while host 1 is down and host 0 is full
  late.departure = 1000.0;
  vms.push_back(first);
  vms.push_back(late);
  const workload::Trace trace{std::move(vms)};

  FaultConfig faults;
  FaultDirective fail;
  fail.kind = FaultDirective::Kind::kFail;
  fail.host = 1;
  fail.at = 10.0;
  FaultDirective repair;
  repair.kind = FaultDirective::Kind::kRepair;
  repair.host = 1;
  repair.at = 30.0;
  faults.directives.push_back(fail);
  faults.directives.push_back(repair);
  faults.backoff_base = 15.0;  // retry at t=35, after the repair

  ScopedDebugAudit audit_every_event;
  Datacenter dc = Datacenter::shared(kWorker, sched::make_first_fit);
  dc.set_max_hosts_per_cluster(2);
  // Open host 1 up front so the failure directive has a target: a second
  // full-PM VM forces it open, then departs before the failure.
  {
    core::VmInstance opener;
    opener.id = VmId{99};
    opener.spec = make_spec(32, gib(64), 1);
    opener.arrival = 0.0;
    opener.departure = 5.0;
    std::vector<core::VmInstance> all = trace.vms();
    all.push_back(opener);
    const workload::Trace full_trace{std::move(all)};
    const RunResult result = replay(dc, full_trace, std::nullopt, nullptr, &faults);

    EXPECT_EQ(result.host_failures, 1U);
    EXPECT_EQ(result.host_repairs, 1U);
    EXPECT_EQ(result.deferred_arrivals, 1U);
    EXPECT_EQ(result.arrivals_dropped, 0U);
    EXPECT_EQ(result.placed_vms, 3U);  // all eventually placed
  }
}

// --- acceptance: bit-identical fault-heavy replays --------------------------

TEST(FaultAcceptance, HundredFailuresBitIdenticalAcrossParallelismAndIndex) {
  // The acceptance replay: a schedule injecting >= 100 applied host
  // failures (with drains) must produce exactly equal metrics — fault
  // counters included — across parallelism 1/2/8 and index on/off, with
  // zero audit violations and every victim accounted for.
  ScopedDebugAudit audit_every_event;
  ExperimentConfig base;
  base.generator.target_population = 60;
  base.generator.horizon = 2.0 * 24 * 3600;
  base.generator.mean_lifetime = 1.0 * 24 * 3600;
  base.generator.seed = 42;
  base.repetitions = 2;
  base.faults.count = 90;  // per repetition; both reps together clear 100
  base.faults.repair_delay = 3.0 * 3600;
  base.faults.drain_lead = 900.0;

  const auto& catalog = workload::ovhcloud_catalog();
  const auto& mix = workload::distribution('F');

  // Direct replay of one repetition's timetable, hard kills: >= 100 applied
  // failures with real evacuations, every victim accounted exactly once.
  {
    const workload::Trace trace =
        workload::Generator(catalog, mix, base.generator).generate();
    FaultConfig hard = base.faults;
    // A long repair delay saturates the small fleet (seeded faults aimed at
    // an already-FAILED host fizzle); quick repairs keep targets available.
    hard.count = 250;
    hard.repair_delay = 1800.0;
    hard.drain_lead = 0.0;
    const FaultConfig resolved = resolve_fault_seed(hard, base.generator.seed);
    Datacenter dc = Datacenter::shared(kWorker, sched::make_progress_policy);
    const RunResult direct = replay(dc, trace, std::nullopt, nullptr, &resolved);
    ASSERT_GE(direct.host_failures, 100U);
    ASSERT_GT(direct.evacuated_vms, 0U);
    expect_counter_identities(direct);
    EXPECT_TRUE(audit(dc).empty());
  }

  const PackingComparison reference = compare_packing(catalog, mix, base);
  // The graceful-drain grid bites too: with two repetitions averaged, >= 50
  // mean applied failures per run proves >= 100 injected across the cell.
  ASSERT_GE(reference.baseline.host_failures, 50U);
  ASSERT_GE(reference.slackvm.host_failures, 50U);
  ASSERT_GT(reference.slackvm.drained_hosts, 0U);

  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    for (const bool use_index : {true, false}) {
      ExperimentConfig cfg = base;
      cfg.parallelism = threads;
      cfg.use_index = use_index;
      const PackingComparison run = compare_packing(catalog, mix, cfg);
      SCOPED_TRACE("threads " + std::to_string(threads) + " index " +
                   (use_index ? "on" : "off"));
      EXPECT_EQ(reference.provider, run.provider);
      expect_identical(reference.baseline, run.baseline);
      expect_identical(reference.slackvm, run.slackvm);
    }
  }
}

// --- scenario round-trip -----------------------------------------------------

TEST(FaultScenario, FaultKeysAndDirectivesRoundTrip) {
  const std::string text = R"(name availability
provider ovhcloud
distribution F
population 80
seed 7
faults 12
fault_seed 99
repair_delay_s 7200
drain_lead_s 600
evac_retries 4
evac_backoff_s 30
fail host=3 at=86400
drain host=1 at=3600 cluster=0
repair host=3 at=90000
)";
  std::istringstream in(text);
  const Scenario scenario = parse_scenario(in);
  EXPECT_EQ(scenario.config.faults.count, 12U);
  EXPECT_EQ(scenario.config.faults.seed, 99U);
  EXPECT_EQ(scenario.config.faults.repair_delay, 7200.0);
  EXPECT_EQ(scenario.config.faults.drain_lead, 600.0);
  EXPECT_EQ(scenario.config.faults.max_retries, 4U);
  EXPECT_EQ(scenario.config.faults.backoff_base, 30.0);
  ASSERT_EQ(scenario.config.faults.directives.size(), 3U);
  EXPECT_EQ(scenario.config.faults.directives[0].kind, FaultDirective::Kind::kFail);
  EXPECT_EQ(scenario.config.faults.directives[0].host, 3U);
  EXPECT_EQ(scenario.config.faults.directives[0].at, 86400.0);
  EXPECT_EQ(scenario.config.faults.directives[1].kind, FaultDirective::Kind::kDrain);
  EXPECT_EQ(scenario.config.faults.directives[2].kind, FaultDirective::Kind::kRepair);

  std::ostringstream out;
  write_scenario(scenario, out);
  std::istringstream in2(out.str());
  const Scenario reparsed = parse_scenario(in2);
  EXPECT_EQ(reparsed.config.faults.count, scenario.config.faults.count);
  EXPECT_EQ(reparsed.config.faults.seed, scenario.config.faults.seed);
  EXPECT_EQ(reparsed.config.faults.repair_delay, scenario.config.faults.repair_delay);
  EXPECT_EQ(reparsed.config.faults.drain_lead, scenario.config.faults.drain_lead);
  EXPECT_EQ(reparsed.config.faults.max_retries, scenario.config.faults.max_retries);
  EXPECT_EQ(reparsed.config.faults.backoff_base, scenario.config.faults.backoff_base);
  EXPECT_EQ(reparsed.config.faults.directives, scenario.config.faults.directives);
}

TEST(FaultScenario, MalformedDirectivesAreRejectedWithLineNumbers) {
  for (const char* bad : {
           "name x\npopulation 10\nfail at=5\n",            // missing host=
           "name x\npopulation 10\nfail host=1\n",          // missing at=
           "name x\npopulation 10\nfail host=1 when=5\n",   // unknown field
           "name x\npopulation 10\nfail host1 at=5\n",      // not key=value
       }) {
    std::istringstream in(bad);
    EXPECT_THROW((void)parse_scenario(in), core::SlackError) << bad;
  }
}

TEST(FaultScenario, SeedResolutionDerivesOnlyWhenUnset) {
  FaultConfig cfg;
  cfg.count = 5;
  const FaultConfig derived = resolve_fault_seed(cfg, 42);
  EXPECT_EQ(derived.seed, core::derive_seed(42, kFaultSeedStream));
  cfg.seed = 1234;
  const FaultConfig pinned = resolve_fault_seed(cfg, 42);
  EXPECT_EQ(pinned.seed, 1234U);
}

// --- lifecycle units ---------------------------------------------------------

TEST(FaultLifecycle, DrainStopsAdmissionAndMigrateOffEmptiesTheHost) {
  VCluster cluster("c", kWorker, sched::make_first_fit());
  for (std::uint64_t i = 1; i <= 4; ++i) {
    ASSERT_TRUE(cluster.try_place(VmId{i}, make_spec(8, gib(16), 1)).has_value());
  }
  ASSERT_EQ(cluster.opened_hosts(), 1U);
  cluster.drain_host(0);
  EXPECT_EQ(cluster.host_phase(0), HostPhase::kDraining);

  // Admission stopped: the next placement opens a new PM.
  ASSERT_EQ(cluster.try_place(VmId{10}, make_spec(2, gib(4), 1)),
            std::optional<HostId>{1});

  // Everything migrates off through the policy path (host 1 has room).
  EXPECT_EQ(cluster.migrate_off(0), 4U);
  EXPECT_TRUE(cluster.hosts()[0].empty());
  EXPECT_TRUE(audit(cluster).empty());

  cluster.repair_host(0);
  EXPECT_EQ(cluster.host_phase(0), HostPhase::kUp);
  EXPECT_THROW((void)cluster.migrate_off(0), core::SlackError);  // not draining
}

TEST(FaultLifecycle, DatacenterFailHostDetachesVictimsFromRouting) {
  Datacenter dc = Datacenter::shared(kWorker, sched::make_first_fit);
  dc.deploy(VmId{1}, make_spec(4, gib(8), 1));
  dc.deploy(VmId{2}, make_spec(4, gib(8), 2));
  ASSERT_EQ(dc.vm_count(), 2U);

  const auto victims = dc.fail_host(0, 0);
  ASSERT_EQ(victims.size(), 2U);
  EXPECT_EQ(victims[0].first, VmId{1});  // ascending VmId order
  EXPECT_EQ(victims[1].first, VmId{2});
  EXPECT_EQ(dc.vm_count(), 0U);
  EXPECT_THROW(dc.remove(VmId{1}), core::SlackError);  // fully detached
  EXPECT_TRUE(audit(dc).empty());

  // Victims re-deploy through the normal path onto a healthy PM.
  ASSERT_TRUE(dc.try_deploy(victims[0].first, victims[0].second).has_value());
  EXPECT_EQ(dc.vm_count(), 1U);
}

TEST(FaultLifecycle, DrainOfFailedHostThrows) {
  VCluster cluster("c", kWorker, sched::make_first_fit());
  ASSERT_TRUE(cluster.try_place(VmId{1}, make_spec(2, gib(4), 1)).has_value());
  (void)cluster.fail_host(0);
  EXPECT_THROW(cluster.drain_host(0), core::SlackError);
  cluster.repair_host(0);
  cluster.drain_host(0);  // legal again after repair
  EXPECT_EQ(cluster.host_phase(0), HostPhase::kDraining);
}

}  // namespace
}  // namespace slackvm::sim
