#include "sim/datacenter.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "core/error.hpp"
#include "sched/policy.hpp"
#include "sim/audit.hpp"
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

VmSpec spec(core::VcpuCount vcpus, core::MemMib mem, std::uint8_t ratio) {
  VmSpec s;
  s.vcpus = vcpus;
  s.mem_mib = mem;
  s.level = OversubLevel{ratio};
  return s;
}

const core::Resources kWorker{32, gib(128)};

std::vector<OversubLevel> all_levels() {
  return {OversubLevel{1}, OversubLevel{2}, OversubLevel{3}};
}

TEST(DatacenterTest, DedicatedRoutesByLevel) {
  Datacenter dc = Datacenter::dedicated(kWorker, all_levels(), sched::make_first_fit);
  dc.deploy(VmId{1}, spec(2, gib(4), 1));
  dc.deploy(VmId{2}, spec(2, gib(4), 2));
  dc.deploy(VmId{3}, spec(2, gib(4), 3));
  const auto opened = dc.opened_per_cluster();
  EXPECT_EQ(opened.at("dedicated-1:1"), 1U);
  EXPECT_EQ(opened.at("dedicated-2:1"), 1U);
  EXPECT_EQ(opened.at("dedicated-3:1"), 1U);
  EXPECT_EQ(dc.opened_pms(), 3U);
}

TEST(DatacenterTest, DedicatedRejectsUnknownLevel) {
  Datacenter dc = Datacenter::dedicated(kWorker, {OversubLevel{1}}, sched::make_first_fit);
  EXPECT_THROW(dc.deploy(VmId{1}, spec(1, gib(1), 2)), core::SlackError);
}

TEST(DatacenterTest, SharedCoHostsAllLevels) {
  Datacenter dc = Datacenter::shared(kWorker, sched::make_progress_policy);
  dc.deploy(VmId{1}, spec(2, gib(4), 1));
  dc.deploy(VmId{2}, spec(2, gib(4), 2));
  dc.deploy(VmId{3}, spec(2, gib(4), 3));
  EXPECT_EQ(dc.opened_pms(), 1U);
  EXPECT_TRUE(dc.is_shared());
}

TEST(DatacenterTest, RemoveFreesResources) {
  Datacenter dc = Datacenter::shared(kWorker, sched::make_progress_policy);
  dc.deploy(VmId{1}, spec(4, gib(8), 1));
  EXPECT_EQ(dc.vm_count(), 1U);
  dc.remove(VmId{1});
  EXPECT_EQ(dc.vm_count(), 0U);
  EXPECT_EQ(dc.total_alloc(), (core::Resources{0, 0}));
}

TEST(DatacenterTest, RemoveUnknownThrows) {
  Datacenter dc = Datacenter::shared(kWorker, sched::make_progress_policy);
  EXPECT_THROW(dc.remove(VmId{12}), core::SlackError);
}

TEST(DatacenterTest, TotalsAggregateAcrossClusters) {
  Datacenter dc = Datacenter::dedicated(kWorker, all_levels(), sched::make_first_fit);
  dc.deploy(VmId{1}, spec(4, gib(8), 1));   // 4 cores
  dc.deploy(VmId{2}, spec(4, gib(8), 2));   // 2 cores
  EXPECT_EQ(dc.total_alloc(), (core::Resources{6, gib(16)}));
  EXPECT_EQ(dc.total_config(), (core::Resources{64, gib(256)}));
}

TEST(DatacenterTest, ThresholdEffectOfDedicatedClusters) {
  // The structural inefficiency SlackVM removes: three half-empty dedicated
  // PMs where a single shared PM would do.
  Datacenter dedicated =
      Datacenter::dedicated(kWorker, all_levels(), sched::make_first_fit);
  Datacenter shared = Datacenter::shared(kWorker, sched::make_progress_policy);
  for (std::uint64_t i = 0; i < 3; ++i) {
    const VmSpec s = spec(4, gib(8), static_cast<std::uint8_t>(i + 1));
    dedicated.deploy(VmId{i * 2 + 1}, s);
    shared.deploy(VmId{i * 2 + 2}, s);
  }
  EXPECT_EQ(dedicated.opened_pms(), 3U);
  EXPECT_EQ(shared.opened_pms(), 1U);
}

// --- reset: a used datacenter replays like a new one ------------------------

workload::Trace reset_trace(std::uint64_t seed) {
  workload::GeneratorConfig cfg;
  cfg.target_population = 90;
  cfg.horizon = 2.0 * 24 * 3600;
  cfg.mean_lifetime = 1.0 * 24 * 3600;
  cfg.seed = seed;
  return workload::Generator(workload::azure_catalog(), workload::make_mix(34, 33, 33),
                             cfg)
      .generate();
}

/// Leave what a drained replay never does: VMs still placed, a failed and a
/// draining host, a migration reservation, heat on every host, an armed
/// membership journal with records in it, and a host cap.
void leave_debris(Datacenter& dc) {
  std::uint64_t id = 1'000'000;
  for (int i = 0; i < 30; ++i) {
    for (const std::uint8_t ratio : core::kPaperLevelRatios) {
      dc.deploy(VmId{id++}, spec(4, gib(12), ratio));
    }
  }
  for (std::size_t c = 0; c < dc.clusters().size(); ++c) {
    sched::VCluster& cluster = dc.cluster(c);
    ASSERT_GE(cluster.opened_hosts(), 3U);
    cluster.arm_membership_log();
    for (sched::HostId host = 0; host < cluster.opened_hosts(); ++host) {
      cluster.set_host_heat(host, 0.4 + 0.3 * host, 0.25);
    }
    static_cast<void>(cluster.synced_heat_index());
    const sched::HostId last = static_cast<sched::HostId>(cluster.opened_hosts() - 1);
    ASSERT_TRUE(cluster.try_reserve(last, VmId{id++}, spec(1, gib(1), 1)));
    cluster.drain_host(1);
    static_cast<void>(cluster.fail_host(0));
  }
  dc.set_max_hosts_per_cluster(3);
}

/// Replay a trace on a datacenter reset after a different replay (and the
/// debris above), and again after a second reset: both must equal the
/// replay on a new datacenter and leave a clean audit. With the control
/// plane on (faults with drains, engine migrations, the interference loop)
/// and off.
void expect_reset_replays_like_new(const std::function<Datacenter()>& make,
                                   std::size_t shards) {
  ScopedDebugAudit audit_every_event;
  const workload::Trace first = reset_trace(11);
  const workload::Trace second = reset_trace(12);
  FaultConfig faults;
  faults.count = 10;
  faults.seed = 99;
  faults.repair_delay = 3600.0;
  faults.drain_lead = 1800.0;
  for (const bool plane : {false, true}) {
    SCOPED_TRACE(plane ? "control plane on" : "control plane off");
    ShardOptions options;
    options.shards = shards;
    options.threads = shards;
    if (plane) {
      RebalanceOptions rebalance;
      rebalance.interval = 4.0 * 3600;
      rebalance.budget_per_pass = 16;
      rebalance.migration.enabled = true;
      rebalance.interference.enabled = true;
      options.rebalance = rebalance;
      options.faults = &faults;
    }
    Datacenter fresh = make();
    const RunResult expected = replay_sharded(fresh, second, options);
    if (plane) {
      EXPECT_GT(expected.host_failures, 0U);
      EXPECT_GT(expected.itf_passes, 0U);
      EXPECT_GT(expected.mig_planned, 0U);
    }

    Datacenter used = make();
    static_cast<void>(replay_sharded(used, first, options));
    leave_debris(used);
    for (int round = 0; round < 2; ++round) {
      used.reset();
      EXPECT_EQ(used.opened_pms(), 0U);
      EXPECT_EQ(used.vm_count(), 0U);
      const RunResult got = replay_sharded(used, second, options);
      EXPECT_TRUE(got == expected)
          << "round " << round << ": opened " << got.opened_pms << " vs "
          << expected.opened_pms << ", avg active " << got.avg_active_pms << " vs "
          << expected.avg_active_pms << ", migrations " << got.mig_committed << " vs "
          << expected.mig_committed;
      const std::vector<std::string> violations = audit(used);
      EXPECT_TRUE(violations.empty()) << violations.front();
    }
  }
}

TEST(DatacenterReset, DedicatedReplaysLikeANewDatacenter) {
  expect_reset_replays_like_new(
      [] { return Datacenter::dedicated(kWorker, all_levels(), sched::make_first_fit); },
      1);
}

TEST(DatacenterReset, SharedReplaysLikeANewDatacenter) {
  expect_reset_replays_like_new(
      [] {
        return Datacenter::shared(kWorker, [] { return sched::make_interference_policy(); });
      },
      1);
}

TEST(DatacenterReset, ShardedReplaysLikeANewDatacenter) {
  expect_reset_replays_like_new(
      [] {
        return Datacenter::shared_sharded(
            kWorker, [] { return sched::make_interference_policy(); }, 2);
      },
      2);
}

TEST(DatacenterReset, RandomPolicyRestartsItsStream) {
  const auto make = [] {
    return Datacenter::shared(kWorker, [] { return sched::make_random_fit(5); });
  };
  const workload::Trace trace = reset_trace(13);
  Datacenter fresh = make();
  const RunResult expected = replay_sharded(fresh, trace);
  Datacenter used = make();
  static_cast<void>(replay_sharded(used, reset_trace(14)));
  used.reset();
  EXPECT_TRUE(replay_sharded(used, trace) == expected);
}

}  // namespace
}  // namespace slackvm::sim
