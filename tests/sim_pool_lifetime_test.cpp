// Lifetime of the pools behind per-host lists (core::ListPool).
//
// A VCluster's hosts and a DemandCache's term lists draw from a pool their
// owner holds by pointer. The pool must outlive every list drawing from
// it, which member order gives the destructor but not a memberwise
// move-assignment: that would replace the pool while the lists being
// replaced still hold its memory. These tests move-assign filled owners,
// keep using both sides, and rebuild the sweep workspace's dedicated
// datacenter between cells; the asan+ubsan tree turns any list left on a
// freed pool into a heap-use-after-free report.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "core/rng.hpp"
#include "sched/policy.hpp"
#include "sched/vcluster.hpp"
#include "sim/experiment.hpp"
#include "sim/usage_monitor.hpp"
#include "workload/catalog.hpp"
#include "workload/level_mix.hpp"

namespace slackvm::sim {
namespace {

using core::gib;

core::VmSpec spec_for(std::uint64_t vm) {
  core::VmSpec spec;
  spec.vcpus = static_cast<core::VcpuCount>(1 + vm % 4);
  spec.mem_mib = gib(static_cast<core::MemMib>(1 + vm % 3));
  spec.level = core::OversubLevel{static_cast<std::uint8_t>(1 + vm % 3)};
  spec.usage = static_cast<core::UsageClass>(vm % 4);
  return spec;
}

/// Place VMs [first, first + count) and book a migration reservation for
/// VM first + count on the newest host, so both the VM vectors and the
/// reservation maps hold pool memory. Returns the reserving host.
sched::HostId fill(sched::VCluster& cluster, std::uint64_t first, std::uint64_t count) {
  for (std::uint64_t vm = first; vm < first + count; ++vm) {
    EXPECT_TRUE(cluster.try_place(core::VmId{vm}, spec_for(vm)));
  }
  const auto host = static_cast<sched::HostId>(cluster.opened_hosts() - 1);
  EXPECT_TRUE(cluster.try_reserve(host, core::VmId{first + count}, spec_for(1)));
  return host;
}

sched::VCluster make_cluster(const char* name) {
  return sched::VCluster(name, {32, gib(128)}, sched::make_progress_policy());
}

TEST(PoolLifetime, MoveAssignedClusterKeepsEveryHostOnALivePool) {
  sched::VCluster target = make_cluster("target");
  fill(target, 1, 600);
  target.reset();  // parked hosts keep their pool memory
  fill(target, 1, 300);
  sched::VCluster source = make_cluster("source");
  const sched::HostId reserved = fill(source, 1000, 900);
  const std::size_t source_hosts = source.opened_hosts();

  // The target's hosts, live and parked, go before the pool they used.
  target = std::move(source);
  EXPECT_EQ(target.name(), "source");
  EXPECT_EQ(target.opened_hosts(), source_hosts);
  EXPECT_EQ(target.vm_count(), 900U);

  // The adopted hosts grow, shrink, fail and refill on the adopted pool.
  for (std::uint64_t vm = 1000; vm < 1900; vm += 2) {
    target.remove(core::VmId{vm});
  }
  target.release_reservation(reserved, core::VmId{1900});
  const std::vector<sched::HostedVm> victims = target.fail_host(1);
  target.repair_host(1);
  for (const auto& [vm, spec] : victims) {
    ASSERT_TRUE(target.try_place(vm, spec));
  }
  fill(target, 5000, 2000);
  EXPECT_EQ(target.vm_count(), 2450U);

  // A moved-from cluster takes a new one and works as usual.
  source = make_cluster("again");
  const sched::HostId again = fill(source, 1, 200);
  EXPECT_EQ(source.vm_count(), 200U);
  EXPECT_TRUE(source.hosts()[again].has_reservation(core::VmId{201}));
}

TEST(PoolLifetime, MoveAssignedDemandCacheSamplesLikeAFreshOne) {
  sched::VCluster a = make_cluster("a");
  fill(a, 1, 500);
  sched::VCluster b = make_cluster("b");
  fill(b, 1, 800);

  DemandCache cache;
  static_cast<void>(cache.sample(a, 900.0));
  DemandCache other;
  static_cast<void>(other.sample(b, 900.0));
  // The cache's term lists for `a` go before its pool; it adopts b's.
  cache = std::move(other);

  fill(b, 2000, 100);  // journaled deltas patch the adopted lists
  // The journal has one reader: sample through the adopted cache first,
  // then derive every list afresh.
  const std::vector<HostUsage> got = cache.sample(b, 1800.0);
  DemandCache fresh;
  const std::vector<HostUsage>& expected = fresh.sample(b, 1800.0);
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t h = 0; h < got.size(); ++h) {
    EXPECT_EQ(got[h].demand_cores, expected[h].demand_cores) << "host " << h;
    EXPECT_EQ(got[h].capacity_cores, expected[h].capacity_cores) << "host " << h;
  }
}

TEST(PoolLifetime, SweepRebuildsDedicatedDatacentersOnLivePools) {
  // One serial workspace replays every cell. The level set changes from
  // one distribution to the next (A is 1:1 only, F mixes 1:1 and 3:1, J
  // holds all three), so the dedicated datacenter and its clusters' pools
  // are rebuilt between cells, while the shared one and the queue live on.
  // With the control plane on, migrations book reservations and the heat
  // caches fill their own pools. Each row must equal a compare_packing
  // call, which builds its datacenters once.
  ExperimentConfig cfg;
  cfg.generator.target_population = 60;
  cfg.generator.horizon = 2.0 * 24 * 3600;
  cfg.generator.mean_lifetime = 0.5 * 24 * 3600;
  cfg.repetitions = 2;
  cfg.parallelism = 1;
  cfg.rebalance_interval = 3600.0;
  cfg.rebalance_budget = 16;
  cfg.migration.enabled = true;
  cfg.interference.enabled = true;
  cfg.faults.count = 4;
  cfg.faults.repair_delay = 3600.0;
  cfg.faults.drain_lead = 1800.0;
  const std::vector<PackingComparison> sweep =
      run_distribution_sweep(workload::azure_catalog(), cfg);
  const std::vector<workload::LevelMix>& mixes = workload::paper_distributions();
  ASSERT_EQ(sweep.size(), mixes.size());
  for (const std::size_t m : {0UL, 5UL, 9UL, 14UL}) {
    EXPECT_EQ(sweep[m], compare_packing(workload::azure_catalog(), mixes[m], cfg))
        << "distribution " << mixes[m].name;
  }
}

}  // namespace
}  // namespace slackvm::sim
