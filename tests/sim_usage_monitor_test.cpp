#include "sim/usage_monitor.hpp"

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "core/error.hpp"
#include "perf/contention.hpp"
#include "sched/policy.hpp"
#include "sched/vcluster.hpp"
#include "sim/replay.hpp"
#include "workload/generator.hpp"
#include "workload/usage.hpp"

namespace slackvm::sim {
namespace {

using core::gib;

core::VmInstance make_vm(std::uint64_t id, core::VcpuCount vcpus, core::MemMib mem,
                         std::uint8_t ratio, core::UsageClass usage,
                         core::SimTime arrival = 0, core::SimTime departure = 7200) {
  core::VmInstance vm;
  vm.id = core::VmId{id};
  vm.spec.vcpus = vcpus;
  vm.spec.mem_mib = mem;
  vm.spec.level = core::OversubLevel{ratio};
  vm.spec.usage = usage;
  vm.arrival = arrival;
  vm.departure = departure;
  return vm;
}

/// One cold DemandCache sample: the per-host breakdown a first heat tick
/// reads.
std::vector<HostUsage> host_usage(sched::VCluster& cluster, core::SimTime t) {
  DemandCache cache;
  return cache.sample(cluster, t);
}

TEST(UsageSampleTest, EmptyDatacenter) {
  Datacenter dc = Datacenter::shared({32, gib(128)}, sched::make_progress_policy);
  const UsageSample sample = sample_usage(dc, 100.0);
  EXPECT_EQ(sample.opened_hosts, 0U);
  EXPECT_DOUBLE_EQ(sample.demand_cores, 0.0);
}

TEST(UsageSampleTest, DemandMatchesSignals) {
  Datacenter dc = Datacenter::shared({32, gib(128)}, sched::make_progress_policy);
  const core::VmInstance vm =
      make_vm(1, 8, gib(16), 1, core::UsageClass::kSteady);
  dc.deploy(vm.id, vm.spec);
  const core::SimTime t = 500.0;
  const workload::UsageSignal signal(vm.id, vm.spec.usage);
  const UsageSample sample = sample_usage(dc, t);
  EXPECT_EQ(sample.opened_hosts, 1U);
  EXPECT_EQ(sample.alloc_cores, 8U);
  EXPECT_EQ(sample.capacity_cores, 32U);
  EXPECT_NEAR(sample.demand_cores, 8.0 * signal.at(t), 1e-12);
  EXPECT_EQ(sample.overloaded_hosts, 0U);
}

TEST(UsageSampleTest, OverloadDetectedOnOversubscribedHost) {
  // 96 steady vCPUs at 3:1 on a 32-core host: demand ~ 96 * 0.675 >> 32.
  Datacenter dc = Datacenter::shared({32, gib(128)}, sched::make_progress_policy);
  for (std::uint64_t i = 1; i <= 24; ++i) {
    dc.deploy(core::VmId{i}, make_vm(i, 4, gib(2), 3, core::UsageClass::kSteady).spec);
  }
  const UsageSample sample = sample_usage(dc, 1000.0);
  EXPECT_EQ(sample.opened_hosts, 1U);
  EXPECT_GT(sample.demand_cores, 32.0);
  EXPECT_EQ(sample.overloaded_hosts, 1U);
}

TEST(UsageMonitorTest, AggregatesSamples) {
  UsageMonitor monitor(3600.0);
  UsageSample a;
  a.demand_cores = 16.0;
  a.alloc_cores = 32;
  a.capacity_cores = 64;
  monitor.record(a);
  UsageSample b;
  b.demand_cores = 32.0;
  b.alloc_cores = 32;
  b.capacity_cores = 64;
  b.overloaded_hosts = 2;
  monitor.record(b);

  const UsageReport report = monitor.report();
  EXPECT_EQ(report.samples, 2U);
  EXPECT_DOUBLE_EQ(report.avg_fleet_utilization, 0.375);  // (0.25 + 0.5) / 2
  EXPECT_DOUBLE_EQ(report.avg_alloc_heat, 0.75);          // (0.5 + 1.0) / 2
  EXPECT_DOUBLE_EQ(report.overload_host_hours, 2.0);
  EXPECT_DOUBLE_EQ(report.peak_fleet_utilization, 0.5);
}

TEST(UsageMonitorTest, ZeroCapacitySamplesSkipped) {
  UsageMonitor monitor(60.0);
  monitor.record(UsageSample{});
  const UsageReport report = monitor.report();
  EXPECT_EQ(report.samples, 1U);
  EXPECT_DOUBLE_EQ(report.avg_fleet_utilization, 0.0);
  EXPECT_DOUBLE_EQ(report.avg_alloc_heat, 0.0);
}

TEST(UsageMonitorTest, InvalidIntervalRejected) {
  EXPECT_THROW(UsageMonitor{0.0}, core::SlackError);
  EXPECT_THROW(UsageMonitor{-60.0}, core::SlackError);
}

// --- per-host breakdown and the heat EWMA feeder ----------------------------

TEST(HostUsageTest, EmptyAndIdleHostsSampleToZeroDemand) {
  Datacenter dc = Datacenter::shared({32, gib(128)}, sched::make_progress_policy);
  EXPECT_TRUE(host_usage(dc.cluster(0), 100.0).empty());
  dc.deploy(core::VmId{1}, make_vm(1, 4, gib(8), 1, core::UsageClass::kIdle).spec);
  const auto usage = host_usage(dc.cluster(0), 100.0);
  ASSERT_EQ(usage.size(), 1U);
  EXPECT_EQ(usage[0].capacity_cores, 32U);
  EXPECT_LT(usage[0].demand_cores, 0.2);  // idle: 4 vcpus x ~0.01-0.04
  EXPECT_GT(usage[0].demand_cores, 0.0);
}

TEST(HostUsageTest, BreakdownSumsToTheClusterSample) {
  Datacenter dc = Datacenter::shared({32, gib(128)}, sched::make_progress_policy);
  for (std::uint64_t i = 1; i <= 30; ++i) {
    dc.deploy(core::VmId{i},
              make_vm(i, 4, gib(2), 3, core::UsageClass::kSteady).spec);
  }
  const core::SimTime t = 1234.0;
  const UsageSample sample = sample_usage(dc, t);
  const auto usage = host_usage(dc.cluster(0), t);
  ASSERT_EQ(sample.host_q.size(), usage.size());
  double total = 0.0;
  for (std::size_t h = 0; h < usage.size(); ++h) {
    EXPECT_NEAR(sample.host_q[h],
                usage[h].demand_cores /
                    static_cast<double>(usage[h].capacity_cores),
                1e-12);
    total += usage[h].demand_cores;
  }
  EXPECT_NEAR(total, sample.demand_cores, 1e-9);
}

TEST(UsageSampleTest, SumsEachHostInAscendingVmIdOrderBitExactly) {
  // Deploy in a scrambled id order with mixed usage classes and depart a
  // few, so neither arrival order nor any hash order equals id order; the
  // sample must equal a reference that sums every host's VMs by ascending
  // id, compared as exact doubles.
  Datacenter dc = Datacenter::shared({32, gib(128)}, sched::make_progress_policy);
  const core::UsageClass classes[] = {core::UsageClass::kIdle,
                                      core::UsageClass::kSteady,
                                      core::UsageClass::kBursty,
                                      core::UsageClass::kInteractive};
  std::map<std::uint64_t, core::VmSpec> live;
  for (std::uint64_t i = 0; i < 101; ++i) {
    const std::uint64_t id = 1 + (i * 37) % 101;
    const core::VmSpec spec =
        make_vm(id, 1 + static_cast<core::VcpuCount>(id % 7), gib(1),
                static_cast<std::uint8_t>(1 + id % 3), classes[id % 4])
            .spec;
    dc.deploy(core::VmId{id}, spec);
    live.emplace(id, spec);
  }
  for (std::uint64_t id = 5; id <= 101; id += 9) {
    dc.remove(core::VmId{id});
    live.erase(id);
  }
  sched::VCluster& cluster = dc.cluster(0);
  const core::SimTime t = 4321.0;
  std::vector<double> demand(cluster.opened_hosts(), 0.0);
  for (const auto& [id, spec] : live) {  // std::map: ascending ids
    const core::VmId vm{id};
    demand[cluster.host_of(vm)] +=
        static_cast<double>(spec.vcpus) * workload::UsageSignal(vm, spec.usage).at(t);
  }
  const UsageSample sample = sample_usage(dc, t);
  ASSERT_EQ(sample.host_q.size(), demand.size());
  double total = 0.0;
  for (std::size_t h = 0; h < demand.size(); ++h) {
    EXPECT_EQ(sample.host_q[h], demand[h] / 32.0) << h;
    total += demand[h];
  }
  EXPECT_EQ(sample.demand_cores, total);
  const auto usage = host_usage(cluster, t);
  for (std::size_t h = 0; h < demand.size(); ++h) {
    EXPECT_EQ(usage[h].demand_cores, demand[h]) << h;
  }
}

TEST(HostUsageTest, HeatEwmaMatchesHandComputedReference) {
  Datacenter dc = Datacenter::shared({32, gib(128)}, sched::make_progress_policy);
  const core::VmInstance vm =
      make_vm(1, 8, gib(16), 1, core::UsageClass::kSteady);
  dc.deploy(vm.id, vm.spec);
  sched::VCluster& cl = dc.cluster(0);
  const double alpha = 0.25;
  const double bucket = 0.25;
  double expected = 0.0;
  for (const core::SimTime t : {900.0, 1800.0, 2700.0, 3600.0}) {
    EXPECT_EQ(update_cluster_heat(cl, t, alpha, bucket), 1U);
    const double q =
        8.0 * workload::UsageSignal(vm.id, vm.spec.usage).at(t) / 32.0;
    expected = alpha * q + (1.0 - alpha) * expected;
    EXPECT_DOUBLE_EQ(cl.host_heat(0), expected);
  }
  // The EWMA decays toward zero once the host empties.
  dc.remove(vm.id);
  const double before = cl.host_heat(0);
  EXPECT_EQ(update_cluster_heat(cl, 4500.0, alpha, bucket), 1U);
  EXPECT_DOUBLE_EQ(cl.host_heat(0), (1.0 - alpha) * before);
}

TEST(UsageMonitorTest, TrackedInflationReportsP90OfHostSamples) {
  // 10 host-samples with q = 0.1 .. 1.0: the p90 must sit at the top of
  // the distribution (this is a regression test for the percentile scale —
  // core::percentile takes q in [0, 100], not [0, 1]).
  const perf::ContentionModel model;
  UsageMonitor monitor(60.0);
  monitor.track_inflation(&model);
  UsageSample sample;
  sample.capacity_cores = 32;
  for (int i = 1; i <= 10; ++i) {
    sample.host_q.push_back(0.1 * i);
  }
  monitor.record(sample);
  const UsageReport report = monitor.report();
  EXPECT_EQ(report.inflation_samples, 10U);
  EXPECT_GT(report.p90_inflation, model.contention_inflation(0.8));
  EXPECT_LE(report.p90_inflation, model.contention_inflation(1.0));
  // Disarmed monitors keep the report inflation-free.
  UsageMonitor plain(60.0);
  plain.record(sample);
  EXPECT_EQ(plain.report().inflation_samples, 0U);
  EXPECT_DOUBLE_EQ(plain.report().p90_inflation, 0.0);
}

TEST(UsageMonitorTest, ReplayIntegration) {
  const workload::Trace trace =
      workload::Generator(workload::azure_catalog(), workload::distribution('E'),
                          {.target_population = 60,
                           .horizon = 2.0 * 24 * 3600,
                           .mean_lifetime = 1.0 * 24 * 3600,
                           .seed = 7})
          .generate();
  Datacenter dc = Datacenter::shared({32, gib(128)}, sched::make_progress_policy);
  UsageMonitor monitor(3600.0);
  (void)replay(dc, trace, std::nullopt, &monitor);
  const UsageReport report = monitor.report();
  EXPECT_GT(report.samples, 40U);  // ~48 hourly samples
  EXPECT_GT(report.avg_fleet_utilization, 0.05);
  EXPECT_LT(report.avg_fleet_utilization, 1.0);
  // Allocated cores run hotter than the fleet average (oversubscription).
  EXPECT_GT(report.avg_alloc_heat, report.avg_fleet_utilization);
}

TEST(UsageMonitorTest, SlackVmRaisesFleetUtilization) {
  const workload::Trace trace =
      workload::Generator(workload::ovhcloud_catalog(), workload::distribution('F'),
                          {.target_population = 150,
                           .horizon = 3.0 * 24 * 3600,
                           .mean_lifetime = 1.5 * 24 * 3600,
                           .seed = 21})
          .generate();
  Datacenter dedicated = Datacenter::dedicated(
      {32, gib(128)}, {core::OversubLevel{1}, core::OversubLevel{3}},
      sched::make_first_fit);
  UsageMonitor base_monitor(3600.0);
  (void)replay(dedicated, trace, std::nullopt, &base_monitor);

  Datacenter shared = Datacenter::shared({32, gib(128)}, sched::make_progress_policy);
  UsageMonitor slack_monitor(3600.0);
  (void)replay(shared, trace, std::nullopt, &slack_monitor);

  EXPECT_GE(slack_monitor.report().avg_fleet_utilization,
            base_monitor.report().avg_fleet_utilization);
}

}  // namespace
}  // namespace slackvm::sim
