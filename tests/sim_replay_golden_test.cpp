// Golden pins for sim::replay: every RunResult field (and, where a usage
// monitor rides along, the UsageReport) of a fixed set of small replays,
// recorded bit-exactly. Doubles are pinned as hexadecimal floating point,
// so any change in the event schedule, the tie order or the floating-point
// sequence of the metric collector shows up here. Each case runs with the
// placement index on and off, against the same pin.
//
// The cases cover what the perfbench digests do not: both cluster
// organisations, instant rebalancing with and without the interference
// loop, engine rebalancing with and without faults and interference, usage
// sampling, and a trace whose rows arrive exactly on control ticks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "perf/contention.hpp"
#include "sched/policy.hpp"
#include "sim/fault.hpp"
#include "sim/replay.hpp"
#include "sim/usage_monitor.hpp"
#include "workload/catalog.hpp"
#include "workload/generator.hpp"
#include "workload/level_mix.hpp"

namespace slackvm::sim {
namespace {

using core::gib;

const core::Resources kWorker{32, gib(128)};

void add(std::string& out, const char* name, std::size_t value) {
  out += name;
  out += ' ';
  out += std::to_string(value);
  out += '\n';
}

void add(std::string& out, const char* name, double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%s %a\n", name, value);
  out += buf;
}

void add(std::string& out, const char* name,
         const std::map<std::string, std::size_t>& per_key) {
  for (const auto& [key, value] : per_key) {
    add(out, (std::string(name) + '.' + key).c_str(), value);
  }
}

std::string describe(const RunResult& r) {
  std::string out;
  RunResult::for_each_field(
      [&out, &r](const char* name, auto field) { add(out, name, r.*field); });
  return out;
}

std::string describe(const UsageReport& u) {
  std::string out;
  add(out, "usage.samples", u.samples);
  add(out, "usage.avg_fleet_utilization", u.avg_fleet_utilization);
  add(out, "usage.avg_alloc_heat", u.avg_alloc_heat);
  add(out, "usage.overload_host_hours", u.overload_host_hours);
  add(out, "usage.peak_fleet_utilization", u.peak_fleet_utilization);
  add(out, "usage.p90_inflation", u.p90_inflation);
  add(out, "usage.inflation_samples", u.inflation_samples);
  return out;
}

workload::Trace make_trace(std::size_t population, std::uint64_t seed) {
  workload::GeneratorConfig cfg;
  cfg.target_population = population;
  cfg.horizon = 2.0 * 24 * 3600;
  cfg.mean_lifetime = 1.0 * 24 * 3600;
  cfg.seed = seed;
  return workload::Generator(workload::azure_catalog(), workload::make_mix(10, 30, 60),
                             cfg)
      .generate();
}

enum class Org { kShared, kDedicated };

RebalanceOptions instant_rebalance() {
  RebalanceOptions reb;
  reb.interval = 2.0 * 3600;
  reb.budget_per_pass = 16;
  return reb;
}

RebalanceOptions engine_rebalance() {
  RebalanceOptions reb = instant_rebalance();
  reb.migration.enabled = true;
  reb.migration.bandwidth_mibps = 64.0;
  reb.migration.max_retries = 2;
  reb.migration.backoff_base = 300.0;
  return reb;
}

RebalanceOptions with_interference(RebalanceOptions reb) {
  reb.interference.enabled = true;
  reb.interference.heat_interval = 1800.0;
  reb.interference.heat_alpha = 0.5;
  reb.interference.threshold = 1.02;  // keeps the polluter pass firing
  return reb;
}

FaultConfig make_faults() {
  FaultConfig faults;
  faults.count = 40;
  faults.seed = 777;
  faults.repair_delay = 3600.0;
  return faults;
}

struct GoldenCase {
  Org org = Org::kShared;
  std::optional<RebalanceOptions> rebalance;
  bool faults = false;
  bool usage = false;
  /// Round every arrival and departure to whole hours, so rows arrive
  /// exactly on control ticks and time ties between workload and control
  /// events decide the order.
  bool hour_aligned = false;
};

workload::Trace align_to_hours(const workload::Trace& trace) {
  constexpr core::SimTime kHour = 3600.0;
  std::vector<core::VmInstance> vms = trace.vms();
  for (core::VmInstance& vm : vms) {
    vm.arrival = std::floor(vm.arrival / kHour) * kHour;
    vm.departure = std::max(std::floor(vm.departure / kHour) * kHour, vm.arrival + kHour);
  }
  return workload::Trace(std::move(vms));
}

// Runs one case and returns its description; the usage report is appended
// when a monitor is attached.
std::string run_case(const GoldenCase& c, bool index) {
  const workload::Trace generated = make_trace(120, 42);
  const workload::Trace trace = c.hour_aligned ? align_to_hours(generated) : generated;
  const bool itf = c.rebalance.has_value() && c.rebalance->interference.enabled;
  const auto shared_policy = [itf]() {
    return itf ? sched::make_interference_policy(4.0) : sched::make_progress_policy();
  };
  const std::vector<core::OversubLevel> levels = {
      core::OversubLevel{1}, core::OversubLevel{2}, core::OversubLevel{3}};
  Datacenter dc = c.org == Org::kShared
                      ? Datacenter::shared(kWorker, shared_policy)
                      : Datacenter::dedicated(kWorker, levels, sched::make_first_fit);
  dc.set_index_enabled(index);
  const FaultConfig faults = make_faults();
  const perf::ContentionModel contention;
  UsageMonitor monitor(3600.0);
  monitor.track_inflation(&contention);
  const RunResult result = replay(dc, trace, c.rebalance, c.usage ? &monitor : nullptr,
                                  c.faults ? &faults : nullptr);
  std::string out = describe(result);
  if (c.usage) {
    out += describe(monitor.report());
  }
  return out;
}

void expect_golden(const GoldenCase& c, const std::string& golden) {
  for (const bool index : {true, false}) {
    SCOPED_TRACE(index ? "index on" : "index off");
    EXPECT_EQ(run_case(c, index), golden);
  }
}

TEST(ReplayGolden, SharedPlain) {
  expect_golden({Org::kShared, std::nullopt, false, false, false},
                R"(opened_pms 4
peak_active_pms 4
migrations 0
opened_per_cluster.slackvm-shared 4
placed_vms 227
peak_vms 103
avg_unalloc_cpu_share 0x1.177e14c37d78fp-2
avg_unalloc_mem_share 0x1.af842e3513bcep-2
peak_unalloc_cpu_share 0x1.4p-3
peak_unalloc_mem_share 0x1.06p-2
duration 0x1.518p+17
avg_active_pms 0x1.40aaaedd396e6p+1
avg_alloc_cores 0x1.e607f560a05fdp+5
host_failures 0
host_repairs 0
drained_hosts 0
evacuated_vms 0
evac_replaced 0
evac_migrated 0
evac_retries 0
evac_departed 0
degraded_vms 0
deferred_arrivals 0
arrivals_dropped 0
mig_planned 0
mig_committed 0
mig_cancelled 0
mig_rolled_back 0
mig_timed_out 0
mig_degraded 0
mig_retries 0
heat_updates 0
itf_passes 0
itf_hot_hosts 0
itf_evictions 0
itf_applied 0
itf_requested 0
itf_skipped 0
)");
}

TEST(ReplayGolden, DedicatedPlain) {
  expect_golden({Org::kDedicated, std::nullopt, false, false, false},
                R"(opened_pms 5
peak_active_pms 5
migrations 0
opened_per_cluster.dedicated-1:1 2
opened_per_cluster.dedicated-2:1 1
opened_per_cluster.dedicated-3:1 2
placed_vms 227
peak_vms 103
avg_unalloc_cpu_share 0x1.05fe4489ff412p-1
avg_unalloc_mem_share 0x1.37258348e6467p-1
peak_unalloc_cpu_share 0x1.4666666666666p-2
peak_unalloc_mem_share 0x1.98p-2
duration 0x1.518p+17
avg_active_pms 0x1.d5f0ee606d9d9p+1
avg_alloc_cores 0x1.e6437a9b5caa9p+5
host_failures 0
host_repairs 0
drained_hosts 0
evacuated_vms 0
evac_replaced 0
evac_migrated 0
evac_retries 0
evac_departed 0
degraded_vms 0
deferred_arrivals 0
arrivals_dropped 0
mig_planned 0
mig_committed 0
mig_cancelled 0
mig_rolled_back 0
mig_timed_out 0
mig_degraded 0
mig_retries 0
heat_updates 0
itf_passes 0
itf_hot_hosts 0
itf_evictions 0
itf_applied 0
itf_requested 0
itf_skipped 0
)");
}

TEST(ReplayGolden, SharedInstantRebalance) {
  expect_golden({Org::kShared, instant_rebalance(), false, false, false},
                R"(opened_pms 4
peak_active_pms 4
migrations 16
opened_per_cluster.slackvm-shared 4
placed_vms 227
peak_vms 103
avg_unalloc_cpu_share 0x1.1802c0ab843e4p-2
avg_unalloc_mem_share 0x1.af842e3513bcep-2
peak_unalloc_cpu_share 0x1.4p-3
peak_unalloc_mem_share 0x1.fcp-3
duration 0x1.518p+17
avg_active_pms 0x1.3feccfe2298b8p+1
avg_alloc_cores 0x1.e58ef04831ebep+5
host_failures 0
host_repairs 0
drained_hosts 0
evacuated_vms 0
evac_replaced 0
evac_migrated 0
evac_retries 0
evac_departed 0
degraded_vms 0
deferred_arrivals 0
arrivals_dropped 0
mig_planned 0
mig_committed 0
mig_cancelled 0
mig_rolled_back 0
mig_timed_out 0
mig_degraded 0
mig_retries 0
heat_updates 0
itf_passes 0
itf_hot_hosts 0
itf_evictions 0
itf_applied 0
itf_requested 0
itf_skipped 0
)");
}

TEST(ReplayGolden, DedicatedInstantRebalance) {
  expect_golden({Org::kDedicated, instant_rebalance(), false, false, false},
                R"(opened_pms 5
peak_active_pms 5
migrations 1
opened_per_cluster.dedicated-1:1 2
opened_per_cluster.dedicated-2:1 1
opened_per_cluster.dedicated-3:1 2
placed_vms 227
peak_vms 103
avg_unalloc_cpu_share 0x1.06567af99ff37p-1
avg_unalloc_mem_share 0x1.37258348e6467p-1
peak_unalloc_cpu_share 0x1.4666666666666p-2
peak_unalloc_mem_share 0x1.98p-2
duration 0x1.518p+17
avg_active_pms 0x1.bfdc64360a007p+1
avg_alloc_cores 0x1.e590f4f677a83p+5
host_failures 0
host_repairs 0
drained_hosts 0
evacuated_vms 0
evac_replaced 0
evac_migrated 0
evac_retries 0
evac_departed 0
degraded_vms 0
deferred_arrivals 0
arrivals_dropped 0
mig_planned 0
mig_committed 0
mig_cancelled 0
mig_rolled_back 0
mig_timed_out 0
mig_degraded 0
mig_retries 0
heat_updates 0
itf_passes 0
itf_hot_hosts 0
itf_evictions 0
itf_applied 0
itf_requested 0
itf_skipped 0
)");
}

TEST(ReplayGolden, SharedInstantInterference) {
  expect_golden(
      {Org::kShared, with_interference(instant_rebalance()), false, false, false},
      R"(opened_pms 5
peak_active_pms 5
migrations 62
opened_per_cluster.slackvm-shared 5
placed_vms 227
peak_vms 103
avg_unalloc_cpu_share 0x1.53646c8098de5p-2
avg_unalloc_mem_share 0x1.e6cce35fc257ep-2
peak_unalloc_cpu_share 0x1.399999999999ap-2
peak_unalloc_mem_share 0x1.9666666666666p-2
duration 0x1.518p+17
avg_active_pms 0x1.6a26da26d43d3p+1
avg_alloc_cores 0x1.e9a1dd3253b19p+5
host_failures 0
host_repairs 0
drained_hosts 0
evacuated_vms 0
evac_replaced 0
evac_migrated 0
evac_retries 0
evac_departed 0
degraded_vms 0
deferred_arrivals 0
arrivals_dropped 0
mig_planned 0
mig_committed 0
mig_cancelled 0
mig_rolled_back 0
mig_timed_out 0
mig_degraded 0
mig_retries 0
heat_updates 269
itf_passes 23
itf_hot_hosts 56
itf_evictions 43
itf_applied 43
itf_requested 0
itf_skipped 0
)");
}

TEST(ReplayGolden, SharedEngineRebalance) {
  expect_golden({Org::kShared, engine_rebalance(), false, false, false},
                R"(opened_pms 4
peak_active_pms 4
migrations 16
opened_per_cluster.slackvm-shared 4
placed_vms 227
peak_vms 103
avg_unalloc_cpu_share 0x1.179ce57a8328ep-2
avg_unalloc_mem_share 0x1.af7ddadbda5a8p-2
peak_unalloc_cpu_share 0x1.4p-3
peak_unalloc_mem_share 0x1.06p-2
duration 0x1.518p+17
avg_active_pms 0x1.40aaaedd396e8p+1
avg_alloc_cores 0x1.e5e72270a3693p+5
host_failures 0
host_repairs 0
drained_hosts 0
evacuated_vms 0
evac_replaced 0
evac_migrated 0
evac_retries 0
evac_departed 0
degraded_vms 0
deferred_arrivals 0
arrivals_dropped 0
mig_planned 16
mig_committed 16
mig_cancelled 0
mig_rolled_back 0
mig_timed_out 0
mig_degraded 0
mig_retries 0
heat_updates 0
itf_passes 0
itf_hot_hosts 0
itf_evictions 0
itf_applied 0
itf_requested 0
itf_skipped 0
)");
}

TEST(ReplayGolden, DedicatedEngineFaultsInterference) {
  expect_golden(
      {Org::kDedicated, with_interference(engine_rebalance()), true, true, false},
      R"(opened_pms 11
peak_active_pms 8
migrations 252
opened_per_cluster.dedicated-1:1 3
opened_per_cluster.dedicated-2:1 4
opened_per_cluster.dedicated-3:1 4
placed_vms 227
peak_vms 103
avg_unalloc_cpu_share 0x1.8959d4b2487ccp-1
avg_unalloc_mem_share 0x1.a0a7bed8ce874p-1
peak_unalloc_cpu_share 0x1.24ccccccccccdp-1
peak_unalloc_mem_share 0x1.379999999999ap-1
duration 0x1.536a0a31780e1p+17
avg_active_pms 0x1.2f492b5cda184p+2
avg_alloc_cores 0x1.eaa0398f2314fp+5
host_failures 39
host_repairs 39
drained_hosts 0
evacuated_vms 344
evac_replaced 344
evac_migrated 0
evac_retries 0
evac_departed 0
degraded_vms 0
deferred_arrivals 0
arrivals_dropped 0
mig_planned 256
mig_committed 252
mig_cancelled 2
mig_rolled_back 0
mig_timed_out 0
mig_degraded 2
mig_retries 11
heat_updates 734
itf_passes 69
itf_hot_hosts 28
itf_evictions 26
itf_applied 0
itf_requested 26
itf_skipped 0
usage.samples 48
usage.avg_fleet_utilization 0x1.f68899a1831ddp-3
usage.avg_alloc_heat 0x1.0c9c2995f7bc6p+0
usage.overload_host_hours 0x1p+5
usage.peak_fleet_utilization 0x1.7494cb34fe4b6p-2
usage.p90_inflation 0x1.095e7c9f37757p+0
usage.inflation_samples 371
)");
}

TEST(ReplayGolden, SharedUsageMonitorWithFaults) {
  expect_golden({Org::kShared, std::nullopt, true, true, false},
                R"(opened_pms 6
peak_active_pms 4
migrations 0
opened_per_cluster.slackvm-shared 6
placed_vms 227
peak_vms 103
avg_unalloc_cpu_share 0x1.33a0e682f58bcp-1
avg_unalloc_mem_share 0x1.5b46d5725e208p-1
peak_unalloc_cpu_share 0x1.4666666666666p-2
peak_unalloc_mem_share 0x1.9e66666666666p-2
duration 0x1.536a0a31780e1p+17
avg_active_pms 0x1.3c429119a27f3p+1
avg_alloc_cores 0x1.e56185e109dffp+5
host_failures 35
host_repairs 35
drained_hosts 0
evacuated_vms 581
evac_replaced 581
evac_migrated 0
evac_retries 0
evac_departed 0
degraded_vms 0
deferred_arrivals 0
arrivals_dropped 0
mig_planned 0
mig_committed 0
mig_cancelled 0
mig_rolled_back 0
mig_timed_out 0
mig_degraded 0
mig_retries 0
heat_updates 0
itf_passes 0
itf_hot_hosts 0
itf_evictions 0
itf_applied 0
itf_requested 0
itf_skipped 0
usage.samples 48
usage.avg_fleet_utilization 0x1.b2e5a9a9927acp-2
usage.avg_alloc_heat 0x1.0cfc8e9b3f97fp+0
usage.overload_host_hours 0x1.98p+5
usage.peak_fleet_utilization 0x1.4f52b6e2e4dd9p-1
usage.p90_inflation 0x1.129d027907a0fp+0
usage.inflation_samples 215
)");
}

TEST(ReplayGolden, HourAlignedSharedInterferenceFaultsUsage) {
  expect_golden({Org::kShared, with_interference(instant_rebalance()), true, true, true},
                R"(opened_pms 6
peak_active_pms 5
migrations 135
opened_per_cluster.slackvm-shared 6
placed_vms 227
peak_vms 103
avg_unalloc_cpu_share 0x1.1cdabcfdd02fep-1
avg_unalloc_mem_share 0x1.4af502ceee0a3p-1
peak_unalloc_cpu_share 0x1.b555555555555p-2
peak_unalloc_mem_share 0x1.feaaaaaaaaaabp-2
duration 0x1.536a0a31780e1p+17
avg_active_pms 0x1.525eb7b6c5036p+1
avg_alloc_cores 0x1.ef066977e3db4p+5
host_failures 34
host_repairs 34
drained_hosts 0
evacuated_vms 539
evac_replaced 539
evac_migrated 0
evac_retries 0
evac_departed 0
degraded_vms 0
deferred_arrivals 0
arrivals_dropped 0
mig_planned 0
mig_committed 0
mig_cancelled 0
mig_rolled_back 0
mig_timed_out 0
mig_degraded 0
mig_retries 0
heat_updates 393
itf_passes 23
itf_hot_hosts 45
itf_evictions 42
itf_applied 42
itf_requested 0
itf_skipped 0
usage.samples 48
usage.avg_fleet_utilization 0x1.e3869b682ce18p-2
usage.avg_alloc_heat 0x1.0dd3adda565b3p+0
usage.overload_host_hours 0x1.9p+4
usage.peak_fleet_utilization 0x1.6565f9472b08cp-1
usage.p90_inflation 0x1.108e8ac5240f2p+0
usage.inflation_samples 198
)");
}

}  // namespace
}  // namespace slackvm::sim
