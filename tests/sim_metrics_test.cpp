// Property/invariant tests for MetricsCollector beyond the happy paths the
// replay-level suites exercise: time-weighted shares stay inside [0, 1]
// under randomized observation streams, peaks dominate every observation,
// and finish() is idempotent.
#include "sim/metrics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/rng.hpp"
#include "core/units.hpp"
#include "expect_identical.hpp"

namespace slackvm::sim {
namespace {

using core::gib;

/// Randomized but reproducible cluster walk: `steps` observations of a
/// fleet of up to `max_pms` 32c/128GiB PMs at non-decreasing times.
/// Returns the collector plus the maxima fed into it.
struct Walk {
  MetricsCollector collector;
  std::size_t max_running_vms = 0;
  std::size_t max_active_pms = 0;
  core::SimTime end_time = 0.0;
};

Walk random_walk(std::uint64_t seed, int steps, std::size_t max_pms = 40) {
  core::SplitMix64 rng(seed);
  Walk walk;
  core::SimTime time = 0.0;
  for (int i = 0; i < steps; ++i) {
    time += rng.exponential(600.0);
    const std::size_t pms = 1 + rng.below(max_pms);
    const core::Resources config{static_cast<core::CoreCount>(32 * pms),
                                 static_cast<core::MemMib>(pms) * gib(128)};
    // Allocation never exceeds the configured capacity.
    const auto cores = static_cast<core::CoreCount>(rng.below(config.cores + 1));
    const auto mem = static_cast<core::MemMib>(
        rng.below(static_cast<std::uint64_t>(config.mem_mib) + 1));
    const std::size_t running = rng.below(12 * pms);
    const std::size_t active = 1 + rng.below(pms);
    walk.collector.observe(time, {cores, mem}, config, running, active);
    walk.max_running_vms = std::max(walk.max_running_vms, running);
    walk.max_active_pms = std::max(walk.max_active_pms, active);
  }
  walk.end_time = time + 1.0;
  return walk;
}

TEST(MetricsCollectorProperty, TimeWeightedSharesBoundedInUnitInterval) {
  for (std::uint64_t seed : {1ULL, 7ULL, 42ULL, 1234ULL}) {
    Walk walk = random_walk(seed, 500);
    RunResult result;
    walk.collector.finish(walk.end_time, result);
    SCOPED_TRACE("seed " + std::to_string(seed));
    EXPECT_GE(result.avg_unalloc_cpu_share, 0.0);
    EXPECT_LE(result.avg_unalloc_cpu_share, 1.0);
    EXPECT_GE(result.avg_unalloc_mem_share, 0.0);
    EXPECT_LE(result.avg_unalloc_mem_share, 1.0);
    EXPECT_GE(result.peak_unalloc_cpu_share, 0.0);
    EXPECT_LE(result.peak_unalloc_cpu_share, 1.0);
    EXPECT_GE(result.peak_unalloc_mem_share, 0.0);
    EXPECT_LE(result.peak_unalloc_mem_share, 1.0);
  }
}

TEST(MetricsCollectorProperty, PeakVmsDominatesEveryObservation) {
  for (std::uint64_t seed : {3ULL, 99ULL}) {
    Walk walk = random_walk(seed, 300);
    RunResult result;
    walk.collector.finish(walk.end_time, result);
    EXPECT_EQ(result.peak_vms, walk.max_running_vms) << "seed " << seed;
  }
}

TEST(MetricsCollectorProperty, AveragesBoundedByObservedMaxima) {
  Walk walk = random_walk(11, 400);
  RunResult result;
  walk.collector.finish(walk.end_time, result);
  EXPECT_GE(result.avg_active_pms, 0.0);
  EXPECT_LE(result.avg_active_pms, static_cast<double>(walk.max_active_pms));
  EXPECT_GE(result.avg_alloc_cores, 0.0);
}

TEST(MetricsCollectorProperty, FinishIsIdempotent) {
  Walk walk = random_walk(21, 200);
  RunResult first;
  walk.collector.finish(walk.end_time, first);
  RunResult second;
  walk.collector.finish(walk.end_time, second);
  expect_identical(first, second);
}

TEST(MetricsCollectorProperty, NoObservationsFinishToZero) {
  const MetricsCollector collector;
  RunResult result;
  collector.finish(0.0, result);
  EXPECT_EQ(result.peak_vms, 0U);
  EXPECT_DOUBLE_EQ(result.avg_unalloc_cpu_share, 0.0);
  EXPECT_DOUBLE_EQ(result.avg_unalloc_mem_share, 0.0);
  EXPECT_DOUBLE_EQ(result.avg_active_pms, 0.0);
}

TEST(MetricsCollectorProperty, FullyAllocatedClusterHasZeroUnallocShare) {
  MetricsCollector collector;
  const core::Resources config{32, gib(128)};
  collector.observe(10.0, config, config, 8, 1);
  collector.observe(20.0, config, config, 8, 1);
  RunResult result;
  collector.finish(30.0, result);
  EXPECT_DOUBLE_EQ(result.avg_unalloc_cpu_share, 0.0);
  EXPECT_DOUBLE_EQ(result.avg_unalloc_mem_share, 0.0);
  EXPECT_DOUBLE_EQ(result.peak_unalloc_cpu_share, 0.0);
  EXPECT_DOUBLE_EQ(result.peak_unalloc_mem_share, 0.0);
}

// --- counter identities ------------------------------------------------------

/// Balanced counters: 5 = 2 + 1 + 2 victims, 6 = 1 + 1 + 1 + 1 + 2
/// intents, 3 = 1 + 1 + 1 evictions.
RunResult balanced_counters() {
  RunResult r;
  r.evacuated_vms = 5;
  r.evac_replaced = 2;
  r.evac_departed = 1;
  r.degraded_vms = 2;
  r.evac_migrated = 7;  // not part of any identity
  r.mig_planned = 6;
  r.mig_committed = 1;
  r.mig_cancelled = 1;
  r.mig_rolled_back = 1;
  r.mig_timed_out = 1;
  r.mig_degraded = 2;
  r.mig_retries = 9;  // not part of any identity
  r.itf_evictions = 3;
  r.itf_applied = 1;
  r.itf_requested = 1;
  r.itf_skipped = 1;
  return r;
}

TEST(CounterIdentities, BalancedCountersHaveNoViolations) {
  EXPECT_TRUE(counter_identity_violations(RunResult{}).empty());
  EXPECT_TRUE(counter_identity_violations(balanced_counters()).empty());
}

TEST(CounterIdentities, EachBrokenIdentityIsReportedByName) {
  RunResult evac = balanced_counters();
  ++evac.evacuated_vms;
  EXPECT_EQ(counter_identity_violations(evac),
            std::vector<std::string>{
                "evacuated_vms == evac_replaced + evac_departed + degraded_vms: 6 != 5"});

  RunResult mig = balanced_counters();
  ++mig.mig_committed;
  EXPECT_EQ(counter_identity_violations(mig),
            std::vector<std::string>{"mig_planned == mig_committed + mig_cancelled + "
                                     "mig_rolled_back + mig_timed_out + mig_degraded: 6 != 7"});

  RunResult itf = balanced_counters();
  itf.itf_skipped = 0;
  EXPECT_EQ(counter_identity_violations(itf),
            std::vector<std::string>{
                "itf_evictions == itf_applied + itf_requested + itf_skipped: 3 != 2"});

  RunResult all = balanced_counters();
  all.degraded_vms = 0;
  all.mig_planned = 0;
  all.itf_evictions = 0;
  const std::vector<std::string> violations = counter_identity_violations(all);
  ASSERT_EQ(violations.size(), 3U);
  EXPECT_EQ(violations[0].rfind("evacuated_vms == ", 0), 0U);
  EXPECT_EQ(violations[1].rfind("mig_planned == ", 0), 0U);
  EXPECT_EQ(violations[2].rfind("itf_evictions == ", 0), 0U);
}

}  // namespace
}  // namespace slackvm::sim
