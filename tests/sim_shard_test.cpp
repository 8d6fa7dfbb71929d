// Differential shard test suite: the replay loop (sim/shard.hpp) must be
// bit-identical to itself at every thread count, across the full
// {shards} x {index on/off} x {faults on/off} matrix, with the invariant
// audits enabled so every event re-validates the datacenter and its SoA
// arena mirror. Also pins the documented cross-shard merge order.
#include "sim/shard.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/error.hpp"
#include "expect_identical.hpp"
#include "sched/policy.hpp"
#include "sim/audit.hpp"
#include "sim/event_queue.hpp"
#include "sim/experiment.hpp"
#include "sim/fault.hpp"
#include "sim/replay.hpp"
#include "sim/usage_monitor.hpp"
#include "workload/catalog.hpp"
#include "workload/generator.hpp"
#include "workload/level_mix.hpp"

namespace slackvm::sim {
namespace {

using core::gib;

constexpr std::size_t kShardCounts[] = {1, 2, 8};
constexpr std::size_t kThreadCounts[] = {1, 2, 8};

const core::Resources kWorker{32, gib(128)};

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

Datacenter make_dc(std::size_t shards, bool index) {
  Datacenter dc = Datacenter::shared_sharded(kWorker, sched::make_progress_policy,
                                             shards, 1.0);
  dc.set_index_enabled(index);
  return dc;
}

FaultConfig make_faults() {
  FaultConfig faults;
  faults.count = 40;
  faults.seed = 777;
  faults.repair_delay = 3600.0;
  return faults;
}

// --- the differential matrix -----------------------------------------------
//
// For every cell of shards {1,2,8} x index {on,off} x faults {on,off}: the
// reference is the sharded engine run serially (threads = 1); every other
// thread count must reproduce it bit-for-bit, with per-event shard-local
// audits and full-datacenter barrier audits throwing on any invariant or
// arena-mirror violation.
TEST(ShardDifferential, ShardedMatchesItselfAtEveryThreadCount) {
  ScopedDebugAudit audit_every_event;
  const workload::Trace trace = make_trace(120, 42);
  const FaultConfig faults = make_faults();
  for (const std::size_t shards : kShardCounts) {
    for (const bool index : {true, false}) {
      for (const bool inject : {false, true}) {
        ShardOptions options;
        options.shards = shards;
        options.faults = inject ? &faults : nullptr;
        Datacenter reference_dc = make_dc(shards, index);
        const RunResult reference = replay_sharded(reference_dc, trace, options);
        if (inject) {
          EXPECT_GT(reference.host_failures, 0U);
        }
        for (const std::size_t threads : kThreadCounts) {
          options.threads = threads;
          Datacenter dc = make_dc(shards, index);
          const RunResult result = replay_sharded(dc, trace, options);
          SCOPED_TRACE("shards " + std::to_string(shards) + " index " +
                       std::to_string(index) + " faults " + std::to_string(inject) +
                       " threads " + std::to_string(threads));
          expect_identical(reference, result);
        }
      }
    }
  }
}

// Usage samples read the whole datacenter, so only one shard may take
// them: a monitor with S > 1 is refused up-front, while S == 1 samples.
TEST(ShardDifferential, UsageMonitorNeedsOneShard) {
  const workload::Trace trace = make_trace(40, 3);
  UsageMonitor monitor(3600.0);
  ShardOptions options;
  options.usage_monitor = &monitor;
  options.shards = 2;
  Datacenter sharded_dc = make_dc(2, true);
  try {
    (void)replay_sharded(sharded_dc, trace, options);
    FAIL() << "expected SlackError";
  } catch (const core::SlackError& e) {
    EXPECT_NE(std::string(e.what()).find("usage sampling"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(monitor.report().samples, 0U);

  options.shards = 1;
  Datacenter dc = make_dc(1, true);
  (void)replay_sharded(dc, trace, options);
  EXPECT_GT(monitor.report().samples, 0U);
}

// Rebalancing flows through the sharded engine too, and stays identical
// across thread counts (each shard consolidates only its own clusters).
TEST(ShardDifferential, RebalanceIsDeterministicAcrossThreads) {
  ScopedDebugAudit audit_every_event;
  const workload::Trace trace = make_trace(100, 11);
  ShardOptions options;
  options.shards = 4;
  options.rebalance = RebalanceOptions{6.0 * 3600, 16};
  Datacenter reference_dc = make_dc(4, true);
  const RunResult reference = replay_sharded(reference_dc, trace, options);
  for (const std::size_t threads : kThreadCounts) {
    options.threads = threads;
    Datacenter dc = make_dc(4, true);
    const RunResult result = replay_sharded(dc, trace, options);
    SCOPED_TRACE("threads " + std::to_string(threads));
    expect_identical(reference, result);
  }
}

// Barrier count only batches work, never reorders it: any window split must
// reproduce the default bit-for-bit.
TEST(ShardDifferential, BarrierCountNeverChangesResults) {
  ScopedDebugAudit audit_every_event;
  const workload::Trace trace = make_trace(80, 3);
  const FaultConfig faults = make_faults();
  ShardOptions options;
  options.shards = 8;
  options.threads = 2;
  options.faults = &faults;
  Datacenter reference_dc = make_dc(8, true);
  const RunResult reference = replay_sharded(reference_dc, trace, options);
  for (const std::size_t barriers : {std::size_t{1}, std::size_t{3}, std::size_t{32}}) {
    options.barriers = barriers;
    Datacenter dc = make_dc(8, true);
    const RunResult result = replay_sharded(dc, trace, options);
    SCOPED_TRACE("barriers " + std::to_string(barriers));
    expect_identical(reference, result);
  }
}

// The barrier watchdog is pure observation: a tiny non-fatal timeout fires
// progress dumps on slow windows (stderr noise only) and must never change
// the replay — bit-identical to the undogged reference, faults and all.
TEST(ShardDifferential, NonFatalWatchdogNeverChangesResults) {
  ScopedDebugAudit audit_every_event;
  const workload::Trace trace = make_trace(100, 9);
  const FaultConfig faults = make_faults();
  ShardOptions options;
  options.shards = 4;
  options.threads = 4;
  options.faults = &faults;
  Datacenter reference_dc = make_dc(4, true);
  const RunResult reference = replay_sharded(reference_dc, trace, options);
  options.watchdog_ms = 1;  // virtually every barrier wait trips the dump
  options.watchdog_fatal = false;
  Datacenter dc = make_dc(4, true);
  expect_identical(reference, replay_sharded(dc, trace, options));
}

// More shards than clusters: the excess shards own nothing and the run is
// still identical across thread counts.
TEST(ShardDifferential, MoreShardsThanClustersIsHarmless) {
  ScopedDebugAudit audit_every_event;
  const workload::Trace trace = make_trace(60, 5);
  ShardOptions options;
  options.shards = 8;
  Datacenter reference_dc = make_dc(2, true);  // 2 clusters, 8 shards
  const RunResult reference = replay_sharded(reference_dc, trace, options);
  options.threads = 8;
  Datacenter dc = make_dc(2, true);
  expect_identical(reference, replay_sharded(dc, trace, options));
}

// A queue lent through ShardOptions::queue runs shard 0 and is reset first:
// leftovers of an earlier use (here a pending event that must never fire,
// then a whole replay) change nothing, at every shard and thread count,
// with faults and migration flights on the lent queue.
TEST(ShardDifferential, LentQueueNeverChangesResults) {
  ScopedDebugAudit audit_every_event;
  const workload::Trace trace = make_trace(80, 9);
  const FaultConfig faults = make_faults();
  RebalanceOptions rebalance{6.0 * 3600, 16};
  rebalance.migration.enabled = true;
  EventQueue lent;
  bool leftover_fired = false;
  lent.schedule(1.0, [&leftover_fired](core::SimTime) { leftover_fired = true; });
  for (const std::size_t shards : kShardCounts) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      ShardOptions options;
      options.shards = shards;
      options.threads = threads;
      options.faults = &faults;
      options.rebalance = rebalance;
      Datacenter reference_dc = make_dc(shards, true);
      const RunResult reference = replay_sharded(reference_dc, trace, options);
      options.queue = &lent;
      Datacenter dc = make_dc(shards, true);
      const RunResult result = replay_sharded(dc, trace, options);
      SCOPED_TRACE("shards " + std::to_string(shards) + " threads " +
                   std::to_string(threads));
      expect_identical(reference, result);
      EXPECT_TRUE(lent.empty());
      EXPECT_GT(lent.fired_count(), 0U);
    }
  }
  EXPECT_FALSE(leftover_fired);
}

// The ExperimentConfig::shards knob: the grid engine must produce identical
// comparisons at every parallelism for a fixed shard count (sharded
// organisation, but the same determinism discipline).
TEST(ShardDifferential, ExperimentGridHonorsShardsKnob) {
  ExperimentConfig cfg;
  cfg.generator.target_population = 60;
  cfg.generator.horizon = 2.0 * 24 * 3600;
  cfg.generator.mean_lifetime = 1.0 * 24 * 3600;
  cfg.generator.seed = 42;
  cfg.shards = 4;
  const PackingComparison serial =
      compare_packing(workload::azure_catalog(), workload::distribution('F'), cfg);
  for (const std::size_t threads : kThreadCounts) {
    cfg.parallelism = threads;
    const PackingComparison parallel =
        compare_packing(workload::azure_catalog(), workload::distribution('F'), cfg);
    SCOPED_TRACE("threads " + std::to_string(threads));
    EXPECT_EQ(serial.provider, parallel.provider);
    expect_identical(serial.baseline, parallel.baseline);
    expect_identical(serial.slackvm, parallel.slackvm);
  }
}

// --- the documented cross-shard ordering ------------------------------------

ShardSample at(core::SimTime t) {
  ShardSample s;
  s.time = t;
  return s;
}

TEST(ShardMergeOrder, AscendingTimeAcrossShards) {
  const std::vector<std::vector<ShardSample>> logs = {
      {at(1.0), at(4.0)},
      {at(2.0), at(3.0)},
  };
  const auto order = shard_merge_order(logs);
  const std::vector<std::pair<std::size_t, std::size_t>> expected = {
      {0, 0}, {1, 0}, {1, 1}, {0, 1}};
  EXPECT_EQ(order, expected);
}

TEST(ShardMergeOrder, TiesGoToTheLowestShardIndex) {
  const std::vector<std::vector<ShardSample>> logs = {
      {at(5.0)},
      {at(5.0)},
      {at(5.0)},
  };
  const auto order = shard_merge_order(logs);
  const std::vector<std::pair<std::size_t, std::size_t>> expected = {
      {0, 0}, {1, 0}, {2, 0}};
  EXPECT_EQ(order, expected);
}

TEST(ShardMergeOrder, WithinShardLogOrderIsPreservedOnTies) {
  // A shard may log several samples at one timestamp (an arrival and a
  // fault colliding). The comparator always picks the lowest-index shard
  // among the current minima, so shard 0 drains ALL its t=5 samples (in log
  // order) before shard 1's first t=5 sample is taken.
  const std::vector<std::vector<ShardSample>> logs = {
      {at(5.0), at(5.0)},
      {at(5.0), at(6.0)},
  };
  const auto order = shard_merge_order(logs);
  const std::vector<std::pair<std::size_t, std::size_t>> expected = {
      {0, 0}, {0, 1}, {1, 0}, {1, 1}};
  EXPECT_EQ(order, expected);
}

TEST(ShardMergeOrder, EmptyLogsAreSkipped) {
  const std::vector<std::vector<ShardSample>> logs = {
      {},
      {at(1.0)},
      {},
      {at(0.5)},
  };
  const auto order = shard_merge_order(logs);
  const std::vector<std::pair<std::size_t, std::size_t>> expected = {{3, 0}, {1, 0}};
  EXPECT_EQ(order, expected);
}

TEST(ShardMergeOrder, NoLogsAtAll) {
  const std::vector<std::vector<ShardSample>> logs;
  EXPECT_TRUE(shard_merge_order(logs).empty());
}

}  // namespace
}  // namespace slackvm::sim
