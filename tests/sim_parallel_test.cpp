// Determinism harness for the parallel experiment engine: the parallel
// runner must produce bit-identical results to serial execution at every
// thread count, across providers, distributions, and repetition counts.
// Also unit-tests the work-stealing ThreadPool itself.
#include "sim/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "sched/policy.hpp"
#include "sim/audit.hpp"
#include "sim/experiment.hpp"
#include "sim/shard.hpp"
#include "workload/generator.hpp"

namespace slackvm::sim {
namespace {

// Thread counts every differential case is checked at; 1 exercises the
// pool-less fast path, 8 oversubscribes small grids so stealing kicks in.
constexpr std::size_t kThreadCounts[] = {1, 2, 8};

ExperimentConfig small_config(std::size_t repetitions) {
  ExperimentConfig cfg;
  cfg.generator.target_population = 60;
  cfg.generator.horizon = 2.0 * 24 * 3600;
  cfg.generator.mean_lifetime = 1.0 * 24 * 3600;
  cfg.generator.seed = 42;
  cfg.repetitions = repetitions;
  return cfg;
}

// Bit-exact equality on every field (RunResult's operator== compares the
// doubles exactly: the guarantee is identical bits, not approximate
// agreement). The counters are printed on a mismatch.
void expect_identical(const RunResult& expected, const RunResult& actual) {
  EXPECT_TRUE(expected == actual)
      << "opened " << expected.opened_pms << " vs " << actual.opened_pms << ", placed "
      << expected.placed_vms << " vs " << actual.placed_vms << ", failures "
      << expected.host_failures << " vs " << actual.host_failures << ", mig_committed "
      << expected.mig_committed << " vs " << actual.mig_committed << ", itf_evictions "
      << expected.itf_evictions << " vs " << actual.itf_evictions;
}

void expect_identical(const PackingComparison& expected,
                      const PackingComparison& actual) {
  EXPECT_EQ(expected.provider, actual.provider);
  EXPECT_EQ(expected.distribution, actual.distribution);
  expect_identical(expected.baseline, actual.baseline);
  expect_identical(expected.slackvm, actual.slackvm);
}

/// Every control-plane layer on: seed-derived faults with drains ahead of
/// them, engine migrations and the interference loop. Reused datacenters
/// then carry failed hosts, reservations, heat and an armed membership
/// journal from one cell into the next.
void arm_control_plane(ExperimentConfig& cfg) {
  cfg.faults.count = 6;
  cfg.faults.repair_delay = 3600.0;
  cfg.faults.drain_lead = 1800.0;
  cfg.rebalance_interval = 4.0 * 3600;
  cfg.rebalance_budget = 16;
  cfg.migration.enabled = true;
  cfg.interference.enabled = true;
}

/// run_distribution_sweep as it read before cells shared datacenters: every
/// cell replays on datacenters built for it alone, serially.
std::vector<PackingComparison> fresh_datacenter_sweep(const workload::Catalog& catalog,
                                                      const ExperimentConfig& config) {
  std::vector<PackingComparison> out;
  for (const workload::LevelMix& mix : workload::paper_distributions()) {
    std::vector<RunResult> baseline;
    std::vector<RunResult> slackvm;
    for (std::size_t rep = 0; rep < config.repetitions; ++rep) {
      workload::GeneratorConfig gen = config.generator;
      gen.seed = config.generator.seed + rep;
      const workload::Trace trace = workload::Generator(catalog, mix, gen).generate();
      std::vector<core::OversubLevel> levels;
      for (const std::uint8_t ratio : core::kPaperLevelRatios) {
        if (mix.share(core::OversubLevel{ratio}) > 0.0) {
          levels.push_back(core::OversubLevel{ratio});
        }
      }
      const FaultConfig faults = resolve_fault_seed(config.faults, gen.seed);
      ShardOptions options;
      options.rebalance = rebalance_options(config);
      options.faults = faults.enabled() ? &faults : nullptr;
      Datacenter dedicated = Datacenter::dedicated(config.host_config, levels,
                                                   sched::make_first_fit, config.mem_oversub);
      baseline.push_back(replay_sharded(dedicated, trace, options));
      const double weight = config.interference.heat_weight;
      const PolicyFactory policy =
          config.interference.enabled
              ? PolicyFactory([weight] { return sched::make_interference_policy(weight); })
              : PolicyFactory(sched::make_progress_policy);
      Datacenter shared = Datacenter::shared(config.host_config, policy, config.mem_oversub);
      slackvm.push_back(replay_sharded(shared, trace, options));
    }
    PackingComparison cmp;
    cmp.provider = catalog.provider();
    cmp.distribution = mix.name;
    cmp.baseline = mean_result(baseline);
    cmp.slackvm = mean_result(slackvm);
    out.push_back(cmp);
  }
  return out;
}

TEST(ParallelDifferential, ComparePackingMatchesSerialEverywhere) {
  // Debug audit on: every replay re-validates the datacenter invariants
  // after every event (sim/audit.hpp) and throws on the first violation.
  ScopedDebugAudit audit_every_event;
  for (const workload::Catalog* catalog :
       {&workload::ovhcloud_catalog(), &workload::azure_catalog()}) {
    for (char dist : {'A', 'F', 'O'}) {
      for (std::size_t reps : {std::size_t{1}, std::size_t{3}}) {
        ExperimentConfig cfg = small_config(reps);
        const PackingComparison serial =
            compare_packing(*catalog, workload::distribution(dist), cfg);
        for (std::size_t threads : kThreadCounts) {
          cfg.parallelism = threads;
          const PackingComparison parallel =
              compare_packing(*catalog, workload::distribution(dist), cfg);
          SCOPED_TRACE(catalog->provider() + " dist " + dist + " reps " +
                       std::to_string(reps) + " threads " + std::to_string(threads));
          expect_identical(serial, parallel);
        }
      }
    }
  }
}

TEST(ParallelDifferential, DistributionSweepMatchesSerialEverywhere) {
  ScopedDebugAudit audit_every_event;
  ExperimentConfig cfg = small_config(2);
  cfg.generator.target_population = 40;
  const std::vector<PackingComparison> serial =
      run_distribution_sweep(workload::azure_catalog(), cfg);
  ASSERT_EQ(serial.size(), 15U);
  for (std::size_t threads : kThreadCounts) {
    cfg.parallelism = threads;
    const std::vector<PackingComparison> parallel =
        run_distribution_sweep(workload::azure_catalog(), cfg);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      SCOPED_TRACE("distribution " + serial[i].distribution + " threads " +
                   std::to_string(threads));
      expect_identical(serial[i], parallel[i]);
    }
  }
}

TEST(ParallelDifferential, ControlPlaneSweepMatchesSerialEverywhere) {
  ScopedDebugAudit audit_every_event;
  ExperimentConfig cfg = small_config(2);
  cfg.generator.target_population = 40;
  arm_control_plane(cfg);
  const std::vector<PackingComparison> serial =
      run_distribution_sweep(workload::ovhcloud_catalog(), cfg);
  ASSERT_EQ(serial.size(), 15U);
  std::size_t failures = 0;
  std::size_t committed = 0;
  std::size_t itf_passes = 0;
  for (const PackingComparison& cmp : serial) {
    failures += cmp.baseline.host_failures + cmp.slackvm.host_failures;
    committed += cmp.baseline.mig_committed + cmp.slackvm.mig_committed;
    itf_passes += cmp.baseline.itf_passes + cmp.slackvm.itf_passes;
  }
  EXPECT_GT(failures, 0U);
  EXPECT_GT(committed, 0U);
  EXPECT_GT(itf_passes, 0U);
  for (std::size_t threads : kThreadCounts) {
    cfg.parallelism = threads;
    const std::vector<PackingComparison> parallel =
        run_distribution_sweep(workload::ovhcloud_catalog(), cfg);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      SCOPED_TRACE("distribution " + serial[i].distribution + " threads " +
                   std::to_string(threads));
      expect_identical(serial[i], parallel[i]);
    }
  }
}

TEST(ParallelDifferential, SweepOnReusedDatacentersMatchesFreshOnes) {
  // Cells reuse their thread's datacenters (reset between cells); the
  // reference builds new ones for every cell. Equal at every thread count,
  // with the control plane off and on.
  for (const bool plane : {false, true}) {
    ExperimentConfig cfg = small_config(2);
    cfg.generator.target_population = 40;
    if (plane) {
      arm_control_plane(cfg);
    }
    const std::vector<PackingComparison> reference =
        fresh_datacenter_sweep(workload::azure_catalog(), cfg);
    for (std::size_t threads : kThreadCounts) {
      cfg.parallelism = threads;
      const std::vector<PackingComparison> sweep =
          run_distribution_sweep(workload::azure_catalog(), cfg);
      ASSERT_EQ(sweep.size(), reference.size());
      for (std::size_t i = 0; i < reference.size(); ++i) {
        SCOPED_TRACE("distribution " + reference[i].distribution + " control plane " +
                     std::to_string(plane) + " threads " + std::to_string(threads));
        expect_identical(reference[i], sweep[i]);
      }
    }
  }
}

TEST(ParallelDifferential, SavingsHeatmapMatchesSerial) {
  ExperimentConfig cfg = small_config(1);
  cfg.generator.target_population = 40;
  const std::vector<HeatmapCell> serial =
      run_savings_heatmap(workload::ovhcloud_catalog(), cfg);
  cfg.parallelism = 8;
  const std::vector<HeatmapCell> parallel =
      run_savings_heatmap(workload::ovhcloud_catalog(), cfg);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].pct_1to1, parallel[i].pct_1to1);
    EXPECT_EQ(serial[i].pct_2to1, parallel[i].pct_2to1);
    EXPECT_EQ(serial[i].saving_pct, parallel[i].saving_pct);
  }
}

TEST(ParallelDifferential, ParallelismZeroMeansAllCoresAndStaysIdentical) {
  ExperimentConfig cfg = small_config(2);
  const PackingComparison serial =
      compare_packing(workload::ovhcloud_catalog(), workload::distribution('F'), cfg);
  cfg.parallelism = 0;  // resolve to hardware_concurrency
  const PackingComparison parallel =
      compare_packing(workload::ovhcloud_catalog(), workload::distribution('F'), cfg);
  expect_identical(serial, parallel);
}

TEST(ThreadPoolTest, ExecutesEveryIndexExactlyOnce) {
  for (std::size_t threads : {std::size_t{1}, std::size_t{3}, std::size_t{8}}) {
    ThreadPool pool(threads);
    for (std::size_t count : {std::size_t{0}, std::size_t{1}, std::size_t{5},
                              std::size_t{64}, std::size_t{257}}) {
      std::vector<std::atomic<int>> hits(count);
      pool.run(count, [&hits](std::size_t i, std::size_t) { ++hits[i]; });
      for (std::size_t i = 0; i < count; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "index " << i << " threads " << threads;
      }
    }
  }
}

TEST(ThreadPoolTest, ReusableAcrossBatches) {
  ThreadPool pool(4);
  std::atomic<std::size_t> total{0};
  for (int batch = 0; batch < 10; ++batch) {
    pool.run(32, [&total](std::size_t, std::size_t) { ++total; });
  }
  EXPECT_EQ(total.load(), 320U);
}

TEST(ThreadPoolTest, PropagatesTaskExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.run(16,
                        [](std::size_t i, std::size_t) {
                          if (i == 7) {
                            throw std::runtime_error("cell 7 failed");
                          }
                        }),
               std::runtime_error);
  // The pool survives a throwing batch.
  std::atomic<std::size_t> total{0};
  pool.run(8, [&total](std::size_t, std::size_t) { ++total; });
  EXPECT_EQ(total.load(), 8U);
}

TEST(ThreadPoolTest, NonFatalWatchdogDumpsAndKeepsWaiting) {
  // A worker wedges until the watchdog's on_stall releases it: the bounded
  // wait must fire at least once, and run() must still complete the batch
  // afterwards (non-fatal watchdogs keep waiting after the dump).
  ThreadPool pool(2);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> stalls{0};
  std::atomic<bool> worker_ran{false};
  std::atomic<bool> release{false};
  std::atomic<int> executed{0};
  WatchdogConfig watchdog;
  watchdog.timeout = std::chrono::milliseconds(20);
  watchdog.fatal = false;
  watchdog.on_stall = [&stalls, &release] {
    stalls.fetch_add(1);
    release.store(true);  // un-wedge the worker so the batch can finish
  };
  pool.run(
      16,
      [&](std::size_t, std::size_t) {
        executed.fetch_add(1);
        if (std::this_thread::get_id() == caller) {
          // The caller drains its share before it starts watching the pool;
          // keep it busy long enough for the workers to wake and grab work.
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
          return;
        }
        worker_ran.store(true);
        while (!release.load()) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      },
      &watchdog);
  EXPECT_EQ(executed.load(), 16);
  EXPECT_TRUE(worker_ran.load());
  if (worker_ran.load()) {
    // A wedged worker can only have been released by on_stall.
    EXPECT_GE(stalls.load(), 1);
  }
}

TEST(ParallelRunnerTest, MapReturnsResultsInIndexOrder) {
  for (std::size_t threads : kThreadCounts) {
    ParallelRunner runner(threads);
    const std::vector<std::size_t> out = runner.map<std::size_t>(
        100, [](std::size_t i) { return i * i; });
    ASSERT_EQ(out.size(), 100U);
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out[i], i * i);
    }
  }
}

TEST(ParallelRunnerTest, EachSlotIsOneThreadAtATime) {
  // The caller drains worker 0's queue beside worker 0, so a pool of n
  // workers runs tasks on n + 1 threads: one slot each, never shared.
  for (std::size_t threads : kThreadCounts) {
    ParallelRunner runner(threads);
    ASSERT_EQ(runner.slots(), threads);
    std::vector<std::atomic<int>> running(runner.slots());
    std::vector<std::thread::id> owner(runner.slots());
    std::atomic<bool> clash{false};
    std::atomic<std::size_t> total{0};
    runner.for_each(256, [&](std::size_t, std::size_t slot) {
      ASSERT_LT(slot, running.size());
      if (running[slot].fetch_add(1) != 0) {
        clash = true;
      }
      if (owner[slot] == std::thread::id{}) {
        owner[slot] = std::this_thread::get_id();
      } else if (owner[slot] != std::this_thread::get_id()) {
        clash = true;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(50));
      running[slot].fetch_sub(1);
      ++total;
    });
    EXPECT_FALSE(clash.load()) << threads << " threads";
    EXPECT_EQ(total.load(), 256U);
  }
}

TEST(ParallelRunnerTest, TaskSeedIsStableAndThreadIndependent) {
  // The per-task seed is a pure function of (base, index): compute it from
  // many threads concurrently and compare against the serial value.
  constexpr std::uint64_t kBase = 12345;
  std::vector<std::uint64_t> serial(64);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    serial[i] = ParallelRunner::task_seed(kBase, i);
  }
  ParallelRunner runner(8);
  const std::vector<std::uint64_t> parallel = runner.map<std::uint64_t>(
      serial.size(), [](std::size_t i) { return ParallelRunner::task_seed(kBase, i); });
  EXPECT_EQ(serial, parallel);
  // And adjacent indices must not collide.
  for (std::size_t i = 1; i < serial.size(); ++i) {
    EXPECT_NE(serial[i], serial[i - 1]);
  }
}

}  // namespace
}  // namespace slackvm::sim
