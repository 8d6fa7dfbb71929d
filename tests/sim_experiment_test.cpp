// Scaled-down versions of the Fig. 3 / Fig. 4 protocols; the full-scale
// sweeps live in the bench harness.
#include "sim/experiment.hpp"

#include <gtest/gtest.h>

#include <array>
#include <filesystem>
#include <fstream>
#include <optional>
#include <type_traits>

#include "core/error.hpp"
#include "expect_identical.hpp"

namespace slackvm::sim {
namespace {

ExperimentConfig small_config() {
  ExperimentConfig cfg;
  cfg.generator.target_population = 150;
  cfg.generator.horizon = 3.0 * 24 * 3600;
  cfg.generator.mean_lifetime = 1.5 * 24 * 3600;
  cfg.generator.seed = 42;
  return cfg;
}

TEST(ExperimentTest, HeadlineDistributionFSavesPms) {
  // F = 50% 1:1 (CPU-bound) + 50% 3:1 (memory-bound): the complementary
  // pairing where the paper reports its peak 9.6% saving.
  const PackingComparison cmp =
      compare_packing(workload::ovhcloud_catalog(), workload::distribution('F'),
                      small_config());
  EXPECT_GT(cmp.pm_saving_pct(), 2.0);
  EXPECT_LT(cmp.slackvm.opened_pms, cmp.baseline.opened_pms);
  EXPECT_EQ(cmp.provider, "ovhcloud");
  EXPECT_EQ(cmp.distribution, "F");
}

TEST(ExperimentTest, SingleLevelDistributionsSaveLittle) {
  // A (all 1:1) and O (all 3:1) have nothing to pool: savings are at most
  // the marginal threshold effect.
  for (char letter : {'A', 'O'}) {
    const PackingComparison cmp = compare_packing(
        workload::ovhcloud_catalog(), workload::distribution(letter), small_config());
    EXPECT_LE(std::abs(cmp.pm_saving_pct()), 5.0) << letter;
  }
}

TEST(ExperimentTest, BothSidesPlaceWholeTrace) {
  const PackingComparison cmp = compare_packing(
      workload::azure_catalog(), workload::distribution('E'), small_config());
  EXPECT_EQ(cmp.baseline.placed_vms, cmp.slackvm.placed_vms);
  EXPECT_GT(cmp.baseline.placed_vms, 100U);
}

TEST(ExperimentTest, UnallocSharesShiftWithOversubscription) {
  // Fig. 3 shape: distribution A (1:1 only) strands memory (CPU-bound);
  // distribution O (3:1 only) strands CPU (memory-bound).
  const ExperimentConfig cfg = small_config();
  const PackingComparison a =
      compare_packing(workload::ovhcloud_catalog(), workload::distribution('A'), cfg);
  const PackingComparison o =
      compare_packing(workload::ovhcloud_catalog(), workload::distribution('O'), cfg);
  EXPECT_GT(a.baseline.avg_unalloc_mem_share, a.baseline.avg_unalloc_cpu_share);
  EXPECT_GT(o.baseline.avg_unalloc_cpu_share, o.baseline.avg_unalloc_mem_share);
}

TEST(ExperimentTest, SlackVmReducesStrandedResourcesOnF) {
  const PackingComparison cmp = compare_packing(
      workload::ovhcloud_catalog(), workload::distribution('F'), small_config());
  const double base_stranded =
      cmp.baseline.avg_unalloc_cpu_share + cmp.baseline.avg_unalloc_mem_share;
  const double slack_stranded =
      cmp.slackvm.avg_unalloc_cpu_share + cmp.slackvm.avg_unalloc_mem_share;
  EXPECT_LT(slack_stranded, base_stranded);
}

TEST(ExperimentTest, SweepCoversAllFifteenDistributions) {
  ExperimentConfig cfg = small_config();
  cfg.generator.target_population = 60;  // keep the sweep quick
  const auto sweep = run_distribution_sweep(workload::azure_catalog(), cfg);
  ASSERT_EQ(sweep.size(), 15U);
  EXPECT_EQ(sweep.front().distribution, "A");
  EXPECT_EQ(sweep.back().distribution, "O");
}

TEST(ExperimentTest, HeatmapIsLowerTriangularGrid) {
  ExperimentConfig cfg = small_config();
  cfg.generator.target_population = 60;
  const auto cells = run_savings_heatmap(workload::azure_catalog(), cfg);
  ASSERT_EQ(cells.size(), 15U);
  for (const HeatmapCell& cell : cells) {
    EXPECT_GE(cell.pct_1to1, 0);
    EXPECT_GE(cell.pct_2to1, 0);
    EXPECT_LE(cell.pct_1to1 + cell.pct_2to1, 100);
  }
}

TEST(ExperimentTest, HeatmapRefusesATraceFile) {
  // A trace fixes the level mix, so all fifteen cells would replay the same
  // workload; the heatmap refuses it instead of dropping it silently. The
  // file exists and parses, so only that check can throw.
  ExperimentConfig cfg = small_config();
  cfg.generator.target_population = 40;
  cfg.trace_path =
      (std::filesystem::temp_directory_path() / "slackvm_heatmap_trace.csv").string();
  {
    std::ofstream out(cfg.trace_path);
    workload::Generator(workload::azure_catalog(), workload::distribution('F'),
                        cfg.generator)
        .generate()
        .write_csv(out);
  }
  try {
    (void)run_savings_heatmap(workload::azure_catalog(), cfg);
    ADD_FAILURE() << "heatmap accepted a trace file";
  } catch (const core::SlackError& e) {
    EXPECT_NE(std::string(e.what()).find("fixes the level mix"), std::string::npos)
        << e.what();
  }
  std::filesystem::remove(cfg.trace_path);
}

TEST(ExperimentTest, RebalanceOptionsFollowTheConfig) {
  ExperimentConfig cfg;
  EXPECT_FALSE(rebalance_options(cfg).has_value());
  cfg.rebalance_interval = 7200;
  cfg.rebalance_budget = 9;
  cfg.migration.enabled = true;
  cfg.interference.enabled = true;
  cfg.interference.heat_alpha = 0.5;
  const std::optional<RebalanceOptions> options = rebalance_options(cfg);
  ASSERT_TRUE(options.has_value());
  EXPECT_EQ(options->interval, 7200.0);
  EXPECT_EQ(options->budget_per_pass, 9U);
  EXPECT_TRUE(options->migration.enabled);
  EXPECT_TRUE(options->interference.enabled);
  EXPECT_EQ(options->interference.heat_alpha, 0.5);
}

TEST(ExperimentTest, RepetitionsAverageDeterministically) {
  ExperimentConfig cfg = small_config();
  cfg.generator.target_population = 60;
  cfg.repetitions = 2;
  const PackingComparison first = compare_packing(
      workload::azure_catalog(), workload::distribution('F'), cfg);
  const PackingComparison second = compare_packing(
      workload::azure_catalog(), workload::distribution('F'), cfg);
  EXPECT_EQ(first.baseline.opened_pms, second.baseline.opened_pms);
  EXPECT_EQ(first.slackvm.opened_pms, second.slackvm.opened_pms);
}

TEST(ExperimentTest, MeanResultAveragesEveryField) {
  // Locks the repetition-aggregation contract: no RunResult field may be
  // dropped. migrations and opened_per_cluster were silently discarded by
  // an earlier version of the averager.
  RunResult a;
  a.opened_pms = 80;
  a.peak_active_pms = 70;
  a.migrations = 10;
  a.opened_per_cluster = {{"shared", 80}};
  a.placed_vms = 500;
  a.peak_vms = 300;
  a.avg_unalloc_cpu_share = 0.20;
  a.avg_unalloc_mem_share = 0.10;
  a.peak_unalloc_cpu_share = 0.05;
  a.peak_unalloc_mem_share = 0.02;
  a.duration = 1000.0;
  a.avg_active_pms = 60.0;
  a.avg_alloc_cores = 2000.0;

  RunResult b = a;
  b.opened_pms = 85;        // mean 82.5 -> rounds to 83
  b.peak_active_pms = 73;   // mean 71.5 -> rounds to 72
  b.migrations = 15;        // mean 12.5 -> rounds to 13
  b.opened_per_cluster = {{"shared", 85}, {"1:1", 4}};
  b.avg_unalloc_cpu_share = 0.30;
  b.duration = 2000.0;

  const RunResult m = mean_result(std::array{a, b});
  EXPECT_EQ(m.opened_pms, 83U);
  EXPECT_EQ(m.peak_active_pms, 72U);
  EXPECT_EQ(m.migrations, 13U);
  ASSERT_EQ(m.opened_per_cluster.size(), 2U);
  EXPECT_EQ(m.opened_per_cluster.at("shared"), 83U);  // (80 + 85) / 2 = 82.5
  EXPECT_EQ(m.opened_per_cluster.at("1:1"), 2U);      // (0 + 4) / 2
  EXPECT_EQ(m.placed_vms, 500U);
  EXPECT_EQ(m.peak_vms, 300U);
  EXPECT_DOUBLE_EQ(m.avg_unalloc_cpu_share, 0.25);
  EXPECT_DOUBLE_EQ(m.avg_unalloc_mem_share, 0.10);
  EXPECT_DOUBLE_EQ(m.peak_unalloc_cpu_share, 0.05);
  EXPECT_DOUBLE_EQ(m.peak_unalloc_mem_share, 0.02);
  EXPECT_DOUBLE_EQ(m.duration, 1500.0);
  EXPECT_DOUBLE_EQ(m.avg_active_pms, 60.0);
  EXPECT_DOUBLE_EQ(m.avg_alloc_cores, 2000.0);
}

TEST(ExperimentTest, MeanResultOfEmptyAndSingle) {
  const RunResult empty = mean_result({});
  EXPECT_EQ(empty.opened_pms, 0U);
  EXPECT_DOUBLE_EQ(empty.duration, 0.0);

  RunResult only;
  only.opened_pms = 7;
  only.migrations = 3;
  only.opened_per_cluster = {{"2:1", 7}};
  const RunResult m = mean_result(std::array{only});
  EXPECT_EQ(m.opened_pms, 7U);
  EXPECT_EQ(m.migrations, 3U);
  EXPECT_EQ(m.opened_per_cluster.at("2:1"), 7U);
}

TEST(ExperimentTest, MeanResultOfOneReturnsEveryFieldUnchanged) {
  // Every field distinct and non-zero, so a field the mean dropped, swapped
  // or rounded shows by name.
  RunResult r;
  std::size_t next = 1;
  RunResult::for_each_field([&r, &next]<class T>(const char*, T RunResult::*field) {
    if constexpr (std::is_same_v<T, std::size_t>) {
      r.*field = next++;
    } else if constexpr (std::is_same_v<T, double>) {
      r.*field = static_cast<double>(next++) / 3.0;
    } else {
      r.*field = {{"shared", next}, {"2:1", next + 1}};
      next += 2;
    }
  });
  expect_identical(mean_result(std::array{r}), r);
}

TEST(ExperimentTest, MeanResultRoundsEveryCountHalfUp) {
  // Count i holds 2i and 2i + 1: every mean lands on a half and rounds up.
  // Doubles hold i and i + 1 (exact mean i + 0.5); the map's keys average
  // per key, a key missing from one result counting as 0.
  RunResult a;
  RunResult b;
  std::size_t i = 0;
  RunResult::for_each_field([&a, &b, &i]<class T>(const char*, T RunResult::*field) {
    if constexpr (std::is_same_v<T, std::size_t>) {
      a.*field = 2 * i;
      b.*field = 2 * i + 1;
    } else if constexpr (std::is_same_v<T, double>) {
      a.*field = static_cast<double>(i);
      b.*field = static_cast<double>(i + 1);
    } else {
      a.*field = {{"shared", 1}};
      b.*field = {{"shared", 2}, {"2:1", 3}};
    }
    ++i;
  });
  const RunResult m = mean_result(std::array{a, b});
  i = 0;
  RunResult::for_each_field([&m, &i]<class T>(const char* name, T RunResult::*field) {
    SCOPED_TRACE(name);
    if constexpr (std::is_same_v<T, std::size_t>) {
      EXPECT_EQ(m.*field, 2 * i + 1);
    } else if constexpr (std::is_same_v<T, double>) {
      EXPECT_EQ(m.*field, static_cast<double>(i) + 0.5);
    } else {
      EXPECT_EQ(m.*field, (T{{"shared", 2}, {"2:1", 2}}));  // 1.5 and 1.5 -> 2
    }
    ++i;
  });
}

TEST(ExperimentTest, SavingPctFormula) {
  PackingComparison cmp;
  cmp.baseline.opened_pms = 83;
  cmp.slackvm.opened_pms = 75;
  EXPECT_NEAR(cmp.pm_saving_pct(), 9.6, 0.1);  // the paper's headline case
  cmp.baseline.opened_pms = 0;
  EXPECT_DOUBLE_EQ(cmp.pm_saving_pct(), 0.0);
}

}  // namespace
}  // namespace slackvm::sim
