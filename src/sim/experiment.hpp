// Evaluation protocols of the paper's §VII-B: baseline-vs-SlackVM packing
// comparisons across oversubscription distributions and providers.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "sim/datacenter.hpp"
#include "sim/fault.hpp"
#include "sim/metrics.hpp"
#include "sim/migration.hpp"
#include "sim/replay.hpp"
#include "workload/catalog.hpp"
#include "workload/generator.hpp"
#include "workload/level_mix.hpp"

namespace slackvm::sim {

/// Protocol parameters; defaults mirror §VII-B1 (32-core / 128 GiB PMs,
/// target of 500 VMs over one simulated week).
struct ExperimentConfig {
  core::Resources host_config{32, core::gib(128)};
  /// DRAM oversubscription ratio applied to every PM (1.0 = none; OpenStack
  /// defaults to 1.5, paper footnote 2).
  double mem_oversub = 1.0;
  workload::GeneratorConfig generator{};
  /// Number of independently seeded workloads averaged per cell; seeds are
  /// generator.seed, +1, +2, ...
  std::size_t repetitions = 1;
  /// Worker threads for the experiment grid (sim/parallel.hpp): 1 = serial,
  /// 0 = all hardware threads. Each (distribution, repetition) cell is an
  /// independent replay whose seed depends only on its grid position, and
  /// results are reduced in grid order, so every value of this knob yields
  /// bit-identical results — it only changes wall-clock time.
  std::size_t parallelism = 1;
  /// Shard count for the replay loop (sim/shard.hpp; 0 means 1): 1 is the
  /// plain replay() on one shared cluster; > 1 replays with this many
  /// shards — in shared mode the datacenter becomes the
  /// cell-partitioned Datacenter::shared_sharded organisation (VMs routed
  /// by id across `shards` shared clusters), in dedicated mode the level
  /// clusters are dealt round-robin across shards. A given shard count is
  /// bit-identical across parallelism and index settings (CLI/scenario:
  /// --shards).
  std::size_t shards = 1;
  /// Consult the incremental placement index (sched/placement_index.hpp)
  /// during replays. Host selection is provably identical either way
  /// (differential-tested), so this only changes wall-clock time. It is a
  /// test and bench hook, not a knob: off places through the policy's
  /// naive scan (Datacenter::set_index_enabled). It touches placement only;
  /// the planners and the heat feeder have one path each.
  bool use_index = true;
  /// Fault injection (sim/fault.hpp); disabled by default. A zero fault
  /// seed derives per repetition from the cell's workload seed, so each
  /// repetition sees an independent (but reproducible) fault timetable; an
  /// explicit seed pins one timetable across the grid.
  FaultConfig faults{};
  /// Continuous rebalance cadence in simulated seconds; 0 disables the
  /// loop. When > 0 every replay runs with RebalanceOptions{interval,
  /// budget} — instantly applied plans by default, or time-extended
  /// flights when `migration.enabled` (CLI/scenario: rebalance_s=,
  /// rebalance_budget=).
  core::SimTime rebalance_interval = 0;
  /// Per-pass migration budget handed to sched::Rebalancer::plan.
  std::size_t rebalance_budget = 64;
  /// Live-migration engine knobs (sim/migration.hpp). Only consulted when
  /// rebalance_interval > 0; `migration.enabled` switches the rebalance
  /// loop from instant apply_plan to MigrationEngine flights
  /// (CLI/scenario: migration=engine|instant, mig_*).
  MigrationConfig migration{};
  /// Interference loop knobs (sched/rebalancer.hpp). Only consulted when
  /// rebalance_interval > 0; `interference.enabled` arms the heat EWMA
  /// schedule and the polluter pass in every replay, and switches the
  /// shared organisation's policy from plain progress scoring to
  /// sched::make_interference_policy(heat_weight) (CLI/scenario:
  /// interference=on|off, heat_*, itf_*).
  sched::InterferenceOptions interference{};
  /// Replay a real trace file instead of generating a workload. When
  /// non-empty, every cell streams this CSV through workload::TraceReader
  /// (native or real format, auto-detected; one O(chunk)-memory scan
  /// pre-pass per replay provides the horizon) and the generator/mix are
  /// ignored for workload purposes — the dedicated baseline then builds a
  /// cluster for each of the three paper levels, since the level
  /// population is decided row-by-row by the classifier. The trace is
  /// fixed across repetitions, so with faults disabled every repetition is
  /// identical; repetitions still matter with faults enabled because the
  /// per-repetition fault seed varies the timetable (CLI/scenario: trace=).
  std::string trace_path;
};

/// The rebalance schedule `config` asks for: interval, budget, migration and
/// interference knobs; nullopt when rebalance_interval is 0. Every cell and
/// `slackvm replay` build their replay's schedule with this.
[[nodiscard]] std::optional<RebalanceOptions> rebalance_options(
    const ExperimentConfig& config);

/// One baseline-vs-SlackVM comparison (a Fig. 3 bar pair / Fig. 4 cell).
struct PackingComparison {
  std::string provider;
  std::string distribution;  ///< "A".."O"
  RunResult baseline;        ///< dedicated clusters, First-Fit
  RunResult slackvm;         ///< shared cluster, progress score

  /// PMs saved by SlackVM, in percent of the baseline cluster size.
  [[nodiscard]] double pm_saving_pct() const;

  friend bool operator==(const PackingComparison&, const PackingComparison&) = default;
};

/// Field-wise mean of RunResults over repetitions: counts are rounded to
/// the nearest integer, shares/durations averaged, and per-cluster PM
/// counts averaged per cluster name. Results must be reduced in repetition
/// order for bit-stable floating-point sums (the parallel runner guarantees
/// this). Empty input yields a default RunResult.
[[nodiscard]] RunResult mean_result(std::span<const RunResult> results);

/// Run one comparison: the same trace replayed against (a) dedicated
/// First-Fit clusters and (b) a shared progress-score cluster. With
/// repetitions > 1 the PM counts and shares are averaged.
[[nodiscard]] PackingComparison compare_packing(const workload::Catalog& catalog,
                                                const workload::LevelMix& mix,
                                                const ExperimentConfig& config);

/// Fig. 3 protocol: all 15 distributions for one provider.
[[nodiscard]] std::vector<PackingComparison> run_distribution_sweep(
    const workload::Catalog& catalog, const ExperimentConfig& config);

/// A cell of the Fig. 4 heatmap.
struct HeatmapCell {
  int pct_1to1 = 0;
  int pct_2to1 = 0;
  double saving_pct = 0.0;
};

/// Fig. 4 protocol: the (share 1:1, share 2:1) grid in 25% steps for one
/// provider. Cells are rows of the lower-triangular heatmap. Throws when
/// `config.trace_path` is set: a trace fixes the level mix the grid varies.
[[nodiscard]] std::vector<HeatmapCell> run_savings_heatmap(
    const workload::Catalog& catalog, const ExperimentConfig& config);

}  // namespace slackvm::sim
