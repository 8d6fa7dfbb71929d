#include "sim/experiment.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>

#include "core/error.hpp"
#include "core/oversub.hpp"
#include "sched/policy.hpp"
#include "sim/event_queue.hpp"
#include "sim/event_source.hpp"
#include "sim/parallel.hpp"
#include "sim/replay.hpp"
#include "sim/shard.hpp"
#include "workload/trace_reader.hpp"

namespace slackvm::sim {

namespace {

std::vector<core::OversubLevel> levels_present(const workload::LevelMix& mix) {
  std::vector<core::OversubLevel> levels;
  for (std::uint8_t ratio : core::kPaperLevelRatios) {
    const core::OversubLevel level{ratio};
    if (mix.share(level) > 0.0) {
      levels.push_back(level);
    }
  }
  return levels;
}

std::size_t effective_repetitions(const ExperimentConfig& config) {
  return config.repetitions == 0 ? 1 : config.repetitions;
}

/// The datacenters, the event queue and the trace rows one thread replays
/// its cells with, for the length of one compare_packing or
/// run_distribution_sweep call. A datacenter is reset (Datacenter::reset)
/// for each cell it serves, every replay runs on the one queue
/// (ShardOptions::queue), and each generated trace is written over the
/// last one's rows, so a cell regrows none of its containers; a reset
/// datacenter and a reset queue replay exactly like new ones.
/// Every cell of a call shares one config, so one shared datacenter serves
/// them all. The dedicated one must match the cell's level set; it is
/// built again when the set changes. Cells reach a thread in blocks of
/// neighbouring grid positions, i.e. of one distribution, so a serial sweep
/// builds it about once per distribution; keeping one per level set (up to
/// 7) instead would hold every set's grown containers for the whole call.
class CellWorkspace {
 public:
  Datacenter& dedicated(const ExperimentConfig& config,
                        const std::vector<core::OversubLevel>& levels) {
    if (dedicated_.has_value() && levels != dedicated_levels_) {
      dedicated_.reset();
    }
    dedicated_levels_ = levels;
    return reuse(dedicated_, config, [&] {
      return Datacenter::dedicated(config.host_config, levels, sched::make_first_fit,
                                   config.mem_oversub);
    });
  }

  Datacenter& shared(const ExperimentConfig& config, const PolicyFactory& policy,
                     std::size_t shards) {
    return reuse(shared_, config, [&] {
      return Datacenter::shared_sharded(config.host_config, policy, shards,
                                        config.mem_oversub);
    });
  }

  EventQueue& queue() noexcept { return queue_; }
  std::vector<core::VmInstance>& rows() noexcept { return rows_; }

 private:
  template <class Build>
  static Datacenter& reuse(std::optional<Datacenter>& dc, const ExperimentConfig& config,
                           const Build& build) {
    if (dc.has_value()) {
      dc->reset();
    } else {
      dc.emplace(build());
    }
    dc->set_index_enabled(config.use_index);
    return *dc;
  }

  std::optional<Datacenter> shared_;
  std::optional<Datacenter> dedicated_;
  std::vector<core::OversubLevel> dedicated_levels_;
  EventQueue queue_;
  std::vector<core::VmInstance> rows_;
};

/// One (distribution, repetition) cell of the experiment grid: a freshly
/// generated trace replayed against both cluster organisations, on the
/// datacenters of the running thread's workspace. Pure in (catalog, mix,
/// config, rep) — safe to run from any pool thread.
struct CellResult {
  RunResult baseline;
  RunResult slackvm;
};

CellResult run_cell(CellWorkspace& workspace, const workload::Catalog& catalog,
                    const workload::LevelMix& mix, const ExperimentConfig& config,
                    std::size_t rep) {
  workload::GeneratorConfig gen_cfg = config.generator;
  gen_cfg.seed = config.generator.seed + rep;

  // Workload: either a freshly generated (materialized) trace, or a real
  // trace file streamed through TraceReader — one scan pre-pass for the
  // horizon, then each replay pulls rows with O(chunk) resident memory.
  // The streamed trace is the same for every repetition; only the fault
  // timetable (seeded per repetition below) varies across reps then.
  const bool streamed = !config.trace_path.empty();
  std::optional<workload::TraceReader::ScanInfo> scan;
  if (streamed) {
    scan = workload::TraceReader::scan(config.trace_path);
  } else {
    workload::Generator(catalog, mix, gen_cfg).generate_into(workspace.rows());
  }
  // Dedicated baseline clusters: for a generated workload the mix dictates
  // the levels; a real trace's levels emerge row-by-row from the
  // classifier, so cover all three paper levels (absent ones just stay
  // empty).
  std::vector<core::OversubLevel> levels;
  if (streamed) {
    for (const std::uint8_t ratio : core::kPaperLevelRatios) {
      levels.push_back(core::OversubLevel{ratio});
    }
  } else {
    levels = levels_present(mix);
  }

  // Both organisations replay the same fault timetable (seed resolved from
  // the cell's workload seed), so the comparison stays apples-to-apples.
  const FaultConfig faults = resolve_fault_seed(config.faults, gen_cfg.seed);
  const FaultConfig* fault_ptr = faults.enabled() ? &faults : nullptr;

  // Same story for the rebalance loop: both organisations consolidate on
  // the same cadence with the same migration semantics (instant or
  // time-extended flights).
  const std::optional<RebalanceOptions> rebalance = rebalance_options(config);

  // With interference armed the shared organisation also scores placements
  // heat-aware; the dedicated baseline keeps First-Fit (it has no scoring
  // stage to stack the penalty onto) but still runs the same heat/polluter
  // schedules, so the comparison stays apples-to-apples on the loop cost.
  const bool interference =
      rebalance.has_value() && rebalance->interference.enabled;
  const auto shared_policy = [&]() -> std::unique_ptr<sched::PlacementPolicy> {
    if (interference) {
      return sched::make_interference_policy(config.interference.heat_weight);
    }
    return sched::make_progress_policy();
  };

  // Threads stay at 1: the experiment grid is already fanned out across
  // cells by ParallelRunner, so nesting pools would oversubscribe; the
  // replay is bit-identical at any thread count. shards == 0 means 1.
  const std::size_t shards = std::max<std::size_t>(1, config.shards);
  ShardOptions shard_options;
  shard_options.shards = shards;
  shard_options.rebalance = rebalance;
  shard_options.faults = fault_ptr;
  shard_options.queue = &workspace.queue();
  // Each replay reads the workload from the start through a source of its
  // own, on the stack.
  const auto replay_on = [&](Datacenter& dc) {
    if (streamed) {
      StreamingTraceSource source(workload::TraceReader(config.trace_path), scan);
      return replay_sharded(dc, source, shard_options);
    }
    MaterializedSource source(workspace.rows());
    return replay_sharded(dc, source, shard_options);
  };

  CellResult cell;
  // Baseline: dedicated First-Fit clusters.
  cell.baseline = replay_on(workspace.dedicated(config, levels));
  // SlackVM: one shared cluster per shard (exactly shared() at one shard),
  // Algorithm-2 progress scoring (heat-aware when the interference loop is
  // armed).
  cell.slackvm = replay_on(workspace.shared(config, shared_policy, shards));
  return cell;
}

/// Reduce one distribution's repetition cells (in repetition order) into a
/// comparison row.
PackingComparison reduce_cells(const workload::Catalog& catalog,
                               const workload::LevelMix& mix,
                               std::span<const CellResult> cells) {
  std::vector<RunResult> baseline;
  std::vector<RunResult> slackvm;
  baseline.reserve(cells.size());
  slackvm.reserve(cells.size());
  for (const CellResult& cell : cells) {
    baseline.push_back(cell.baseline);
    slackvm.push_back(cell.slackvm);
  }
  PackingComparison out;
  out.provider = catalog.provider();
  out.distribution = mix.name;
  out.baseline = mean_result(baseline);
  out.slackvm = mean_result(slackvm);
  return out;
}

std::size_t round_to_count(double sum, double n) {
  return static_cast<std::size_t>(sum / n + 0.5);
}

}  // namespace

RunResult mean_result(std::span<const RunResult> results) {
  RunResult out;
  if (results.empty()) {
    return out;
  }
  // Plain left-to-right sums per field: reducing in repetition order keeps
  // the floating-point results bit-stable across thread counts.
  const double d = static_cast<double>(results.size());
  RunResult::for_each_field([&out, results, d]<class T>(const char*, T RunResult::*field) {
    if constexpr (std::is_arithmetic_v<T>) {
      double sum = 0;
      for (const RunResult& r : results) {
        sum += static_cast<double>(r.*field);
      }
      if constexpr (std::is_same_v<T, double>) {
        out.*field = sum / d;
      } else {
        out.*field = round_to_count(sum, d);
      }
    } else {
      std::map<std::string, double> sums;  // a missing key counts as 0
      for (const RunResult& r : results) {
        for (const auto& [key, count] : r.*field) {
          sums[key] += static_cast<double>(count);
        }
      }
      for (const auto& [key, sum] : sums) {
        (out.*field)[key] = round_to_count(sum, d);
      }
    }
  });
  return out;
}

double PackingComparison::pm_saving_pct() const {
  if (baseline.opened_pms == 0) {
    return 0.0;
  }
  const double base = static_cast<double>(baseline.opened_pms);
  const double ours = static_cast<double>(slackvm.opened_pms);
  return 100.0 * (base - ours) / base;
}

PackingComparison compare_packing(const workload::Catalog& catalog,
                                  const workload::LevelMix& mix,
                                  const ExperimentConfig& config) {
  const std::size_t reps = effective_repetitions(config);
  ParallelRunner runner(config.parallelism);
  std::vector<CellWorkspace> workspaces(runner.slots());
  const std::vector<CellResult> cells =
      runner.map<CellResult>(reps, [&](std::size_t rep, std::size_t slot) {
        return run_cell(workspaces[slot], catalog, mix, config, rep);
      });
  return reduce_cells(catalog, mix, cells);
}

std::vector<PackingComparison> run_distribution_sweep(const workload::Catalog& catalog,
                                                      const ExperimentConfig& config) {
  const std::vector<workload::LevelMix>& mixes = workload::paper_distributions();
  const std::size_t reps = effective_repetitions(config);

  // Fan the whole (distribution, repetition) grid out at once: task index
  // t = mix * reps + rep, so each cell's seed and its slot in the reduction
  // depend only on its grid position, never on scheduling order.
  // Each thread replays on its own workspace (slot), so no datacenter is
  // ever shared between threads.
  ParallelRunner runner(config.parallelism);
  std::vector<CellWorkspace> workspaces(runner.slots());
  const std::vector<CellResult> cells =
      runner.map<CellResult>(mixes.size() * reps, [&](std::size_t t, std::size_t slot) {
        return run_cell(workspaces[slot], catalog, mixes[t / reps], config, t % reps);
      });

  std::vector<PackingComparison> out;
  out.reserve(mixes.size());
  for (std::size_t m = 0; m < mixes.size(); ++m) {
    out.push_back(reduce_cells(catalog, mixes[m],
                               std::span(cells).subspan(m * reps, reps)));
  }
  return out;
}

std::optional<RebalanceOptions> rebalance_options(const ExperimentConfig& config) {
  if (!(config.rebalance_interval > 0)) {
    return std::nullopt;
  }
  return RebalanceOptions{config.rebalance_interval, config.rebalance_budget,
                          config.migration, config.interference};
}

std::vector<HeatmapCell> run_savings_heatmap(const workload::Catalog& catalog,
                                             const ExperimentConfig& config) {
  if (!config.trace_path.empty()) {
    SLACKVM_THROW("heatmap: a trace file fixes the level mix the heatmap varies, "
                  "so every cell would replay the same workload");
  }
  std::vector<HeatmapCell> cells;
  for (const PackingComparison& cmp : run_distribution_sweep(catalog, config)) {
    const workload::LevelMix& mix = workload::distribution(cmp.distribution[0]);
    HeatmapCell cell;
    cell.pct_1to1 = static_cast<int>(mix.share_1to1 * 100.0 + 0.5);
    cell.pct_2to1 = static_cast<int>(mix.share_2to1 * 100.0 + 0.5);
    cell.saving_pct = cmp.pm_saving_pct();
    cells.push_back(cell);
  }
  return cells;
}

}  // namespace slackvm::sim
