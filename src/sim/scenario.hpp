// Scenario files: declarative experiment configurations.
//
// A scenario is a small "key value" text file describing one
// baseline-vs-SlackVM comparison (provider, distribution, scale, knobs), so
// experiments can be versioned and shared instead of encoded in shell
// flags. Used by `slackvm run-scenario` and the shipped scenarios/ files.
//
// Format (lines starting with '#' and blanks ignored):
//
//   name         f-at-scale
//   provider     ovhcloud          # azure | ovhcloud
//   distribution F                 # A..O
//   population   500
//   seed         42
//   repetitions  3
//   parallelism  1                 # worker threads (0 = all cores); results
//                                  # are identical at every value
//   shards       1                 # replay loop shards (sim/shard.hpp):
//                                  # 1 = plain replay; > 1 = cell-partitioned
//                                  # sharded replay (bit-identical across
//                                  # parallelism/index for a given value)
//   index        on                # incremental placement index (on|off);
//                                  # results identical, off = naive scan
//   mem_oversub  1.0
//   horizon_days 7
//   lifetime_days 2
//   diurnal      0.0
//   trace        traces/sap_month.csv   # optional: stream this CSV
//                                  # (workload::TraceReader, native or real
//                                  # format) instead of generating a
//                                  # workload; population/seed/horizon then
//                                  # only shape the fault seeds
//
// Fault injection (sim/fault.hpp) — all optional, default off:
//
//   faults        100               # seed-derived host failures over the run
//   fault_seed    0                 # 0 = derive from the workload seed
//   repair_delay_s 14400            # FAILED -> UP delay for seeded failures
//   drain_lead_s  0                 # grace drain before each seeded failure
//   evac_retries  5                 # evacuation retry budget per victim
//   evac_backoff_s 60               # base of the exponential retry backoff
//   fail   host=3 at=86400          # explicit events (cluster=N optional);
//   repair host=3 at=90000          # explicit failures never auto-repair
//   drain  host=7 at=43200
//
// Continuous rebalance / live migration (sim/migration.hpp) — optional:
//
//   rebalance_s     21600            # consolidation cadence (0 = off)
//   rebalance_budget 64              # migrations planned per cluster/pass
//   migration       engine           # engine = time-extended flights with
//                                    # retry/rollback; instant = legacy
//                                    # apply_plan teleport
//   mig_bw_mibps    1024             # pre-copy bandwidth (flight duration =
//                                    # VM mem / bandwidth)
//   mig_cap         2                # concurrent flights per host (src+dst)
//   mig_in_flight   16               # concurrent flights per cluster
//   mig_timeout_s   0                # per-flight deadline (0 = none)
//   mig_retries     3                # rollback retry budget per VM
//   mig_backoff_s   60               # base of the exponential retry backoff
//
// Interference loop (sched/rebalancer.hpp, needs rebalance_s > 0) — optional:
//
//   interference    on               # arm the heat EWMA + polluter pass
//                                    # (and heat-aware shared-policy scoring)
//   heat_interval_s 900              # seconds between heat EWMA refreshes
//   heat_alpha      0.3              # EWMA smoothing factor in (0, 1]
//   heat_bucket     0.25             # heat quantization bucket width
//   heat_weight     4.0              # scorer penalty per unit quantized heat
//   itf_threshold   1.25             # polluter pass fires above this
//                                    # contention inflation (1.0 = none)
//   itf_evictions   4                # polluter evictions per pass
//
// Every scalar key may appear at most once (duplicates are parse errors),
// and takes exactly one value (trailing tokens are parse errors);
// fail/drain/repair directives may repeat.
#pragma once

#include <iosfwd>
#include <string>

#include "sim/experiment.hpp"

namespace slackvm::sim {

struct Scenario {
  std::string name = "unnamed";
  std::string provider = "ovhcloud";
  char distribution = 'F';
  ExperimentConfig config;

  /// The catalog the scenario refers to; throws on unknown providers.
  [[nodiscard]] const workload::Catalog& catalog() const;

  /// The level mix; throws on distributions outside A..O.
  [[nodiscard]] const workload::LevelMix& mix() const;

  /// Execute the scenario's comparison.
  [[nodiscard]] PackingComparison run() const;
};

/// Parse a scenario file; throws core::SlackError with a line-numbered
/// message on malformed input or unknown keys.
[[nodiscard]] Scenario parse_scenario(std::istream& input);

/// Serialize (round-trips with the parser).
void write_scenario(const Scenario& scenario, std::ostream& output);

}  // namespace slackvm::sim
