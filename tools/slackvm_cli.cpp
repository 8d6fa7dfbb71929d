// slackvm — command-line front end for the library.
//
// Subcommands:
//   catalog   [--provider P]                   print the flavor catalog & Table I/II stats
//   generate  [options]                        generate a workload trace to CSV
//   analyze   --trace FILE                     aggregate statistics of a trace
//   replay    --trace FILE [options]           replay a trace under a policy
//   sweep     [options]                        Fig. 3-style distribution sweep
//   heatmap   [options]                        Fig. 4-style savings heatmap
//   topology  [--file DUMP]                    show a machine's topology & distances
//   run-scenario --file SCENARIO               run a declarative experiment file
//
// Options: every scenario knob (sim/scenario.hpp) with a flag, plus
// --policy, --mode, --file, --out and --watchdog-s; `slackvm` without
// arguments lists them all. Each subcommand reads only some of them (the
// command table at the end of this file), and run-scenario takes every knob
// from its file: a flag the subcommand would not read is an error, not a
// silent no-op.
#include <algorithm>
#include <array>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sched/offline.hpp"
#include "sched/rebalancer.hpp"
#include "sim/event_source.hpp"
#include "sim/experiment.hpp"
#include "sim/power.hpp"
#include "sim/replay.hpp"
#include "sim/scenario.hpp"
#include "sim/shard.hpp"
#include "topology/builders.hpp"
#include "topology/distance.hpp"
#include "topology/sysfs.hpp"
#include "workload/analysis.hpp"
#include "workload/generator.hpp"
#include "workload/trace_reader.hpp"

using namespace slackvm;

namespace {

struct Args {
  sim::Scenario scenario;  ///< every knob flag lands here
  std::string policy = "progress";
  std::string mode = "shared";
  std::string file_path;
  std::string out_path = "trace.csv";
  double watchdog_s = 0.0;
};

int usage() {
  std::fprintf(stderr,
               "usage: slackvm <catalog|generate|analyze|replay|sweep|heatmap|topology|"
               "run-scenario> [options]\n"
               "options [scenario key]:\n"
               "  --policy NAME                 replay policy: first-fit|best-fit|\n"
               "                                worst-fit|random|progress|interference|\n"
               "                                slackvm\n"
               "  --mode shared|dedicated       replay cluster organisation\n"
               "  --file FILE                   scenario (run-scenario) or topology dump\n"
               "  --out FILE                    generate: output trace\n"
               "  --watchdog-s X                sharded replay: dump per-shard progress\n"
               "                                and abort after X seconds of stall\n");
  for (const bool scenario_only : {false, true}) {
    if (scenario_only) {
      std::fprintf(stderr, "scenario-only keys:\n");
    }
    for (const sim::Knob& knob : sim::knobs()) {
      if (knob.flag.empty() != scenario_only) {
        continue;
      }
      const std::string spelled =
          std::string(scenario_only ? knob.key : knob.flag) + " " + std::string(knob.arg);
      std::fprintf(stderr, "  %-29s %.*s", spelled.c_str(),
                   static_cast<int>(knob.help.size()), knob.help.data());
      if (!scenario_only) {
        std::fprintf(stderr, " [%.*s]", static_cast<int>(knob.key.size()), knob.key.data());
      }
      std::fprintf(stderr, "\n");
    }
  }
  return 2;
}

sim::PolicyFactory policy_factory(const Args& args) {
  if (args.policy == "first-fit") {
    return sched::make_first_fit;
  }
  if (args.policy == "best-fit") {
    return sched::make_best_fit;
  }
  if (args.policy == "worst-fit") {
    return sched::make_worst_fit;
  }
  if (args.policy == "random") {
    return [seed = args.scenario.config.generator.seed] {
      return sched::make_random_fit(seed);
    };
  }
  if (args.policy == "progress") {
    return sched::make_progress_policy;
  }
  if (args.policy == "interference") {
    return [weight = args.scenario.config.interference.heat_weight] {
      return sched::make_interference_policy(weight);
    };
  }
  if (args.policy == "slackvm") {
    return [] { return sched::make_slackvm_policy(); };
  }
  throw core::SlackError("unknown policy " + args.policy);
}

const std::string& trace_path(const Args& args) {
  if (args.scenario.config.trace_path.empty()) {
    throw core::SlackError("--trace FILE required");
  }
  return args.scenario.config.trace_path;
}

int cmd_catalog(const Args& args) {
  const workload::Catalog& catalog = args.scenario.catalog();
  std::printf("catalog %s (%zu flavors)\n", catalog.provider().c_str(),
              catalog.flavors().size());
  for (std::size_t i = 0; i < catalog.flavors().size(); ++i) {
    const workload::Flavor& f = catalog.flavors()[i];
    std::printf("  %-18s %2u vCPU %6.0f GiB  weight %.4f\n", f.name.c_str(), f.vcpus,
                core::mib_to_gib(f.mem_mib), catalog.weight(i));
  }
  const workload::CatalogStats stats = catalog.stats();
  std::printf("Table I : %.2f vCPUs / %.2f GB per VM\n", stats.avg_vcpus,
              stats.avg_mem_gib);
  std::printf("Table II: M/C 1:1 %.1f, 2:1 %.1f, 3:1 %.1f GB/core\n",
              catalog.expected_mc_ratio(core::OversubLevel{1}),
              catalog.expected_mc_ratio(core::OversubLevel{2}),
              catalog.expected_mc_ratio(core::OversubLevel{3}));
  return 0;
}

int cmd_generate(const Args& args) {
  const sim::Scenario& scenario = args.scenario;
  const workload::Trace trace =
      workload::Generator(scenario.catalog(), scenario.mix(), scenario.config.generator)
          .generate();
  std::ofstream out(args.out_path);
  if (!out) {
    throw core::SlackError("cannot write " + args.out_path);
  }
  workload::write_csv_fast(trace, out);
  std::printf("wrote %zu VMs to %s (provider %s, distribution %c, seed %llu)\n",
              trace.size(), args.out_path.c_str(), scenario.provider.c_str(),
              scenario.distribution,
              static_cast<unsigned long long>(scenario.config.generator.seed));
  return 0;
}

int cmd_analyze(const Args& args) {
  // TraceReader: strict validation, and it understands the 5-column
  // real-provider format as well as the native one.
  const workload::Trace trace = workload::TraceReader(trace_path(args)).read_all();
  const workload::TraceStats stats = workload::analyze(trace);
  std::printf("VMs            : %zu\n", stats.vm_count);
  std::printf("peak population: %zu at t=%.0fs\n", stats.peak_population,
              stats.peak_time);
  std::printf("avg size       : %.2f vCPUs / %.2f GiB, lifetime %.1f h\n",
              stats.avg_vcpus, stats.avg_mem_gib, stats.avg_lifetime_hours);
  std::printf("level shares   : 1:1 %.0f%%  2:1 %.0f%%  3:1 %.0f%%\n",
              stats.level_share[1] * 100, stats.level_share[2] * 100,
              stats.level_share[3] * 100);
  std::printf("peak demand    : %.1f fractional cores, %.0f GiB (M/C %.2f)\n",
              stats.peak_frac_cores, core::mib_to_gib(stats.peak_mem_mib),
              stats.peak_mc_ratio());
  const auto snapshot = workload::peak_snapshot(trace);
  const core::Resources worker{32, core::gib(128)};
  std::printf("offline packing: lower bound %zu PMs, FFD %zu, BFD %zu (32c/128GiB)\n",
              sched::lower_bound_pms(snapshot, worker),
              sched::pack_ffd(snapshot, worker), sched::pack_bfd(snapshot, worker));
  return 0;
}

int cmd_replay(const Args& args) {
  const std::string& path = trace_path(args);
  const sim::ExperimentConfig& cfg = args.scenario.config;
  const core::Resources worker{32, core::gib(128)};
  sim::Datacenter dc =
      args.mode == "dedicated"
          ? sim::Datacenter::dedicated(worker,
                                       {core::OversubLevel{1}, core::OversubLevel{2},
                                        core::OversubLevel{3}},
                                       policy_factory(args), cfg.mem_oversub)
          : sim::Datacenter::shared_sharded(worker, policy_factory(args), cfg.shards,
                                            cfg.mem_oversub);
  // The same schedules a sweep cell builds from this config (run_cell).
  const sim::FaultConfig faults = sim::resolve_fault_seed(cfg.faults, cfg.generator.seed);
  sim::ShardOptions shard_options;
  shard_options.shards = cfg.shards;
  shard_options.threads = cfg.parallelism;
  shard_options.rebalance = sim::rebalance_options(cfg);
  shard_options.faults = faults.enabled() ? &faults : nullptr;
  shard_options.watchdog_ms = static_cast<std::size_t>(args.watchdog_s * 1000.0);

  // The trace streams row by row through TraceReader, so a multi-GB file
  // replays in O(active window) memory. Configurations that need the
  // horizon up-front (shards, rebalance, faults) get it from a cheap scan
  // pre-pass.
  const bool needs_horizon = cfg.shards > 1 || shard_options.rebalance.has_value() ||
                             shard_options.faults != nullptr;
  std::optional<workload::TraceReader::ScanInfo> scan;
  if (needs_horizon) {
    scan = workload::TraceReader::scan(path);
  }
  sim::StreamingTraceSource source(workload::TraceReader(path), scan);
  const sim::RunResult result = sim::replay_sharded(dc, source, shard_options);
  std::printf("mode %s, policy %s, mem oversub %.2fx, shards %zu, streamed trace\n",
              args.mode.c_str(), args.policy.c_str(), cfg.mem_oversub, cfg.shards);
  std::printf("placed VMs     : %zu (peak %zu concurrent)\n", result.placed_vms,
              result.peak_vms);
  std::printf("PMs opened     : %zu (peak active %zu)\n", result.opened_pms,
              result.peak_active_pms);
  std::printf("stranded       : cpu %.1f%%, mem %.1f%% (time-weighted)\n",
              result.avg_unalloc_cpu_share * 100, result.avg_unalloc_mem_share * 100);
  if (result.migrations > 0) {
    std::printf("migrations     : %zu\n", result.migrations);
  }
  if (result.mig_planned > 0) {
    std::printf("mig flights    : %zu planned -> %zu committed, %zu cancelled, "
                "%zu rolled back, %zu timed out, %zu degraded (%zu retries)\n",
                result.mig_planned, result.mig_committed, result.mig_cancelled,
                result.mig_rolled_back, result.mig_timed_out, result.mig_degraded,
                result.mig_retries);
  }
  if (cfg.interference.enabled) {
    std::printf("interference   : %zu heat updates, %zu passes, %zu hot hosts, "
                "%zu evictions (%zu applied, %zu requested, %zu skipped)\n",
                result.heat_updates, result.itf_passes, result.itf_hot_hosts,
                result.itf_evictions, result.itf_applied, result.itf_requested,
                result.itf_skipped);
  }
  if (faults.enabled()) {
    std::printf("faults         : %zu failures, %zu repairs, %zu drains\n",
                result.host_failures, result.host_repairs, result.drained_hosts);
    std::printf("evacuation     : %zu evicted -> %zu re-placed, %zu departed, "
                "%zu degraded (%zu retries, %zu pre-drained)\n",
                result.evacuated_vms, result.evac_replaced, result.evac_departed,
                result.degraded_vms, result.evac_retries, result.evac_migrated);
    if (result.deferred_arrivals > 0) {
      std::printf("arrivals       : %zu deferred, %zu dropped\n",
                  result.deferred_arrivals, result.arrivals_dropped);
    }
  }
  const sim::EnergyReport energy = sim::estimate_energy(result, worker.cores);
  std::printf("energy         : %.0f kWh, %.0f kgCO2e (provisioned fleet)\n",
              energy.kwh, energy.carbon_kg);
  return 0;
}

int cmd_sweep(const Args& args) {
  std::printf("dist,share1,share2,share3,baseline_pms,slackvm_pms,saving_pct,"
              "base_cpu_stranded,base_mem_stranded,slack_cpu_stranded,"
              "slack_mem_stranded\n");
  for (const auto& cmp :
       sim::run_distribution_sweep(args.scenario.catalog(), args.scenario.config)) {
    const workload::LevelMix& mix = workload::distribution(cmp.distribution[0]);
    std::printf("%s,%.0f,%.0f,%.0f,%zu,%zu,%.2f,%.4f,%.4f,%.4f,%.4f\n",
                cmp.distribution.c_str(), mix.share_1to1 * 100, mix.share_2to1 * 100,
                mix.share_3to1 * 100, cmp.baseline.opened_pms, cmp.slackvm.opened_pms,
                cmp.pm_saving_pct(), cmp.baseline.avg_unalloc_cpu_share,
                cmp.baseline.avg_unalloc_mem_share, cmp.slackvm.avg_unalloc_cpu_share,
                cmp.slackvm.avg_unalloc_mem_share);
  }
  return 0;
}

int cmd_heatmap(const Args& args) {
  const std::vector<sim::HeatmapCell> cells =
      sim::run_savings_heatmap(args.scenario.catalog(), args.scenario.config);
  std::printf("pct_1to1,pct_2to1,pct_3to1,saving_pct\n");
  for (const sim::HeatmapCell& cell : cells) {
    std::printf("%d,%d,%d,%.2f\n", cell.pct_1to1, cell.pct_2to1,
                100 - cell.pct_1to1 - cell.pct_2to1, cell.saving_pct);
  }
  return 0;
}

int cmd_run_scenario(const Args& args) {
  if (args.file_path.empty()) {
    throw core::SlackError("--file SCENARIO required");
  }
  std::ifstream in(args.file_path);
  if (!in) {
    throw core::SlackError("cannot open " + args.file_path);
  }
  const sim::Scenario scenario = sim::parse_scenario(in);
  std::printf("scenario %s: %s distribution %c, %zu VMs, %zu reps\n",
              scenario.name.c_str(), scenario.provider.c_str(), scenario.distribution,
              scenario.config.generator.target_population,
              scenario.config.repetitions);
  const sim::PackingComparison cmp = scenario.run();
  std::printf("baseline (dedicated FF): %zu PMs, stranded cpu %.1f%% mem %.1f%%\n",
              cmp.baseline.opened_pms, cmp.baseline.avg_unalloc_cpu_share * 100,
              cmp.baseline.avg_unalloc_mem_share * 100);
  std::printf("slackvm  (shared):       %zu PMs, stranded cpu %.1f%% mem %.1f%%\n",
              cmp.slackvm.opened_pms, cmp.slackvm.avg_unalloc_cpu_share * 100,
              cmp.slackvm.avg_unalloc_mem_share * 100);
  if (cmp.slackvm.mig_planned > 0) {
    std::printf("mig flights (slackvm):   %zu planned -> %zu committed, "
                "%zu cancelled, %zu rolled back, %zu timed out, %zu degraded "
                "(%zu retries)\n",
                cmp.slackvm.mig_planned, cmp.slackvm.mig_committed,
                cmp.slackvm.mig_cancelled, cmp.slackvm.mig_rolled_back,
                cmp.slackvm.mig_timed_out, cmp.slackvm.mig_degraded,
                cmp.slackvm.mig_retries);
  }
  if (cmp.slackvm.heat_updates > 0 || cmp.slackvm.itf_passes > 0) {
    std::printf("interference (slackvm):  %zu heat updates, %zu passes, "
                "%zu hot hosts, %zu evictions (%zu applied, %zu requested, "
                "%zu skipped)\n",
                cmp.slackvm.heat_updates, cmp.slackvm.itf_passes,
                cmp.slackvm.itf_hot_hosts, cmp.slackvm.itf_evictions,
                cmp.slackvm.itf_applied, cmp.slackvm.itf_requested,
                cmp.slackvm.itf_skipped);
  }
  std::printf("==> saving %.1f%%\n", cmp.pm_saving_pct());
  return 0;
}

int cmd_topology(const Args& args) {
  topo::CpuTopology machine = [&args] {
    if (args.file_path.empty()) {
      return topo::make_dual_epyc_7662();
    }
    std::ifstream in(args.file_path);
    if (!in) {
      throw core::SlackError("cannot open " + args.file_path);
    }
    return topo::parse_topology_dump(in);
  }();
  std::printf("%s: %zu threads, %zu sockets, %zu NUMA, SMT %u, %.0f GiB, M/C %.1f\n",
              machine.name().c_str(), machine.cpu_count(), machine.socket_count(),
              machine.numa_count(), machine.smt_width(),
              core::mib_to_gib(machine.total_mem()), machine.target_ratio());
  std::printf("Algorithm-1 distances from cpu0 (change points): ");
  std::uint32_t last = 0xffffffff;
  for (std::size_t cpu = 0; cpu < machine.cpu_count(); ++cpu) {
    const auto d = topo::core_distance(machine, 0, static_cast<topo::CpuId>(cpu));
    if (d != last) {
      std::printf("cpu%zu:%u ", cpu, d);
      last = d;
    }
  }
  std::printf("\n");
  return 0;
}

// The subcommands and every flag each one reads: the flags of the knobs its
// parts read (sim::KnobReader bits), plus its own flags. Any other flag is
// refused, naming it, rather than ignored.
struct Command {
  std::string_view name;
  int (*run)(const Args&);
  std::uint8_t knob_readers;
  std::array<std::string_view, 3> own_flags;
};

constexpr std::uint8_t kComparisonReaders = sim::kReadByCatalog | sim::kReadByGenerator |
                                            sim::kReadByGrid | sim::kReadByTrace |
                                            sim::kReadByReplay;

const Command kCommands[] = {
    {"catalog", cmd_catalog, sim::kReadByCatalog, {}},
    {"generate", cmd_generate,
     sim::kReadByCatalog | sim::kReadByMix | sim::kReadByGenerator, {"--out"}},
    {"analyze", cmd_analyze, sim::kReadByTrace, {}},
    {"replay", cmd_replay, sim::kReadByTrace | sim::kReadByReplay,
     {"--policy", "--mode", "--watchdog-s"}},
    {"sweep", cmd_sweep, kComparisonReaders, {}},
    // A trace is read only to be refused: it fixes the mix the heatmap varies.
    {"heatmap", cmd_heatmap, kComparisonReaders, {}},
    {"topology", cmd_topology, 0, {"--file"}},
    {"run-scenario", cmd_run_scenario, 0, {"--file"}},
};

/// Whether `command` reads `flag`; `knob` is its row, or null for own flags.
bool reads(const Command& command, std::string_view flag, const sim::Knob* knob) {
  return knob != nullptr ? (command.knob_readers & knob->readers) != 0
                         : std::ranges::find(command.own_flags, flag) !=
                               command.own_flags.end();
}

/// "--policy is read by replay only, not by sweep".
std::string unread_message(const Command& command, std::string_view flag,
                           const sim::Knob* knob) {
  if (knob != nullptr && command.name == "run-scenario") {
    return "run-scenario reads every knob from --file; drop " + std::string(flag) +
           " or set its key in the scenario";
  }
  std::string readers;
  for (const Command& other : kCommands) {
    if (reads(other, flag, knob)) {
      readers += (readers.empty() ? "" : ", ") + std::string(other.name);
    }
  }
  return std::string(flag) + " is read by " + readers + " only, not by " +
         std::string(command.name);
}

/// The parsed flags and the subcommand to run them; nullopt for usage().
std::optional<std::pair<Args, const Command*>> parse_args(int argc, char** argv) {
  if (argc < 2) {
    return std::nullopt;
  }
  const auto command = std::ranges::find(kCommands, std::string_view(argv[1]),
                                         &Command::name);
  if (command == std::end(kCommands)) {
    return std::nullopt;
  }
  Args args;
  const auto knobs = sim::knobs();
  // The first flag given that the subcommand would not read.
  std::string unread;
  for (int i = 2; i < argc; ++i) {
    const std::string key = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        throw core::SlackError("missing value for " + key);
      }
      return argv[++i];
    };
    const sim::Knob* knob = nullptr;
    if (key == "--policy") {
      args.policy = value();
    } else if (key == "--mode") {
      args.mode = value();
    } else if (key == "--file") {
      args.file_path = value();
    } else if (key == "--out") {
      args.out_path = value();
    } else if (key == "--watchdog-s") {
      // Converted to whole milliseconds later: a negative, NaN or huge value
      // would make that conversion undefined.
      const auto seconds = sim::parse_number<double>(value());
      if (!seconds || !(*seconds >= 0 && *seconds <= 1e9)) {
        throw core::SlackError("--watchdog-s must be in [0, 1e9]");
      }
      args.watchdog_s = *seconds;
    } else if (const auto row = std::ranges::find(knobs, key, &sim::Knob::flag);
               row != knobs.end() && !key.empty()) {
      knob = &*row;
      const std::string text = value();
      if (!knob->parse(args.scenario, text)) {
        throw core::SlackError(key + " " + knob->requirement() + ", got '" + text + "'");
      }
    } else {
      throw core::SlackError("unknown option " + key);
    }
    if (unread.empty() && !reads(*command, key, knob)) {
      unread = unread_message(*command, key, knob);
    }
  }
  if (!unread.empty()) {
    throw core::SlackError(unread);
  }
  sim::check_knobs(args.scenario, sim::KnobName::kFlag);
  return std::pair{std::move(args), &*command};
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const auto parsed = parse_args(argc, argv);
    if (!parsed) {
      return usage();
    }
    return parsed->second->run(parsed->first);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "slackvm: %s\n", e.what());
    return 1;
  }
}
