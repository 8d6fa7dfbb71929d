// slackvm — command-line front end for the library.
//
// Subcommands:
//   catalog   <azure|ovhcloud>                 print the flavor catalog & Table I/II stats
//   generate  [options]                        generate a workload trace to CSV
//   analyze   --trace FILE                     aggregate statistics of a trace
//   replay    --trace FILE [options]           replay a trace under a policy
//   sweep     [options]                        Fig. 3-style distribution sweep
//   heatmap   [options]                        Fig. 4-style savings heatmap
//   topology  [--file DUMP]                    show a machine's topology & distances
//   run-scenario --file SCENARIO               run a declarative experiment file
//
// Common options: --provider azure|ovhcloud, --dist A..O, --seed N,
// --population N, --policy first-fit|best-fit|worst-fit|random|progress|slackvm,
// --mode shared|dedicated, --mem-oversub X, --rebalance SECONDS.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>

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
  std::string command;
  std::string provider = "ovhcloud";
  char dist = 'F';
  std::uint64_t seed = 42;
  std::size_t population = 500;
  std::string policy = "progress";
  std::string mode = "shared";
  std::string trace_path;
  std::string file_path;
  std::string out_path = "trace.csv";
  double mem_oversub = 1.0;
  double rebalance_s = 0.0;
  std::size_t rebalance_budget = 64;
  std::size_t parallelism = 1;
  std::size_t repetitions = 1;
  std::size_t shards = 1;
  bool use_index = true;
  bool stream = true;
  double watchdog_s = 0.0;
  sim::FaultConfig faults;
  sim::MigrationConfig migration;
  sched::InterferenceOptions interference;
};

int usage() {
  std::fprintf(stderr,
               "usage: slackvm <catalog|generate|analyze|replay|sweep|heatmap|topology|run-scenario>"
               " [options]\n"
               "options: --provider azure|ovhcloud  --dist A..O  --seed N\n"
               "         --population N  --policy NAME  --mode shared|dedicated\n"
               "         --mem-oversub X  --rebalance SECONDS  --trace FILE\n"
               "         --file DUMP  --out FILE  --reps N\n"
               "         --parallelism N   (sweep/heatmap worker threads; 0 = all\n"
               "                            cores; results identical at any value)\n"
               "         --index on|off    (incremental placement index; results\n"
               "                            identical, off replays the naive scan)\n"
               "         --shards N        (clusters dealt across N shards; > 1 runs\n"
               "                            shards on the thread pool; replay uses\n"
               "                            --parallelism threads)\n"
               "         --stream on|off   (replay: pull the trace through the\n"
               "                            streaming TraceReader [default] or\n"
               "                            materialize it first; bit-identical)\n"
               "         --faults N        (seed-derived host failures over the run)\n"
               "         --fault-seed N    (0 = derive from --seed)\n"
               "         --repair-s X  --drain-lead-s X   (fault timing knobs)\n"
               "         --rebalance-budget N  (migrations planned per cluster/pass)\n"
               "         --migration engine|instant  (time-extended flights with\n"
               "                            retry/rollback, or legacy instant apply)\n"
               "         --mig-bw MIBPS  --mig-cap N  --mig-in-flight N\n"
               "         --mig-timeout-s X  --mig-retries N  --mig-backoff-s X\n"
               "                           (engine knobs: pre-copy bandwidth, per-host\n"
               "                            and per-cluster concurrency, deadline,\n"
               "                            retry budget, backoff base)\n"
               "         --watchdog-s X    (sharded replay: abort with a per-shard\n"
               "                            progress dump after X seconds of stall)\n"
               "         --interference on|off  (heat EWMA + polluter-eviction pass;\n"
               "                            needs --rebalance > 0; sweep/heatmap also\n"
               "                            switch the shared policy to interference-\n"
               "                            aware scoring — replay keeps --policy, pass\n"
               "                            --policy interference to match)\n"
               "         --heat-interval-s X  --heat-alpha X  --heat-bucket X\n"
               "         --heat-weight X   (heat EWMA cadence, smoothing factor,\n"
               "                            quantization bucket, scorer penalty)\n"
               "         --itf-threshold X --itf-evictions N  (polluter pass fires\n"
               "                            above this contention inflation; evicts\n"
               "                            at most N VMs per pass)\n");
  return 2;
}

std::optional<Args> parse_args(int argc, char** argv) {
  if (argc < 2) {
    return std::nullopt;
  }
  Args args;
  args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string key = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        throw core::SlackError("missing value for " + key);
      }
      return argv[++i];
    };
    if (key == "--provider") {
      args.provider = value();
    } else if (key == "--dist") {
      args.dist = value()[0];
    } else if (key == "--seed") {
      args.seed = std::strtoull(value(), nullptr, 10);
    } else if (key == "--population") {
      args.population = std::strtoull(value(), nullptr, 10);
    } else if (key == "--policy") {
      args.policy = value();
    } else if (key == "--mode") {
      args.mode = value();
    } else if (key == "--trace") {
      args.trace_path = value();
    } else if (key == "--file") {
      args.file_path = value();
    } else if (key == "--out") {
      args.out_path = value();
    } else if (key == "--mem-oversub") {
      args.mem_oversub = std::strtod(value(), nullptr);
    } else if (key == "--rebalance") {
      args.rebalance_s = std::strtod(value(), nullptr);
    } else if (key == "--parallelism") {
      args.parallelism = std::strtoull(value(), nullptr, 10);
    } else if (key == "--shards") {
      // Digits only: strtoull would wrap "-1" to 2^64 - 1 shards.
      const std::string v = value();
      args.shards = v.find_first_not_of("0123456789") == std::string::npos
                        ? std::strtoull(v.c_str(), nullptr, 10)
                        : 0;
      if (args.shards == 0) {
        throw core::SlackError("--shards must be an integer >= 1");
      }
    } else if (key == "--index") {
      const std::string v = value();
      if (v == "on") {
        args.use_index = true;
      } else if (v == "off") {
        args.use_index = false;
      } else {
        throw core::SlackError("--index must be on|off");
      }
    } else if (key == "--stream") {
      const std::string v = value();
      if (v == "on") {
        args.stream = true;
      } else if (v == "off") {
        args.stream = false;
      } else {
        throw core::SlackError("--stream must be on|off");
      }
    } else if (key == "--reps") {
      args.repetitions = std::strtoull(value(), nullptr, 10);
    } else if (key == "--faults") {
      args.faults.count = std::strtoull(value(), nullptr, 10);
    } else if (key == "--fault-seed") {
      args.faults.seed = std::strtoull(value(), nullptr, 10);
    } else if (key == "--repair-s") {
      args.faults.repair_delay = std::strtod(value(), nullptr);
    } else if (key == "--drain-lead-s") {
      args.faults.drain_lead = std::strtod(value(), nullptr);
    } else if (key == "--rebalance-budget") {
      args.rebalance_budget = std::strtoull(value(), nullptr, 10);
    } else if (key == "--migration") {
      const std::string v = value();
      if (v == "engine") {
        args.migration.enabled = true;
      } else if (v == "instant") {
        args.migration.enabled = false;
      } else {
        throw core::SlackError("--migration must be engine|instant");
      }
    } else if (key == "--mig-bw") {
      args.migration.bandwidth_mibps = std::strtod(value(), nullptr);
      if (!(args.migration.bandwidth_mibps > 0)) {
        throw core::SlackError("--mig-bw must be > 0");
      }
    } else if (key == "--mig-cap") {
      args.migration.max_concurrent_per_host = std::strtoull(value(), nullptr, 10);
    } else if (key == "--mig-in-flight") {
      args.migration.max_in_flight = std::strtoull(value(), nullptr, 10);
    } else if (key == "--mig-timeout-s") {
      args.migration.timeout = std::strtod(value(), nullptr);
    } else if (key == "--mig-retries") {
      args.migration.max_retries = std::strtoull(value(), nullptr, 10);
    } else if (key == "--mig-backoff-s") {
      args.migration.backoff_base = std::strtod(value(), nullptr);
    } else if (key == "--watchdog-s") {
      // Converted to whole milliseconds later: a negative, NaN or huge value
      // would make that conversion undefined.
      args.watchdog_s = std::strtod(value(), nullptr);
      if (!(args.watchdog_s >= 0 && args.watchdog_s <= 1e9)) {
        throw core::SlackError("--watchdog-s must be in [0, 1e9]");
      }
    } else if (key == "--interference") {
      const std::string v = value();
      if (v == "on") {
        args.interference.enabled = true;
      } else if (v == "off") {
        args.interference.enabled = false;
      } else {
        throw core::SlackError("--interference must be on|off");
      }
    } else if (key == "--heat-interval-s") {
      args.interference.heat_interval = std::strtod(value(), nullptr);
      if (!(args.interference.heat_interval > 0)) {
        throw core::SlackError("--heat-interval-s must be > 0");
      }
    } else if (key == "--heat-alpha") {
      args.interference.heat_alpha = std::strtod(value(), nullptr);
      if (!(args.interference.heat_alpha > 0 && args.interference.heat_alpha <= 1)) {
        throw core::SlackError("--heat-alpha must be in (0, 1]");
      }
    } else if (key == "--heat-bucket") {
      args.interference.heat_bucket = std::strtod(value(), nullptr);
      if (!(args.interference.heat_bucket > 0)) {
        throw core::SlackError("--heat-bucket must be > 0");
      }
    } else if (key == "--heat-weight") {
      args.interference.heat_weight = std::strtod(value(), nullptr);
      if (!(args.interference.heat_weight >= 0)) {
        throw core::SlackError("--heat-weight must be >= 0");
      }
    } else if (key == "--itf-threshold") {
      args.interference.threshold = std::strtod(value(), nullptr);
      if (!(args.interference.threshold >= 1)) {
        throw core::SlackError("--itf-threshold must be >= 1");
      }
    } else if (key == "--itf-evictions") {
      args.interference.evictions_per_pass = std::strtoull(value(), nullptr, 10);
      if (args.interference.evictions_per_pass == 0) {
        throw core::SlackError("--itf-evictions must be >= 1");
      }
    } else {
      throw core::SlackError("unknown option " + key);
    }
  }
  return args;
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
    return [seed = args.seed] { return sched::make_random_fit(seed); };
  }
  if (args.policy == "progress") {
    return sched::make_progress_policy;
  }
  if (args.policy == "interference") {
    return [weight = args.interference.heat_weight] {
      return sched::make_interference_policy(weight);
    };
  }
  if (args.policy == "slackvm") {
    return [] { return sched::make_slackvm_policy(); };
  }
  throw core::SlackError("unknown policy " + args.policy);
}

workload::Trace load_trace(const Args& args) {
  if (args.trace_path.empty()) {
    throw core::SlackError("--trace FILE required");
  }
  // TraceReader instead of Trace::read_csv: same strict validation,
  // several times the parse throughput, and it understands the 5-column
  // real-provider format as well as the native one.
  return workload::TraceReader(args.trace_path).read_all();
}

workload::GeneratorConfig generator_config(const Args& args) {
  workload::GeneratorConfig cfg;
  cfg.target_population = args.population;
  cfg.seed = args.seed;
  return cfg;
}

int cmd_catalog(const Args& args) {
  const workload::Catalog& catalog = workload::catalog_by_name(args.provider);
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
  const workload::Trace trace =
      workload::Generator(workload::catalog_by_name(args.provider),
                          workload::distribution(args.dist), generator_config(args))
          .generate();
  std::ofstream out(args.out_path);
  if (!out) {
    throw core::SlackError("cannot write " + args.out_path);
  }
  trace.write_csv(out);
  std::printf("wrote %zu VMs to %s (provider %s, distribution %c, seed %llu)\n",
              trace.size(), args.out_path.c_str(), args.provider.c_str(), args.dist,
              static_cast<unsigned long long>(args.seed));
  return 0;
}

int cmd_analyze(const Args& args) {
  const workload::Trace trace = load_trace(args);
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
  if (args.trace_path.empty()) {
    throw core::SlackError("--trace FILE required");
  }
  const core::Resources worker{32, core::gib(128)};
  sim::Datacenter dc =
      args.mode == "dedicated"
          ? sim::Datacenter::dedicated(worker,
                                       {core::OversubLevel{1}, core::OversubLevel{2},
                                        core::OversubLevel{3}},
                                       policy_factory(args), args.mem_oversub)
          : sim::Datacenter::shared_sharded(worker, policy_factory(args), args.shards,
                                            args.mem_oversub);
  dc.set_index_enabled(args.use_index);
  std::optional<sim::RebalanceOptions> rebalance;
  if (args.rebalance_s > 0) {
    rebalance = sim::RebalanceOptions{args.rebalance_s, args.rebalance_budget,
                                      args.migration, args.interference};
  } else if (args.interference.enabled) {
    throw core::SlackError("--interference needs --rebalance > 0");
  }
  const sim::FaultConfig faults = sim::resolve_fault_seed(args.faults, args.seed);
  const sim::FaultConfig* fault_ptr = faults.enabled() ? &faults : nullptr;

  // Streaming is the default: the trace is pulled row-by-row through
  // TraceReader, so a multi-GB file replays in O(active window) memory.
  // Configurations that need the horizon up-front (shards, rebalance,
  // faults) get it from a cheap scan pre-pass; --stream off materializes
  // the whole trace instead (bit-identical result either way).
  std::unique_ptr<sim::EventSource> source;
  workload::Trace trace;
  if (args.stream) {
    const bool needs_horizon =
        args.shards > 1 || rebalance.has_value() || faults.enabled();
    std::optional<workload::TraceReader::ScanInfo> scan;
    if (needs_horizon) {
      scan = workload::TraceReader::scan(args.trace_path);
    }
    source = std::make_unique<sim::StreamingTraceSource>(
        workload::TraceReader(args.trace_path), scan);
  } else {
    trace = load_trace(args);
    source = std::make_unique<sim::MaterializedSource>(trace);
  }

  sim::ShardOptions shard_options;
  shard_options.shards = args.shards;
  shard_options.threads = args.parallelism;
  shard_options.rebalance = rebalance;
  shard_options.faults = fault_ptr;
  shard_options.watchdog_ms = static_cast<std::size_t>(args.watchdog_s * 1000.0);
  const sim::RunResult result = sim::replay_sharded(dc, *source, shard_options);
  std::printf("mode %s, policy %s, mem oversub %.2fx, shards %zu, %s trace\n",
              args.mode.c_str(), args.policy.c_str(), args.mem_oversub, args.shards,
              args.stream ? "streamed" : "materialized");
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
  if (args.interference.enabled) {
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
  sim::ExperimentConfig cfg;
  cfg.generator = generator_config(args);
  cfg.mem_oversub = args.mem_oversub;
  cfg.repetitions = args.repetitions;
  cfg.parallelism = args.parallelism;
  cfg.shards = args.shards;
  cfg.use_index = args.use_index;
  cfg.faults = args.faults;  // per-cell seed resolution happens in run_cell
  cfg.trace_path = args.trace_path;  // optional: stream a real trace per cell
  cfg.rebalance_interval = args.rebalance_s;
  cfg.rebalance_budget = args.rebalance_budget;
  cfg.migration = args.migration;
  cfg.interference = args.interference;
  std::printf("dist,share1,share2,share3,baseline_pms,slackvm_pms,saving_pct,"
              "base_cpu_stranded,base_mem_stranded,slack_cpu_stranded,"
              "slack_mem_stranded\n");
  for (const auto& cmp : sim::run_distribution_sweep(
           workload::catalog_by_name(args.provider), cfg)) {
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
  sim::ExperimentConfig cfg;
  cfg.generator = generator_config(args);
  cfg.mem_oversub = args.mem_oversub;
  cfg.repetitions = args.repetitions;
  cfg.parallelism = args.parallelism;
  cfg.shards = args.shards;
  cfg.use_index = args.use_index;
  cfg.faults = args.faults;
  cfg.rebalance_interval = args.rebalance_s;
  cfg.rebalance_budget = args.rebalance_budget;
  cfg.migration = args.migration;
  cfg.interference = args.interference;
  std::printf("pct_1to1,pct_2to1,pct_3to1,saving_pct\n");
  for (const auto& cell :
       sim::run_savings_heatmap(workload::catalog_by_name(args.provider), cfg)) {
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

}  // namespace

int main(int argc, char** argv) {
  try {
    const auto args = parse_args(argc, argv);
    if (!args) {
      return usage();
    }
    if (args->command == "catalog") {
      return cmd_catalog(*args);
    }
    if (args->command == "generate") {
      return cmd_generate(*args);
    }
    if (args->command == "analyze") {
      return cmd_analyze(*args);
    }
    if (args->command == "replay") {
      return cmd_replay(*args);
    }
    if (args->command == "sweep") {
      return cmd_sweep(*args);
    }
    if (args->command == "heatmap") {
      return cmd_heatmap(*args);
    }
    if (args->command == "topology") {
      return cmd_topology(*args);
    }
    if (args->command == "run-scenario") {
      return cmd_run_scenario(*args);
    }
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "slackvm: %s\n", e.what());
    return 1;
  }
}
