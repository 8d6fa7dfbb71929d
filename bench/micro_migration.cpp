// Micro-benchmark for the live-migration engine (sim/migration.hpp).
//
// Three sections:
//
//  1. *Flight throughput* — a half-full fleet fans every VM out to a spare
//     host through the engine in one queue drain; reports committed
//     flights per wall-second (the cost of the launch/reserve/commit
//     machinery, not of simulated time).
//
//  2. *Rollback latency* — flights in the air toward one destination when
//     it fails: the on_host_failing sweep rolls every reservation back.
//     Reports mean wall nanoseconds per rolled-back flight.
//
//  3. *Rebalance-loop overhead* — the same generated fault-churn trace
//     replayed three ways: no rebalance at all, the instant apply_plan
//     loop, and the engine loop with time-extended flights. Reports each
//     wall time and the engine loop's overhead over the no-rebalance
//     baseline. The engine run is re-checked bit-identical against a
//     second run (determinism contract) and the process exits non-zero on
//     divergence.
//
//   micro_migration [--vms N] [--faults N] [--json]
//
// --json emits the machine-readable report checked in as
// BENCH_micro_migration.json.
#include <chrono>
#include <cstdio>
#include <optional>
#include <vector>

#include "bench_util.hpp"
#include "core/vm.hpp"
#include "sched/policy.hpp"
#include "sim/audit.hpp"
#include "sim/datacenter.hpp"
#include "sim/fault.hpp"
#include "sim/migration.hpp"
#include "sim/replay.hpp"
#include "workload/catalog.hpp"
#include "workload/generator.hpp"
#include "workload/level_mix.hpp"

using namespace slackvm;

namespace {

using Clock = std::chrono::steady_clock;

const core::Resources kWorker{32, core::gib(128)};

core::VmSpec small_spec() {
  core::VmSpec spec;
  spec.vcpus = 4;
  spec.mem_mib = core::gib(8);
  spec.level = core::OversubLevel{1};
  return spec;
}

core::VmSpec full_spec() {
  core::VmSpec spec;
  spec.vcpus = 32;
  spec.mem_mib = core::gib(64);
  spec.level = core::OversubLevel{1};
  return spec;
}

/// A cluster of `hosts` open hosts, the first half holding one small VM
/// each, the second half empty — every occupied host has a dedicated spare.
/// Built by placing full-host pinning VMs and removing them again.
sim::Datacenter half_full_fleet(std::size_t hosts) {
  sim::Datacenter dc = sim::Datacenter::shared(kWorker, sched::make_progress_policy);
  sched::VCluster& cl = dc.cluster(0);
  std::uint64_t next = 1;
  std::vector<core::VmId> pins;
  for (std::size_t h = 0; h < hosts; ++h) {
    const core::VmId pin{100000 + next};
    cl.place(pin, full_spec());  // forces a fresh host every time
    pins.push_back(pin);
    if (h < hosts / 2) {
      cl.place(core::VmId{next}, small_spec());
    }
    ++next;
  }
  for (const core::VmId pin : pins) {
    cl.remove(pin);
  }
  return dc;
}

struct ThroughputResult {
  std::size_t committed = 0;
  double wall_s = 0;
};

ThroughputResult bench_throughput(std::size_t hosts, std::size_t reps) {
  // Best-of-reps: the shared test machine's scheduling noise dwarfs the
  // ~millisecond walls, and the minimum is the least contaminated sample.
  ThroughputResult out;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    sim::Datacenter dc = half_full_fleet(hosts);
    sim::EventQueue queue;
    sim::RunResult result;
    sim::MigrationConfig config;
    config.enabled = true;
    config.max_in_flight = hosts;  // the caps, not the budget, do the pacing
    sim::MigrationEngine engine(dc, queue, config, result, [](core::SimTime) {});
    const std::size_t movers = hosts / 2;
    const auto start = Clock::now();
    for (std::size_t i = 0; i < movers; ++i) {
      // VM i+1 sits on host i; its dedicated spare is host movers + i.
      engine.request(0, {core::VmId{i + 1}, static_cast<sched::HostId>(i),
                         static_cast<sched::HostId>(movers + i)},
                     queue.now());
    }
    queue.run();
    const double wall = std::chrono::duration<double>(Clock::now() - start).count();
    if (rep == 0 || wall < out.wall_s) {
      out.wall_s = wall;
    }
    out.committed = result.mig_committed;
  }
  return out;
}

struct RollbackResult {
  std::size_t rolled_back = 0;
  double mean_ns = 0;
};

RollbackResult bench_rollback(std::size_t rounds, std::size_t flights_per_round) {
  RollbackResult out;
  double total_s = 0;
  for (std::size_t r = 0; r < rounds; ++r) {
    // flights_per_round sources, one big empty destination host at the end.
    sim::Datacenter dc = half_full_fleet(2 * flights_per_round);
    sched::VCluster& cl = dc.cluster(0);
    sim::EventQueue queue;
    sim::RunResult result;
    sim::MigrationConfig config;
    config.enabled = true;
    config.max_in_flight = flights_per_round;
    config.max_concurrent_per_host = flights_per_round;  // all onto one dest
    config.max_retries = 0;  // rollback is terminal: no backoff follow-ups
    sim::MigrationEngine engine(dc, queue, config, result, [](core::SimTime) {});
    const auto dest = static_cast<sched::HostId>(2 * flights_per_round - 1);
    for (std::size_t i = 0; i < flights_per_round; ++i) {
      engine.request(0, {core::VmId{i + 1}, static_cast<sched::HostId>(i), dest},
                     queue.now());
    }
    const std::size_t in_flight = engine.in_flight();
    const auto start = Clock::now();
    engine.on_host_failing(0, dest, queue.now());
    total_s += std::chrono::duration<double>(Clock::now() - start).count();
    (void)cl.fail_host(dest);
    queue.run();
    out.rolled_back += in_flight;
  }
  out.mean_ns = out.rolled_back > 0 ? total_s * 1e9 / static_cast<double>(out.rolled_back)
                                    : 0.0;
  return out;
}

struct ReplayResult {
  sim::RunResult result;
  double wall_s = 0;
};

ReplayResult timed_replay(const workload::Trace& trace, const sim::FaultConfig* faults,
                          const std::optional<sim::RebalanceOptions>& rebalance,
                          std::size_t reps) {
  // Best-of-reps wall (see bench_throughput); the RunResult is re-checked
  // identical across the repetitions, so any rep's result is THE result.
  ReplayResult out;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    sim::Datacenter dc = sim::Datacenter::shared(kWorker, sched::make_progress_policy);
    const auto start = Clock::now();
    sim::RunResult result = sim::replay(dc, trace, rebalance, nullptr, faults);
    const double wall = std::chrono::duration<double>(Clock::now() - start).count();
    if (rep == 0 || wall < out.wall_s) {
      out.wall_s = wall;
    }
    out.result = result;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t vms = bench::arg_u64(argc, argv, "--vms", 1500);
  const std::size_t fault_count = bench::arg_u64(argc, argv, "--faults", 60);
  const bool json = bench::arg_flag(argc, argv, "--json");

  // --- section 1: flight throughput ---------------------------------------
  const std::size_t hosts = 2 * ((vms + 1) / 2);  // even host count
  const ThroughputResult throughput = bench_throughput(hosts, /*reps=*/5);
  const double flights_per_s =
      throughput.wall_s > 0
          ? static_cast<double>(throughput.committed) / throughput.wall_s
          : 0.0;

  // --- section 2: rollback latency ----------------------------------------
  const RollbackResult rollback = bench_rollback(/*rounds=*/20,
                                                 /*flights_per_round=*/64);

  // --- section 3: rebalance-loop overhead ---------------------------------
  workload::GeneratorConfig gen;
  gen.target_population = vms / 2;
  gen.horizon = 2.0 * 24 * 3600;
  gen.mean_lifetime = 1.0 * 24 * 3600;
  gen.seed = 42;
  const workload::Trace trace =
      workload::Generator(workload::azure_catalog(), workload::make_mix(34, 33, 33),
                          gen)
          .generate();
  sim::FaultConfig faults;
  faults.count = fault_count;
  faults.seed = 777;
  faults.repair_delay = 3600.0;

  sim::RebalanceOptions instant;
  instant.interval = 2.0 * 3600;
  instant.budget_per_pass = 16;
  sim::RebalanceOptions engine = instant;
  engine.migration.enabled = true;
  engine.migration.bandwidth_mibps = 256.0;
  engine.migration.max_retries = 2;
  engine.migration.backoff_base = 300.0;

  const ReplayResult base = timed_replay(trace, &faults, std::nullopt, /*reps=*/5);
  const ReplayResult instant_run = timed_replay(trace, &faults, instant, /*reps=*/5);
  const ReplayResult engine_run = timed_replay(trace, &faults, engine, /*reps=*/5);
  const ReplayResult engine_again = timed_replay(trace, &faults, engine, /*reps=*/1);
  const bool deterministic = engine_run.result == engine_again.result;
  const double overhead_pct =
      base.wall_s > 0 ? 100.0 * (engine_run.wall_s - base.wall_s) / base.wall_s
                      : 0.0;
  const sim::RunResult& er = engine_run.result;
  const bool identity_holds = sim::counter_identity_violations(er).empty();

  const bool ok = deterministic && identity_holds && throughput.committed > 0;

  if (json) {
    std::printf("{\n");
    std::printf("  \"bench\": \"micro_migration\",\n");
    std::printf(
        "  \"note\": \"flight throughput prices the launch/reserve/commit "
        "machinery on a half-full fleet; rollback latency is the "
        "on_host_failing sweep per in-flight reservation; loop overhead "
        "compares the engine-driven rebalance loop against a no-rebalance "
        "replay of the same fault-churn trace\",\n");
    std::printf("  \"flight_throughput\": {\n");
    std::printf("    \"hosts\": %zu,\n", hosts);
    std::printf("    \"committed\": %zu,\n", throughput.committed);
    std::printf("    \"wall_s\": %.4f,\n", throughput.wall_s);
    std::printf("    \"flights_per_sec\": %.0f\n", flights_per_s);
    std::printf("  },\n");
    std::printf("  \"rollback_latency\": {\n");
    std::printf("    \"rolled_back\": %zu,\n", rollback.rolled_back);
    std::printf("    \"mean_ns_per_rollback\": %.0f\n", rollback.mean_ns);
    std::printf("  },\n");
    std::printf("  \"loop_overhead\": {\n");
    std::printf("    \"trace_vms\": %zu,\n", trace.size());
    std::printf("    \"faults\": %zu,\n", fault_count);
    std::printf("    \"no_rebalance_wall_s\": %.3f,\n", base.wall_s);
    std::printf("    \"instant_wall_s\": %.3f,\n", instant_run.wall_s);
    std::printf("    \"engine_wall_s\": %.3f,\n", engine_run.wall_s);
    std::printf("    \"engine_overhead_pct\": %.1f,\n", overhead_pct);
    std::printf("    \"mig_planned\": %zu,\n", er.mig_planned);
    std::printf("    \"mig_committed\": %zu,\n", er.mig_committed);
    std::printf("    \"mig_cancelled\": %zu,\n", er.mig_cancelled);
    std::printf("    \"mig_rolled_back\": %zu,\n", er.mig_rolled_back);
    std::printf("    \"mig_timed_out\": %zu,\n", er.mig_timed_out);
    std::printf("    \"mig_degraded\": %zu,\n", er.mig_degraded);
    std::printf("    \"mig_retries\": %zu,\n", er.mig_retries);
    std::printf("    \"counter_identity_holds\": %s,\n",
                identity_holds ? "true" : "false");
    std::printf("    \"deterministic\": %s\n", deterministic ? "true" : "false");
    std::printf("  }\n");
    std::printf("}\n");
    return ok ? 0 : 1;
  }

  bench::print_header("Live-migration engine — flights, rollback, loop overhead");
  std::printf("section 1: flight throughput, %zu hosts half full\n", hosts);
  std::printf("  committed:  %zu flights in %.3f s (%.0f flights/s)\n\n",
              throughput.committed, throughput.wall_s, flights_per_s);
  std::printf("section 2: rollback latency (64 flights x 20 dest failures)\n");
  std::printf("  rolled back: %zu flights, %.0f ns per rollback\n\n",
              rollback.rolled_back, rollback.mean_ns);
  std::printf("section 3: rebalance-loop overhead, %zu-VM fault-churn trace\n",
              trace.size());
  std::printf("  no rebalance: %.3f s\n", base.wall_s);
  std::printf("  instant loop: %.3f s (%zu migrations)\n", instant_run.wall_s,
              instant_run.result.migrations);
  std::printf("  engine loop:  %.3f s (%+.1f%% vs no rebalance)\n", engine_run.wall_s,
              overhead_pct);
  std::printf("  flights: %zu planned -> %zu committed, %zu cancelled, "
              "%zu rolled back, %zu timed out, %zu degraded (%zu retries)\n",
              er.mig_planned, er.mig_committed, er.mig_cancelled, er.mig_rolled_back,
              er.mig_timed_out, er.mig_degraded, er.mig_retries);
  std::printf("  counter identity: %s, deterministic: %s\n",
              identity_holds ? "holds" : "BROKEN",
              deterministic ? "yes" : "NO — BUG");
  return ok ? 0 : 1;
}
