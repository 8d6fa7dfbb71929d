// Micro-benchmark for the interference-aware scoring loop
// (sched/scorer.hpp InterferenceScorer + sim/usage_monitor.hpp heat feeder
// + sched/rebalancer.hpp polluter pass).
//
// Three sections:
//
//  1. *Scorer overhead* — ProgressScorer vs InterferenceScorer priced on
//     the same populated fleet with per-host heat spread over several
//     buckets; reports wall nanoseconds per score() call for both and the
//     interference scorer's overhead over Algorithm 2 alone.
//
//  2. *Heat refresh cost* — update_cluster_heat (the DemandCache sample +
//     EWMA write that a replay shard schedules every heat_interval,
//     through one cache per cluster) over the same fleet; reports wall
//     nanoseconds per host refresh.
//
//  3. *Loop overhead* — the same generated trace replayed with the plain
//     progress rebalance loop and with the full interference loop (heat
//     refreshes + interference placement policy + polluter pass) at equal
//     cadence. Reports both walls and the interference loop's overhead.
//     The interference run is re-checked bit-identical against a second
//     run and the eviction counter identity (itf_evictions == itf_applied
//     + itf_requested + itf_skipped) is audited; the process exits
//     non-zero on divergence.
//
//  4. *Plan throughput* — one consolidation pass (budget 16) on post-churn
//     fleets of 1k/10k/100k hosts, the naive fleet-copy reference
//     (tests/reference/planners.hpp) vs Rebalancer::plan, with the
//     plans checked identical and the scratch pass's allocation count
//     probed flat across warm passes. A counting scorer reports the
//     deterministic number of score() calls per pass for both. The naive
//     pass is skipped above 10k hosts (its per-attempt fleet snapshots are
//     quadratic there).
//
//   micro_interference [--hosts N] [--iters N] [--vms N] [--plan-max N]
//                      [--json]
//
// --json emits the machine-readable report checked in as
// BENCH_micro_interference.json.
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/rng.hpp"
#include "core/vm.hpp"
#include "reference/planners.hpp"
#include "sched/policy.hpp"
#include "sched/rebalancer.hpp"
#include "sched/scorer.hpp"
#include "sim/datacenter.hpp"
#include "sim/replay.hpp"
#include "sim/usage_monitor.hpp"
#include "workload/catalog.hpp"
#include "workload/generator.hpp"
#include "workload/level_mix.hpp"

// ---------------------------------------------------------------------------
// Global allocation probe (same idiom as micro_topology.cpp): counts every
// operator-new so the plan-throughput section can demonstrate that a warm
// scratch pass allocates a flat, constant amount (the returned plan), i.e.
// the PlanScratch columns and undo log reuse their capacity.

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

// GCC's mismatched-new-delete heuristic cannot see that this operator new
// pairs with the matching free-based operator delete below.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* ptr = std::malloc(size)) {
    return ptr;
  }
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }

#pragma GCC diagnostic pop

using namespace slackvm;

namespace {

using Clock = std::chrono::steady_clock;

const core::Resources kWorker{32, core::gib(128)};

/// A shared fleet of roughly `hosts` open hosts populated with mixed-size
/// steady VMs, heats seeded across several buckets so the interference
/// scorer's penalty path is exercised (not the zero-heat fast case).
sim::Datacenter scoring_fleet(std::size_t hosts) {
  sim::Datacenter dc =
      sim::Datacenter::shared(kWorker, sched::make_progress_policy);
  sched::VCluster& cl = dc.cluster(0);
  core::SplitMix64 rng(0x5eedULL);
  std::uint64_t next = 1;
  while (cl.opened_hosts() < hosts) {
    core::VmSpec spec;
    spec.vcpus = static_cast<core::VcpuCount>(2 + 2 * rng.below(4));  // 2..8
    spec.mem_mib = core::gib(static_cast<std::int64_t>(4 + rng.below(12)));
    spec.level = core::OversubLevel{rng.below(2) == 0 ? std::uint8_t{1}
                                                      : std::uint8_t{3}};
    spec.usage = core::UsageClass::kSteady;
    cl.place(core::VmId{next++}, spec);
  }
  for (sched::HostId h = 0; h < cl.opened_hosts(); ++h) {
    cl.set_host_heat(h, rng.uniform(0.0, 2.0), 0.25);
  }
  return dc;
}

struct ScoreResult {
  std::size_t calls = 0;
  double wall_s = 0;
  double sink = 0;  ///< accumulated scores; keeps the loop observable
};

ScoreResult bench_scorer(const sched::VCluster& cl, const sched::Scorer& scorer,
                         std::size_t iters, std::size_t reps) {
  // Best-of-reps: the shared test machine's scheduling noise dwarfs the
  // ~millisecond walls, and the minimum is the least contaminated sample.
  core::VmSpec probe;
  probe.vcpus = 4;
  probe.mem_mib = core::gib(8);
  probe.level = core::OversubLevel{1};
  ScoreResult out;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    double sink = 0;
    std::size_t calls = 0;
    const auto start = Clock::now();
    for (std::size_t i = 0; i < iters; ++i) {
      for (const sched::HostState& host : cl.hosts()) {
        sink += scorer.score(host.load(), probe);
        ++calls;
      }
    }
    const double wall =
        std::chrono::duration<double>(Clock::now() - start).count();
    if (rep == 0 || wall < out.wall_s) {
      out.wall_s = wall;
    }
    out.calls = calls;
    out.sink = sink;
  }
  return out;
}

struct HeatResult {
  std::size_t refreshes = 0;
  double wall_s = 0;
};

HeatResult bench_heat(sim::Datacenter& dc, std::size_t rounds,
                      std::size_t reps) {
  sched::VCluster& cl = dc.cluster(0);
  HeatResult out;
  sim::DemandCache cache;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    std::size_t refreshes = 0;
    const auto start = Clock::now();
    for (std::size_t r = 0; r < rounds; ++r) {
      // Varying t walks the usage signals so the EWMA input changes.
      refreshes += sim::update_cluster_heat(
          cl, 900.0 * static_cast<double>(r + 1), 0.3, 0.25, &cache);
    }
    const double wall =
        std::chrono::duration<double>(Clock::now() - start).count();
    if (rep == 0 || wall < out.wall_s) {
      out.wall_s = wall;
    }
    out.refreshes = refreshes;
  }
  return out;
}

struct ReplayResult {
  sim::RunResult result;
  double wall_s = 0;
};

ReplayResult timed_replay(const workload::Trace& trace,
                          const sim::PolicyFactory& policy,
                          const std::optional<sim::RebalanceOptions>& rebalance,
                          std::size_t reps) {
  // Best-of-reps wall (see bench_scorer); the RunResult is identical
  // across repetitions by the determinism contract, so any rep's is THE
  // result.
  ReplayResult out;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    sim::Datacenter dc = sim::Datacenter::shared(kWorker, policy);
    const auto start = Clock::now();
    sim::RunResult result = sim::replay(dc, trace, rebalance);
    const double wall =
        std::chrono::duration<double>(Clock::now() - start).count();
    if (rep == 0 || wall < out.wall_s) {
      out.wall_s = wall;
    }
    out.result = result;
  }
  return out;
}

// --- section 4: plan throughput ---------------------------------------------

/// Post-churn fleet: three (8 vcpu, 2:1, 40 GiB) VMs fill a host by memory;
/// removing every third VM afterwards leaves slack spread unevenly across
/// the fleet, so a consolidation pass finds real drains — the shape the
/// continuous loop actually plans against after arrival/departure churn.
sched::VCluster plan_fleet(std::size_t hosts) {
  sched::VCluster cl("plan", kWorker, sched::make_progress_policy());
  cl.reserve(hosts * 3);
  core::VmSpec spec;
  spec.vcpus = 8;
  spec.mem_mib = core::gib(40);
  spec.level = core::OversubLevel{2};
  spec.usage = core::UsageClass::kSteady;
  for (std::uint64_t i = 1; i <= hosts * 3; ++i) {
    cl.place(core::VmId{i}, spec);
  }
  for (std::uint64_t i = 3; i <= hosts * 3; i += 3) {
    cl.remove(core::VmId{i});
  }
  return cl;
}

constexpr std::size_t kPlanBudget = 16;

struct PlanCase {
  std::size_t hosts = 0;
  double scratch_ns = 0;      ///< wall ns per incremental pass (best of reps)
  double naive_ns = 0;        ///< wall ns per naive pass; 0 when skipped
  bool naive_measured = false;
  bool plans_identical = true;
  std::size_t migrations = 0;  ///< moves one pass plans on this fleet
  std::uint64_t allocs_pass2 = 0;  ///< operator-new calls, 2nd warm pass
  std::uint64_t allocs_pass3 = 0;  ///< ... 3rd warm pass (flat == equal)
  std::size_t score_evals = 0;        ///< score() calls, one incremental pass
  std::size_t naive_score_evals = 0;  ///< score() calls, one naive pass
};

/// Algorithm 2 with a count of every score it computes.
class CountingScorer final : public sched::Scorer {
 public:
  explicit CountingScorer(std::size_t& evals) : evals_(&evals) {}
  [[nodiscard]] double score(const sched::HostLoad& host,
                             const core::VmSpec& spec) const override {
    ++*evals_;
    return inner_.score(host, spec);
  }
  [[nodiscard]] std::string name() const override { return "counting"; }

 private:
  sched::ProgressScorer inner_;
  std::size_t* evals_;
};

bool same_plan(const sched::MigrationPlan& a, const sched::MigrationPlan& b) {
  if (a.migrations.size() != b.migrations.size() ||
      a.hosts_emptied != b.hosts_emptied) {
    return false;
  }
  for (std::size_t i = 0; i < a.migrations.size(); ++i) {
    if (a.migrations[i].vm != b.migrations[i].vm ||
        a.migrations[i].from != b.migrations[i].from ||
        a.migrations[i].to != b.migrations[i].to) {
      return false;
    }
  }
  return true;
}

PlanCase bench_plan(std::size_t hosts, std::size_t naive_cap, std::size_t reps) {
  const sched::VCluster cl = plan_fleet(hosts);
  const sched::Rebalancer rebalancer;
  PlanCase out;
  out.hosts = cl.opened_hosts();

  // Warm pass: grows the scratch columns once and syncs the indexes.
  const sched::MigrationPlan first = rebalancer.plan(cl, kPlanBudget);
  out.migrations = first.migrations.size();

  // Allocation flatness across consecutive warm passes: the only per-pass
  // allocations left are the returned plan's own vectors.
  const std::uint64_t a0 = g_alloc_count.load(std::memory_order_relaxed);
  const sched::MigrationPlan warm2 = rebalancer.plan(cl, kPlanBudget);
  const std::uint64_t a1 = g_alloc_count.load(std::memory_order_relaxed);
  const sched::MigrationPlan warm3 = rebalancer.plan(cl, kPlanBudget);
  const std::uint64_t a2 = g_alloc_count.load(std::memory_order_relaxed);
  out.allocs_pass2 = a1 - a0;
  out.allocs_pass3 = a2 - a1;
  out.plans_identical =
      same_plan(first, warm2) && same_plan(first, warm3);

  for (std::size_t rep = 0; rep < reps; ++rep) {
    const auto start = Clock::now();
    const sched::MigrationPlan plan = rebalancer.plan(cl, kPlanBudget);
    const double wall =
        std::chrono::duration<double>(Clock::now() - start).count();
    if (rep == 0 || wall * 1e9 < out.scratch_ns) {
      out.scratch_ns = wall * 1e9;
    }
    out.plans_identical = out.plans_identical && same_plan(first, plan);
  }
  const sched::Rebalancer counted(std::make_unique<CountingScorer>(out.score_evals));
  out.plans_identical =
      out.plans_identical && same_plan(first, counted.plan(cl, kPlanBudget));

  // The naive pass copies the whole HostState fleet once per call plus once
  // per drain attempt — quadratic on big fleets, so it is capped.
  if (hosts <= naive_cap) {
    out.naive_measured = true;
    for (std::size_t rep = 0; rep < reps; ++rep) {
      const auto start = Clock::now();
      const sched::MigrationPlan plan =
          reference::plan_naive(cl, rebalancer.scorer(), kPlanBudget);
      const double wall =
          std::chrono::duration<double>(Clock::now() - start).count();
      if (rep == 0 || wall * 1e9 < out.naive_ns) {
        out.naive_ns = wall * 1e9;
      }
      out.plans_identical = out.plans_identical && same_plan(first, plan);
    }
    const CountingScorer counted_naive(out.naive_score_evals);
    out.plans_identical =
        out.plans_identical &&
        same_plan(first, reference::plan_naive(cl, counted_naive, kPlanBudget));
  }
  return out;
}

bool identical(const sim::RunResult& a, const sim::RunResult& b) {
  return a.opened_pms == b.opened_pms && a.migrations == b.migrations &&
         a.placed_vms == b.placed_vms && a.peak_vms == b.peak_vms &&
         a.avg_unalloc_cpu_share == b.avg_unalloc_cpu_share &&
         a.avg_unalloc_mem_share == b.avg_unalloc_mem_share &&
         a.heat_updates == b.heat_updates && a.itf_passes == b.itf_passes &&
         a.itf_hot_hosts == b.itf_hot_hosts &&
         a.itf_evictions == b.itf_evictions &&
         a.itf_applied == b.itf_applied &&
         a.itf_requested == b.itf_requested && a.itf_skipped == b.itf_skipped;
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t hosts = bench::arg_u64(argc, argv, "--hosts", 256);
  const std::size_t iters = bench::arg_u64(argc, argv, "--iters", 10000);
  const std::size_t vms = bench::arg_u64(argc, argv, "--vms", 6000);
  const std::size_t plan_max = bench::arg_u64(argc, argv, "--plan-max", 100000);
  const bool json = bench::arg_flag(argc, argv, "--json");

  // --- section 1: scorer overhead -----------------------------------------
  sim::Datacenter fleet = scoring_fleet(hosts);
  const sched::VCluster& cl = fleet.cluster(0);
  const sched::ProgressScorer progress;
  const sched::InterferenceScorer interference(4.0);
  const ScoreResult prog = bench_scorer(cl, progress, iters, /*reps=*/5);
  const ScoreResult itf = bench_scorer(cl, interference, iters, /*reps=*/5);
  const double prog_ns =
      prog.calls > 0 ? prog.wall_s * 1e9 / static_cast<double>(prog.calls) : 0;
  const double itf_ns =
      itf.calls > 0 ? itf.wall_s * 1e9 / static_cast<double>(itf.calls) : 0;
  const double scorer_overhead_pct =
      prog_ns > 0 ? 100.0 * (itf_ns - prog_ns) / prog_ns : 0;

  // --- section 2: heat refresh cost ---------------------------------------
  const HeatResult heat = bench_heat(fleet, /*rounds=*/50, /*reps=*/5);
  const double heat_ns =
      heat.refreshes > 0
          ? heat.wall_s * 1e9 / static_cast<double>(heat.refreshes)
          : 0;

  // --- section 3: interference-loop overhead ------------------------------
  // Four simulated days over a few-thousand-VM population: big enough that
  // the plain wall is tens of milliseconds (the loop overhead percentage is
  // meaningless against sub-5ms walls on the shared VM).
  workload::GeneratorConfig gen;
  gen.target_population = vms / 2;
  gen.horizon = 4.0 * 24 * 3600;
  gen.mean_lifetime = 1.0 * 24 * 3600;
  gen.seed = 42;
  const workload::Trace trace =
      workload::Generator(workload::azure_catalog(),
                          workload::make_mix(10, 30, 60), gen)
          .generate();

  sim::RebalanceOptions plain;
  plain.interval = 2.0 * 3600;
  plain.budget_per_pass = 16;
  sim::RebalanceOptions loop = plain;
  loop.interference.enabled = true;
  loop.interference.heat_interval = 1800.0;
  loop.interference.heat_alpha = 0.5;
  loop.interference.heat_bucket = 0.25;
  loop.interference.heat_weight = 4.0;
  // Generated azure workloads run cooler than the hand-built polluter
  // scenario; 1.02 keeps the polluter pass firing (see the acceptance test).
  loop.interference.threshold = 1.02;
  loop.interference.evictions_per_pass = 4;

  const ReplayResult base =
      timed_replay(trace, sched::make_progress_policy, plain, /*reps=*/5);
  const auto itf_policy = [] { return sched::make_interference_policy(4.0); };
  const ReplayResult loop_run = timed_replay(trace, itf_policy, loop, /*reps=*/5);
  const ReplayResult loop_again = timed_replay(trace, itf_policy, loop, /*reps=*/1);
  const bool deterministic = identical(loop_run.result, loop_again.result);
  const double loop_overhead_pct =
      base.wall_s > 0
          ? 100.0 * (loop_run.wall_s - base.wall_s) / base.wall_s
          : 0;
  const sim::RunResult& lr = loop_run.result;
  const bool identity_holds =
      lr.itf_evictions == lr.itf_applied + lr.itf_requested + lr.itf_skipped;

  // --- section 4: plan throughput -----------------------------------------
  constexpr std::size_t kNaiveCap = 10000;  // naive is quadratic past this
  std::vector<PlanCase> plan_cases;
  for (const std::size_t n : {std::size_t{1000}, std::size_t{10000},
                              std::size_t{100000}}) {
    if (n <= plan_max) {
      plan_cases.push_back(bench_plan(n, kNaiveCap, /*reps=*/5));
    }
  }
  if (plan_cases.empty()) {
    plan_cases.push_back(bench_plan(plan_max, kNaiveCap, /*reps=*/5));
  }
  bool plan_ok = true;
  for (const PlanCase& pc : plan_cases) {
    plan_ok = plan_ok && pc.plans_identical &&
              pc.allocs_pass2 == pc.allocs_pass3;
  }

  const bool ok = deterministic && identity_holds && lr.heat_updates > 0 &&
                  lr.itf_evictions > 0 && std::isfinite(prog.sink) &&
                  std::isfinite(itf.sink) && plan_ok;

  if (json) {
    std::printf("{\n");
    std::printf("  \"bench\": \"micro_interference\",\n");
    std::printf(
        "  \"note\": \"scorer overhead prices InterferenceScorer's quantized-"
        "heat penalty against Algorithm 2 alone on a heat-spread fleet; heat "
        "refresh is the per-host demand sample + EWMA write the replay loop "
        "schedules every heat_interval; loop overhead compares the full "
        "interference loop (heat feeder + interference policy + polluter "
        "pass) against the plain progress rebalance loop on the same "
        "trace\",\n");
    std::printf("  \"scorer_overhead\": {\n");
    std::printf("    \"hosts\": %zu,\n", cl.opened_hosts());
    std::printf("    \"calls_per_scorer\": %zu,\n", prog.calls);
    std::printf("    \"progress_ns_per_score\": %.1f,\n", prog_ns);
    std::printf("    \"interference_ns_per_score\": %.1f,\n", itf_ns);
    std::printf("    \"scorer_overhead_pct\": %.1f\n", scorer_overhead_pct);
    std::printf("  },\n");
    std::printf("  \"heat_refresh\": {\n");
    std::printf("    \"host_refreshes\": %zu,\n", heat.refreshes);
    std::printf("    \"ns_per_host_refresh\": %.0f\n", heat_ns);
    std::printf("  },\n");
    std::printf("  \"loop_overhead\": {\n");
    std::printf("    \"trace_vms\": %zu,\n", trace.size());
    std::printf("    \"plain_rebalance_wall_s\": %.3f,\n", base.wall_s);
    std::printf("    \"interference_wall_s\": %.3f,\n", loop_run.wall_s);
    std::printf("    \"loop_overhead_pct\": %.1f,\n", loop_overhead_pct);
    std::printf("    \"heat_updates\": %zu,\n", lr.heat_updates);
    std::printf("    \"itf_passes\": %zu,\n", lr.itf_passes);
    std::printf("    \"itf_hot_hosts\": %zu,\n", lr.itf_hot_hosts);
    std::printf("    \"itf_evictions\": %zu,\n", lr.itf_evictions);
    std::printf("    \"itf_applied\": %zu,\n", lr.itf_applied);
    std::printf("    \"itf_requested\": %zu,\n", lr.itf_requested);
    std::printf("    \"itf_skipped\": %zu,\n", lr.itf_skipped);
    std::printf("    \"counter_identity_holds\": %s,\n",
                identity_holds ? "true" : "false");
    std::printf("    \"deterministic\": %s\n", deterministic ? "true" : "false");
    std::printf("  },\n");
    std::printf("  \"plan_throughput\": {\n");
    std::printf("    \"budget_per_pass\": %zu,\n", kPlanBudget);
    std::printf(
        "    \"note\": \"one consolidation pass on a post-churn fleet (every "
        "host left with slack), verbatim naive fleet-copy pass vs the "
        "incremental scratch-column pass; score_evals_per_pass counts the "
        "score() calls of one pass (deterministic); naive skipped past %zu "
        "hosts (per-attempt fleet snapshots are quadratic); allocs_flat "
        "proves a warm scratch pass allocates only the returned plan\",\n",
        kNaiveCap);
    std::printf("    \"sizes\": [\n");
    for (std::size_t i = 0; i < plan_cases.size(); ++i) {
      const PlanCase& pc = plan_cases[i];
      std::printf("      {\n");
      std::printf("        \"hosts\": %zu,\n", pc.hosts);
      std::printf("        \"migrations_per_pass\": %zu,\n", pc.migrations);
      std::printf("        \"scratch_ns_per_pass\": %.0f,\n", pc.scratch_ns);
      std::printf("        \"score_evals_per_pass\": %zu,\n", pc.score_evals);
      if (pc.naive_measured) {
        std::printf("        \"naive_ns_per_pass\": %.0f,\n", pc.naive_ns);
        std::printf("        \"naive_score_evals_per_pass\": %zu,\n",
                    pc.naive_score_evals);
        std::printf("        \"speedup\": %.1f,\n",
                    pc.scratch_ns > 0 ? pc.naive_ns / pc.scratch_ns : 0.0);
      } else {
        std::printf("        \"naive_skipped\": true,\n");
      }
      std::printf("        \"scratch_allocs_pass2\": %llu,\n",
                  static_cast<unsigned long long>(pc.allocs_pass2));
      std::printf("        \"scratch_allocs_pass3\": %llu,\n",
                  static_cast<unsigned long long>(pc.allocs_pass3));
      std::printf("        \"allocs_flat\": %s,\n",
                  pc.allocs_pass2 == pc.allocs_pass3 ? "true" : "false");
      std::printf("        \"plans_identical\": %s\n",
                  pc.plans_identical ? "true" : "false");
      std::printf("      }%s\n", i + 1 < plan_cases.size() ? "," : "");
    }
    std::printf("    ]\n");
    std::printf("  }\n");
    std::printf("}\n");
    return ok ? 0 : 1;
  }

  bench::print_header(
      "Interference loop — scorer overhead, heat refresh, loop overhead");
  std::printf("section 1: scorer overhead, %zu hosts x %zu iterations\n",
              cl.opened_hosts(), iters);
  std::printf("  progress:     %.1f ns/score\n", prog_ns);
  std::printf("  interference: %.1f ns/score (%+.1f%% vs progress)\n\n", itf_ns,
              scorer_overhead_pct);
  std::printf("section 2: heat refresh, %zu host refreshes\n", heat.refreshes);
  std::printf("  %.0f ns per host refresh\n\n", heat_ns);
  std::printf("section 3: interference-loop overhead, %zu-VM trace\n",
              trace.size());
  std::printf("  plain rebalance:    %.3f s\n", base.wall_s);
  std::printf("  interference loop:  %.3f s (%+.1f%% vs plain)\n",
              loop_run.wall_s, loop_overhead_pct);
  std::printf("  heat updates: %zu, passes: %zu, hot hosts: %zu\n",
              lr.heat_updates, lr.itf_passes, lr.itf_hot_hosts);
  std::printf("  evictions: %zu planned -> %zu applied, %zu requested, "
              "%zu skipped\n",
              lr.itf_evictions, lr.itf_applied, lr.itf_requested,
              lr.itf_skipped);
  std::printf("  counter identity: %s, deterministic: %s\n\n",
              identity_holds ? "holds" : "BROKEN",
              deterministic ? "yes" : "NO — BUG");
  std::printf("section 4: plan throughput, budget %zu per pass\n", kPlanBudget);
  for (const PlanCase& pc : plan_cases) {
    if (pc.naive_measured) {
      std::printf(
          "  %6zu hosts: scratch %.0f ns/pass, naive %.0f ns/pass "
          "(%.1fx), %zu vs %zu scores, %zu moves, allocs %llu/%llu %s, "
          "plans %s\n",
          pc.hosts, pc.scratch_ns, pc.naive_ns,
          pc.scratch_ns > 0 ? pc.naive_ns / pc.scratch_ns : 0.0, pc.score_evals,
          pc.naive_score_evals, pc.migrations,
          static_cast<unsigned long long>(pc.allocs_pass2),
          static_cast<unsigned long long>(pc.allocs_pass3),
          pc.allocs_pass2 == pc.allocs_pass3 ? "(flat)" : "(NOT FLAT)",
          pc.plans_identical ? "identical" : "DIVERGED");
    } else {
      std::printf(
          "  %6zu hosts: scratch %.0f ns/pass (naive skipped: quadratic), "
          "%zu scores, %zu moves, allocs %llu/%llu %s\n",
          pc.hosts, pc.scratch_ns, pc.score_evals, pc.migrations,
          static_cast<unsigned long long>(pc.allocs_pass2),
          static_cast<unsigned long long>(pc.allocs_pass3),
          pc.allocs_pass2 == pc.allocs_pass3 ? "(flat)" : "(NOT FLAT)");
    }
  }
  return ok ? 0 : 1;
}
