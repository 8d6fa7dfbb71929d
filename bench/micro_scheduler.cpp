// Engineering micro-benchmarks (google-benchmark): scheduling throughput of
// the placement policies across cluster sizes, and the cost of Algorithm 2
// scoring relative to plain First-Fit — the ablation DESIGN.md calls out.
//
// Two entry points:
//   micro_scheduler [google-benchmark flags]   # the BM_* suites below
//   micro_scheduler --json [--hosts N --ops M] # machine-readable naive-vs-
//                                              # indexed ops/sec comparison
//                                              # (BENCH_micro_scheduler.json)
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "core/rng.hpp"
#include "sched/policy.hpp"
#include "sched/vcluster.hpp"
#include "workload/catalog.hpp"
#include "workload/level_mix.hpp"

namespace {

using namespace slackvm;

core::VmSpec random_spec(core::SplitMix64& rng) {
  const workload::LevelMix mix = workload::make_mix(34, 33, 33);
  core::VmSpec spec;
  spec.level = mix.sample(rng);
  const workload::Catalog& catalog =
      spec.level.oversubscribed()
          ? workload::azure_catalog().truncated(workload::kOversubMemCap)
          : workload::azure_catalog();
  const workload::Flavor& flavor = catalog.sample(rng);
  spec.vcpus = flavor.vcpus;
  spec.mem_mib = flavor.mem_mib;
  return spec;
}

/// Pre-fill a cluster with `hosts` PMs at ~60% load.
std::vector<sched::HostState> make_cluster(std::size_t hosts, core::SplitMix64& rng) {
  std::vector<sched::HostState> cluster;
  std::uint64_t id = 1;
  for (std::size_t h = 0; h < hosts; ++h) {
    sched::HostState host(static_cast<sched::HostId>(h), {32, core::gib(128)});
    while (host.alloc().cores < 20) {
      const core::VmSpec spec = random_spec(rng);
      if (!host.can_host(spec)) {
        break;
      }
      host.add(core::VmId{id++}, spec);
    }
    cluster.push_back(std::move(host));
  }
  return cluster;
}

void BM_FirstFitSelect(benchmark::State& state) {
  core::SplitMix64 rng(1);
  const auto cluster = make_cluster(static_cast<std::size_t>(state.range(0)), rng);
  const sched::FirstFitPolicy policy;
  const core::VmSpec spec = random_spec(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy.select(cluster, spec));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FirstFitSelect)->Arg(10)->Arg(100)->Arg(1000);

void BM_ProgressSelect(benchmark::State& state) {
  core::SplitMix64 rng(2);
  const auto cluster = make_cluster(static_cast<std::size_t>(state.range(0)), rng);
  const auto policy = sched::make_progress_policy();
  const core::VmSpec spec = random_spec(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy->select(cluster, spec));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProgressSelect)->Arg(10)->Arg(100)->Arg(1000);

void BM_ProgressScoreSingleHost(benchmark::State& state) {
  core::SplitMix64 rng(3);
  auto cluster = make_cluster(1, rng);
  const sched::ProgressScorer scorer;
  const core::VmSpec spec = random_spec(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scorer.score(cluster.front().load(), spec));
  }
}
BENCHMARK(BM_ProgressScoreSingleHost);

/// Steady-state place/remove churn through a whole VCluster; range(0) is the
/// pre-filled VM population, range(1) toggles the placement index.
void BM_VClusterChurn(benchmark::State& state) {
  core::SplitMix64 rng(4);
  sched::VCluster cluster("bench", {32, core::gib(128)}, sched::make_progress_policy());
  cluster.set_index_enabled(state.range(1) != 0);
  std::vector<core::VmId> alive;
  std::uint64_t id = 1;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    const core::VmId vm{id++};
    cluster.place(vm, random_spec(rng));
    alive.push_back(vm);
  }
  std::size_t cursor = 0;
  for (auto _ : state) {
    cluster.remove(alive[cursor]);
    const core::VmId vm{id++};
    cluster.place(vm, random_spec(rng));
    alive[cursor] = vm;
    cursor = (cursor + 1) % alive.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_VClusterChurn)
    ->ArgsProduct({{400, 4000}, {0, 1}})
    ->ArgNames({"vms", "index"});

// ---------------------------------------------------------------------------
// --json mode: naive-vs-indexed ops/sec for place / remove / migrate.

using Clock = std::chrono::steady_clock;

double ops_per_sec(std::size_t ops, Clock::time_point begin, Clock::time_point end) {
  const double seconds = std::chrono::duration<double>(end - begin).count();
  return seconds > 0.0 ? static_cast<double>(ops) / seconds : 0.0;
}

struct OpsRates {
  std::size_t ops = 0;  ///< actual operations timed per phase
  double place = 0.0;
  double remove = 0.0;
  double migrate = 0.0;
};

std::unique_ptr<sched::PlacementPolicy> make_policy(const std::string& name) {
  return name == "first-fit" ? sched::make_first_fit() : sched::make_progress_policy();
}

/// Fill a cluster to `hosts` opened PMs, then time three phases: a remove
/// burst (creating scattered slack), a place burst refilling it (the
/// place-heavy workload the index targets — every naive score placement
/// scans all `hosts` PMs), and a migrate burst.
OpsRates measure(const std::string& policy, bool use_index, std::size_t hosts,
                 std::size_t ops) {
  core::SplitMix64 rng(42);
  sched::VCluster cluster("bench", {32, core::gib(128)}, make_policy(policy));
  cluster.set_index_enabled(use_index);
  cluster.reserve(hosts * 12);
  std::vector<core::VmId> alive;
  std::uint64_t id = 1;
  while (cluster.opened_hosts() < hosts) {
    const core::VmId vm{id++};
    cluster.place(vm, random_spec(rng));
    alive.push_back(vm);
  }

  OpsRates rates;
  rates.ops = std::min(ops, alive.size() / 2);

  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < rates.ops; ++i) {
    const std::size_t victim = rng.below(alive.size());
    cluster.remove(alive[victim]);
    alive[victim] = alive.back();
    alive.pop_back();
  }
  const auto t1 = Clock::now();
  for (std::size_t i = 0; i < rates.ops; ++i) {
    const core::VmId vm{id++};
    cluster.place(vm, random_spec(rng));
    alive.push_back(vm);
  }
  const auto t2 = Clock::now();
  for (std::size_t i = 0; i < rates.ops; ++i) {
    const core::VmId vm = alive[rng.below(alive.size())];
    const auto to = static_cast<sched::HostId>(rng.below(cluster.opened_hosts()));
    (void)cluster.migrate(vm, to);  // failed attempts count: same work issued
  }
  const auto t3 = Clock::now();

  rates.remove = ops_per_sec(rates.ops, t0, t1);
  rates.place = ops_per_sec(rates.ops, t1, t2);
  rates.migrate = ops_per_sec(rates.ops, t2, t3);
  return rates;
}

/// Evacuation throughput (the fault injector's hot loop, sim/fault.hpp):
/// fail one host, re-place every victim through the policy path, repair,
/// round-robin across the original fleet. Returns victims re-placed per
/// second (failed placements — a full cluster — are not counted).
double measure_evacuation(const std::string& policy, bool use_index,
                          std::size_t hosts, std::size_t rounds) {
  core::SplitMix64 rng(7);
  sched::VCluster cluster("bench", {32, core::gib(128)}, make_policy(policy));
  cluster.set_index_enabled(use_index);
  cluster.reserve(hosts * 12);
  std::uint64_t id = 1;
  while (cluster.opened_hosts() < hosts) {
    cluster.place(core::VmId{id++}, random_spec(rng));
  }

  std::size_t moved = 0;
  const auto t0 = Clock::now();
  for (std::size_t round = 0; round < rounds; ++round) {
    const auto host = static_cast<sched::HostId>(round % hosts);
    const auto victims = cluster.fail_host(host);
    for (const auto& [vm, spec] : victims) {
      if (cluster.try_place(vm, spec).has_value()) {
        ++moved;
      }
    }
    cluster.repair_host(host);
  }
  const auto t1 = Clock::now();
  return ops_per_sec(moved, t0, t1);
}

int run_json(std::size_t hosts, std::size_t ops) {
  const char* policies[] = {"first-fit", "progress"};
  std::printf("{\n  \"bench\": \"micro_scheduler\",\n  \"hosts\": %zu,\n", hosts);
  std::printf("  \"results\": [\n");
  bool first = true;
  for (const std::string policy : policies) {
    const OpsRates naive = measure(policy, /*use_index=*/false, hosts, ops);
    const OpsRates indexed = measure(policy, /*use_index=*/true, hosts, ops);
    for (const auto& [mode, r] :
         {std::pair{"naive", &naive}, std::pair{"indexed", &indexed}}) {
      std::printf("%s    {\"policy\": \"%s\", \"mode\": \"%s\", \"ops\": %zu, "
                  "\"place_ops_per_sec\": %.0f, \"remove_ops_per_sec\": %.0f, "
                  "\"migrate_ops_per_sec\": %.0f}",
                  first ? "" : ",\n", policy.c_str(), mode, r->ops, r->place,
                  r->remove, r->migrate);
      first = false;
    }
    std::printf(",\n    {\"policy\": \"%s\", \"mode\": \"speedup\", "
                "\"place\": %.2f, \"remove\": %.2f, \"migrate\": %.2f}",
                policy.c_str(), indexed.place / naive.place,
                indexed.remove / naive.remove, indexed.migrate / naive.migrate);
  }
  std::printf("\n  ],\n  \"evacuation\": [\n");
  const std::size_t rounds = std::max<std::size_t>(1, ops / 200);
  first = true;
  for (const std::string policy : policies) {
    const double naive = measure_evacuation(policy, /*use_index=*/false, hosts, rounds);
    const double indexed = measure_evacuation(policy, /*use_index=*/true, hosts, rounds);
    std::printf("%s    {\"policy\": \"%s\", \"mode\": \"naive\", \"rounds\": %zu, "
                "\"evac_vms_per_sec\": %.0f},\n",
                first ? "" : ",\n", policy.c_str(), rounds, naive);
    std::printf("    {\"policy\": \"%s\", \"mode\": \"indexed\", \"rounds\": %zu, "
                "\"evac_vms_per_sec\": %.0f},\n",
                policy.c_str(), rounds, indexed);
    std::printf("    {\"policy\": \"%s\", \"mode\": \"speedup\", \"evac\": %.2f}",
                policy.c_str(), naive > 0.0 ? indexed / naive : 0.0);
    first = false;
  }
  std::printf("\n  ]\n}\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (slackvm::bench::arg_flag(argc, argv, "--json")) {
    const auto hosts = static_cast<std::size_t>(
        slackvm::bench::arg_u64(argc, argv, "--hosts", 2000));
    const auto ops = static_cast<std::size_t>(
        slackvm::bench::arg_u64(argc, argv, "--ops", 20000));
    return run_json(hosts, ops);
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
