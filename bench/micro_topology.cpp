// Engineering micro-benchmarks (google-benchmark): Algorithm 1 distance
// computation, distance-matrix construction/interning, and local-scheduler
// vNode resize costs on the paper's dual-EPYC testbed topology.
//
// Two entry points:
//   micro_topology [google-benchmark flags]      # the BM_* suites below
//   micro_topology --json [--ops N]              # machine-readable local-
//                                                # scheduler churn and
//                                                # selection-vs-reference
//                                                # costs
//                                                # (BENCH_micro_topology.json)
#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/rng.hpp"
#include "local/placement.hpp"
#include "local/vnode_manager.hpp"
#include "reference/local_cpus.hpp"
#include "topology/builders.hpp"
#include "topology/distance.hpp"

// ---------------------------------------------------------------------------
// Global allocation probe: counts every operator-new so the --json mode can
// demonstrate that the selection path allocates a constant amount per call
// (the returned CpuSet) — i.e. zero allocations in the grow/release inner
// loops — while the naive reference allocates per inner iteration.

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

namespace {

using namespace slackvm;

void BM_CoreDistance(benchmark::State& state) {
  const topo::CpuTopology epyc = topo::make_dual_epyc_7662();
  core::SplitMix64 rng(1);
  for (auto _ : state) {
    const auto a = static_cast<topo::CpuId>(rng.below(epyc.cpu_count()));
    const auto b = static_cast<topo::CpuId>(rng.below(epyc.cpu_count()));
    benchmark::DoNotOptimize(topo::core_distance(epyc, a, b));
  }
}
BENCHMARK(BM_CoreDistance);

void BM_DistanceMatrixBuild(benchmark::State& state) {
  const topo::CpuTopology epyc = topo::make_dual_epyc_7662();
  for (auto _ : state) {
    const topo::DistanceMatrix dm(epyc);
    benchmark::DoNotOptimize(dm(0, 255));
  }
}
BENCHMARK(BM_DistanceMatrixBuild);

void BM_DistanceMatrixShared(benchmark::State& state) {
  // Interned lookup: what every VNodeManager construction pays after the
  // first build of a hardware model.
  const topo::CpuTopology epyc = topo::make_dual_epyc_7662();
  (void)topo::DistanceMatrixCache::shared(epyc);  // warm the cache
  for (auto _ : state) {
    benchmark::DoNotOptimize(topo::DistanceMatrixCache::shared(epyc));
  }
}
BENCHMARK(BM_DistanceMatrixShared);

void BM_VNodeDeployRemove(benchmark::State& state) {
  // One deploy + one remove at steady state on a loaded dual-EPYC PM.
  const topo::CpuTopology epyc = topo::make_dual_epyc_7662();
  local::VNodeManager manager(epyc, local::PoolingPolicy::kNone);
  core::SplitMix64 rng(2);
  std::uint64_t id = 1;
  core::VmSpec spec;
  spec.vcpus = 4;
  spec.mem_mib = core::gib(8);
  // Load three levels to ~60%.
  for (int i = 0; i < 30; ++i) {
    spec.level = core::OversubLevel{static_cast<std::uint8_t>(1 + i % 3)};
    (void)manager.deploy(core::VmId{id++}, spec);
  }
  for (auto _ : state) {
    spec.level = core::OversubLevel{static_cast<std::uint8_t>(1 + rng.below(3))};
    const core::VmId vm{id++};
    if (manager.deploy(vm, spec)) {
      manager.remove(vm);
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_VNodeDeployRemove);

void BM_SeedSelection(benchmark::State& state) {
  const topo::CpuTopology epyc = topo::make_dual_epyc_7662();
  const auto dm = topo::DistanceMatrixCache::shared(epyc);
  topo::CpuSet occupied(epyc.cpu_count());
  for (topo::CpuId cpu = 0; cpu < 64; ++cpu) {
    occupied.set(cpu);
  }
  topo::CpuSet free_cpus = epyc.all_cpus();
  free_cpus -= occupied;
  local::PlacementScratch scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        local::choose_seed_cpus(*dm, free_cpus, occupied, 8, scratch));
  }
}
BENCHMARK(BM_SeedSelection);

// ---------------------------------------------------------------------------
// --json mode: deploy+remove churn through the full local scheduler per
// builder topology, the per-call cost of each selection function against
// the per-step-rescan reference (tests/reference/local_cpus.hpp), the
// allocation probe and the matrix-interning stats (BENCH_micro_topology.json).

using Clock = std::chrono::steady_clock;

core::VmSpec churn_spec(core::SplitMix64& rng) {
  core::VmSpec spec;
  spec.vcpus = static_cast<core::VcpuCount>(1 + rng.below(8));
  spec.mem_mib = core::gib(static_cast<std::int64_t>(1 + rng.below(4)));
  spec.level = core::OversubLevel{static_cast<std::uint8_t>(1 + rng.below(3))};
  return spec;
}

double per_sec(std::size_t count, Clock::time_point t0, Clock::time_point t1) {
  const double seconds = std::chrono::duration<double>(t1 - t0).count();
  return seconds > 0.0 ? static_cast<double>(count) / seconds : 0.0;
}

/// Steady-state churn: preload a PM to ~60% of its threads, then time
/// `pairs` remove+deploy pairs (fixed seed, so every run replays the same
/// op sequence). Returns pairs per second.
double measure_churn(const topo::CpuTopology& machine, std::size_t pairs) {
  local::VNodeManager manager(machine, local::PoolingPolicy::kUpgrade);
  core::SplitMix64 rng(42);
  std::vector<core::VmId> alive;
  std::uint64_t id = 1;
  const auto target =
      static_cast<core::CoreCount>(machine.cpu_count() * 6 / 10);
  while (manager.alloc().cores < target) {
    const core::VmId vm{id++};
    if (!manager.deploy(vm, churn_spec(rng))) {
      break;
    }
    alive.push_back(vm);
  }

  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < pairs; ++i) {
    if (alive.empty()) {
      const core::VmId vm{id++};
      if (manager.deploy(vm, churn_spec(rng))) {
        alive.push_back(vm);
      }
      continue;
    }
    const std::size_t victim = rng.below(alive.size());
    manager.remove(alive[victim]);
    const core::VmId vm{id++};
    if (manager.deploy(vm, churn_spec(rng))) {
      alive[victim] = vm;
    } else {
      alive[victim] = alive.back();
      alive.pop_back();
    }
  }
  return per_sec(pairs, t0, Clock::now());
}

/// One PM state for the function-level comparison: another vNode owns the
/// first half of the CPUs, the node under test the next `kNodeCpus`, and
/// the rest is free. Extension and seed take `kStepCpus` CPUs; release
/// gives back `kStepCpus` of the node.
struct SelectionState {
  static constexpr std::size_t kNodeCpus = 16;
  static constexpr std::size_t kStepCpus = 8;
  topo::CpuSet occupied;
  topo::CpuSet node;
  topo::CpuSet free_cpus;

  explicit SelectionState(const topo::CpuTopology& machine)
      : occupied(machine.cpu_count()), node(machine.cpu_count()),
        free_cpus(machine.all_cpus()) {
    const auto half = static_cast<topo::CpuId>(machine.cpu_count() / 2);
    for (topo::CpuId cpu = 0; cpu < half; ++cpu) {
      occupied.set(cpu);
    }
    for (topo::CpuId cpu = half; cpu < half + kNodeCpus; ++cpu) {
      node.set(cpu);
    }
    free_cpus -= occupied;
    free_cpus -= node;
  }
};

/// Calls per second of `call`, run `calls` times.
template <typename Call>
double calls_per_sec(std::size_t calls, Call&& call) {
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < calls; ++i) {
    call();
  }
  return per_sec(calls, t0, Clock::now());
}

/// Heap allocations per grow call. The fast path must stay flat in `count`
/// (only the returned CpuSet allocates); the reference grows with steps ×
/// pool size (one as_vector per inner scan).
double allocs_per_call(const topo::CpuTopology& machine, bool fast,
                       std::size_t count, std::size_t calls) {
  const auto dm = topo::DistanceMatrixCache::shared(machine);
  topo::CpuSet current(machine.cpu_count());
  for (topo::CpuId cpu = 0; cpu < 4; ++cpu) {
    current.set(cpu);
  }
  topo::CpuSet free_cpus = machine.all_cpus();
  free_cpus -= current;
  local::PlacementScratch scratch;
  // Warm-up so scratch buffers reach steady-state capacity.
  (void)local::choose_extension_cpus(*dm, free_cpus, current, count, scratch);
  const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < calls; ++i) {
    if (fast) {
      benchmark::DoNotOptimize(
          local::choose_extension_cpus(*dm, free_cpus, current, count, scratch));
    } else {
      benchmark::DoNotOptimize(
          reference::choose_extension_cpus(*dm, free_cpus, current, count));
    }
  }
  const std::uint64_t after = g_alloc_count.load(std::memory_order_relaxed);
  return static_cast<double>(after - before) / static_cast<double>(calls);
}

int run_json(std::size_t ops) {
  struct NamedTopo {
    const char* name;
    topo::CpuTopology machine;
  };
  NamedTopo topologies[] = {
      {"dual_epyc_7662", topo::make_dual_epyc_7662()},
      {"dual_xeon_6230", topo::make_dual_xeon_6230()},
  };

  std::printf("{\n  \"bench\": \"micro_topology\",\n  \"results\": [\n");
  bool first = true;
  for (const NamedTopo& t : topologies) {
    // One untimed pass first, so the timed one starts with the matrix
    // interned and the heap and clocks warm.
    (void)measure_churn(t.machine, ops);
    std::printf("%s    {\"topology\": \"%s\", \"pairs\": %zu, "
                "\"deploy_remove_pairs_per_sec\": %.0f}",
                first ? "" : ",\n", t.name, ops, measure_churn(t.machine, ops));
    first = false;
  }

  // Function level: each selection from a fresh scratch frontier (the fast
  // path's per-call rebuild included) against the reference's rescans.
  const std::size_t calls = ops / 10 + 1;
  constexpr std::size_t kStep = SelectionState::kStepCpus;
  std::printf("\n  ],\n  \"selection_calls_per_sec\": [\n");
  first = true;
  for (const NamedTopo& t : topologies) {
    const auto dm = topo::DistanceMatrixCache::shared(t.machine);
    const SelectionState st(t.machine);
    local::PlacementScratch scratch;
    const auto report = [&](const char* op, double ref, double fast) {
      std::printf("%s    {\"topology\": \"%s\", \"op\": \"%s\", \"cpus\": %zu, "
                  "\"reference\": %.0f, \"fast\": %.0f, \"speedup\": %.2f}",
                  first ? "" : ",\n", t.name, op, kStep, ref, fast,
                  ref > 0.0 ? fast / ref : 0.0);
      first = false;
    };
    report("extension", calls_per_sec(calls, [&] {
             benchmark::DoNotOptimize(
                 reference::choose_extension_cpus(*dm, st.free_cpus, st.node, kStep));
           }),
           calls_per_sec(calls, [&] {
             benchmark::DoNotOptimize(local::choose_extension_cpus(
                 *dm, st.free_cpus, st.node, kStep, scratch));
           }));
    report("seed", calls_per_sec(calls, [&] {
             benchmark::DoNotOptimize(
                 reference::choose_seed_cpus(*dm, st.free_cpus, st.occupied, kStep));
           }),
           calls_per_sec(calls, [&] {
             benchmark::DoNotOptimize(local::choose_seed_cpus(
                 *dm, st.free_cpus, st.occupied, kStep, scratch));
           }));
    report("release", calls_per_sec(calls, [&] {
             benchmark::DoNotOptimize(
                 reference::choose_release_cpus(*dm, st.node, kStep));
           }),
           calls_per_sec(calls, [&] {
             benchmark::DoNotOptimize(
                 local::choose_release_cpus(*dm, st.node, kStep, scratch));
           }));
  }

  // Allocation discipline of the grow loop: flat for the fast path,
  // step-dependent for the reference.
  const topo::CpuTopology epyc = topo::make_dual_epyc_7662();
  const std::size_t probe_calls = 200;
  std::printf("\n  ],\n  \"grow_heap_allocs_per_call\": [\n");
  first = true;
  for (const std::size_t count : {4UL, 16UL}) {
    const double reference_allocs =
        allocs_per_call(epyc, /*fast=*/false, count, probe_calls);
    const double fast_allocs = allocs_per_call(epyc, /*fast=*/true, count, probe_calls);
    std::printf("%s    {\"grow_cpus\": %zu, \"reference\": %.1f, \"fast\": %.1f}",
                first ? "" : ",\n", count, reference_allocs, fast_allocs);
    first = false;
  }

  std::printf("\n  ],\n  \"matrix_cache\": {\"matrices_interned\": %zu}\n}\n",
              topo::DistanceMatrixCache::interned_count());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (slackvm::bench::arg_flag(argc, argv, "--json")) {
    const auto ops = static_cast<std::size_t>(
        slackvm::bench::arg_u64(argc, argv, "--ops", 20000));
    return run_json(ops);
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
