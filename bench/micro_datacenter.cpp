// Micro-benchmark for the sharded datacenter engine (sim/shard.hpp): how
// far one simulated datacenter scales, and what sharding buys.
//
// Two sections, both on synthetic traces sized by flags:
//
//  1. *Naive-path shard scaling* — placement index off, so every placement
//     pays the policy's O(open hosts) scan. Cell-partitioning the
//     datacenter into S shards shrinks that scan to O(hosts/S): the work
//     itself drops by ~S, independent of thread count. This is the honest
//     speedup to report from a small container — it is algorithmic, not
//     thread parallelism, and reproduces serially. Target: >= 3x at 8
//     shards vs 1.
//
//  2. *Hyperscale* — placement index on, 8 shards: simulate >= 100k opened
//     hosts (>= 200k VMs) in one run and report events/sec. The per-event
//     O(cluster) aggregate wall the serial observer used to pay is gone
//     (each VCluster keeps running totals), so the event rate stays flat as
//     the fleet grows.
//
// Every timed configuration is also re-run at 8 pool threads and checked
// bit-identical to the single-threaded run — the engine's determinism
// contract — and the process exits non-zero on any divergence.
//
//   micro_datacenter [--vms N] [--hyper-vms N] [--threads T] [--json]
//
// --json emits the machine-readable report checked in as
// BENCH_micro_datacenter.json.
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "core/vm.hpp"
#include "sched/policy.hpp"
#include "sim/datacenter.hpp"
#include "sim/shard.hpp"
#include "workload/trace.hpp"

using namespace slackvm;

namespace {

using Clock = std::chrono::steady_clock;

// PM shape for the hyperscale section: 8 cores / 32 GiB, two 4-vCPU 16-GiB
// VMs at 1:1 fill a host exactly, so hosts_opened == vms / 2.
const core::Resources kSmallHost{8, core::gib(32)};
const core::Resources kBigHost{32, core::gib(128)};

core::VmSpec flat_spec() {
  core::VmSpec spec;
  spec.vcpus = 4;
  spec.mem_mib = core::gib(16);
  spec.level = core::OversubLevel{1};
  return spec;
}

/// Deterministic synthetic trace: `vms` identical VMs arriving at a fixed
/// cadence and all alive together at the peak, so the fleet grows to its
/// full size (vms/2 hosts for flat_spec on kSmallHost).
workload::Trace flat_trace(std::size_t vms) {
  std::vector<core::VmInstance> instances;
  instances.reserve(vms);
  const double cadence = 1.0;
  const double lifetime = static_cast<double>(vms) * cadence + 3600.0;
  for (std::size_t i = 0; i < vms; ++i) {
    core::VmInstance vm;
    vm.id = core::VmId{i + 1};
    vm.spec = flat_spec();
    vm.arrival = static_cast<double>(i) * cadence;
    vm.departure = vm.arrival + lifetime;
    instances.push_back(vm);
  }
  return workload::Trace(std::move(instances));
}

/// Mixed-size trace for the naive section (varying specs keep the first-fit
/// scans honest — hosts fill at different depths).
workload::Trace mixed_trace(std::size_t vms) {
  std::vector<core::VmInstance> instances;
  instances.reserve(vms);
  const double cadence = 1.0;
  const double lifetime = static_cast<double>(vms) * cadence + 3600.0;
  constexpr core::VcpuCount kVcpus[] = {2, 4, 8, 4};
  constexpr std::uint8_t kRatios[] = {1, 2, 4, 1};
  for (std::size_t i = 0; i < vms; ++i) {
    core::VmInstance vm;
    vm.id = core::VmId{i + 1};
    vm.spec.vcpus = kVcpus[i % 4];
    vm.spec.mem_mib = core::gib(static_cast<core::MemMib>(2) * kVcpus[i % 4]);
    vm.spec.level = core::OversubLevel{kRatios[i % 4]};
    vm.arrival = static_cast<double>(i) * cadence;
    vm.departure = vm.arrival + lifetime;
    instances.push_back(vm);
  }
  return workload::Trace(std::move(instances));
}

struct Timed {
  sim::RunResult result;
  double wall_s = 0;
  bool identical_across_threads = true;
};

Timed run(const workload::Trace& trace, const core::Resources& host,
          std::size_t shards, bool index, std::size_t check_threads) {
  sim::ShardOptions options;
  options.shards = shards;
  Timed out;
  {
    sim::Datacenter dc =
        sim::Datacenter::shared_sharded(host, sched::make_first_fit, shards);
    dc.set_index_enabled(index);
    const auto start = Clock::now();
    out.result = sim::replay_sharded(dc, trace, options);
    out.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
  }
  if (check_threads > 1) {
    sim::Datacenter dc =
        sim::Datacenter::shared_sharded(host, sched::make_first_fit, shards);
    dc.set_index_enabled(index);
    options.threads = check_threads;
    out.identical_across_threads =
        out.result == sim::replay_sharded(dc, trace, options);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t naive_vms = bench::arg_u64(argc, argv, "--vms", 60000);
  const std::size_t hyper_vms = bench::arg_u64(argc, argv, "--hyper-vms", 210000);
  const std::size_t check_threads = bench::arg_u64(argc, argv, "--threads", 8);
  const bool json = bench::arg_flag(argc, argv, "--json");

  constexpr std::size_t kShardCounts[] = {1, 2, 4, 8};

  // --- section 1: naive-path shard scaling --------------------------------
  const workload::Trace naive_trace = mixed_trace(naive_vms);
  std::vector<Timed> naive_runs;
  for (const std::size_t shards : kShardCounts) {
    naive_runs.push_back(
        run(naive_trace, kBigHost, shards, /*index=*/false, check_threads));
  }
  const double naive_speedup =
      naive_runs.back().wall_s > 0
          ? naive_runs.front().wall_s / naive_runs.back().wall_s
          : 0.0;

  // --- section 2: hyperscale, index on ------------------------------------
  const workload::Trace hyper_trace = flat_trace(hyper_vms);
  const Timed hyper =
      run(hyper_trace, kSmallHost, /*shards=*/8, /*index=*/true, check_threads);
  const double hyper_events = static_cast<double>(2 * hyper_vms);

  bool all_identical = hyper.identical_across_threads;
  for (const Timed& t : naive_runs) {
    all_identical = all_identical && t.identical_across_threads;
  }

  if (json) {
    std::printf("{\n");
    std::printf("  \"bench\": \"micro_datacenter\",\n");
    std::printf(
        "  \"note\": \"shard speedup in the naive section is algorithmic — "
        "cell-partitioning shrinks every O(hosts) policy scan to O(hosts/shards) "
        "— and holds at one pool thread; thread counts only change wall-clock, "
        "never results (identical_across_threads)\",\n");
    std::printf("  \"naive_shard_scaling\": {\n");
    std::printf("    \"vms\": %zu,\n", naive_vms);
    std::printf("    \"hosts_at_1_shard\": %zu,\n", naive_runs.front().result.opened_pms);
    std::printf("    \"results\": [\n");
    for (std::size_t i = 0; i < naive_runs.size(); ++i) {
      const Timed& t = naive_runs[i];
      std::printf("      {\"shards\": %zu, \"hosts\": %zu, \"wall_s\": %.3f, "
                  "\"speedup_vs_1\": %.2f, \"identical_across_threads\": %s}%s\n",
                  kShardCounts[i], t.result.opened_pms, t.wall_s,
                  t.wall_s > 0 ? naive_runs.front().wall_s / t.wall_s : 0.0,
                  t.identical_across_threads ? "true" : "false",
                  i + 1 < naive_runs.size() ? "," : "");
    }
    std::printf("    ],\n");
    std::printf("    \"speedup_8_shards\": %.2f\n", naive_speedup);
    std::printf("  },\n");
    std::printf("  \"hyperscale\": {\n");
    std::printf("    \"vms\": %zu,\n", hyper_vms);
    std::printf("    \"shards\": 8,\n");
    std::printf("    \"index\": true,\n");
    std::printf("    \"hosts_opened\": %zu,\n", hyper.result.opened_pms);
    std::printf("    \"peak_vms\": %zu,\n", hyper.result.peak_vms);
    std::printf("    \"wall_s\": %.3f,\n", hyper.wall_s);
    std::printf("    \"events_per_sec\": %.0f,\n",
                hyper.wall_s > 0 ? hyper_events / hyper.wall_s : 0.0);
    std::printf("    \"identical_across_threads\": %s\n",
                hyper.identical_across_threads ? "true" : "false");
    std::printf("  }\n");
    std::printf("}\n");
    return all_identical ? 0 : 1;
  }

  bench::print_header("Sharded datacenter — scaling and hyperscale");
  std::printf("section 1: naive path (index off), %zu VMs, first-fit\n\n", naive_vms);
  std::printf("%8s | %8s | %9s | %8s | %s\n", "shards", "hosts", "wall (s)", "speedup",
              "identical");
  bench::print_rule(56);
  for (std::size_t i = 0; i < naive_runs.size(); ++i) {
    const Timed& t = naive_runs[i];
    std::printf("%8zu | %8zu | %9.2f | %7.2fx | %s\n", kShardCounts[i],
                t.result.opened_pms, t.wall_s,
                t.wall_s > 0 ? naive_runs.front().wall_s / t.wall_s : 0.0,
                t.identical_across_threads ? "yes" : "NO — BUG");
  }
  bench::print_rule(56);
  std::printf("\nsection 2: hyperscale (index on, 8 shards), %zu VMs\n", hyper_vms);
  std::printf("  hosts opened:  %zu\n", hyper.result.opened_pms);
  std::printf("  peak VMs:      %zu\n", hyper.result.peak_vms);
  std::printf("  wall:          %.2f s (%.0f events/s)\n", hyper.wall_s,
              hyper.wall_s > 0 ? hyper_events / hyper.wall_s : 0.0);
  std::printf("  identical across threads: %s\n",
              hyper.identical_across_threads ? "yes" : "NO — BUG");
  std::printf("\ntarget: >= 3x at 8 shards in section 1, >= 100k hosts in section 2.\n");
  return all_identical ? 0 : 1;
}
