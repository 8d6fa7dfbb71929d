// Micro-benchmark for the parallel experiment engine: runs the Fig. 3
// distribution sweep serially and at increasing thread counts, verifies the
// results are bit-identical to the serial run, and reports the wall-clock
// speedup. On an 8-core host the 8-thread sweep is expected to run >= 4x
// faster than serial; on smaller machines the speedup degrades gracefully
// while the identity check still holds.
//
// Exits non-zero if any parallel run diverges from serial.
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "sim/experiment.hpp"
#include "sim/parallel.hpp"

using namespace slackvm;

namespace {

using Clock = std::chrono::steady_clock;

double run_sweep(const workload::Catalog& catalog, sim::ExperimentConfig config,
                 std::size_t parallelism, std::vector<sim::PackingComparison>& out) {
  config.parallelism = parallelism;
  const auto start = Clock::now();
  out = sim::run_distribution_sweep(catalog, config);
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

int main(int argc, char** argv) {
  sim::ExperimentConfig config;
  config.generator.seed = bench::arg_u64(argc, argv, "--seed", 42);
  config.generator.target_population = bench::arg_u64(argc, argv, "--population", 250);
  config.repetitions = bench::arg_u64(argc, argv, "--reps", 2);
  const std::size_t max_threads = bench::arg_u64(argc, argv, "--threads", 8);
  const workload::Catalog& catalog = workload::ovhcloud_catalog();

  bench::print_header("Parallel experiment engine — serial vs parallel sweep");
  std::printf("grid: 15 distributions x %zu reps = %zu replay cells "
              "(%zu-VM traces), %zu hardware threads\n\n",
              config.repetitions, 15 * config.repetitions,
              config.generator.target_population, sim::resolve_parallelism(0));

  std::vector<sim::PackingComparison> serial;
  const double serial_s = run_sweep(catalog, config, 1, serial);
  std::printf("%8s | %9s | %8s | %s\n", "threads", "wall (s)", "speedup", "identical");
  bench::print_rule(48);
  std::printf("%8d | %9.2f | %7.2fx | %s\n", 1, serial_s, 1.0, "(reference)");

  bool all_identical = true;
  for (std::size_t threads = 2; threads <= max_threads; threads *= 2) {
    std::vector<sim::PackingComparison> parallel;
    const double wall_s = run_sweep(catalog, config, threads, parallel);
    const bool same = serial == parallel;
    all_identical = all_identical && same;
    std::printf("%8zu | %9.2f | %7.2fx | %s\n", threads, wall_s,
                wall_s > 0 ? serial_s / wall_s : 0.0, same ? "yes" : "NO — BUG");
  }
  bench::print_rule(48);
  std::printf("\ndeterminism: every thread count must reproduce the serial sweep\n"
              "bit-for-bit (seeds derive from grid position, reduction is ordered).\n"
              "target: >= 4x at 8 threads on an 8-core host.\n");
  return all_identical ? 0 : 1;
}
