#include "reference/local_cpus.hpp"

#include "core/error.hpp"

namespace slackvm::reference {

namespace {

/// Greedily move `count` CPUs from `pool` into `acc`, each step taking the
/// pool CPU with the smallest min-distance to `acc` (lowest id on ties).
void grow_nearest(const topo::DistanceMatrix& dm, topo::CpuSet& pool, topo::CpuSet& acc,
                  std::size_t count) {
  for (std::size_t step = 0; step < count; ++step) {
    std::optional<topo::CpuId> best;
    std::uint32_t best_dist = topo::DistanceMatrix::kUnreachable;
    for (topo::CpuId cpu : pool.as_vector()) {
      const std::uint32_t dist = dm.min_distance_to(cpu, acc);
      if (dist < best_dist) {
        best_dist = dist;
        best = cpu;
      }
    }
    SLACKVM_ASSERT(best.has_value());
    pool.reset(*best);
    acc.set(*best);
  }
}

}  // namespace

std::optional<topo::CpuSet> choose_extension_cpus(const topo::DistanceMatrix& dm,
                                                  const topo::CpuSet& free_cpus,
                                                  const topo::CpuSet& current,
                                                  std::size_t count) {
  if (free_cpus.count() < count) {
    return std::nullopt;
  }
  topo::CpuSet pool = free_cpus;
  topo::CpuSet acc = current;
  grow_nearest(dm, pool, acc, count);
  return acc - current;
}

std::optional<topo::CpuSet> choose_seed_cpus(const topo::DistanceMatrix& dm,
                                             const topo::CpuSet& free_cpus,
                                             const topo::CpuSet& occupied,
                                             std::size_t count) {
  if (count == 0 || free_cpus.count() < count) {
    return std::nullopt;
  }
  topo::CpuSet pool = free_cpus;

  // Seed: farthest from every other vNode, so distinct oversubscription
  // levels land on separate sockets / cache zones whenever possible.
  topo::CpuId seed = pool.first();
  if (!occupied.empty()) {
    std::uint32_t best_dist = 0;
    bool found = false;
    for (topo::CpuId cpu : pool.as_vector()) {
      const std::uint32_t dist = dm.min_distance_to(cpu, occupied);
      if (!found || dist > best_dist) {
        best_dist = dist;
        seed = cpu;
        found = true;
      }
    }
  }
  topo::CpuSet acc(free_cpus.universe());
  acc.set(seed);
  pool.reset(seed);
  grow_nearest(dm, pool, acc, count - 1);
  return acc;
}

topo::CpuSet choose_release_cpus(const topo::DistanceMatrix& dm, const topo::CpuSet& current,
                                 std::size_t count) {
  SLACKVM_ASSERT(count <= current.count());
  topo::CpuSet keep = current;
  topo::CpuSet released(current.universe());
  for (std::size_t step = 0; step < count; ++step) {
    // Release the CPU whose removal keeps the survivors most compact, i.e.
    // the one with the largest total distance to the rest.
    std::optional<topo::CpuId> worst;
    std::uint64_t worst_total = 0;
    for (topo::CpuId cpu : keep.as_vector()) {
      topo::CpuSet others = keep;
      others.reset(cpu);
      const std::uint64_t total = dm.total_distance_to(cpu, others);
      if (!worst.has_value() || total > worst_total) {
        worst_total = total;
        worst = cpu;
      }
    }
    SLACKVM_ASSERT(worst.has_value());
    keep.reset(*worst);
    released.set(*worst);
  }
  return released;
}

}  // namespace slackvm::reference
