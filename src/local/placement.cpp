#include "local/placement.hpp"

#include <algorithm>
#include <span>

#include "core/error.hpp"

namespace slackvm::local {

namespace {

constexpr std::uint32_t kUnreachable = topo::DistanceMatrix::kUnreachable;

/// Relax the whole frontier with one matrix row. Dense on purpose: the
/// branch-free full-width loop auto-vectorizes, and relaxing entries outside
/// the candidate pool is harmless — the selection scans only read pool
/// members.
void relax_min(std::vector<std::uint32_t>& frontier,
               std::span<const std::uint32_t> row) {
  // __restrict lets -O2 vectorize without an alias-versioning check (the
  // frontier buffer never overlaps the immutable matrix row).
  std::uint32_t* __restrict dst = frontier.data();
  const std::uint32_t* __restrict src = row.data();
  const std::size_t n = frontier.size();
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] = std::min(dst[i], src[i]);
  }
}

void add_row(std::vector<std::uint64_t>& totals, std::span<const std::uint32_t> row) {
  std::uint64_t* __restrict dst = totals.data();
  const std::uint32_t* __restrict src = row.data();
  const std::size_t n = totals.size();
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] += src[i];
  }
}

void sub_row(std::vector<std::uint64_t>& totals, std::span<const std::uint32_t> row) {
  std::uint64_t* __restrict dst = totals.data();
  const std::uint32_t* __restrict src = row.data();
  const std::size_t n = totals.size();
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] -= src[i];
  }
}

/// Relax a counted min frontier with one row: a strictly smaller distance
/// resets the witness count to one, an equal distance adds a witness.
/// Branchless selects so the loop vectorizes.
void relax_min_count(std::vector<std::uint32_t>& min_dist,
                     std::vector<std::uint32_t>& min_count,
                     std::span<const std::uint32_t> row) {
  std::uint32_t* __restrict mins = min_dist.data();
  std::uint32_t* __restrict counts = min_count.data();
  const std::uint32_t* __restrict src = row.data();
  const std::size_t n = min_dist.size();
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t d = src[i];
    const std::uint32_t m = mins[i];
    counts[i] = d < m ? 1U : counts[i] + (d == m ? 1U : 0U);
    mins[i] = d < m ? d : m;
  }
}

/// Build the counted min frontier of `acc` from scratch.
void build_min_frontier(const topo::DistanceMatrix& dm, const topo::CpuSet& acc,
                        DistanceFrontier& frontier) {
  frontier.min_dist.assign(dm.size(), kUnreachable);
  frontier.min_count.assign(dm.size(), 0);
  acc.for_each_cpu([&](topo::CpuId member) {
    relax_min_count(frontier.min_dist, frontier.min_count, dm.row(member));
  });
  frontier.min_valid = true;
}

/// Greedy grow over a counted frontier: each step scans the pool for the
/// frontier minimum (ascending iteration + strict '<' reproduces the
/// reference's lowest-id tie-break) and relaxes the frontier with only the
/// matrix row of the CPU just added — O(n) per step, no allocation. Keeps
/// the sum frontier in sync when it is valid. Forced inline into both
/// callers: as an out-of-line call, VNodeManager deploy+remove churn ran
/// 3-7 % slower on the dual-socket builder topologies (GCC 12, -O2).
[[gnu::always_inline]] inline void grow_nearest(const topo::DistanceMatrix& dm,
                                                topo::CpuSet& pool, topo::CpuSet& acc,
                                                std::size_t count,
                                                DistanceFrontier& frontier) {
  for (std::size_t step = 0; step < count; ++step) {
    bool found = false;
    topo::CpuId best = 0;
    std::uint32_t best_d = kUnreachable;
    pool.for_each_cpu([&](topo::CpuId cpu) {
      if (frontier.min_dist[cpu] < best_d) {
        best_d = frontier.min_dist[cpu];
        best = cpu;
        found = true;
      }
    });
    SLACKVM_ASSERT(found);
    pool.reset(best);
    acc.set(best);
    relax_min_count(frontier.min_dist, frontier.min_count, dm.row(best));
    if (frontier.total_valid) {
      add_row(frontier.total_dist, dm.row(best));
    }
  }
}

/// Withdraw `removed` from a counted min frontier over the surviving set
/// `keep`: entries the removed CPU witnessed lose a count; the (rare)
/// entries losing their last witness are recomputed over `keep`.
void withdraw_min_witness(const topo::DistanceMatrix& dm, const topo::CpuSet& keep,
                          topo::CpuId removed, DistanceFrontier& frontier) {
  const std::span<const std::uint32_t> row = dm.row(removed);
  const std::size_t n = frontier.min_dist.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (row[i] == frontier.min_dist[i] && --frontier.min_count[i] == 0) {
      // The matrix is symmetric, so the column of `i` is its row: one
      // contiguous pass over the survivors re-derives min and count.
      const std::span<const std::uint32_t> row_i = dm.row(static_cast<topo::CpuId>(i));
      std::uint32_t min = kUnreachable;
      std::uint32_t witnesses = 0;
      keep.for_each_cpu([&](topo::CpuId member) {
        const std::uint32_t d = row_i[member];
        if (d < min) {
          min = d;
          witnesses = 1;
        } else if (d == min) {
          ++witnesses;
        }
      });
      frontier.min_dist[i] = min;
      frontier.min_count[i] = witnesses;
    }
  }
}

/// The frontier a selection runs on: the caller's, or else the scratch's,
/// invalidated so the call rebuilds it for its own set.
DistanceFrontier& frontier_for(PlacementScratch& scratch, DistanceFrontier* frontier) {
  if (frontier != nullptr) {
    return *frontier;
  }
  scratch.frontier.min_valid = false;
  scratch.frontier.total_valid = false;
  return scratch.frontier;
}

}  // namespace

std::optional<topo::CpuSet> choose_extension_cpus(const topo::DistanceMatrix& dm,
                                                  const topo::CpuSet& free_cpus,
                                                  const topo::CpuSet& current,
                                                  std::size_t count,
                                                  PlacementScratch& scratch,
                                                  DistanceFrontier* frontier) {
  if (free_cpus.count() < count) {
    return std::nullopt;
  }
  scratch.pool = free_cpus;
  scratch.acc = current;
  // A caller's frontier reuses its counted min array when it still
  // describes `current` (withdraw_min_witness keeps it exact across
  // releases) and keeps its sum array in sync so releases skip their
  // rebuild.
  DistanceFrontier& f = frontier_for(scratch, frontier);
  if (!f.min_valid) {
    build_min_frontier(dm, current, f);
  }
  grow_nearest(dm, scratch.pool, scratch.acc, count, f);
  return scratch.acc - current;
}

std::optional<topo::CpuSet> choose_seed_cpus(const topo::DistanceMatrix& dm,
                                             const topo::CpuSet& free_cpus,
                                             const topo::CpuSet& occupied,
                                             std::size_t count,
                                             PlacementScratch& scratch,
                                             DistanceFrontier* frontier) {
  if (count == 0 || free_cpus.count() < count) {
    return std::nullopt;
  }
  scratch.pool = free_cpus;
  topo::CpuId seed = scratch.pool.first();
  if (!occupied.empty()) {
    // One frontier pass over the occupied rows replaces the per-candidate
    // min_distance_to rescans; ascending iteration + strict '>' keeps the
    // lowest-id tie-break among the maxima.
    scratch.best_dist.assign(dm.size(), kUnreachable);
    occupied.for_each_cpu(
        [&](topo::CpuId member) { relax_min(scratch.best_dist, dm.row(member)); });
    bool found = false;
    std::uint32_t best_d = 0;
    scratch.pool.for_each_cpu([&](topo::CpuId cpu) {
      if (!found || scratch.best_dist[cpu] > best_d) {
        best_d = scratch.best_dist[cpu];
        seed = cpu;
        found = true;
      }
    });
  }
  if (scratch.acc.universe() != free_cpus.universe()) {
    scratch.acc = topo::CpuSet(free_cpus.universe());
  } else {
    scratch.acc.clear();
  }
  scratch.acc.set(seed);
  scratch.pool.reset(seed);
  DistanceFrontier& f = frontier_for(scratch, frontier);
  f.total_valid = false;
  build_min_frontier(dm, scratch.acc, f);
  grow_nearest(dm, scratch.pool, scratch.acc, count - 1, f);
  return scratch.acc;
}

topo::CpuSet choose_release_cpus(const topo::DistanceMatrix& dm, const topo::CpuSet& current,
                                 std::size_t count, PlacementScratch& scratch,
                                 DistanceFrontier* frontier) {
  SLACKVM_ASSERT(count <= current.count());
  scratch.pool = current;  // the surviving set, shrunk step by step
  if (scratch.acc.universe() != current.universe()) {
    scratch.acc = topo::CpuSet(current.universe());
  } else {
    scratch.acc.clear();
  }
  // total_dist[cpu] = sum of distances from cpu to every member of the
  // surviving set (self-distance is zero, so including it changes nothing).
  // Each step evicts the frontier maximum (ascending iteration + strict '>'
  // keeps the lowest-id tie-break) and subtracts the removed CPU's row.
  // A caller's frontier carries an exact sum — it survives every grow and
  // release — so the O(|current|·n) rebuild is skipped.
  DistanceFrontier& f = frontier_for(scratch, frontier);
  if (!f.total_valid) {
    f.total_dist.assign(dm.size(), 0);
    scratch.pool.for_each_cpu(
        [&](topo::CpuId member) { add_row(f.total_dist, dm.row(member)); });
    f.total_valid = true;
  }
  for (std::size_t step = 0; step < count; ++step) {
    bool found = false;
    topo::CpuId worst = 0;
    std::uint64_t worst_total = 0;
    scratch.pool.for_each_cpu([&](topo::CpuId cpu) {
      if (!found || f.total_dist[cpu] > worst_total) {
        worst_total = f.total_dist[cpu];
        worst = cpu;
        found = true;
      }
    });
    SLACKVM_ASSERT(found);
    scratch.pool.reset(worst);
    scratch.acc.set(worst);
    sub_row(f.total_dist, dm.row(worst));
    if (f.min_valid) {
      withdraw_min_witness(dm, scratch.pool, worst, f);
    }
  }
  return scratch.acc;
}

std::optional<topo::CpuSet> choose_extension_cpus(const topo::DistanceMatrix& dm,
                                                  const topo::CpuSet& free_cpus,
                                                  const topo::CpuSet& current,
                                                  std::size_t count) {
  PlacementScratch scratch;
  return choose_extension_cpus(dm, free_cpus, current, count, scratch);
}

std::optional<topo::CpuSet> choose_seed_cpus(const topo::DistanceMatrix& dm,
                                             const topo::CpuSet& free_cpus,
                                             const topo::CpuSet& occupied,
                                             std::size_t count) {
  PlacementScratch scratch;
  return choose_seed_cpus(dm, free_cpus, occupied, count, scratch);
}

topo::CpuSet choose_release_cpus(const topo::DistanceMatrix& dm, const topo::CpuSet& current,
                                 std::size_t count) {
  PlacementScratch scratch;
  return choose_release_cpus(dm, current, count, scratch);
}

}  // namespace slackvm::local
