// Naive reference of the local scheduler's CPU selection (paper §V-A,
// Algorithm 1): every greedy step rescans each candidate against the whole
// accumulated set. local/placement.hpp runs the same selections over
// incremental distance frontiers and must agree bit-for-bit, including the
// lowest-CPU-id tie-break (FastpathFunctions.*, FastpathChurn.*, TieBreak.*).
#pragma once

#include <cstddef>
#include <optional>

#include "topology/cpuset.hpp"
#include "topology/distance.hpp"

namespace slackvm::reference {

/// Grow `current` by `count` CPUs of `free_cpus`, each the closest to the
/// growing set; std::nullopt when `free_cpus` has fewer than `count`.
[[nodiscard]] std::optional<topo::CpuSet> choose_extension_cpus(
    const topo::DistanceMatrix& dm, const topo::CpuSet& free_cpus,
    const topo::CpuSet& current, std::size_t count);

/// Seed a new vNode with the free CPU farthest from `occupied`, then grow it
/// to `count` CPUs; std::nullopt for `count == 0` or too few free CPUs.
[[nodiscard]] std::optional<topo::CpuSet> choose_seed_cpus(const topo::DistanceMatrix& dm,
                                                           const topo::CpuSet& free_cpus,
                                                           const topo::CpuSet& occupied,
                                                           std::size_t count);

/// Release `count` CPUs of `current`, each the one with the largest total
/// distance to the CPUs that remain.
[[nodiscard]] topo::CpuSet choose_release_cpus(const topo::DistanceMatrix& dm,
                                               const topo::CpuSet& current, std::size_t count);

}  // namespace slackvm::reference
