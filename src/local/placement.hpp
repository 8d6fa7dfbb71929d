// Topology-driven CPU selection policies for vNode resizing (paper §V-A).
//
//  * Growing an existing vNode picks free CPUs *closest* (Algorithm 1
//    distance) to the current allocation, so sibling cores integrate
//    gradually and the node keeps resembling a smaller CPU.
//  * Creating a vNode seeds it with the free CPU *farthest* from all CPUs
//    already owned by other vNodes (ideally a separate socket), maximizing
//    isolation between oversubscription levels.
//  * Shrinking releases the CPUs that are least compact with respect to the
//    surviving set.
//
// All selections are deterministic: ties break on the lowest CPU id. This
// tie-break is part of the contract — the per-step-rescan reference in
// tests/reference/local_cpus.hpp must agree with these functions
// bit-for-bit, which the differential tests assert.
//
// Every selection runs over a DistanceFrontier — min_dist[cpu] = min
// distance to the growing set, total_dist[cpu] = sum of distances to the
// surviving set — relaxed with only the one matrix row of the CPU added or
// removed per step (O(steps·n), zero allocations in the inner loops when a
// PlacementScratch is reused). A caller that owns a frontier per vNode
// (VNodeManager does, and seeds each new node straight into its own) carries
// it across calls, so steady-state resizes skip the O(|set|·n) rebuild: the
// sum frontier is exact under both additions and removals, the min frontier
// under additions by relaxation and under removals through per-entry witness
// counts. A call without one runs on the frontier held in the scratch,
// rebuilt on entry.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "topology/cpuset.hpp"
#include "topology/distance.hpp"

namespace slackvm::local {

/// Persistent distance frontier of one vNode, carried across selection
/// calls by the owner (VNodeManager keeps one per vNode). Both arrays are
/// dense over the CPU universe and describe the node's *current* CPU set:
///
///   min_dist[cpu]   = min Algorithm-1 distance from `cpu` to the set
///   total_dist[cpu] = sum of distances from `cpu` to the set
///
/// The sum stays exact under additions (+= row) and removals (-= row), so
/// `total_valid` survives every resize once built. The min survives
/// additions by relaxation, and removals through `min_count[cpu]` — the
/// number of set members achieving the minimum: removing a member only
/// forces an O(|set|) recompute for the entries whose count drops to zero,
/// which Algorithm-1's heavily tied distance values make rare. Selection
/// results are bit-identical with or without a frontier — it is purely a
/// work-avoidance cache (audited by VNodeManager::check_invariants against
/// a from-scratch recomputation).
struct DistanceFrontier {
  std::vector<std::uint32_t> min_dist;
  std::vector<std::uint32_t> min_count;
  std::vector<std::uint64_t> total_dist;
  bool min_valid = false;
  bool total_valid = false;
};

/// Reusable buffers of the selection loops. A caller that holds one across
/// invocations (VNodeManager does) makes them allocation-free at steady
/// state; the buffers are resized to the CPU universe on first use and never
/// shrink. Treat the contents as opaque scratch — they carry no state
/// between calls.
struct PlacementScratch {
  std::vector<std::uint32_t> best_dist;  ///< seed pass: min distance to the occupied set
  DistanceFrontier frontier;             ///< the frontier of a call given none
  topo::CpuSet pool;                     ///< working copy of the candidate pool
  topo::CpuSet acc;                      ///< working copy of the growing set
};

/// Pick `count` CPUs from `free_cpus` to extend `current`, greedily
/// minimizing the Algorithm-1 distance to the growing set (lowest CPU id on
/// equal distance). Returns std::nullopt when `free_cpus` has fewer than
/// `count` members.
/// `frontier`, when given, must describe `current` (or be invalid, in which
/// case it is rebuilt); it is updated to describe the grown set.
[[nodiscard]] std::optional<topo::CpuSet> choose_extension_cpus(
    const topo::DistanceMatrix& dm, const topo::CpuSet& free_cpus,
    const topo::CpuSet& current, std::size_t count, PlacementScratch& scratch,
    DistanceFrontier* frontier = nullptr);

/// Pick `count` CPUs from `free_cpus` for a brand-new vNode: the seed CPU
/// maximizes the distance to `occupied` (CPUs of all other vNodes; lowest
/// CPU id on equal distance); remaining CPUs are chosen as the closest to
/// the new node. With nothing occupied the seed is the lowest free CPU.
/// `frontier`, when given, is overwritten to describe the seeded set (its
/// min half; the sum half is left to be built by the first release).
[[nodiscard]] std::optional<topo::CpuSet> choose_seed_cpus(
    const topo::DistanceMatrix& dm, const topo::CpuSet& free_cpus,
    const topo::CpuSet& occupied, std::size_t count, PlacementScratch& scratch,
    DistanceFrontier* frontier = nullptr);

/// Pick `count` CPUs of `current` to release, greedily removing the CPU with
/// the largest total distance to the CPUs that remain (lowest CPU id on
/// equal total). Returns the CPUs to release; `count` must not exceed
/// |current|.
/// `frontier`, when given, must describe `current` (or have an invalid sum,
/// in which case it is rebuilt); it is updated to describe the surviving
/// set.
[[nodiscard]] topo::CpuSet choose_release_cpus(const topo::DistanceMatrix& dm,
                                               const topo::CpuSet& current,
                                               std::size_t count,
                                               PlacementScratch& scratch,
                                               DistanceFrontier* frontier = nullptr);

// Convenience overloads with a per-call scratch (tests, one-off callers).
[[nodiscard]] std::optional<topo::CpuSet> choose_extension_cpus(
    const topo::DistanceMatrix& dm, const topo::CpuSet& free_cpus,
    const topo::CpuSet& current, std::size_t count);
[[nodiscard]] std::optional<topo::CpuSet> choose_seed_cpus(const topo::DistanceMatrix& dm,
                                                           const topo::CpuSet& free_cpus,
                                                           const topo::CpuSet& occupied,
                                                           std::size_t count);
[[nodiscard]] topo::CpuSet choose_release_cpus(const topo::DistanceMatrix& dm,
                                               const topo::CpuSet& current, std::size_t count);

}  // namespace slackvm::local
