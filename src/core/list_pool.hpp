// Storage for many small lists that grow: the VMs of each PM in a cluster,
// the demand terms of each host in a heat cache.
//
// Growing such a list through the global heap costs one allocation per
// capacity doubling, per list. A ListPool serves the lists instead from
// size-class free lists (std::pmr::unsynchronized_pool_resource), so a
// list grows by taking a block another list gave back, and the pool's
// chunks come from an arena whose buffers grow geometrically
// (std::pmr::monotonic_buffer_resource), so a fleet of thousands of hosts
// takes a logarithmic number of heap allocations and a fleet of tens of
// hosts keeps a few KiB.
//
// Blocks past the largest size class (a list of more than 1 KiB: a PM with
// over 32 VMs) are not pooled; the arena serves them and does not reuse
// them once the list outgrows them. Lists never shrink, so that costs each
// such list at most its own size once. DESIGN.md §5 "Pooled per-host
// storage" gives the measurements behind both constants.
//
// Not thread-safe: an owner whose lists only one thread mutates at a time
// (a VCluster, which a replay shard owns whole) holds one. Not movable
// either, so owners hold it by pointer and their lists keep pointing at it.
#pragma once

#include <cstddef>
#include <memory_resource>

namespace slackvm::core {

class ListPool {
 public:
  /// Largest pooled block, and blocks per chunk (so the slack a size class
  /// leaves in a small fleet is at most 8 blocks).
  static constexpr std::pmr::pool_options kOptions{8, 1024};
  /// The arena's first buffer; each next one is 1.5 times larger.
  static constexpr std::size_t kFirstBufferBytes = 1024;

  ListPool() = default;
  ListPool(const ListPool&) = delete;
  ListPool& operator=(const ListPool&) = delete;

  /// The resource the lists draw from.
  [[nodiscard]] std::pmr::memory_resource* resource() noexcept { return &pool_; }

 private:
  std::pmr::monotonic_buffer_resource arena_{kFirstBufferBytes};
  std::pmr::unsynchronized_pool_resource pool_{kOptions, &arena_};
};

}  // namespace slackvm::core
