// Flat VmId -> HostId directory of one VCluster.
//
// Every deploy inserts one entry and every remove erases one, so on a
// week-long trace replay this table sits on the hottest path of the
// simulator. A node-based hash map pays one heap allocation per insert and
// a pointer chase per lookup; this table is open addressing with linear
// probing over one contiguous slot array:
//
//  * the capacity is a power of two and the home slot is the top bits of a
//    Fibonacci (multiplicative) hash, so dense trace ids spread evenly;
//  * the load factor stays at or below 3/4, and the table doubles when an
//    insert would cross it — it grows with the live VMs only and never
//    shrinks, so a warmed table makes no further allocations;
//  * erase uses backward-shift deletion (no tombstones): the entries after
//    the hole that probed past it move back, so every probe run stays
//    contiguous and lookups stop at the first empty slot.
//
// The key value ~0 marks an empty slot and cannot be stored.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "core/vm.hpp"
#include "sched/host_state.hpp"

namespace slackvm::sched {

class VmDirectory {
 public:
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// Slot count (0 before the first insert, then a power of two).
  [[nodiscard]] std::size_t capacity() const noexcept { return slots_.size(); }

  /// Host of `vm`, or nullptr when absent. The pointer stays valid until the
  /// next insert or erase.
  [[nodiscard]] const HostId* find(core::VmId vm) const noexcept;
  [[nodiscard]] HostId* find(core::VmId vm) noexcept {
    return const_cast<HostId*>(std::as_const(*this).find(vm));
  }

  [[nodiscard]] bool contains(core::VmId vm) const noexcept {
    return find(vm) != nullptr;
  }

  /// Map a VM that is not present yet (asserted).
  void insert(core::VmId vm, HostId host);

  /// Map `vm` to `host` unless it is present already, in one probe either
  /// way: returns the new entry's host, or nullptr (nothing changed) for a
  /// duplicate. The pointer stays valid until the next insert or erase.
  HostId* try_insert(core::VmId vm, HostId host);

  /// Unmap every VM; the slot array keeps its capacity.
  void reset() noexcept;

  /// Unmap `vm` and return the host it mapped to; nullopt when absent.
  std::optional<HostId> erase(core::VmId vm) noexcept;

  /// Slot where a probe for `vm` starts at the current capacity (requires
  /// capacity() > 0). Exposed so tests can build colliding key sets.
  [[nodiscard]] std::size_t home_slot(core::VmId vm) const noexcept {
    return static_cast<std::size_t>((vm.value * kFibonacci) >> shift_);
  }

 private:
  struct Slot {
    std::uint64_t key = kEmpty;
    HostId host = 0;
  };

  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};
  static constexpr std::uint64_t kFibonacci = 0x9E3779B97F4A7C15ULL;
  static constexpr std::size_t kMinCapacity = 16;

  /// Rehash every entry into a table of `capacity` slots.
  void rehash(std::size_t capacity);

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  unsigned shift_ = 64;  ///< 64 - log2(capacity)
};

}  // namespace slackvm::sched
