#include "sched/vm_directory.hpp"

#include <algorithm>
#include <bit>

#include "core/error.hpp"

namespace slackvm::sched {

const HostId* VmDirectory::find(core::VmId vm) const noexcept {
  if (slots_.empty()) {
    return nullptr;
  }
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = home_slot(vm);; i = (i + 1) & mask) {
    const Slot& slot = slots_[i];
    if (slot.key == vm.value) {
      return &slot.host;
    }
    if (slot.key == kEmpty) {
      return nullptr;
    }
  }
}

void VmDirectory::insert(core::VmId vm, HostId host) {
  const HostId* placed = try_insert(vm, host);
  SLACKVM_ASSERT(placed != nullptr);
}

HostId* VmDirectory::try_insert(core::VmId vm, HostId host) {
  SLACKVM_ASSERT(vm.value != kEmpty);
  // Probe first, so a duplicate is refused before the table can grow.
  std::size_t i = 0;
  if (!slots_.empty()) {
    const std::size_t mask = slots_.size() - 1;
    for (i = home_slot(vm); slots_[i].key != kEmpty; i = (i + 1) & mask) {
      if (slots_[i].key == vm.value) {
        return nullptr;
      }
    }
  }
  if (4 * (size_ + 1) > 3 * slots_.size()) {
    rehash(slots_.empty() ? kMinCapacity : 2 * slots_.size());
    const std::size_t mask = slots_.size() - 1;
    i = home_slot(vm);
    while (slots_[i].key != kEmpty) {
      i = (i + 1) & mask;
    }
  }
  slots_[i] = Slot{vm.value, host};
  ++size_;
  return &slots_[i].host;
}

void VmDirectory::reset() noexcept {
  std::fill(slots_.begin(), slots_.end(), Slot{});
  size_ = 0;
}

std::optional<HostId> VmDirectory::erase(core::VmId vm) noexcept {
  if (slots_.empty()) {
    return std::nullopt;
  }
  const std::size_t mask = slots_.size() - 1;
  std::size_t hole = home_slot(vm);
  while (slots_[hole].key != vm.value) {
    if (slots_[hole].key == kEmpty) {
      return std::nullopt;
    }
    hole = (hole + 1) & mask;
  }
  const HostId host = slots_[hole].host;
  // Backward shift: walk the run after the hole and move back every entry
  // whose home slot does not lie strictly between the hole and its current
  // slot (cyclically) — those entries probed past the hole to get where they
  // are, and lookups for them must still find them before an empty slot.
  for (std::size_t next = (hole + 1) & mask; slots_[next].key != kEmpty;
       next = (next + 1) & mask) {
    const std::size_t home = home_slot(core::VmId{slots_[next].key});
    if (((next - home) & mask) >= ((next - hole) & mask)) {
      slots_[hole] = slots_[next];
      hole = next;
    }
  }
  slots_[hole] = Slot{};
  --size_;
  return host;
}

void VmDirectory::rehash(std::size_t capacity) {
  std::vector<Slot> old = std::exchange(slots_, std::vector<Slot>(capacity));
  shift_ = 64U - static_cast<unsigned>(std::countr_zero(capacity));
  const std::size_t mask = capacity - 1;
  for (const Slot& slot : old) {
    if (slot.key == kEmpty) {
      continue;
    }
    std::size_t i = home_slot(core::VmId{slot.key});
    while (slots_[i].key != kEmpty) {
      i = (i + 1) & mask;
    }
    slots_[i] = slot;
  }
}

}  // namespace slackvm::sched
