#include "sim/event_queue.hpp"

#include <algorithm>
#include <limits>
#include <utility>

namespace slackvm::sim {

namespace {

/// Key::order holds the lane in its top byte, the insertion sequence below.
constexpr int kLaneShift = 56;
constexpr std::uint64_t kSeqLimit = std::uint64_t{1} << kLaneShift;

}  // namespace

void EventQueue::schedule_lane(core::SimTime time, std::uint8_t lane,
                               EventAction action) {
  // `>=` is false for NaN, so this also keeps NaN keys (which would
  // silently corrupt the heap's ordering) out of the queue.
  SLACKVM_ASSERT(time >= now_);
  SLACKVM_ASSERT(next_seq_ < kSeqLimit);
  SLACKVM_ASSERT(action);
  const std::uint32_t s = acquire_slot();
  slot(s) = std::move(action);
  push(Key{time, (std::uint64_t{lane} << kLaneShift) | next_seq_++, s});
}

bool EventQueue::step() {
  if (heap_.empty()) {
    return false;
  }
  const Key top = heap_.front();
  pop_front();
  now_ = top.time;
  // Publish progress before firing: a watchdog sampling mid-action sees the
  // event that is (possibly) stuck, not the one before it. The owner is the
  // only writer, so a plain load + store replaces a locked increment.
  fired_.store(fired_.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  now_bits_.store(std::bit_cast<std::uint64_t>(now_), std::memory_order_relaxed);
  // The action runs in its slot: chunks never move, and the slot is not on
  // the free list until the action is done, so schedule() calls made from
  // inside it can neither relocate nor overwrite it.
  EventAction& action = slot(top.slot);
  try {
    action(now_);
  } catch (...) {
    release_slot(top.slot);
    throw;
  }
  release_slot(top.slot);
  return true;
}

void EventQueue::run() {
  while (step()) {
  }
}

void EventQueue::run_until(core::SimTime deadline) {
  while (!heap_.empty() && heap_.front().time < deadline) {
    step();
  }
  SLACKVM_ASSERT(deadline >= now_);
  now_ = deadline;
}

void EventQueue::reset() noexcept {
  for (const Key& key : heap_) {
    slot(key.slot).reset();
  }
  heap_.clear();
  // Every slot is empty again: hand them out from slot 0, as a new queue
  // would, rather than through the free list.
  free_.clear();
  fresh_ = 0;
  now_ = 0;
  next_seq_ = 0;
  fired_.store(0, std::memory_order_relaxed);
  now_bits_.store(0, std::memory_order_relaxed);
}

std::uint32_t EventQueue::acquire_slot() {
  if (!free_.empty()) {
    const std::uint32_t s = free_.back();
    free_.pop_back();
    return s;
  }
  if (fresh_ == chunks_.size() * kChunkSlots) {
    SLACKVM_ASSERT(fresh_ <= std::numeric_limits<std::uint32_t>::max() - kChunkSlots);
    chunks_.push_back(std::make_unique_for_overwrite<Chunk>());
  }
  return fresh_++;
}

void EventQueue::release_slot(std::uint32_t s) {
  slot(s).reset();
  free_.push_back(s);
}

// The heap is 4-ary: node i has children 4i+1 .. 4i+4. Both sifts move a
// hole instead of swapping, writing each displaced key once.

void EventQueue::push(const Key& key) {
  heap_.push_back(key);
  std::size_t i = heap_.size() - 1;
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!before(key, heap_[parent])) {
      break;
    }
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = key;
}

void EventQueue::pop_front() noexcept {
  const Key last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) {
    return;
  }
  std::size_t i = 0;
  while (true) {
    const std::size_t first = 4 * i + 1;
    if (first >= n) {
      break;
    }
    const std::size_t end = std::min(first + 4, n);
    std::size_t best = first;
    for (std::size_t c = first + 1; c < end; ++c) {
      if (before(heap_[c], heap_[best])) {
        best = c;
      }
    }
    if (!before(heap_[best], last)) {
      break;
    }
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = last;
}

}  // namespace slackvm::sim
