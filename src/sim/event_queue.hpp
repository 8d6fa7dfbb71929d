// Discrete-event simulation core: a time-ordered event queue with a
// monotonic clock. Ties are broken first by *lane*, then by insertion
// order, which makes every simulation fully deterministic.
//
// Lanes are a coarse priority band compared before the insertion-order
// tie-break. They exist for the streaming replay (sim/event_source.hpp):
// the materialized replay schedules every workload event before any
// control event (rebalance passes, usage samples, the fault timetable), so
// at equal timestamps workload events always fired first purely by
// insertion order. A streaming replay inserts workload events lazily —
// mid-run, after the control events — and the workload lane (kLaneWorkload
// < kLaneControl) preserves the exact same firing order without knowing
// the trace length up front. Within one lane the insertion-order tie-break
// applies unchanged, and a queue whose events all share a lane behaves
// exactly like the historical (time, insertion) ordering.
//
// That tie-break is queue-local: it totally orders events *within* one
// queue, but says nothing about events in different queues. The sharded
// engine (sim/shard.hpp) runs one EventQueue per shard, so cross-shard
// ordering needs its own rule — samples are merged by ascending time, ties
// across queues to the lowest shard index, within a queue in fire order
// (shard_merge_order). Regression-tested in tests/sim_event_queue_test.cpp
// and tests/sim_shard_test.cpp.
//
// Storage. Scheduling an event allocates nothing once the queue is warm:
//  * The action is an EventAction: a move-only `void(SimTime)` callable
//    that stores any nothrow-movable callable of up to kInlineBytes (64)
//    in place, with one static call/relocate/destroy table per callable
//    type. A larger (or throwing-move) callable still works, at the price
//    of one heap allocation (the fallback; heap_fallbacks() counts them).
//    Every closure the replay, the fault injector and the migration engine
//    schedule fits inline (pinned by tests/sim_event_queue_test.cpp).
//  * Actions live in a slab of fixed-size chunks (64 slots each)
//    with a LIFO free list of slot indices. Chunks never move, so an
//    action runs in place and its slot is recycled only after it returns
//    (or throws): re-entrant schedule() calls from inside an action are
//    safe.
//  * A 4-ary min-heap orders 24-byte POD keys {time, lane << 56 | seq,
//    slot}; sifting moves keys only, never actions. NaN times are refused
//    (they would break the comparator's total order); +inf is a valid time
//    that fires after every finite one.
// The full argument, including two slab layouts that cost more memory, is
// in DESIGN.md §5 "Event queue".
#pragma once

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/error.hpp"
#include "core/units.hpp"

namespace slackvm::sim {

/// Callback invoked when an event fires; receives the simulation time.
/// Move-only; converts implicitly from any `void(SimTime)` callable.
class EventAction {
 public:
  /// Callables up to this size (and alignment, and with a noexcept move)
  /// are stored in place; anything else takes one heap allocation.
  static constexpr std::size_t kInlineBytes = 64;
  static constexpr std::size_t kInlineAlign = alignof(std::max_align_t);

  /// True when a callable of type F is stored without a heap allocation.
  template <class F>
  [[nodiscard]] static constexpr bool stores_inline() noexcept {
    using D = std::decay_t<F>;
    return sizeof(D) <= kInlineBytes && alignof(D) <= kInlineAlign &&
           std::is_nothrow_move_constructible_v<D>;
  }

  /// Callables constructed through the heap fallback so far, process-wide.
  [[nodiscard]] static std::uint64_t heap_fallbacks() noexcept {
    return heap_fallbacks_.load(std::memory_order_relaxed);
  }

  // Not `= default`, under which value-initialization would zero the
  // buffer: it stays untouched until a callable is stored, so a fresh slab
  // chunk costs no page writes.
  EventAction() noexcept {}

  template <class F>
    requires(!std::is_same_v<std::decay_t<F>, EventAction> &&
             std::is_invocable_r_v<void, std::decay_t<F>&, core::SimTime>)
  EventAction(F&& f) {  // implicit, so lambdas convert at every call site
    using D = std::decay_t<F>;
    if constexpr (stores_inline<D>()) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      zero_tail<sizeof(D)>();
      ops_ = &kInlineOps<D>;
    } else {
      ::new (static_cast<void*>(buf_)) D*(new D(std::forward<F>(f)));
      zero_tail<sizeof(D*)>();
      ops_ = &kHeapOps<D>;
      heap_fallbacks_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  EventAction(EventAction&& other) noexcept { take(other); }
  EventAction& operator=(EventAction&& other) noexcept {
    if (this != &other) {
      reset();
      take(other);
    }
    return *this;
  }
  EventAction(const EventAction&) = delete;
  EventAction& operator=(const EventAction&) = delete;
  ~EventAction() { reset(); }

  /// Invoke the stored callable; the action must not be empty.
  void operator()(core::SimTime t) { ops_->call(buf_, t); }

  [[nodiscard]] explicit operator bool() const noexcept { return ops_ != nullptr; }

  /// Destroy the stored callable (if any), leaving the action empty.
  void reset() noexcept {
    if (ops_ != nullptr) {
      if (ops_->destroy != nullptr) {
        ops_->destroy(buf_);
      }
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*call)(void* self, core::SimTime t);
    /// Move-construct `dst` from `src`, then destroy `src`; null when the
    /// buffer's bytes can simply be copied.
    void (*relocate)(void* dst, void* src) noexcept;
    /// Null when destruction is a no-op.
    void (*destroy)(void* self) noexcept;
  };

  template <class D>
  static D& inline_ref(void* self) noexcept {
    return *std::launder(static_cast<D*>(self));
  }
  template <class D>
  static D*& heap_ref(void* self) noexcept {
    return *std::launder(static_cast<D**>(self));
  }

  template <class D>
  static constexpr Ops kInlineOps{
      [](void* self, core::SimTime t) { inline_ref<D>(self)(t); },
      std::is_trivially_copyable_v<D>
          ? nullptr
          : +[](void* dst, void* src) noexcept {
              ::new (dst) D(std::move(inline_ref<D>(src)));
              inline_ref<D>(src).~D();
            },
      std::is_trivially_destructible_v<D>
          ? nullptr
          : +[](void* self) noexcept { inline_ref<D>(self).~D(); }};

  // The buffer holds a plain owning pointer, which relocates bytewise.
  template <class D>
  static constexpr Ops kHeapOps{
      [](void* self, core::SimTime t) { (*heap_ref<D>(self))(t); }, nullptr,
      [](void* self) noexcept { delete heap_ref<D>(self); }};

  // Bytewise relocation copies the whole buffer; the bytes past the
  // callable are zeroed so that copy never reads indeterminate values.
  template <std::size_t Used>
  void zero_tail() noexcept {
    if constexpr (Used < kInlineBytes) {
      std::memset(buf_ + Used, 0, kInlineBytes - Used);
    }
  }

  void take(EventAction& other) noexcept {
    ops_ = other.ops_;
    if (ops_ == nullptr) {
      return;
    }
    if (ops_->relocate != nullptr) {
      ops_->relocate(buf_, other.buf_);
    } else {
      std::memcpy(buf_, other.buf_, kInlineBytes);
    }
    other.ops_ = nullptr;
  }

  static inline std::atomic<std::uint64_t> heap_fallbacks_{0};

  alignas(kInlineAlign) unsigned char buf_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

class EventQueue {
 public:
  /// Workload lane: trace arrivals/departures. Fires before kLaneControl at
  /// equal timestamps regardless of insertion order.
  static constexpr std::uint8_t kLaneWorkload = 0;
  /// Control lane (the default): rebalance passes, usage samples, fault
  /// timetables and their dynamically scheduled repairs/retries.
  static constexpr std::uint8_t kLaneControl = 1;

  /// Schedule `action` at absolute time `time` (>= now(), not NaN) on the
  /// control lane.
  void schedule(core::SimTime time, EventAction action) {
    schedule_lane(time, kLaneControl, std::move(action));
  }

  /// Schedule on an explicit lane (see the lane constants above).
  void schedule_lane(core::SimTime time, std::uint8_t lane, EventAction action);

  /// Fire the earliest event; returns false when the queue is empty. An
  /// exception thrown by the action propagates after the event is removed
  /// and its slot released.
  bool step();

  /// Fire everything until the queue drains.
  void run();

  /// Fire everything scheduled strictly before `deadline`, then set the
  /// clock to `deadline`.
  void run_until(core::SimTime deadline);

  /// Return to the state of a new queue (no events, clock and counters at
  /// 0) while keeping its storage: the slab chunks, the heap and the free
  /// list keep their capacity, so a reused queue schedules without
  /// allocating up to the high-water mark it reached before. Pending
  /// actions are destroyed unfired. Not to be called from inside an action.
  void reset() noexcept;

  [[nodiscard]] core::SimTime now() const noexcept { return now_; }
  [[nodiscard]] std::size_t pending() const noexcept { return heap_.size(); }
  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }

  /// Timestamp of the earliest pending event; the queue must not be empty.
  [[nodiscard]] core::SimTime next_time() const {
    SLACKVM_ASSERT(!heap_.empty());
    return heap_.front().time;
  }

  // --- cross-thread progress probes (the stall watchdog reads these from
  // another thread while the owner is mid-run; everything else on this class
  // stays single-owner). Relaxed: the probes are diagnostics, not sync.

  /// Events fired so far over the queue's lifetime.
  [[nodiscard]] std::uint64_t fired_count() const noexcept {
    return fired_.load(std::memory_order_relaxed);
  }

  /// Clock as of the most recently fired event (may trail now() while the
  /// owner sits between events; exact once the owner blocks).
  [[nodiscard]] core::SimTime approx_now() const noexcept {
    return std::bit_cast<core::SimTime>(now_bits_.load(std::memory_order_relaxed));
  }

 private:
  /// Heap key: `order` packs the lane above a 56-bit insertion sequence,
  /// so (time, order) is exactly the (time, lane, insertion) contract.
  struct Key {
    core::SimTime time;
    std::uint64_t order;
    std::uint32_t slot;
  };
  static constexpr std::size_t kChunkSlots = 64;
  struct Chunk {
    EventAction slots[kChunkSlots];
  };

  static bool before(const Key& a, const Key& b) noexcept {
    return a.time < b.time || (a.time == b.time && a.order < b.order);
  }

  EventAction& slot(std::uint32_t s) noexcept {
    return chunks_[s / kChunkSlots]->slots[s % kChunkSlots];
  }
  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t s);
  void push(const Key& key);
  void pop_front() noexcept;

  std::vector<Key> heap_;  ///< 4-ary min-heap under before()
  std::vector<std::unique_ptr<Chunk>> chunks_;
  std::vector<std::uint32_t> free_;  ///< released slots, reused last-in first-out
  std::uint32_t fresh_ = 0;  ///< slots handed out at least once
  core::SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  // The atomics make EventQueue immovable; every owner holds it in place
  // (replay locals, the shard states' vector, sweep workspaces).
  std::atomic<std::uint64_t> fired_{0};
  std::atomic<std::uint64_t> now_bits_{0};
};

}  // namespace slackvm::sim
