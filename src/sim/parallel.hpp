// Parallel experiment engine.
//
// The paper's evaluation protocols (Fig. 3 sweep, Fig. 4 heatmap, Table 4
// response times) are embarrassingly parallel grids of independently seeded
// trace replays. This header provides the machinery to fan those grids out
// over a work-stealing thread pool while keeping results bit-identical to a
// serial run:
//
//  * every task is addressed by a stable index; anything stochastic inside
//    a task derives its stream via core::derive_seed(base, index), never
//    from pool scheduling order;
//  * results are collected into an index-addressed vector, so reductions
//    happen in task-index order regardless of completion order;
//  * with parallelism <= 1 no threads are created at all — the tasks run
//    inline on the calling thread, in index order.
//
// Determinism guarantee: for a pure task function f(i), ParallelRunner::map
// returns exactly the vector {f(0), f(1), ..., f(n-1)} for every thread
// count, so serial and parallel experiment results are interchangeable.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/rng.hpp"

namespace slackvm::sim {

/// Resolve a parallelism knob: 0 means "all hardware threads", anything
/// else is taken literally (including 1 = serial).
[[nodiscard]] std::size_t resolve_parallelism(std::size_t requested) noexcept;

/// Bounded-wait stall watchdog for a task batch. A lost worker (deadlocked
/// event handler, livelocked barrier) turns a hang into a diagnosed abort:
/// whenever the batch has made no progress for `timeout`, `on_stall` runs
/// on the waiting thread (dump per-shard progress, in-flight state, ...)
/// and, when `fatal`, the process aborts — a stack-producing crash beats an
/// infinite CI hang. Non-fatal watchdogs keep waiting after the dump (the
/// testable path). timeout <= 0 disables the watchdog entirely.
struct WatchdogConfig {
  std::chrono::milliseconds timeout{0};
  std::function<void()> on_stall;  ///< may be empty; called once per expiry
  bool fatal = true;
};

/// A task of a batch that also learns which thread runs it: task(index,
/// slot), with slot 0 for the thread that called run() or for_each() and
/// slot w + 1 for pool worker w. A slot is always the same one thread, so
/// a task may use scratch state indexed by its slot without locking.
using SlotTask = std::function<void(std::size_t index, std::size_t slot)>;

/// Work-stealing thread pool over indexed task batches (std::thread +
/// std::mutex/std::condition_variable only, no external dependencies).
///
/// A batch of n tasks is dealt block-wise into per-worker deques; each
/// worker drains its own deque LIFO and, when empty, steals FIFO from the
/// most loaded victim. Stealing moves whole indices, so which thread runs a
/// task never changes what the task computes — only when.
class ThreadPool {
 public:
  /// Spawns `threads` workers (at least 1). Workers idle on a condition
  /// variable between batches.
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Threads that run a batch's tasks: every worker, plus the caller,
  /// which drains worker 0's queue beside worker 0.
  [[nodiscard]] std::size_t slots() const noexcept { return size() + 1; }

  /// Run task(0, slot) .. task(count-1, slot), blocking until every index
  /// completed; `slot` < slots() names the running thread (SlotTask). The
  /// first exception thrown by any task is rethrown here (remaining tasks
  /// still run to completion, keeping the pool reusable). A watchdog
  /// (optional) bounds the completion wait: it covers work executing on the
  /// pool's workers, not the indices the calling thread drains itself
  /// first.
  void run(std::size_t count, const SlotTask& task,
           const WatchdogConfig* watchdog = nullptr);

 private:
  struct WorkerQueue {
    std::mutex mutex;
    std::deque<std::size_t> indices;
  };

  void worker_loop(std::size_t self);
  [[nodiscard]] bool try_pop(std::size_t self, std::size_t& index);
  void execute(std::size_t index, std::size_t slot);

  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> workers_;

  std::mutex batch_mutex_;
  std::condition_variable batch_cv_;  ///< workers wait here between batches
  std::condition_variable done_cv_;   ///< run() waits here for completion
  const SlotTask* task_ = nullptr;
  std::uint64_t batch_epoch_ = 0;
  std::size_t remaining_ = 0;
  bool stop_ = false;

  std::mutex error_mutex_;
  std::exception_ptr first_error_;
};

/// Front end used by the experiment protocols: an ordered parallel map with
/// a serial fast path.
class ParallelRunner {
 public:
  /// `parallelism` as in resolve_parallelism(); <= 1 runs everything inline
  /// on the calling thread (no pool is created).
  explicit ParallelRunner(std::size_t parallelism);

  [[nodiscard]] std::size_t parallelism() const noexcept { return parallelism_; }

  /// The canonical per-task seed for task `index` under base seed `base`
  /// (stable: independent of thread count and scheduling order).
  [[nodiscard]] static std::uint64_t task_seed(std::uint64_t base,
                                               std::size_t index) noexcept {
    return core::derive_seed(base, index);
  }

  /// Threads a batch runs on, hence the slots its tasks see: 1 on the
  /// serial fast path, else one per pool worker plus the caller.
  [[nodiscard]] std::size_t slots() const noexcept {
    return pool_ == nullptr ? 1 : pool_->slots();
  }

  /// Ordered map: returns {fn(0), ..., fn(count-1)}. R must be default- and
  /// move-constructible. fn must not depend on execution order.
  template <typename R>
  [[nodiscard]] std::vector<R> map(std::size_t count,
                                   const std::function<R(std::size_t)>& fn) {
    std::vector<R> out(count);
    for_each(count, [&out, &fn](std::size_t i) { out[i] = fn(i); });
    return out;
  }

  /// map() for tasks that take their slot (SlotTask): returns {fn(0, s0),
  /// ..., fn(count-1, s)}. What fn returns must not depend on the slot.
  template <typename R>
  [[nodiscard]] std::vector<R> map(
      std::size_t count, const std::function<R(std::size_t, std::size_t)>& fn) {
    std::vector<R> out(count);
    for_each(count,
             [&out, &fn](std::size_t i, std::size_t slot) { out[i] = fn(i, slot); });
    return out;
  }

  /// Indexed for-each with the same ordering/determinism contract as map().
  /// The watchdog (optional) is forwarded to ThreadPool::run; the serial
  /// fast path ignores it (an inline loop cannot lose a worker).
  void for_each(std::size_t count, const std::function<void(std::size_t)>& fn,
                const WatchdogConfig* watchdog = nullptr);

  /// for_each() for tasks that take their slot (< slots()).
  void for_each(std::size_t count, const SlotTask& fn,
                const WatchdogConfig* watchdog = nullptr);

 private:
  std::size_t parallelism_;
  std::unique_ptr<ThreadPool> pool_;  ///< null on the serial fast path
};

}  // namespace slackvm::sim
