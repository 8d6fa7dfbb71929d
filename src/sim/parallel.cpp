#include "sim/parallel.hpp"

#include <algorithm>
#include <cstdlib>

namespace slackvm::sim {

std::size_t resolve_parallelism(std::size_t requested) noexcept {
  if (requested != 0) {
    return requested;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

ThreadPool::ThreadPool(std::size_t threads) {
  const std::size_t n = std::max<std::size_t>(1, threads);
  queues_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    queues_.push_back(std::make_unique<WorkerQueue>());
  }
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(batch_mutex_);
    stop_ = true;
  }
  batch_cv_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

void ThreadPool::run(std::size_t count, const SlotTask& task,
                     const WatchdogConfig* watchdog) {
  if (count == 0) {
    return;
  }
  // Publish the task before any index becomes poppable: a worker still
  // draining the tail of the previous batch can pop a fresh index the moment
  // it lands in a queue, without ever passing through the epoch wait.
  {
    const std::lock_guard<std::mutex> lock(batch_mutex_);
    task_ = &task;
    remaining_ = count;
  }
  // Deal indices block-wise: worker w owns [w*chunk, min((w+1)*chunk, n)).
  // Contiguous blocks keep each worker on neighbouring cells of the
  // experiment grid; stealing rebalances the tail.
  const std::size_t workers = workers_.size();
  const std::size_t chunk = (count + workers - 1) / workers;
  for (std::size_t w = 0; w < workers; ++w) {
    const std::size_t lo = std::min(w * chunk, count);
    const std::size_t hi = std::min(lo + chunk, count);
    const std::lock_guard<std::mutex> lock(queues_[w]->mutex);
    for (std::size_t i = lo; i < hi; ++i) {
      queues_[w]->indices.push_back(i);
    }
  }
  {
    const std::lock_guard<std::mutex> lock(batch_mutex_);
    ++batch_epoch_;
  }
  batch_cv_.notify_all();

  // The calling thread works too, so run(n) with a 1-thread pool cannot
  // deadlock and small batches finish without a context switch. It pops
  // from worker 0's queue but runs as slot 0, the workers as slots 1..n.
  std::size_t index = 0;
  while (try_pop(0, index)) {
    execute(index, 0);
  }
  {
    std::unique_lock<std::mutex> lock(batch_mutex_);
    if (watchdog == nullptr || watchdog->timeout.count() <= 0) {
      done_cv_.wait(lock, [this] { return remaining_ == 0; });
    } else {
      // Bounded wait: every `timeout` without completion is a stall. The
      // dump runs unlocked so on_stall may take its own locks (or block on
      // stderr) without deadlocking workers finishing behind its back.
      while (!done_cv_.wait_for(lock, watchdog->timeout,
                                [this] { return remaining_ == 0; })) {
        lock.unlock();
        if (watchdog->on_stall) {
          watchdog->on_stall();
        }
        if (watchdog->fatal) {
          // A crash with the dump on stderr beats an undiagnosable hang.
          std::abort();
        }
        lock.lock();
      }
    }
    task_ = nullptr;
  }
  std::exception_ptr error;
  {
    const std::lock_guard<std::mutex> lock(error_mutex_);
    std::swap(error, first_error_);
  }
  if (error) {
    std::rethrow_exception(error);
  }
}

bool ThreadPool::try_pop(std::size_t self, std::size_t& index) {
  // Own queue first: LIFO keeps the hot tail of the block local.
  {
    const std::lock_guard<std::mutex> lock(queues_[self]->mutex);
    if (!queues_[self]->indices.empty()) {
      index = queues_[self]->indices.back();
      queues_[self]->indices.pop_back();
      return true;
    }
  }
  // Steal FIFO from the most loaded victim (victims keep their tail).
  std::size_t victim = queues_.size();
  std::size_t victim_load = 0;
  for (std::size_t other = 0; other < queues_.size(); ++other) {
    if (other == self) {
      continue;
    }
    const std::lock_guard<std::mutex> lock(queues_[other]->mutex);
    if (queues_[other]->indices.size() > victim_load) {
      victim_load = queues_[other]->indices.size();
      victim = other;
    }
  }
  if (victim == queues_.size()) {
    return false;
  }
  const std::lock_guard<std::mutex> lock(queues_[victim]->mutex);
  if (queues_[victim]->indices.empty()) {
    return false;  // raced with the owner; caller re-checks remaining_
  }
  index = queues_[victim]->indices.front();
  queues_[victim]->indices.pop_front();
  return true;
}

void ThreadPool::execute(std::size_t index, std::size_t slot) {
  // Holding an index guarantees task_ is this batch's task (run() sets it
  // before pushing, and cannot clear it until remaining_ — which includes
  // this index — hits zero), but the read still needs the mutex.
  const SlotTask* task = nullptr;
  {
    const std::lock_guard<std::mutex> lock(batch_mutex_);
    task = task_;
  }
  try {
    (*task)(index, slot);
  } catch (...) {
    const std::lock_guard<std::mutex> lock(error_mutex_);
    if (!first_error_) {
      first_error_ = std::current_exception();
    }
  }
  bool last = false;
  {
    const std::lock_guard<std::mutex> lock(batch_mutex_);
    last = --remaining_ == 0;
  }
  if (last) {
    done_cv_.notify_all();
  }
}

void ThreadPool::worker_loop(std::size_t self) {
  std::uint64_t seen_epoch = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(batch_mutex_);
      batch_cv_.wait(lock,
                     [this, seen_epoch] { return stop_ || batch_epoch_ != seen_epoch; });
      if (stop_) {
        return;
      }
      seen_epoch = batch_epoch_;
    }
    std::size_t index = 0;
    while (try_pop(self, index)) {
      execute(index, self + 1);
    }
    // All queues drained (no tasks are added mid-batch): back to waiting
    // for the next epoch while in-flight tasks on other workers finish.
  }
}

ParallelRunner::ParallelRunner(std::size_t parallelism)
    : parallelism_(resolve_parallelism(parallelism)) {
  if (parallelism_ > 1) {
    // The caller participates in run(), so spawn one fewer worker.
    pool_ = std::make_unique<ThreadPool>(parallelism_ - 1);
  }
}

void ParallelRunner::for_each(std::size_t count,
                              const std::function<void(std::size_t)>& fn,
                              const WatchdogConfig* watchdog) {
  for_each(count, [&fn](std::size_t index, std::size_t) { fn(index); }, watchdog);
}

void ParallelRunner::for_each(std::size_t count, const SlotTask& fn,
                              const WatchdogConfig* watchdog) {
  if (pool_ == nullptr) {
    for (std::size_t i = 0; i < count; ++i) {
      fn(i, 0);
    }
    return;
  }
  pool_->run(count, fn, watchdog);
}

}  // namespace slackvm::sim
