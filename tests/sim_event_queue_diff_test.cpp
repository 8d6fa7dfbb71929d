// Randomized differential: sim::EventQueue against a reference queue built
// the straightforward way — a binary std::priority_queue of (time, lane,
// insertion sequence, std::function) entries. Both queues are driven in
// lockstep through the same >= 1M schedule / schedule_lane / step /
// run_until operations and must fire the same events in the same order at
// the same times.
//
// The operation mix is built to stress what the slab-and-key queue changes:
// heavy time and lane ties (integer and half-integer offsets over a window
// of a few seconds, four lanes including 255), actions that schedule
// re-entrantly (also at `now`), closures too large for the inline buffer
// (the heap fallback), and captures that are not trivially destructible: a
// shared_ptr token whose use count must always equal its fixed owners plus
// the number of pending token-carrying actions, which proves that each
// action is destroyed exactly once — after firing, or with the queue while
// still pending.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <utility>
#include <vector>

#include "core/error.hpp"
#include "core/rng.hpp"
#include "sim/event_queue.hpp"

namespace slackvm::sim {
namespace {

/// The reference: std::priority_queue ordered by (time, lane, insertion).
class ReferenceQueue {
 public:
  using Action = std::function<void(core::SimTime)>;

  void schedule(core::SimTime time, Action action) {
    schedule_lane(time, EventQueue::kLaneControl, std::move(action));
  }
  void schedule_lane(core::SimTime time, std::uint8_t lane, Action action) {
    SLACKVM_ASSERT(time >= now_);
    heap_.push(Entry{time, lane, next_seq_++, std::move(action)});
  }
  bool step() {
    if (heap_.empty()) {
      return false;
    }
    Entry entry = std::move(const_cast<Entry&>(heap_.top()));
    heap_.pop();
    now_ = entry.time;
    entry.action(now_);
    return true;
  }
  void run_until(core::SimTime deadline) {
    while (!heap_.empty() && heap_.top().time < deadline) {
      step();
    }
    SLACKVM_ASSERT(deadline >= now_);
    now_ = deadline;
  }
  [[nodiscard]] core::SimTime now() const noexcept { return now_; }
  [[nodiscard]] std::size_t pending() const noexcept { return heap_.size(); }

 private:
  struct Entry {
    core::SimTime time;
    std::uint8_t lane;
    std::uint64_t seq;
    Action action;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      if (a.time != b.time) {
        return a.time > b.time;
      }
      if (a.lane != b.lane) {
        return a.lane > b.lane;
      }
      return a.seq > b.seq;
    }
  };
  std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
  core::SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
};

constexpr std::array<std::uint8_t, 4> kLanes = {EventQueue::kLaneWorkload,
                                                EventQueue::kLaneControl, 2, 255};

/// Closure shapes: inline and trivially copyable, inline with a shared_ptr,
/// heap fallback, heap fallback with a shared_ptr.
enum class Kind : std::uint8_t { kSmall, kToken, kLarge, kLargeToken };

/// One fired event: its id and the bits of the time it fired at.
struct Fire {
  std::uint64_t id;
  std::uint64_t time_bits;
  friend bool operator==(const Fire&, const Fire&) = default;
};

/// Drives one queue. Event ids are handed out in schedule order, and every
/// decision an action takes derives from its own id, so two harnesses that
/// see the same operations stay identical exactly as long as their queues
/// fire identically.
template <class Queue>
class Harness {
 public:
  explicit Harness(std::shared_ptr<int> token) : token_(std::move(token)) {}

  Queue& queue() { return queue_; }
  std::vector<Fire>& log() { return log_; }
  [[nodiscard]] long live_tokens() const noexcept { return live_tokens_; }

  void add(core::SimTime time, std::uint8_t lane, Kind kind, bool default_lane) {
    const std::uint64_t id = next_id_++;
    if (kind == Kind::kToken || kind == Kind::kLargeToken) {
      ++live_tokens_;
    }
    switch (kind) {
      case Kind::kSmall:
        put(time, lane, default_lane,
            [this, id](core::SimTime t) { fire(id, t, false); });
        break;
      case Kind::kToken:
        put(time, lane, default_lane, [this, id, token = token_](core::SimTime t) {
          fire(id, t, *token == 0);
        });
        break;
      case Kind::kLarge: {
        std::array<std::uint64_t, 12> pad{};
        pad[11] = id;
        put(time, lane, default_lane,
            [this, pad](core::SimTime t) { fire(pad[11], t, false); });
        break;
      }
      case Kind::kLargeToken: {
        std::array<std::uint64_t, 12> pad{};
        pad[5] = id;
        put(time, lane, default_lane, [this, pad, token = token_](core::SimTime t) {
          fire(pad[5], t, *token == 0);
        });
        break;
      }
    }
  }

 private:
  template <class F>
  void put(core::SimTime time, std::uint8_t lane, bool default_lane, F&& f) {
    if (default_lane) {
      queue_.schedule(time, std::forward<F>(f));
    } else {
      queue_.schedule_lane(time, lane, std::forward<F>(f));
    }
  }

  void fire(std::uint64_t id, core::SimTime t, bool carries_token) {
    log_.push_back(Fire{id, std::bit_cast<std::uint64_t>(t)});
    if (carries_token) {
      --live_tokens_;  // the action is destroyed once it returns
    }
    // About one event in four schedules children re-entrantly, a third of
    // them at `now`.
    core::SplitMix64 rng(id * 0x9E3779B97F4A7C15ULL + 17);
    const std::uint64_t roll = rng.below(16);
    const int children = roll < 3 ? 1 : (roll == 3 ? 2 : 0);
    for (int c = 0; c < children; ++c) {
      const core::SimTime at = t + 0.5 * static_cast<double>(rng.below(3) * rng.below(3));
      add(at, kLanes[rng.below(kLanes.size())], static_cast<Kind>(rng.below(4)),
          rng.below(2) == 0);
    }
  }

  Queue queue_;
  std::vector<Fire> log_;
  std::shared_ptr<int> token_;
  std::uint64_t next_id_ = 0;
  long live_tokens_ = 0;
};

/// Runs `ops` lockstep operations on both queues, then destroys them with
/// events still pending. Returns the number of events fired.
std::size_t run_differential(std::uint64_t seed, std::size_t ops) {
  const auto token_a = std::make_shared<int>(0);
  const auto token_b = std::make_shared<int>(0);
  std::size_t fired = 0;
  {
    Harness<EventQueue> a(token_a);
    Harness<ReferenceQueue> b(token_b);
    core::SplitMix64 rng(seed);
    const auto compare = [&] {
      if (a.log() != b.log()) {
        ADD_FAILURE() << "fire sequences diverge (seed " << seed << ")";
        return false;
      }
      fired += a.log().size();
      a.log().clear();
      b.log().clear();
      return true;
    };
    for (std::size_t op = 0; op < ops; ++op) {
      const std::uint64_t roll = rng.below(100);
      if (roll < 55) {
        // Offsets of 0 .. 3.5 s in half-second steps: most events tie.
        const core::SimTime at =
            a.queue().now() + 0.5 * static_cast<double>(rng.below(8));
        const std::uint8_t lane = kLanes[rng.below(kLanes.size())];
        const auto kind = static_cast<Kind>(rng.below(4));
        const bool default_lane = rng.below(3) == 0;
        a.add(at, lane, kind, default_lane);
        b.add(at, lane, kind, default_lane);
      } else if (roll < 97) {
        const bool stepped = a.queue().step();
        if (stepped != b.queue().step()) {
          ADD_FAILURE() << "step() disagrees at op " << op;
          return fired;
        }
      } else {
        const core::SimTime deadline =
            a.queue().now() + 0.5 * static_cast<double>(rng.below(4));
        a.queue().run_until(deadline);
        b.queue().run_until(deadline);
      }
      if (a.queue().pending() != b.queue().pending() ||
          a.queue().now() != b.queue().now() || a.log().size() != b.log().size()) {
        ADD_FAILURE() << "queues diverge at op " << op << " (seed " << seed << ")";
        return fired;
      }
      if (op % 4096 == 0) {
        if (!compare()) {
          return fired;
        }
        // Exactly one owner per pending token-carrying action, besides this
        // function and the harness.
        EXPECT_EQ(token_a.use_count(), 2 + a.live_tokens());
        EXPECT_EQ(token_b.use_count(), 2 + b.live_tokens());
      }
    }
    compare();
    EXPECT_GT(a.queue().pending(), 0U);  // some actions die with the queue
    EXPECT_GT(a.live_tokens(), 0);
    EXPECT_EQ(token_a.use_count(), 2 + a.live_tokens());
    EXPECT_EQ(token_b.use_count(), 2 + b.live_tokens());
  }
  EXPECT_EQ(token_a.use_count(), 1);
  EXPECT_EQ(token_b.use_count(), 1);
  return fired;
}

TEST(EventQueueDifferential, MatchesPriorityQueueReferenceOverAMillionOps) {
  const std::uint64_t fallbacks = EventAction::heap_fallbacks();
  std::size_t fired = 0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    fired += run_differential(seed, 250'000);
  }
  // The mix really reached the heap fallback and fired most of what it
  // scheduled.
  EXPECT_GT(EventAction::heap_fallbacks(), fallbacks);
  EXPECT_GT(fired, 500'000U);
}

}  // namespace
}  // namespace slackvm::sim
