#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <vector>

#include "core/error.hpp"
#include "sched/policy.hpp"
#include "sim/replay.hpp"
#include "sim/usage_monitor.hpp"
#include "workload/catalog.hpp"
#include "workload/generator.hpp"
#include "workload/level_mix.hpp"

namespace slackvm::sim {
namespace {

TEST(EventQueueTest, FiresInTimeOrder) {
  EventQueue queue;
  std::vector<int> order;
  queue.schedule(30.0, [&](core::SimTime) { order.push_back(3); });
  queue.schedule(10.0, [&](core::SimTime) { order.push_back(1); });
  queue.schedule(20.0, [&](core::SimTime) { order.push_back(2); });
  queue.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(queue.now(), 30.0);
}

TEST(EventQueueTest, TiesBreakByInsertionOrder) {
  EventQueue queue;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    queue.schedule(7.0, [&order, i](core::SimTime) { order.push_back(i); });
  }
  queue.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueueTest, ActionReceivesFireTime) {
  EventQueue queue;
  core::SimTime seen = -1;
  queue.schedule(42.0, [&](core::SimTime t) { seen = t; });
  queue.run();
  EXPECT_DOUBLE_EQ(seen, 42.0);
}

TEST(EventQueueTest, ReentrantScheduling) {
  EventQueue queue;
  std::vector<core::SimTime> fired;
  queue.schedule(1.0, [&](core::SimTime t) {
    fired.push_back(t);
    queue.schedule(t + 1.0, [&](core::SimTime t2) { fired.push_back(t2); });
  });
  queue.run();
  EXPECT_EQ(fired, (std::vector<core::SimTime>{1.0, 2.0}));
}

TEST(EventQueueTest, SchedulingInThePastThrows) {
  EventQueue queue;
  queue.schedule(10.0, [](core::SimTime) {});
  queue.run();
  EXPECT_THROW(queue.schedule(5.0, [](core::SimTime) {}), core::SlackError);
}

TEST(EventQueueTest, StepReturnsFalseWhenEmpty) {
  EventQueue queue;
  EXPECT_FALSE(queue.step());
  queue.schedule(1.0, [](core::SimTime) {});
  EXPECT_TRUE(queue.step());
  EXPECT_FALSE(queue.step());
}

TEST(EventQueueTest, RunUntilStopsAtDeadline) {
  EventQueue queue;
  std::vector<int> fired;
  queue.schedule(1.0, [&](core::SimTime) { fired.push_back(1); });
  queue.schedule(5.0, [&](core::SimTime) { fired.push_back(5); });
  queue.run_until(3.0);
  EXPECT_EQ(fired, std::vector<int>{1});
  EXPECT_DOUBLE_EQ(queue.now(), 3.0);
  EXPECT_EQ(queue.pending(), 1U);
  queue.run();
  EXPECT_EQ(fired, (std::vector<int>{1, 5}));
}

TEST(EventQueueTest, PendingCountsScheduled) {
  EventQueue queue;
  EXPECT_TRUE(queue.empty());
  queue.schedule(1.0, [](core::SimTime) {});
  queue.schedule(2.0, [](core::SimTime) {});
  EXPECT_EQ(queue.pending(), 2U);
}

// --- cross-shard ordering regressions ---------------------------------------
//
// The insertion-order tie-break is queue-local; when several queues run side
// by side (sim/shard.hpp) the documented cross-queue rule is: ascending
// time, ties to the lowest queue (shard) index, within a queue in fire
// order. These tests pin the two queue-side properties that rule builds on:
// fire order at one timestamp is exactly insertion order regardless of how
// the heap sifts, and run_until leaves every queue at the identical clock so
// windows line up across shards.

TEST(EventQueueTest, SameTimestampFireOrderSurvivesHeapChurn) {
  // Interleave many t=5 events with earlier and later ones so the heap
  // reshuffles between the tied entries; fire order at t=5 must still be
  // exactly insertion order.
  EventQueue queue;
  std::vector<int> tied;
  for (int i = 0; i < 16; ++i) {
    queue.schedule(5.0, [&tied, i](core::SimTime) { tied.push_back(i); });
    queue.schedule(1.0 + 0.1 * i, [](core::SimTime) {});
    queue.schedule(9.0 - 0.1 * i, [](core::SimTime) {});
  }
  queue.run();
  std::vector<int> expected(16);
  for (int i = 0; i < 16; ++i) {
    expected[static_cast<std::size_t>(i)] = i;
  }
  EXPECT_EQ(tied, expected);
}

TEST(EventQueueTest, TwoQueuesReplayIdenticalSchedulesIdentically) {
  // Two queues fed the same (time, payload) schedule in the same order must
  // fire in the same sequence — the per-shard half of the cross-shard
  // determinism argument: a shard's fire order depends only on its own
  // schedule, never on how other queues interleave in wall-clock time.
  const std::vector<core::SimTime> times = {3.0, 1.0, 3.0, 2.0, 3.0, 1.0};
  std::vector<int> a;
  std::vector<int> b;
  EventQueue qa;
  EventQueue qb;
  for (std::size_t i = 0; i < times.size(); ++i) {
    qa.schedule(times[i], [&a, i](core::SimTime) { a.push_back(static_cast<int>(i)); });
  }
  for (std::size_t i = 0; i < times.size(); ++i) {
    qb.schedule(times[i], [&b, i](core::SimTime) { b.push_back(static_cast<int>(i)); });
  }
  // Drive them through different window cuts: qa in one go, qb in windows.
  qa.run();
  qb.run_until(2.5);
  qb.run_until(3.0);  // strictly-before semantics: t=3 events not yet fired
  EXPECT_EQ(b.size(), 3U);
  qb.run();
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, (std::vector<int>{1, 5, 3, 0, 2, 4}));
}

TEST(EventQueueTest, RunUntilAlignsClocksAcrossQueues) {
  // Barrier alignment: after run_until(t) every queue reports now() == t,
  // even a queue with nothing to fire — so a post-barrier schedule at t is
  // legal on every shard.
  EventQueue busy;
  EventQueue idle;
  busy.schedule(1.0, [](core::SimTime) {});
  busy.run_until(4.0);
  idle.run_until(4.0);
  EXPECT_DOUBLE_EQ(busy.now(), 4.0);
  EXPECT_DOUBLE_EQ(idle.now(), 4.0);
  idle.schedule(4.0, [](core::SimTime) {});
  EXPECT_EQ(idle.pending(), 1U);
}

// --- robustness -------------------------------------------------------------

TEST(EventQueueTest, NanTimeThrows) {
  // A NaN key would silently break the heap's total order; it is refused.
  EventQueue queue;
  EXPECT_THROW(queue.schedule(std::numeric_limits<double>::quiet_NaN(),
                              [](core::SimTime) {}),
               core::SlackError);
  EXPECT_THROW(queue.schedule_lane(std::numeric_limits<double>::quiet_NaN(),
                                   EventQueue::kLaneWorkload, [](core::SimTime) {}),
               core::SlackError);
  EXPECT_EQ(queue.pending(), 0U);
}

TEST(EventQueueTest, InfiniteTimeFiresLast) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  EventQueue queue;
  std::vector<double> fired;
  const auto record = [&fired](core::SimTime t) { fired.push_back(t); };
  queue.schedule(kInf, record);
  queue.schedule_lane(1e300, EventQueue::kLaneControl, record);
  queue.schedule_lane(kInf, EventQueue::kLaneWorkload, record);
  queue.schedule(2.0, record);
  queue.run_until(1e301);  // strictly before: the two +inf events stay
  EXPECT_EQ(fired, (std::vector<double>{2.0, 1e300}));
  EXPECT_EQ(queue.pending(), 2U);
  EXPECT_EQ(queue.next_time(), kInf);
  queue.run();
  EXPECT_EQ(fired, (std::vector<double>{2.0, 1e300, kInf, kInf}));
  EXPECT_EQ(queue.now(), kInf);
}

TEST(EventQueueTest, ThrowingActionLeavesQueueConsistent) {
  // The event is gone, its action destroyed and its slot released; the
  // queue keeps working, and the slot is reused by the next schedule.
  EventQueue queue;
  const auto token = std::make_shared<int>(0);
  std::vector<int> fired;
  queue.schedule(1.0, [&fired](core::SimTime) { fired.push_back(1); });
  queue.schedule(2.0, [token](core::SimTime) -> void {
    throw core::SlackError("deploy failed");
  });
  queue.schedule(3.0, [&fired](core::SimTime) { fired.push_back(3); });
  EXPECT_EQ(token.use_count(), 2);
  EXPECT_TRUE(queue.step());
  EXPECT_THROW(queue.step(), core::SlackError);
  EXPECT_EQ(token.use_count(), 1);  // destroyed exactly once
  EXPECT_EQ(queue.pending(), 1U);
  EXPECT_EQ(queue.now(), 2.0);
  EXPECT_EQ(queue.fired_count(), 2U);
  for (int i = 0; i < 600; ++i) {  // spans several slab chunks
    queue.schedule(4.0 + i, [&fired, i](core::SimTime) { fired.push_back(4 + i); });
  }
  queue.run();
  ASSERT_EQ(fired.size(), 602U);
  EXPECT_EQ(fired[1], 3);
  EXPECT_EQ(fired.back(), 603);
}

TEST(EventQueueTest, ThrowFromRunUntilKeepsLaterEvents) {
  EventQueue queue;
  int fired = 0;
  queue.schedule(1.0, [](core::SimTime) { throw std::runtime_error("boom"); });
  queue.schedule(1.0, [&fired](core::SimTime) { ++fired; });
  EXPECT_THROW(queue.run_until(5.0), std::runtime_error);
  EXPECT_EQ(queue.pending(), 1U);
  queue.run_until(5.0);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(queue.now(), 5.0);
}

TEST(EventQueueTest, ResetDropsPendingEventsAndReplaysLikeANewQueue) {
  const auto schedule_all = [](EventQueue& queue, std::vector<int>& order) {
    for (int i = 0; i < 300; ++i) {
      queue.schedule_lane(static_cast<double>(i % 7), static_cast<std::uint8_t>(i % 2),
                          [&order, i](core::SimTime) { order.push_back(i); });
    }
  };
  EventQueue used;
  std::vector<int> discarded;
  schedule_all(used, discarded);
  const auto token = std::make_shared<int>(0);
  used.schedule(9.0, [token](core::SimTime) {});
  for (int i = 0; i < 120; ++i) {
    used.step();
  }
  used.reset();
  EXPECT_TRUE(used.empty());
  EXPECT_EQ(used.now(), 0.0);
  EXPECT_EQ(used.fired_count(), 0U);
  EXPECT_EQ(used.approx_now(), 0.0);
  EXPECT_EQ(token.use_count(), 1) << "a dropped action was not destroyed";

  std::vector<int> reused_order;
  std::vector<int> fresh_order;
  EventQueue fresh;
  schedule_all(used, reused_order);
  schedule_all(fresh, fresh_order);
  used.run();
  fresh.run();
  EXPECT_EQ(reused_order, fresh_order);
  EXPECT_EQ(used.fired_count(), fresh.fired_count());
  EXPECT_EQ(used.now(), fresh.now());
}

// --- inline storage ------------------------------------------------------------

TEST(EventActionTest, InlineLimitAndHeapFallback) {
  struct Fits {
    std::array<std::uint64_t, 8> words;
    void operator()(core::SimTime) const {}
  };
  struct TooBig {
    std::array<std::uint64_t, 9> words;
    void operator()(core::SimTime) const {}
  };
  struct ThrowingMove {
    ThrowingMove() = default;
    ThrowingMove(ThrowingMove&&) noexcept(false) {}
    void operator()(core::SimTime) const {}
  };
  static_assert(EventAction::stores_inline<Fits>());
  static_assert(!EventAction::stores_inline<TooBig>());
  static_assert(!EventAction::stores_inline<ThrowingMove>());

  const std::uint64_t before = EventAction::heap_fallbacks();
  EventAction fits = Fits{};
  EXPECT_EQ(EventAction::heap_fallbacks(), before);
  EventAction big = TooBig{};
  EventAction moved = ThrowingMove{};
  EXPECT_EQ(EventAction::heap_fallbacks(), before + 2);
  EventAction relocated = std::move(big);
  EXPECT_FALSE(big);  // a moved-from action is empty
  EXPECT_TRUE(relocated);
  relocated(1.0);
}

TEST(EventActionTest, ReplayFaultAndMigrationClosuresStayInline) {
  // Every closure the replay loop, the fault injector and the migration
  // engine schedule must fit the inline buffer: one engine-rebalanced,
  // interference-on, fault-injected, usage-sampled replay on a capped fleet,
  // with drain leads, explicit directives and flight timeouts, schedules
  // each kind (arrival, departure, control tick, heat tick, usage sample,
  // fault begin / fail / repair / retry / directive, flight completion /
  // timeout / retry) and must not take the heap fallback once.
  workload::GeneratorConfig cfg;
  cfg.target_population = 120;
  cfg.horizon = 2.0 * 24 * 3600;
  cfg.mean_lifetime = 1.0 * 24 * 3600;
  cfg.seed = 42;
  const workload::Trace trace =
      workload::Generator(workload::azure_catalog(), workload::make_mix(10, 30, 60), cfg)
          .generate();
  Datacenter dc = Datacenter::dedicated(
      {32, core::gib(128)},
      {core::OversubLevel{1}, core::OversubLevel{2}, core::OversubLevel{3}},
      sched::make_first_fit);
  dc.set_max_hosts_per_cluster(3);  // capped: evacuations and arrivals retry
  RebalanceOptions reb;
  reb.interval = 2.0 * 3600;
  reb.budget_per_pass = 16;
  reb.migration.enabled = true;
  reb.migration.bandwidth_mibps = 64.0;
  reb.migration.max_retries = 2;
  reb.migration.backoff_base = 300.0;
  reb.migration.timeout = 60.0;
  reb.interference.enabled = true;
  reb.interference.heat_interval = 1800.0;
  reb.interference.heat_alpha = 0.5;
  reb.interference.threshold = 1.02;
  FaultConfig faults;
  faults.count = 40;
  faults.seed = 777;
  faults.repair_delay = 3600.0;
  faults.drain_lead = 600.0;
  faults.directives.push_back({FaultDirective::Kind::kDrain, 7200.0, 0, 0});
  faults.directives.push_back({FaultDirective::Kind::kRepair, 9000.0, 0, 0});
  UsageMonitor monitor(3600.0);

  const std::uint64_t before = EventAction::heap_fallbacks();
  const RunResult r = replay(dc, trace, reb, &monitor, &faults);
  EXPECT_EQ(EventAction::heap_fallbacks(), before);
  // The run really exercised the schedules named above.
  EXPECT_GT(r.placed_vms, 0U);
  EXPECT_GT(r.host_failures, 0U);
  EXPECT_GT(r.drained_hosts, 0U);
  EXPECT_GT(r.host_repairs, 0U);
  EXPECT_GT(r.mig_planned, 0U);
  EXPECT_GT(r.evac_retries, 0U);
  EXPECT_GT(r.deferred_arrivals, 0U);
  EXPECT_GT(r.mig_committed, 0U);
  EXPECT_GT(r.mig_timed_out, 0U);
  EXPECT_GT(r.mig_retries, 0U);
  EXPECT_GT(r.heat_updates, 0U);
  EXPECT_GT(monitor.report().samples, 0U);
}

}  // namespace
}  // namespace slackvm::sim
