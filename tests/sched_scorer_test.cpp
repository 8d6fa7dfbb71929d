#include "sched/scorer.hpp"

#include <gtest/gtest.h>

#include <memory>

namespace slackvm::sched {
namespace {

using core::gib;
using core::OversubLevel;
using core::VmId;
using core::VmSpec;

VmSpec spec(core::VcpuCount vcpus, core::MemMib mem, std::uint8_t ratio) {
  VmSpec s;
  s.vcpus = vcpus;
  s.mem_mib = mem;
  s.level = OversubLevel{ratio};
  return s;
}

const core::Resources kWorker{32, gib(128)};

TEST(ProgressScorerTest, PrefersComplementaryHost) {
  // Host A is CPU-heavy (1:1 VMs), host B memory-heavy (3:1 VMs). A
  // memory-heavy 3:1 VM must score higher on A.
  HostState cpu_heavy(0, kWorker);
  cpu_heavy.add(VmId{1}, spec(16, gib(16), 1));  // ratio 1
  HostState mem_heavy(1, kWorker);
  mem_heavy.add(VmId{2}, spec(12, gib(32), 3));  // 4 cores, 32 GiB: ratio 8

  const ProgressScorer scorer;
  const VmSpec candidate = spec(2, gib(8), 3);  // 1 core, 8 GiB: ratio 8
  EXPECT_GT(scorer.score(cpu_heavy.load(), candidate),
            scorer.score(mem_heavy.load(), candidate));
}

TEST(ProgressScorerTest, UsesHostAwareCoreDelta) {
  // On a host whose 3:1 vNode has rounding slack, a small 3:1 VM consumes
  // zero new cores — pure memory gain toward a CPU-heavy host's target.
  HostState host(0, kWorker);
  host.add(VmId{1}, spec(16, gib(8), 1));   // CPU heavy: ratio 0.5
  host.add(VmId{2}, spec(2, gib(2), 3));    // 1 core @3:1, slack for 1 vcpu
  const ProgressScorer scorer;
  const double s = scorer.score(host.load(), spec(1, gib(4), 3));
  EXPECT_GT(s, 0.0);
}

TEST(ProgressScorerTest, EmptyHostScoresAtMostZero) {
  const HostState host(0, kWorker);
  const ProgressScorer scorer;
  EXPECT_LE(scorer.score(host.load(), spec(4, gib(4), 1)), 0.0);
  // A perfectly balanced VM (ratio 4) scores exactly zero.
  EXPECT_DOUBLE_EQ(scorer.score(host.load(), spec(2, gib(8), 1)), 0.0);
}

TEST(BestFitScorerTest, FullerHostWins) {
  HostState fuller(0, kWorker);
  fuller.add(VmId{1}, spec(16, gib(64), 1));
  HostState emptier(1, kWorker);
  emptier.add(VmId{2}, spec(2, gib(8), 1));
  const BestFitScorer scorer;
  const VmSpec candidate = spec(2, gib(4), 1);
  EXPECT_GT(scorer.score(fuller.load(), candidate),
            scorer.score(emptier.load(), candidate));
}

TEST(WorstFitScorerTest, IsNegatedBestFit) {
  HostState host(0, kWorker);
  host.add(VmId{1}, spec(4, gib(16), 1));
  const BestFitScorer best;
  const WorstFitScorer worst;
  const VmSpec candidate = spec(1, gib(2), 2);
  EXPECT_DOUBLE_EQ(worst.score(host.load(), candidate),
                   -best.score(host.load(), candidate));
}

TEST(CompositeScorerTest, WeightedSum) {
  CompositeScorer composite;
  composite.add(std::make_unique<BestFitScorer>(), 2.0);
  composite.add(std::make_unique<WorstFitScorer>(), 1.0);
  HostState host(0, kWorker);
  host.add(VmId{1}, spec(8, gib(32), 1));
  const VmSpec candidate = spec(1, gib(2), 1);
  const BestFitScorer best;
  // 2*b + 1*(-b) = b
  EXPECT_DOUBLE_EQ(composite.score(host.load(), candidate),
                   best.score(host.load(), candidate));
  EXPECT_EQ(composite.size(), 2U);
}

TEST(CompositeScorerTest, NameListsParts) {
  CompositeScorer composite;
  composite.add(std::make_unique<ProgressScorer>(), 1.5);
  EXPECT_EQ(composite.name(), "composite(1.5*progress-to-target-ratio)");
}

TEST(ScorerNames, AreStable) {
  EXPECT_EQ(ProgressScorer{}.name(), "progress-to-target-ratio");
  EXPECT_EQ(BestFitScorer{}.name(), "best-fit");
  EXPECT_EQ(WorstFitScorer{}.name(), "worst-fit");
}

}  // namespace
}  // namespace slackvm::sched
