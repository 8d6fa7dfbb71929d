#include "local/placement.hpp"

#include <gtest/gtest.h>

#include "reference/local_cpus.hpp"
#include "topology/builders.hpp"

namespace slackvm::local {
namespace {

class EpycPlacement : public ::testing::Test {
 protected:
  const topo::CpuTopology epyc_ = topo::make_dual_epyc_7662();
  const topo::DistanceMatrix dm_{epyc_};
};

TEST_F(EpycPlacement, ExtensionPrefersSmtSibling) {
  topo::CpuSet current(epyc_.cpu_count());
  current.set(0);
  topo::CpuSet free_cpus = epyc_.all_cpus();
  free_cpus.reset(0);
  const auto ext = choose_extension_cpus(dm_, free_cpus, current, 1);
  ASSERT_TRUE(ext.has_value());
  EXPECT_TRUE(ext->test(1));  // thread 1 shares core 0's L1
}

TEST_F(EpycPlacement, ExtensionStaysInCcxBeforeLeaving) {
  topo::CpuSet current(epyc_.cpu_count());
  current.set(0);
  current.set(1);
  topo::CpuSet free_cpus = epyc_.all_cpus();
  free_cpus -= current;
  // Ask for the 6 remaining threads of CCX 0 (cores 1-3 x 2 threads).
  const auto ext = choose_extension_cpus(dm_, free_cpus, current, 6);
  ASSERT_TRUE(ext.has_value());
  for (topo::CpuId cpu : ext->as_vector()) {
    EXPECT_EQ(epyc_.cpu(cpu).l3, epyc_.cpu(0).l3) << "cpu " << cpu << " left the CCX";
  }
}

TEST_F(EpycPlacement, ExtensionFailsWhenNotEnoughFree) {
  topo::CpuSet current(epyc_.cpu_count());
  current.set(0);
  topo::CpuSet free_cpus(epyc_.cpu_count());
  free_cpus.set(5);
  EXPECT_FALSE(choose_extension_cpus(dm_, free_cpus, current, 2).has_value());
}

TEST_F(EpycPlacement, SeedAvoidsOccupiedSocket) {
  // vNode 0 occupies part of socket 0; a new vNode must seed on socket 1.
  topo::CpuSet occupied(epyc_.cpu_count());
  for (topo::CpuId cpu = 0; cpu < 16; ++cpu) {
    occupied.set(cpu);
  }
  topo::CpuSet free_cpus = epyc_.all_cpus();
  free_cpus -= occupied;
  const auto seed = choose_seed_cpus(dm_, free_cpus, occupied, 4);
  ASSERT_TRUE(seed.has_value());
  EXPECT_EQ(seed->count(), 4U);
  for (topo::CpuId cpu : seed->as_vector()) {
    EXPECT_EQ(epyc_.cpu(cpu).socket, 1U);
  }
}

TEST_F(EpycPlacement, SeedWithNoOccupiedStartsAtLowestCpu) {
  const auto seed = choose_seed_cpus(dm_, epyc_.all_cpus(), topo::CpuSet(epyc_.cpu_count()), 2);
  ASSERT_TRUE(seed.has_value());
  EXPECT_TRUE(seed->test(0));
  EXPECT_TRUE(seed->test(1));
}

TEST_F(EpycPlacement, SeedGrowsCompactAroundItself) {
  topo::CpuSet occupied(epyc_.cpu_count());
  occupied.set(0);
  topo::CpuSet free_cpus = epyc_.all_cpus();
  free_cpus.reset(0);
  const auto seed = choose_seed_cpus(dm_, free_cpus, occupied, 8);
  ASSERT_TRUE(seed.has_value());
  // All 8 threads should share one L3 (a full CCX) on the far socket.
  const auto cpus = seed->as_vector();
  for (topo::CpuId cpu : cpus) {
    EXPECT_EQ(epyc_.cpu(cpu).l3, epyc_.cpu(cpus.front()).l3);
  }
}

TEST_F(EpycPlacement, SeedZeroCountRejected) {
  EXPECT_FALSE(
      choose_seed_cpus(dm_, epyc_.all_cpus(), topo::CpuSet(epyc_.cpu_count()), 0)
          .has_value());
}

TEST_F(EpycPlacement, ReleasePicksOutlierFirst) {
  // Set = one full CCX (threads 0-7) plus a straggler on socket 1.
  topo::CpuSet current(epyc_.cpu_count());
  for (topo::CpuId cpu = 0; cpu < 8; ++cpu) {
    current.set(cpu);
  }
  current.set(200);
  const topo::CpuSet released = choose_release_cpus(dm_, current, 1);
  EXPECT_EQ(released.count(), 1U);
  EXPECT_TRUE(released.test(200));
}

TEST_F(EpycPlacement, ReleaseAllReturnsWholeSet) {
  topo::CpuSet current(epyc_.cpu_count());
  current.set(3);
  current.set(9);
  const topo::CpuSet released = choose_release_cpus(dm_, current, 2);
  EXPECT_EQ(released, current);
}

TEST_F(EpycPlacement, SelectionsAreDeterministic) {
  topo::CpuSet current(epyc_.cpu_count());
  current.set(64);
  topo::CpuSet free_cpus = epyc_.all_cpus();
  free_cpus.reset(64);
  const auto a = choose_extension_cpus(dm_, free_cpus, current, 5);
  const auto b = choose_extension_cpus(dm_, free_cpus, current, 5);
  ASSERT_TRUE(a.has_value() && b.has_value());
  EXPECT_EQ(*a, *b);
}

// ---------------------------------------------------------------------------
// Tie-break contract: whenever several CPUs score equally, Algorithm 1 takes
// the lowest CPU id. This is load-bearing — the fast path, the naive
// reference and every replay of a recorded decision must agree bit-for-bit —
// so it is pinned here on topologies engineered to maximize ties.

class TieBreak : public ::testing::Test {
 protected:
  // Flat machine: every pair of distinct CPUs is exactly 30 apart, so every
  // selection step is a pure tie.
  const topo::CpuTopology flat_ = topo::make_flat(8, core::gib(16));
  const topo::DistanceMatrix dm_{flat_};
};

TEST_F(TieBreak, ExtensionTakesLowestIdAmongEquidistant) {
  topo::CpuSet current(flat_.cpu_count());
  current.set(3);
  topo::CpuSet free_cpus = flat_.all_cpus();
  free_cpus.reset(3);
  const auto ext = choose_extension_cpus(dm_, free_cpus, current, 3);
  ASSERT_TRUE(ext.has_value());
  // CPUs 0,1,2,4,... are all 30 from the growing set; lowest ids win.
  topo::CpuSet expected(flat_.cpu_count());
  expected.set(0);
  expected.set(1);
  expected.set(2);
  EXPECT_EQ(*ext, expected);
}

TEST_F(TieBreak, SeedTakesLowestIdAmongEquallyFar) {
  topo::CpuSet occupied(flat_.cpu_count());
  occupied.set(5);
  topo::CpuSet free_cpus = flat_.all_cpus();
  free_cpus.reset(5);
  // Every free CPU is 30 from the occupied set — maximal and tied — so the
  // seed lands on CPU 0 and grows through the next lowest ids.
  const auto seed = choose_seed_cpus(dm_, free_cpus, occupied, 2);
  ASSERT_TRUE(seed.has_value());
  topo::CpuSet expected(flat_.cpu_count());
  expected.set(0);
  expected.set(1);
  EXPECT_EQ(*seed, expected);
}

TEST_F(TieBreak, ReleaseTakesLowestIdAmongEquallyCentral) {
  topo::CpuSet current(flat_.cpu_count());
  for (const topo::CpuId cpu : {topo::CpuId{1}, topo::CpuId{4}, topo::CpuId{6}}) {
    current.set(cpu);
  }
  // All members have the same total distance to the others (2 x 30), so the
  // release order is purely id-ascending.
  const auto released = choose_release_cpus(dm_, current, 2);
  topo::CpuSet expected(flat_.cpu_count());
  expected.set(1);
  expected.set(4);
  EXPECT_EQ(released, expected);
}

TEST_F(TieBreak, SmtSiblingTieOnEpyc) {
  // On the EPYC machine: growing {0,1} (core 0) by one, every thread of
  // cores 1-3 in the CCX is exactly 30 away — the winner must be CPU 2.
  const topo::CpuTopology epyc = topo::make_dual_epyc_7662();
  const topo::DistanceMatrix dm(epyc);
  topo::CpuSet current(epyc.cpu_count());
  current.set(0);
  current.set(1);
  topo::CpuSet free_cpus = epyc.all_cpus();
  free_cpus -= current;
  const auto ext = choose_extension_cpus(dm, free_cpus, current, 1);
  ASSERT_TRUE(ext.has_value());
  EXPECT_TRUE(ext->test(2));
}

TEST_F(TieBreak, FastAndNaiveAgreeOnPureTies) {
  PlacementScratch scratch;
  topo::CpuSet occupied(flat_.cpu_count());
  occupied.set(7);
  topo::CpuSet free_cpus = flat_.all_cpus();
  free_cpus.reset(7);
  const auto fast = choose_seed_cpus(dm_, free_cpus, occupied, 4, scratch);
  const auto ref = reference::choose_seed_cpus(dm_, free_cpus, occupied, 4);
  ASSERT_TRUE(fast.has_value() && ref.has_value());
  EXPECT_EQ(*fast, *ref);
}

}  // namespace
}  // namespace slackvm::local
