#include "sched/filter.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "core/error.hpp"
#include "sched/policy.hpp"
#include "sched/vcluster.hpp"

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

TEST(MaxVmsFilterTest, CapsPopulation) {
  const MaxVmsFilter filter(2);
  HostState host(0, kWorker);
  EXPECT_TRUE(filter.admits(host, spec(1, gib(1), 1)));
  host.add(VmId{1}, spec(1, gib(1), 1));
  host.add(VmId{2}, spec(1, gib(1), 1));
  EXPECT_FALSE(filter.admits(host, spec(1, gib(1), 1)));
}

TEST(LevelExclusiveFilterTest, EmptyHostAdmitsAnyLevel) {
  const LevelExclusiveFilter filter;
  const HostState host(0, kWorker);
  EXPECT_TRUE(filter.admits(host, spec(1, gib(1), 3)));
}

TEST(LevelExclusiveFilterTest, RejectsSecondLevel) {
  const LevelExclusiveFilter filter;
  HostState host(0, kWorker);
  host.add(VmId{1}, spec(2, gib(2), 2));
  EXPECT_TRUE(filter.admits(host, spec(1, gib(1), 2)));
  EXPECT_FALSE(filter.admits(host, spec(1, gib(1), 1)));
  EXPECT_FALSE(filter.admits(host, spec(1, gib(1), 3)));
}

TEST(LevelExclusiveFilterTest, AnswersOnEmptySingleAndMixedHosts) {
  const LevelExclusiveFilter filter;
  HostState host(0, kWorker);
  // Empty: every level is admitted.
  for (std::uint8_t ratio = 1; ratio <= OversubLevel::kMaxRatio; ++ratio) {
    EXPECT_TRUE(filter.admits(host, spec(1, gib(1), ratio))) << int{ratio};
  }
  // Single level (3:1), even with several VMs: only that level is admitted.
  host.add(VmId{1}, spec(2, gib(2), 3));
  host.add(VmId{2}, spec(4, gib(2), 3));
  for (std::uint8_t ratio = 1; ratio <= OversubLevel::kMaxRatio; ++ratio) {
    EXPECT_EQ(filter.admits(host, spec(1, gib(1), ratio)), ratio == 3) << int{ratio};
  }
  // Mixed (the filter never builds such a host, but a cluster may have
  // installed it mid-run): no level is admitted, not even a present one.
  host.add(VmId{3}, spec(1, gib(1), 1));
  for (std::uint8_t ratio = 1; ratio <= OversubLevel::kMaxRatio; ++ratio) {
    EXPECT_FALSE(filter.admits(host, spec(1, gib(1), ratio))) << int{ratio};
  }
  // Back to one level once the intruder leaves, and to empty after that.
  host.remove(VmId{3});
  EXPECT_TRUE(filter.admits(host, spec(1, gib(1), 3)));
  EXPECT_FALSE(filter.admits(host, spec(1, gib(1), 1)));
  host.remove(VmId{1});
  host.remove(VmId{2});
  EXPECT_TRUE(filter.admits(host, spec(1, gib(1), 1)));
}

TEST(HeadroomFilterTest, ReservesCapacity) {
  const HeadroomFilter filter(0.25, 0.25);  // keep a quarter free
  HostState host(0, kWorker);
  EXPECT_TRUE(filter.admits(host, spec(24, gib(96), 1)));
  EXPECT_FALSE(filter.admits(host, spec(25, gib(8), 1)));   // cpu headroom
  EXPECT_FALSE(filter.admits(host, spec(1, gib(97), 1)));   // mem headroom
}

TEST(HeadroomFilterTest, InvalidFractionsRejected) {
  EXPECT_THROW(HeadroomFilter(1.0, 0.0), core::SlackError);
  EXPECT_THROW(HeadroomFilter(0.0, -0.1), core::SlackError);
}

TEST(FilterChainTest, EmptyChainAdmitsEverything) {
  const FilterChain chain;
  const HostState host(0, kWorker);
  EXPECT_TRUE(chain.admits(host, spec(1, gib(1), 1)));
}

TEST(FilterChainTest, ConjunctionOfMembers) {
  FilterChain chain;
  chain.add(std::make_unique<MaxVmsFilter>(1)).add(
      std::make_unique<LevelExclusiveFilter>());
  HostState host(0, kWorker);
  EXPECT_TRUE(chain.admits(host, spec(1, gib(1), 2)));
  host.add(VmId{1}, spec(1, gib(1), 2));
  EXPECT_FALSE(chain.admits(host, spec(1, gib(1), 2)));  // max-vms trips
  EXPECT_EQ(chain.size(), 2U);
}

TEST(FilterChainTest, NameListsMembers) {
  FilterChain chain;
  chain.add(std::make_unique<MaxVmsFilter>(3));
  chain.add(std::make_unique<LevelExclusiveFilter>());
  EXPECT_EQ(chain.name(), "chain(max-vms(3)+level-exclusive)");
}

TEST(PolicyWithFilter, FirstFitSkipsFilteredHosts) {
  std::vector<HostState> hosts;
  hosts.emplace_back(0, kWorker);
  hosts.emplace_back(1, kWorker);
  hosts[0].add(VmId{1}, spec(1, gib(1), 2));
  const LevelExclusiveFilter filter;
  const FirstFitPolicy policy;
  // Host 0 already hosts 2:1; a 1:1 VM must land on host 1.
  const auto chosen = policy.select(hosts, spec(1, gib(1), 1), &filter);
  ASSERT_TRUE(chosen.has_value());
  EXPECT_EQ(*chosen, 1U);
}

TEST(PolicyWithFilter, VClusterFilterShapesPlacement) {
  // A shared cluster with a level-exclusive filter degenerates into
  // per-level dedicated PMs — the ablation of co-hosting.
  VCluster cluster("filtered", kWorker, make_progress_policy());
  cluster.set_filter(std::make_unique<LevelExclusiveFilter>());
  cluster.place(VmId{1}, spec(2, gib(2), 1));
  cluster.place(VmId{2}, spec(2, gib(2), 2));
  cluster.place(VmId{3}, spec(2, gib(2), 3));
  EXPECT_EQ(cluster.opened_hosts(), 3U);

  VCluster unfiltered("shared", kWorker, make_progress_policy());
  unfiltered.place(VmId{1}, spec(2, gib(2), 1));
  unfiltered.place(VmId{2}, spec(2, gib(2), 2));
  unfiltered.place(VmId{3}, spec(2, gib(2), 3));
  EXPECT_EQ(unfiltered.opened_hosts(), 1U);
}

TEST(RandomPolicyTest, DeterministicPerSeed) {
  std::vector<HostState> hosts;
  for (HostId h = 0; h < 8; ++h) {
    hosts.emplace_back(h, kWorker);
  }
  const RandomPolicy a(7);
  const RandomPolicy b(7);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(a.select(hosts, spec(1, gib(1), 1)), b.select(hosts, spec(1, gib(1), 1)));
  }
}

TEST(RandomPolicyTest, OnlyPicksFeasibleHosts) {
  std::vector<HostState> hosts;
  hosts.emplace_back(0, kWorker);
  hosts.emplace_back(1, kWorker);
  hosts[0].add(VmId{1}, spec(32, gib(8), 1));  // full
  const RandomPolicy policy(9);
  for (int i = 0; i < 20; ++i) {
    const auto chosen = policy.select(hosts, spec(4, gib(4), 1));
    ASSERT_TRUE(chosen.has_value());
    EXPECT_EQ(*chosen, 1U);
  }
}

TEST(RandomPolicyTest, NulloptWhenNothingFits) {
  std::vector<HostState> hosts;
  hosts.emplace_back(0, kWorker);
  hosts[0].add(VmId{1}, spec(32, gib(8), 1));
  const RandomPolicy policy(1);
  EXPECT_FALSE(policy.select(hosts, spec(1, gib(121), 1)).has_value());
}

}  // namespace
}  // namespace slackvm::sched
