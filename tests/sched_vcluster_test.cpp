#include "sched/vcluster.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "core/error.hpp"
#include "core/rng.hpp"

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

VCluster make_ff_cluster() {
  return VCluster("test", kWorker, std::make_unique<FirstFitPolicy>());
}

TEST(VClusterTest, OpensHostOnDemand) {
  VCluster cluster = make_ff_cluster();
  EXPECT_EQ(cluster.opened_hosts(), 0U);
  cluster.place(VmId{1}, spec(4, gib(8), 1));
  EXPECT_EQ(cluster.opened_hosts(), 1U);
}

TEST(VClusterTest, FirstFitFillsBeforeOpening) {
  VCluster cluster = make_ff_cluster();
  // 8 VMs of 4 cores fill one worker exactly.
  for (std::uint64_t i = 1; i <= 8; ++i) {
    cluster.place(VmId{i}, spec(4, gib(8), 1));
  }
  EXPECT_EQ(cluster.opened_hosts(), 1U);
  cluster.place(VmId{9}, spec(4, gib(8), 1));
  EXPECT_EQ(cluster.opened_hosts(), 2U);
}

TEST(VClusterTest, EmptiedHostsAreReused) {
  VCluster cluster = make_ff_cluster();
  for (std::uint64_t i = 1; i <= 9; ++i) {
    cluster.place(VmId{i}, spec(4, gib(8), 1));
  }
  ASSERT_EQ(cluster.opened_hosts(), 2U);
  for (std::uint64_t i = 1; i <= 9; ++i) {
    cluster.remove(VmId{i});
  }
  // Opened count never shrinks (PMs were provisioned)...
  EXPECT_EQ(cluster.opened_hosts(), 2U);
  // ...but new placements reuse host 0 first.
  EXPECT_EQ(cluster.place(VmId{10}, spec(1, gib(1), 1)), 0U);
  EXPECT_EQ(cluster.opened_hosts(), 2U);
}

TEST(VClusterTest, HostOfTracksPlacement) {
  VCluster cluster = make_ff_cluster();
  const HostId host = cluster.place(VmId{1}, spec(2, gib(4), 1));
  EXPECT_EQ(cluster.host_of(VmId{1}), host);
  cluster.remove(VmId{1});
  EXPECT_THROW((void)cluster.host_of(VmId{1}), core::SlackError);
}

TEST(VClusterTest, RemoveUnknownThrows) {
  VCluster cluster = make_ff_cluster();
  EXPECT_THROW(cluster.remove(VmId{5}), core::SlackError);
}

TEST(VClusterTest, OversizedVmThrows) {
  VCluster cluster = make_ff_cluster();
  EXPECT_THROW(cluster.place(VmId{1}, spec(33, gib(8), 1)), core::SlackError);
  EXPECT_THROW(cluster.place(VmId{2}, spec(1, gib(129), 1)), core::SlackError);
}

TEST(VClusterTest, TotalsAggregate) {
  VCluster cluster = make_ff_cluster();
  cluster.place(VmId{1}, spec(4, gib(8), 1));
  cluster.place(VmId{2}, spec(30, gib(16), 1));  // forces a second host
  EXPECT_EQ(cluster.opened_hosts(), 2U);
  EXPECT_EQ(cluster.total_config(), (core::Resources{64, gib(256)}));
  EXPECT_EQ(cluster.total_alloc(), (core::Resources{34, gib(24)}));
}

TEST(VClusterTest, VmCountTracksLiveVms) {
  VCluster cluster = make_ff_cluster();
  cluster.place(VmId{1}, spec(1, gib(1), 1));
  cluster.place(VmId{2}, spec(1, gib(1), 1));
  EXPECT_EQ(cluster.vm_count(), 2U);
  cluster.remove(VmId{1});
  EXPECT_EQ(cluster.vm_count(), 1U);
}

TEST(VClusterTest, MultiLevelHostsOnSharedCluster) {
  // A shared cluster accepts mixed levels on one host (vNode accounting).
  VCluster cluster("shared", kWorker, make_progress_policy());
  cluster.place(VmId{1}, spec(16, gib(16), 1));
  cluster.place(VmId{2}, spec(24, gib(24), 3));  // 8 cores
  cluster.place(VmId{3}, spec(8, gib(64), 2));   // 4 cores
  EXPECT_EQ(cluster.opened_hosts(), 1U);
  EXPECT_EQ(cluster.total_alloc(), (core::Resources{28, gib(104)}));
}

TEST(VClusterTest, DuplicatePlacementThrowsAndChangesNothing) {
  VCluster cluster = make_ff_cluster();
  cluster.place(VmId{1}, spec(16, gib(64), 1));
  cluster.place(VmId{2}, spec(16, gib(32), 1));
  ASSERT_EQ(cluster.opened_hosts(), 1U);
  const core::Resources alloc = cluster.total_alloc();
  const std::uint64_t epoch = cluster.hosts()[0].epoch();
  // The duplicate would not fit the open host: a placement would open one.
  EXPECT_THROW(cluster.place(VmId{1}, spec(8, gib(8), 1)), core::SlackError);
  EXPECT_THROW(static_cast<void>(cluster.try_place(VmId{2}, spec(1, gib(1), 1))),
               core::SlackError);
  EXPECT_EQ(cluster.opened_hosts(), 1U);
  EXPECT_EQ(cluster.total_config(), cluster.hosts()[0].config());
  EXPECT_EQ(cluster.total_alloc(), alloc);
  EXPECT_EQ(cluster.hosts()[0].epoch(), epoch);
  EXPECT_EQ(cluster.vm_count(), 2U);
  EXPECT_EQ(cluster.host_of(VmId{1}), 0U);
  EXPECT_EQ(cluster.hosts()[0].spec_of(VmId{1}).vcpus, 16U);
  // The cluster goes on placing normally.
  EXPECT_EQ(cluster.place(VmId{3}, spec(8, gib(8), 1)), 1U);
}

TEST(VClusterTest, RejectedPlacementLeavesNoDirectoryEntry) {
  VCluster cluster = make_ff_cluster();
  cluster.set_max_hosts(1);
  cluster.place(VmId{1}, spec(32, gib(64), 1));
  EXPECT_FALSE(cluster.try_place(VmId{2}, spec(8, gib(8), 1)).has_value());
  EXPECT_FALSE(cluster.contains(VmId{2}));
  EXPECT_EQ(cluster.vm_count(), 1U);
  cluster.set_max_hosts(2);
  EXPECT_EQ(cluster.try_place(VmId{2}, spec(8, gib(8), 1)), std::optional<HostId>{1});
}

TEST(VClusterTest, PlacementDirtyLogStaysBoundedUnderHeatChurn) {
  VCluster cluster("heat", kWorker, make_progress_policy());
  for (std::uint64_t vm = 1; vm <= 1200; ++vm) {
    ASSERT_TRUE(cluster.try_place(VmId{vm}, spec(8, gib(32), 1)));
  }
  ASSERT_EQ(cluster.opened_hosts(), 300U);
  ASSERT_NE(cluster.placement_index(), nullptr);
  // Heat-bucket crossings bump host epochs and touch the index, but with no
  // placement in between nothing else would ever replay its dirty log.
  const std::size_t bound = 8 * cluster.opened_hosts() + 1024;
  core::SplitMix64 rng(7);
  std::size_t peak = 0;
  for (int write = 0; write < 200000; ++write) {
    const auto host = static_cast<HostId>(rng.below(cluster.opened_hosts()));
    cluster.set_host_heat(host, rng.uniform(0.0, 3.0), 0.25);
    peak = std::max(peak, cluster.placement_index()->dirty_size());
  }
  EXPECT_LE(peak, bound);
  EXPECT_GT(peak, bound / 2);  // the churn did reach the bound
  // The index is still exact: the next placement lands where the naive scan
  // puts it.
  VCluster naive("naive", kWorker, make_progress_policy());
  naive.set_index_enabled(false);
  for (std::uint64_t vm = 1; vm <= 1200; ++vm) {
    ASSERT_TRUE(naive.try_place(VmId{vm}, spec(8, gib(32), 1)));
  }
  for (HostId host = 0; host < cluster.opened_hosts(); ++host) {
    naive.set_host_heat(host, cluster.host_heat(host), 0.25);
  }
  cluster.remove(VmId{77});
  naive.remove(VmId{77});
  EXPECT_EQ(cluster.try_place(VmId{5000}, spec(2, gib(4), 2)),
            naive.try_place(VmId{5000}, spec(2, gib(4), 2)));
}

}  // namespace
}  // namespace slackvm::sched
