// HeatIndex property suite, mirroring sched_placement_index_test.cpp for
// the quantized-heat buckets: the epoch + dirty-log protocol (refile only
// on bucket crossings, epoch-match short-circuit, rolled-back-opening
// drops), visit order at the edges of the bucket table, the one heat width
// VCluster::set_host_heat pins per cluster, the VCluster synced_heat_index
// wiring, a randomized churn whose incrementally-synced index must match a
// from-scratch rebuild exactly, and a heat churn whose visits must match a
// std::map<Bucket, std::set<HostId>> reference kept here.
#include "sched/heat_index.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "core/error.hpp"
#include "core/rng.hpp"
#include "sched/policy.hpp"
#include "sched/vcluster.hpp"
#include "sim/audit.hpp"

namespace slackvm::sched {
namespace {

using core::gib;
using core::OversubLevel;
using core::VmId;
using core::VmSpec;

const core::Resources kWorker{32, gib(128)};

VmSpec make_spec(core::VcpuCount vcpus, core::MemMib mem, std::uint8_t ratio) {
  VmSpec s;
  s.vcpus = vcpus;
  s.mem_mib = mem;
  s.level = OversubLevel{ratio};
  return s;
}

/// (bucket, ascending ids) pairs, in the order visit() reports them.
using Filing = std::vector<std::pair<HeatIndex::Bucket, std::vector<HostId>>>;

Filing visited(const HeatIndex& index, HeatIndex::Order order) {
  Filing out;
  index.visit(order, [&out](HeatIndex::Bucket bucket, const HostBitset& ids) {
    out.emplace_back(bucket, std::vector<HostId>{});
    ids.for_each([&out](HostId id) { out.back().second.push_back(id); });
  });
  return out;
}

Filing coolest_first(const HeatIndex& index) {
  return visited(index, HeatIndex::Order::kCoolestFirst);
}

std::vector<HostState> make_hosts(std::size_t n) {
  std::vector<HostState> hosts;
  hosts.reserve(n);
  for (HostId h = 0; h < n; ++h) {
    hosts.emplace_back(h, kWorker);
  }
  return hosts;
}

// --- bucket filing and the epoch protocol -----------------------------------

TEST(HeatIndexProtocol, FilesHostsByBucketCoolestFirst) {
  std::vector<HostState> hosts = make_hosts(4);
  hosts[0].set_heat(0.1, 0.25);  // bucket 0
  hosts[1].set_heat(0.6, 0.25);  // bucket 2
  hosts[2].set_heat(0.3, 0.25);  // bucket 1
  hosts[3].set_heat(0.7, 0.25);  // bucket 2

  HeatIndex index;
  index.rebuild(hosts);
  EXPECT_EQ(index.size(), 4u);
  EXPECT_TRUE(index.check(hosts).empty());

  EXPECT_EQ(coolest_first(index), (Filing{{0, {0}}, {1, {2}}, {2, {1, 3}}}));
  EXPECT_EQ(visited(index, HeatIndex::Order::kHottestFirst),
            (Filing{{2, {1, 3}}, {1, {2}}, {0, {0}}}));
}

TEST(HeatIndexProtocol, RefilesOnlyOnBucketCrossings) {
  std::vector<HostState> hosts = make_hosts(2);
  hosts[0].set_heat(0.1, 0.25);
  hosts[1].set_heat(0.6, 0.25);
  HeatIndex index;
  index.rebuild(hosts);

  // Within-bucket move: no epoch bump, nothing to sync.
  hosts[0].set_heat(0.2, 0.25);
  EXPECT_EQ(index.dirty_size(), 0u);
  EXPECT_TRUE(index.check(hosts).empty());

  // Crossing: epoch bumps, touch + sync refiles exactly that host.
  hosts[0].set_heat(0.3, 0.25);
  index.touch(hosts[0].id());
  EXPECT_EQ(index.dirty_size(), 1u);
  index.sync(hosts);
  EXPECT_EQ(index.dirty_size(), 0u);
  EXPECT_TRUE(index.check(hosts).empty());
  EXPECT_EQ(coolest_first(index), (Filing{{1, {0}}, {2, {1}}}));
}

TEST(HeatIndexProtocol, EpochMatchShortCircuitsStaleTouches) {
  std::vector<HostState> hosts = make_hosts(1);
  hosts[0].set_heat(0.6, 0.25);
  HeatIndex index;
  index.rebuild(hosts);
  // A touch with an unchanged epoch must leave the filing untouched (the
  // set_heat contract: the bucket cannot move without an epoch bump).
  index.touch(0);
  index.touch(0);
  index.sync(hosts);
  EXPECT_EQ(index.size(), 1u);
  EXPECT_TRUE(index.check(hosts).empty());
}

TEST(HeatIndexProtocol, RolledBackOpeningsAreDropped) {
  std::vector<HostState> hosts = make_hosts(2);
  HeatIndex index;
  index.rebuild(hosts);
  // A touch that outlives its host (rolled-back opening): the id is beyond
  // the vector, so sync must drop it, not file it.
  index.touch(7);
  index.sync(hosts);
  EXPECT_EQ(index.size(), 2u);
  EXPECT_TRUE(index.check(hosts).empty());

  // The same id later re-opens for real: a fresh touch files it.
  hosts = make_hosts(8);
  for (HostId h = 0; h < hosts.size(); ++h) {
    index.touch(h);
  }
  index.sync(hosts);
  EXPECT_EQ(index.size(), 8u);
  EXPECT_TRUE(index.check(hosts).empty());
}

// --- visit order at the edges of the bucket table ---------------------------

TEST(HeatIndexWidth, ColdHostsAreConsistentWithAnyWidth) {
  // Hosts never heated (width 0, heat 0, bucket 0) are the coolest under
  // whatever width the heated ones use.
  std::vector<HostState> hosts = make_hosts(3);
  hosts[1].set_heat(0.6, 0.25);
  HeatIndex index;
  index.rebuild(hosts);
  EXPECT_EQ(coolest_first(index), (Filing{{0, {0, 2}}, {2, {1}}}));
}

TEST(HeatIndexWidth, BucketsPastTheTableFoldIntoTheLastSlotInHeatOrder) {
  // Buckets kMaxBuckets - 1 and up share the table's last slot. It holds
  // only heats >= (kMaxBuckets - 1) * w, so it is still the hottest slot
  // and visit order stays monotone in heat; inside it the planner compares
  // raw heats.
  constexpr double kWidth = 0.25;
  constexpr HeatIndex::Bucket kLast = HeatIndex::kMaxBuckets - 1;
  std::vector<HostState> hosts = make_hosts(4);
  hosts[0].set_heat(0.5, kWidth);
  hosts[1].set_heat(kWidth * kLast, kWidth);        // the last slot itself
  hosts[2].set_heat(kWidth * (kLast + 8), kWidth);  // past the table
  hosts[3].set_heat(kWidth * (kLast - 1), kWidth);  // the slot below it
  ASSERT_GT(hosts[2].heat_bucket(), kLast);
  HeatIndex index;
  index.rebuild(hosts);
  EXPECT_EQ(index.size(), 4u);
  EXPECT_TRUE(index.check(hosts).empty());
  EXPECT_EQ(coolest_first(index),
            (Filing{{2, {0}}, {kLast - 1, {3}}, {kLast, {1, 2}}}));
  EXPECT_EQ(visited(index, HeatIndex::Order::kHottestFirst),
            (Filing{{kLast, {1, 2}}, {kLast - 1, {3}}, {2, {0}}}));

  // A host leaving the folded slot is refiled by its crossing like any other.
  hosts[2].set_heat(0.1, kWidth);
  index.touch(2);
  index.sync(hosts);
  EXPECT_TRUE(index.check(hosts).empty());
  EXPECT_EQ(visited(index, HeatIndex::Order::kHottestFirst),
            (Filing{{kLast, {1}}, {kLast - 1, {3}}, {2, {0}}, {0, {2}}}));
}

// --- one heat width per cluster ---------------------------------------------

TEST(VClusterHeatWidth, NonPositiveWidthIsRejected) {
  VCluster cluster("width", kWorker, make_progress_policy());
  ASSERT_TRUE(cluster.try_place(VmId{1}, make_spec(8, gib(16), 2)));
  EXPECT_THROW(cluster.set_host_heat(0, 0.6, 0.0), core::SlackError);
  EXPECT_THROW(cluster.set_host_heat(0, 0.6, -0.25), core::SlackError);
  // A refused write changes nothing and pins nothing.
  EXPECT_EQ(cluster.host_heat(0), 0.0);
  cluster.set_host_heat(0, 0.6, 0.5);
  EXPECT_EQ(cluster.hosts()[0].heat_bucket(), 1u);
}

TEST(VClusterHeatWidth, SecondWidthIsRejected) {
  VCluster cluster("width", kWorker, make_progress_policy());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(cluster.try_place(VmId{static_cast<std::uint64_t>(i + 1)},
                                  make_spec(8, gib(16), 1)));
  }
  ASSERT_EQ(cluster.opened_hosts(), 2u);
  cluster.set_host_heat(0, 0.6, 0.25);
  EXPECT_THROW(cluster.set_host_heat(1, 0.6, 0.5), core::SlackError);
  EXPECT_EQ(cluster.host_heat(1), 0.0);
  cluster.set_host_heat(1, 0.7, 0.25);  // the pinned width is still fine
  EXPECT_EQ(cluster.synced_heat_index().size(), cluster.opened_hosts());
  EXPECT_TRUE(cluster.synced_heat_index().check(cluster.hosts()).empty());
}

TEST(VClusterHeatWidth, ResetClearsThePinnedWidth) {
  VCluster cluster("width", kWorker, make_progress_policy());
  ASSERT_TRUE(cluster.try_place(VmId{1}, make_spec(8, gib(16), 2)));
  cluster.set_host_heat(0, 0.6, 0.25);
  cluster.reset();
  ASSERT_TRUE(cluster.try_place(VmId{1}, make_spec(8, gib(16), 2)));
  cluster.set_host_heat(0, 0.6, 0.5);  // a new run may pick a new width
  EXPECT_EQ(cluster.hosts()[0].heat_bucket(), 1u);
  EXPECT_THROW(cluster.set_host_heat(0, 0.6, 0.25), core::SlackError);
}

// --- VCluster wiring --------------------------------------------------------

TEST(HeatIndexCluster, SyncedIndexTracksHeatWritesWhateverThePlacementHatch) {
  VCluster cluster("itf", kWorker, make_progress_policy());
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(cluster.try_place(VmId{static_cast<std::uint64_t>(i + 1)},
                                  make_spec(8, gib(16), 2)));
  }
  EXPECT_EQ(cluster.synced_heat_index().size(), cluster.opened_hosts());
  EXPECT_TRUE(cluster.synced_heat_index().check(cluster.hosts()).empty());

  for (HostId h = 0; h < cluster.opened_hosts(); ++h) {
    cluster.set_host_heat(h, 0.3 * static_cast<double>(h + 1), 0.25);
  }
  EXPECT_TRUE(cluster.synced_heat_index().check(cluster.hosts()).empty());

  // set_index_enabled chooses the placement path only: the heat index keeps
  // serving, and keeps hearing heat writes, with the placement index off.
  cluster.set_index_enabled(false);
  for (HostId h = 0; h < cluster.opened_hosts(); ++h) {
    cluster.set_host_heat(h, 3.0 - 0.2 * static_cast<double>(h), 0.25);
  }
  ASSERT_TRUE(cluster.try_place(VmId{99}, make_spec(8, gib(16), 2)));
  const HeatIndex& index = cluster.synced_heat_index();
  EXPECT_EQ(index.size(), cluster.opened_hosts());
  EXPECT_TRUE(index.check(cluster.hosts()).empty());
  HeatIndex fresh;
  fresh.rebuild(cluster.hosts());
  EXPECT_EQ(coolest_first(index), coolest_first(fresh));
}

// --- randomized churn: synced index == from-scratch rebuild -----------------

TEST(HeatIndexChurn, RandomizedChurnMatchesFreshRebuild) {
  VCluster cluster("churn", kWorker, make_progress_policy());
  core::SplitMix64 rng(0xbeefULL);
  std::vector<VmId> live;
  std::uint64_t next_id = 1;
  for (int event = 0; event < 6000; ++event) {
    const std::uint64_t roll = rng.below(10);
    if (roll < 4 || live.empty()) {
      const VmSpec spec = make_spec(
          static_cast<core::VcpuCount>(1 + rng.below(8)),
          gib(static_cast<std::int64_t>(1 + rng.below(16))),
          static_cast<std::uint8_t>(1 + rng.below(3)));
      const VmId id{next_id++};
      if (cluster.try_place(id, spec)) {
        live.push_back(id);
      }
    } else if (roll < 7) {
      const std::size_t pick = rng.below(live.size());
      const VmId id = live[pick];
      live[pick] = live.back();
      live.pop_back();
      cluster.remove(id);
    } else if (roll < 8 && cluster.opened_hosts() > 0) {
      // Fault churn: phase flips bump epochs without moving buckets — the
      // index must survive them as refile-free syncs.
      const HostId host = static_cast<HostId>(rng.below(cluster.opened_hosts()));
      if (cluster.host_phase(host) == HostPhase::kUp) {
        for (const auto& [vm, spec] : cluster.fail_host(host)) {
          std::erase(live, vm);
        }
      } else {
        cluster.repair_host(host);
      }
    } else if (cluster.opened_hosts() > 0) {
      const HostId host = static_cast<HostId>(rng.below(cluster.opened_hosts()));
      cluster.set_host_heat(host, rng.uniform(0.0, 3.0), 0.25);
    }
    if (event % 500 == 0) {
      const HeatIndex& synced = cluster.synced_heat_index();
      EXPECT_TRUE(synced.check(cluster.hosts()).empty()) << "event " << event;
      HeatIndex fresh;
      fresh.rebuild(cluster.hosts());
      EXPECT_EQ(coolest_first(synced), coolest_first(fresh)) << "event " << event;
      EXPECT_TRUE(sim::audit(cluster).empty()) << "event " << event;
    }
  }
  EXPECT_TRUE(cluster.synced_heat_index().check(cluster.hosts()).empty());
}

// --- visit order vs a node-based reference --------------------------------

TEST(HeatIndexChurn, VisitOrderMatchesMapReferenceUnderHeatChurn) {
  // Ids cross summary words (> 4096 hosts). Every host starts cold in
  // bucket 0; a few hundred of them, half past id 4096, move through a
  // sliding band of warmer buckets, so those buckets fill, empty and
  // refill, and every seventh round sends them all back to bucket 0.
  constexpr std::size_t kHosts = 4200;
  std::vector<HostState> hosts = make_hosts(kHosts);
  HeatIndex index;
  index.rebuild(hosts);
  std::map<HeatIndex::Bucket, std::set<HostId>> reference;
  for (HostId h = 0; h < kHosts; ++h) {
    reference[0].insert(h);
  }
  core::SplitMix64 rng(0x5eedULL);
  std::vector<HostId> movers;
  for (HostId h = 4096; h < kHosts; ++h) {
    movers.push_back(h);
  }
  for (int i = 0; i < 100; ++i) {
    movers.push_back(static_cast<HostId>(rng.below(4096)));
  }
  const auto write = [&](HostId h, double heat) {
    const HeatIndex::Bucket before = hosts[h].heat_bucket();
    hosts[h].set_heat(heat, 0.25);
    index.touch(h);
    if (hosts[h].heat_bucket() != before) {
      reference[before].erase(h);
      if (reference[before].empty()) {
        reference.erase(before);
      }
      reference[hosts[h].heat_bucket()].insert(h);
    }
  };

  for (int round = 0; round < 60; ++round) {
    if (round % 7 == 6) {
      for (const HostId h : movers) {
        write(h, 0.0);
      }
    } else {
      const double low = 0.25 * (1 + round % 6);
      for (int i = 0; i < 300; ++i) {
        write(movers[rng.below(movers.size())], rng.uniform(low, low + 0.75));
      }
    }
    index.sync(hosts);
    ASSERT_TRUE(index.check(hosts).empty()) << "round " << round;
    Filing cool;
    for (const auto& [bucket, ids] : reference) {
      cool.emplace_back(bucket, std::vector<HostId>(ids.begin(), ids.end()));
    }
    EXPECT_EQ(coolest_first(index), cool) << "round " << round;
    EXPECT_EQ(visited(index, HeatIndex::Order::kHottestFirst),
              Filing(cool.rbegin(), cool.rend()))
        << "round " << round;
  }

  // A visitor returning false stops after the bucket it is given.
  std::size_t seen = 0;
  index.visit(HeatIndex::Order::kHottestFirst,
              [&seen](HeatIndex::Bucket, const HostBitset&) { return ++seen < 2; });
  EXPECT_EQ(seen, std::min<std::size_t>(2, reference.size()));
}

}  // namespace
}  // namespace slackvm::sched
