#include "sched/host_state.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/error.hpp"

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

TEST(HostStateTest, StartsEmpty) {
  const HostState host(0, kWorker);
  EXPECT_TRUE(host.empty());
  EXPECT_EQ(host.alloc(), (core::Resources{}));
  EXPECT_EQ(host.load().config, kWorker);
  EXPECT_EQ(host.load().mem_capacity, kWorker.mem_mib);
}

TEST(HostStateTest, AddCommitsIntegerCores) {
  HostState host(0, kWorker);
  host.add(VmId{1}, spec(4, gib(8), 3));  // ceil(4/3) = 2 cores
  EXPECT_EQ(host.alloc(), (core::Resources{2, gib(8)}));
  host.add(VmId{2}, spec(2, gib(4), 3));  // 6 vcpus at 3:1 -> 2 cores still
  EXPECT_EQ(host.alloc().cores, 2U);
  host.add(VmId{3}, spec(1, gib(1), 3));  // 7 vcpus -> 3 cores
  EXPECT_EQ(host.alloc().cores, 3U);
}

TEST(HostStateTest, LevelsAccountSeparately) {
  HostState host(0, kWorker);
  host.add(VmId{1}, spec(3, gib(4), 2));  // 2 cores @2:1
  host.add(VmId{2}, spec(3, gib(4), 3));  // 1 core @3:1
  EXPECT_EQ(host.alloc().cores, 3U);
  EXPECT_EQ(host.committed_vcpus(OversubLevel{2}), 3U);
  EXPECT_EQ(host.committed_vcpus(OversubLevel{3}), 3U);
  EXPECT_EQ(host.committed_vcpus(OversubLevel{1}), 0U);
  const auto& levels = host.load().vcpus_per_level;
  EXPECT_EQ(std::ranges::count_if(levels, [](core::VcpuCount v) { return v > 0; }), 2);
}

TEST(HostStateTest, CanHostChecksBothDimensions) {
  HostState host(0, kWorker);
  host.add(VmId{1}, spec(30, gib(8), 1));
  EXPECT_TRUE(host.can_host(spec(2, gib(8), 1)));
  EXPECT_FALSE(host.can_host(spec(3, gib(8), 1)));     // 33 cores
  EXPECT_FALSE(host.can_host(spec(1, gib(121), 1)));   // memory
}

TEST(HostStateTest, OversubVmMayBeAbsorbedBySlack) {
  HostState host(0, core::Resources{2, gib(128)});
  host.add(VmId{1}, spec(3, gib(1), 2));  // 2 cores (ceil 3/2), host full on CPU
  // One more vCPU at 2:1 fits the existing rounding slack: ceil(4/2) = 2.
  EXPECT_TRUE(host.can_host(spec(1, gib(1), 2)));
  // But a 1:1 vCPU needs a new core.
  EXPECT_FALSE(host.can_host(spec(1, gib(1), 1)));
}

TEST(HostStateTest, RemoveRestoresState) {
  HostState host(0, kWorker);
  host.add(VmId{1}, spec(4, gib(16), 2));
  host.add(VmId{2}, spec(2, gib(8), 1));
  host.remove(VmId{1});
  EXPECT_EQ(host.alloc(), (core::Resources{2, gib(8)}));
  host.remove(VmId{2});
  EXPECT_TRUE(host.empty());
  EXPECT_EQ(host.alloc(), (core::Resources{}));
}

TEST(HostStateTest, RemoveUnknownThrows) {
  HostState host(0, kWorker);
  EXPECT_THROW(host.remove(VmId{1}), core::SlackError);
}

TEST(HostStateTest, DuplicateAddThrows) {
  HostState host(0, kWorker);
  host.add(VmId{1}, spec(1, gib(1), 1));
  EXPECT_THROW(host.add(VmId{1}, spec(1, gib(1), 1)), core::SlackError);
}

TEST(HostStateTest, CoresWithMatchesAddRemove) {
  HostState host(0, kWorker);
  host.add(VmId{1}, spec(5, gib(4), 3));
  const VmSpec candidate = spec(2, gib(2), 3);
  const core::CoreCount predicted = host.load().cores_with(candidate);
  host.add(VmId{2}, candidate);
  EXPECT_EQ(host.alloc().cores, predicted);
}

TEST(HostStateTest, VcpuBudgetAtSingleLevelMatchesRatio) {
  // A dedicated 3:1 host accepts up to 96 vCPUs on 32 cores.
  HostState host(0, kWorker);
  for (std::uint64_t i = 0; i < 96; ++i) {
    ASSERT_TRUE(host.can_host(spec(1, gib(1), 3))) << i;
    host.add(VmId{i + 1}, spec(1, gib(1), 3));
  }
  EXPECT_FALSE(host.can_host(spec(1, gib(1), 3)));
  EXPECT_EQ(host.alloc().cores, 32U);
}

TEST(HostStateTest, VmsAscendWhateverTheAddOrder) {
  HostState host(0, kWorker);
  for (const std::uint64_t id : {7U, 3U, 9U, 1U, 5U, 8U}) {
    host.add(VmId{id}, spec(1, gib(1), 2));
  }
  host.remove(VmId{5});
  std::vector<std::uint64_t> ids;
  for (const auto& [vm, vm_spec] : host.vms()) {
    ids.push_back(vm.value);
  }
  EXPECT_EQ(ids, (std::vector<std::uint64_t>{1, 3, 7, 8, 9}));
  EXPECT_TRUE(host.hosts_vm(VmId{7}));
  EXPECT_FALSE(host.hosts_vm(VmId{5}));
  EXPECT_THROW((void)host.spec_of(VmId{5}), core::SlackError);
}

TEST(HostStateTest, EvictAllMatchesRemovingOneByOne) {
  HostState batch(0, kWorker);
  HostState single(0, kWorker);
  for (const std::uint64_t id : {4U, 2U, 6U}) {
    batch.add(VmId{id}, spec(static_cast<core::VcpuCount>(id), gib(2), 3));
    single.add(VmId{id}, spec(static_cast<core::VcpuCount>(id), gib(2), 3));
  }
  batch.reserve(VmId{10}, spec(1, gib(1), 1));
  single.reserve(VmId{10}, spec(1, gib(1), 1));
  const std::uint64_t epoch = batch.epoch();
  const std::vector<HostedVm> victims = batch.evict_all();
  ASSERT_EQ(victims.size(), 3U);
  EXPECT_EQ(victims[0].first, VmId{2});
  EXPECT_EQ(victims[1].first, VmId{4});
  EXPECT_EQ(victims[2].first, VmId{6});
  EXPECT_EQ(victims[1].second.vcpus, 4U);
  for (const auto& [vm, vm_spec] : victims) {
    single.remove(vm);
  }
  EXPECT_TRUE(batch.empty());
  EXPECT_GT(batch.epoch(), epoch);
  EXPECT_EQ(batch.alloc(), single.alloc());
  EXPECT_EQ(batch.reservation_count(), 1U);  // bookings survive an eviction
  for (std::uint8_t ratio = 1; ratio <= OversubLevel::kMaxRatio; ++ratio) {
    EXPECT_EQ(batch.committed_vcpus(OversubLevel{ratio}),
              single.committed_vcpus(OversubLevel{ratio}));
  }
  // An empty host evicts nothing and keeps its epoch.
  const std::uint64_t settled = batch.epoch();
  EXPECT_TRUE(batch.evict_all().empty());
  EXPECT_EQ(batch.epoch(), settled);
}

TEST(HostStateTest, HeatPastTheLargestBucketFilesInIt) {
  HostState host(0, kWorker);
  // 1.0 / 1e-12 = 1e12 buckets: past the largest uint32_t, whose cast would
  // be undefined. It files in the largest bucket instead.
  host.set_heat(1.0, 1e-12);
  EXPECT_EQ(host.heat_bucket(), std::numeric_limits<std::uint32_t>::max());
  const std::uint64_t epoch = host.epoch();
  host.set_heat(2.0, 1e-12);  // still the largest bucket: no epoch bump
  EXPECT_EQ(host.epoch(), epoch);
  // Quotients in range keep the bucket truncation gives them.
  host.set_heat(4294967294.5, 1.0);
  EXPECT_EQ(host.heat_bucket(), 4294967294U);
  host.set_heat(4294967295.5, 1.0);
  EXPECT_EQ(host.heat_bucket(), 4294967295U);
  host.set_heat(0.6, 0.25);
  EXPECT_EQ(host.heat_bucket(), 2U);
  host.set_heat(0.6, 0.0);  // quantization off
  EXPECT_EQ(host.heat_bucket(), 0U);
}

TEST(HostStateTest, ReviveLeavesTheStateOfANewHost) {
  HostState used(3, kWorker);
  used.add(VmId{1}, spec(4, gib(8), 2));
  used.add(VmId{2}, spec(2, gib(4), 1));
  used.reserve(VmId{9}, spec(1, gib(1), 1));
  used.set_heat(1.3, 0.25);
  used.set_phase(HostPhase::kDraining);
  const core::Resources other{16, gib(64)};
  used.revive(7, other, 1.5);
  const HostState fresh(7, other, 1.5);
  EXPECT_EQ(used.id(), fresh.id());
  // Config, memory bound, phase, epoch 0, every level, heat: all as new.
  EXPECT_TRUE(used.load() == fresh.load());
  EXPECT_TRUE(used.empty());
  EXPECT_EQ(used.reservation_count(), 0U);
  // It fills like a new host.
  used.add(VmId{5}, spec(4, gib(8), 2));
  EXPECT_EQ(used.alloc(), (core::Resources{2, gib(8)}));
  EXPECT_EQ(used.epoch(), 1U);
}

}  // namespace
}  // namespace slackvm::sched
