// Memory oversubscription (paper footnote 2 / §VIII extension): a limited
// DRAM ratio raises the admission bound consistently across the fast host
// accounting, the real local scheduler, and the experiment protocol.
#include <gtest/gtest.h>

#include "core/error.hpp"
#include "local/vnode_manager.hpp"
#include "sched/host_state.hpp"
#include "sim/experiment.hpp"
#include "topology/builders.hpp"

namespace slackvm {
namespace {

using core::gib;
using core::OversubLevel;
using core::VmId;
using core::VmSpec;

VmSpec mem_heavy(core::MemMib mem) {
  VmSpec s;
  s.vcpus = 1;
  s.mem_mib = mem;
  s.level = OversubLevel{1};
  return s;
}

TEST(MemOversubHost, RaisesAdmissionBound) {
  sched::HostState plain(0, {32, gib(128)});
  sched::HostState oversub(1, {32, gib(128)}, 1.5);
  EXPECT_EQ(oversub.load().mem_capacity, gib(192));
  plain.add(VmId{1}, mem_heavy(gib(128)));
  EXPECT_FALSE(plain.can_host(mem_heavy(gib(1))));
  oversub.add(VmId{1}, mem_heavy(gib(128)));
  EXPECT_TRUE(oversub.can_host(mem_heavy(gib(64))));
  EXPECT_FALSE(oversub.can_host(mem_heavy(gib(65))));
}

TEST(MemOversubHost, UnallocatedClampsAtZero) {
  // Committed memory may pass the physical configuration, up to the
  // oversubscribed bound: no physical memory is left unallocated.
  sched::HostState host(0, {32, gib(128)}, 1.5);
  host.add(VmId{1}, mem_heavy(gib(160)));
  EXPECT_GT(host.alloc().mem_mib, host.config().mem_mib);
  EXPECT_EQ(host.load().mem_capacity - host.alloc().mem_mib, gib(32));
}

TEST(MemOversubHost, RatioBelowOneRejected) {
  EXPECT_THROW(sched::HostState(0, {32, gib(128)}, 0.9), core::SlackError);
}

TEST(MemOversubManager, MatchesHostStateBound) {
  const topo::CpuTopology machine = topo::make_flat(32, gib(128));
  local::VNodeManager manager(machine, local::PoolingPolicy::kNone, 1.5);
  sched::HostState host(0, machine.config(), 1.5);
  EXPECT_EQ(manager.mem_capacity(), host.load().mem_capacity);
  // Both admit up to 192 GiB of 1:1 VMs (CPU permitting).
  std::uint64_t id = 1;
  for (int i = 0; i < 24; ++i) {
    const VmSpec s = mem_heavy(gib(8));
    const bool h = host.can_host(s);
    const bool m = manager.can_host(s);
    EXPECT_EQ(h, m) << i;
    if (!h) {
      break;
    }
    host.add(VmId{id}, s);
    ASSERT_TRUE(manager.deploy(VmId{id}, s).has_value());
    ++id;
  }
  EXPECT_EQ(host.alloc().mem_mib, gib(192));
  manager.check_invariants();
}

TEST(MemOversubManager, DefaultStaysPhysical) {
  const topo::CpuTopology machine = topo::make_flat(8, gib(16));
  local::VNodeManager manager(machine);
  ASSERT_TRUE(manager.deploy(VmId{1}, mem_heavy(gib(16))));
  EXPECT_FALSE(manager.can_host(mem_heavy(gib(1))));
}

TEST(MemOversubExperiment, FewerPmsWithDramOversub) {
  // Memory-bound distributions (OVH O = all 3:1) need fewer PMs when DRAM
  // is moderately oversubscribed.
  sim::ExperimentConfig plain;
  plain.generator.target_population = 150;
  plain.generator.horizon = 3.0 * 24 * 3600;
  plain.generator.mean_lifetime = 1.5 * 24 * 3600;
  sim::ExperimentConfig oversub = plain;
  oversub.mem_oversub = 1.5;

  const auto base = sim::compare_packing(workload::ovhcloud_catalog(),
                                         workload::distribution('O'), plain);
  const auto packed = sim::compare_packing(workload::ovhcloud_catalog(),
                                           workload::distribution('O'), oversub);
  EXPECT_LT(packed.baseline.opened_pms, base.baseline.opened_pms);
  EXPECT_LE(packed.slackvm.opened_pms, base.slackvm.opened_pms);
}

TEST(MemOversubExperiment, CpuBoundWorkloadUnaffected) {
  // Azure A (all 1:1) is CPU-bound: DRAM oversubscription buys nothing.
  sim::ExperimentConfig plain;
  plain.generator.target_population = 150;
  plain.generator.horizon = 3.0 * 24 * 3600;
  plain.generator.mean_lifetime = 1.5 * 24 * 3600;
  sim::ExperimentConfig oversub = plain;
  oversub.mem_oversub = 1.5;
  const auto base = sim::compare_packing(workload::azure_catalog(),
                                         workload::distribution('A'), plain);
  const auto packed = sim::compare_packing(workload::azure_catalog(),
                                           workload::distribution('A'), oversub);
  EXPECT_EQ(packed.baseline.opened_pms, base.baseline.opened_pms);
}

}  // namespace
}  // namespace slackvm
