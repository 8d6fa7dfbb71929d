// Allocation regression test for the deploy/remove path.
//
// This binary replaces the global operator new with a counting one, so it
// is its own executable: the count covers everything the process allocates
// between two reads. A warmed shared cluster (VM directory grown, per-host
// VM vectors and placement-index structures at their working size) must
// replay a second, identical deploy/remove churn at no more than 0.01
// allocations per call. The few left come from the odd PM the second pass
// opens: the empty PMs the warm-up left behind change which hosts the
// progress score prefers.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/rng.hpp"
#include "sched/policy.hpp"
#include "sim/datacenter.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}

// The replacement pairs malloc with free by construction; GCC cannot see
// that once the standard allocators are inlined into this file.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace slackvm::sim {
namespace {

using core::gib;

/// One churn operation: deploy `vm` with `spec`, or remove `vm`.
struct Op {
  bool deploy = true;
  core::VmId vm{0};
  core::VmSpec spec;
};

/// `rows` VMs with catalog-like shapes on levels 1-3; each departs a random
/// number of arrivals later, so the live population hovers around ~1k.
std::vector<Op> make_churn(std::size_t rows) {
  const core::VcpuCount vcpus[] = {1, 2, 4, 8, 16};
  core::SplitMix64 rng(4242);
  std::vector<std::vector<core::VmId>> departures(rows + 2048);
  std::vector<Op> ops;
  ops.reserve(2 * rows);
  for (std::size_t row = 0; row < rows; ++row) {
    for (const core::VmId vm : departures[row]) {
      ops.push_back(Op{false, vm, {}});
    }
    core::VmSpec spec;
    spec.vcpus = vcpus[rng.below(5)];
    spec.mem_mib = gib(static_cast<core::MemMib>(spec.vcpus) *
                       static_cast<core::MemMib>(1 + rng.below(4)));
    spec.level = core::OversubLevel{static_cast<std::uint8_t>(1 + rng.below(3))};
    const core::VmId vm{row + 1};
    ops.push_back(Op{true, vm, spec});
    departures[row + 1 + rng.below(2047)].push_back(vm);
  }
  for (std::size_t row = rows; row < departures.size(); ++row) {
    for (const core::VmId vm : departures[row]) {
      ops.push_back(Op{false, vm, {}});
    }
  }
  return ops;
}

void run(Datacenter& dc, const std::vector<Op>& ops) {
  for (const Op& op : ops) {
    if (op.deploy) {
      dc.deploy(op.vm, op.spec);
    } else {
      dc.remove(op.vm);
    }
  }
}

TEST(DeployRemoveAllocations, WarmedSharedClusterChurnsWithoutAllocating) {
  const std::vector<Op> ops = make_churn(20000);
  ASSERT_EQ(ops.size(), 40000U);
  Datacenter dc = Datacenter::shared({32, gib(128)}, sched::make_progress_policy);
  run(dc, ops);  // warm-up: grows every container to its working size
  ASSERT_EQ(dc.vm_count(), 0U);

  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  run(dc, ops);
  const std::uint64_t allocations =
      g_allocations.load(std::memory_order_relaxed) - before;

  EXPECT_EQ(dc.vm_count(), 0U);
  const double per_call =
      static_cast<double>(allocations) / static_cast<double>(ops.size());
  EXPECT_LE(per_call, 0.01) << allocations << " allocations over " << ops.size()
                            << " deploy/remove calls";
}

TEST(DeployRemoveAllocations, CounterSeesHeapAllocations) {
  // Guards the probe itself: a replaced operator new that is not linked in
  // would make the test above pass vacuously. An explicit operator-new call
  // cannot be elided the way a new-expression can.
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  void* p = ::operator new(64);
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  ::operator delete(p);
  EXPECT_EQ(after - before, 1U);
}

}  // namespace
}  // namespace slackvm::sim
