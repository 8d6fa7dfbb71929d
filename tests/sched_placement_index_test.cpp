// Differential tests of the incremental placement index: a VCluster with
// the index enabled must make the *identical* placement decision as the
// naive full-scan path at every single step, for every indexable policy,
// across randomized place/remove/migrate churn — and whole experiment
// sweeps must be bit-identical with the index on vs off (the
// ExperimentConfig::use_index / set_index_enabled hook).
#include "sched/placement_index.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "core/rng.hpp"
#include "sched/filter.hpp"
#include "sched/vcluster.hpp"
#include "sim/experiment.hpp"
#include "workload/catalog.hpp"
#include "workload/level_mix.hpp"

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

/// Catalog-shaped random spec (same scheme as bench/micro_scheduler.cpp).
VmSpec random_spec(core::SplitMix64& rng) {
  const workload::LevelMix mix = workload::make_mix(34, 33, 33);
  VmSpec spec;
  spec.level = mix.sample(rng);
  const workload::Catalog& catalog =
      spec.level.oversubscribed()
          ? workload::azure_catalog().truncated(workload::kOversubMemCap)
          : workload::azure_catalog();
  const workload::Flavor& flavor = catalog.sample(rng);
  spec.vcpus = flavor.vcpus;
  spec.mem_mib = flavor.mem_mib;
  return spec;
}

struct PolicyCase {
  const char* label;
  std::unique_ptr<PlacementPolicy> (*make)();
};

std::unique_ptr<PlacementPolicy> make_slackvm_default() { return make_slackvm_policy(); }

const PolicyCase kPolicies[] = {
    {"first-fit", make_first_fit},   {"best-fit", make_best_fit},
    {"worst-fit", make_worst_fit},   {"progress", make_progress_policy},
    {"slackvm", make_slackvm_default},
};

/// Drive `events` randomized place/remove (and a sprinkle of migrate)
/// operations through a naive and an indexed cluster in lockstep, asserting
/// the identical decision at every step.
void run_differential(const PolicyCase& policy, std::uint64_t seed,
                      std::size_t events) {
  VCluster naive("naive", kWorker, policy.make());
  naive.set_index_enabled(false);
  VCluster indexed("indexed", kWorker, policy.make());
  ASSERT_TRUE(indexed.index_enabled());

  core::SplitMix64 rng(seed);
  std::vector<VmId> live;
  std::uint64_t next_id = 1;
  for (std::size_t e = 0; e < events; ++e) {
    const bool place = live.empty() || rng.below(10) < 6;
    if (place) {
      const VmId vm{next_id++};
      const VmSpec spec = random_spec(rng);
      const auto naive_host = naive.try_place(vm, spec);
      const auto indexed_host = indexed.try_place(vm, spec);
      ASSERT_EQ(naive_host, indexed_host)
          << policy.label << ": divergence at event " << e;
      ASSERT_TRUE(naive_host.has_value());
      live.push_back(vm);
    } else {
      const std::size_t victim = rng.below(live.size());
      const VmId vm = live[victim];
      naive.remove(vm);
      indexed.remove(vm);
      live[victim] = live.back();
      live.pop_back();
    }
    if (e % 97 == 0 && !live.empty() && naive.opened_hosts() > 1) {
      // Same migration attempt on both sides: both must accept or both
      // reject, and the index must absorb the epoch bumps either way.
      const VmId vm = live[rng.below(live.size())];
      const auto to = static_cast<HostId>(rng.below(naive.opened_hosts()));
      ASSERT_EQ(naive.migrate(vm, to), indexed.migrate(vm, to))
          << policy.label << ": migrate divergence at event " << e;
    }
  }
  EXPECT_EQ(naive.opened_hosts(), indexed.opened_hosts()) << policy.label;
  EXPECT_EQ(naive.total_alloc(), indexed.total_alloc()) << policy.label;
  EXPECT_EQ(naive.vm_count(), indexed.vm_count()) << policy.label;
}

TEST(PlacementIndexDifferential, AllPoliciesMatchNaiveOverRandomChurn) {
  // >= 10k randomized events per policy (acceptance criterion), distinct
  // seeds so the policies see different traces.
  std::uint64_t seed = 1001;
  for (const PolicyCase& policy : kPolicies) {
    SCOPED_TRACE(policy.label);
    run_differential(policy, seed++, 10500);
  }
}

TEST(PlacementIndexDifferential, FirstFitMatchesNaiveAcrossSummaryWords) {
  // One whole-host VM per PM opens more than 4096 hosts, so every class's
  // feasibility bitset spans two level-1 summary words. The churn then
  // frees hosts on both sides of id 4096 (half the removals pick a VM on
  // one of the top hosts), so First-Fit's lowest feasible host keeps
  // crossing the summary boundary in both directions.
  constexpr std::size_t kFilled = 4200;
  VCluster naive("naive", kWorker, make_first_fit());
  naive.set_index_enabled(false);
  VCluster indexed("indexed", kWorker, make_first_fit());
  const VmSpec whole = make_spec(32, gib(128), 1);
  std::vector<VmId> live;
  std::uint64_t next_id = 1;
  for (std::size_t h = 0; h < kFilled; ++h) {
    const VmId vm{next_id++};
    ASSERT_EQ(naive.try_place(vm, whole), indexed.try_place(vm, whole));
    live.push_back(vm);
  }
  ASSERT_EQ(indexed.opened_hosts(), kFilled);

  core::SplitMix64 rng(4096);
  std::size_t high_reuses = 0;  // placements onto an open host past id 4096
  for (std::size_t e = 0; e < 12000; ++e) {
    if (live.empty() || rng.below(2) == 0) {
      const VmId vm{next_id++};
      const VmSpec spec = rng.below(3) == 0 ? whole : random_spec(rng);
      const std::size_t open = indexed.opened_hosts();
      const auto naive_host = naive.try_place(vm, spec);
      ASSERT_EQ(naive_host, indexed.try_place(vm, spec)) << "divergence at event " << e;
      ASSERT_TRUE(naive_host.has_value());
      if (*naive_host >= 4096 && *naive_host < open) {
        ++high_reuses;
      }
      live.push_back(vm);
      continue;
    }
    std::size_t victim = rng.below(live.size());
    if (rng.below(2) == 0) {
      // Prefer a VM on one of the top hosts, past the summary boundary.
      for (int tries = 0; tries < 64 && indexed.host_of(live[victim]) < 4090; ++tries) {
        victim = rng.below(live.size());
      }
    }
    naive.remove(live[victim]);
    indexed.remove(live[victim]);
    live[victim] = live.back();
    live.pop_back();
  }
  EXPECT_EQ(naive.opened_hosts(), indexed.opened_hosts());
  EXPECT_GT(indexed.opened_hosts(), 4096U);
  EXPECT_GT(high_reuses, 0U);
  EXPECT_EQ(naive.total_alloc(), indexed.total_alloc());
  EXPECT_EQ(naive.vm_count(), indexed.vm_count());
}

TEST(PlacementIndexDifferential, ScoreTieBreaksOnLowestHostId) {
  for (const PolicyCase& policy : kPolicies) {
    VCluster cluster("tie", kWorker, policy.make());
    // Open three hosts with full-size VMs, then empty them: three identical
    // empty hosts -> every policy scores them equally -> host 0 must win on
    // the indexed path exactly as on the naive scan.
    for (std::uint64_t i = 1; i <= 3; ++i) {
      cluster.place(VmId{i}, make_spec(32, gib(32), 1));
    }
    ASSERT_EQ(cluster.opened_hosts(), 3U);
    for (std::uint64_t i = 1; i <= 3; ++i) {
      cluster.remove(VmId{i});
    }
    EXPECT_EQ(cluster.place(VmId{10}, make_spec(2, gib(4), 1)), 0U) << policy.label;
  }
}

TEST(PlacementIndexDifferential, ExtraFilterBypassesIndexAndRebuildsOnClear) {
  VCluster naive("naive", kWorker, make_progress_policy());
  naive.set_index_enabled(false);
  naive.set_filter(std::make_unique<MaxVmsFilter>(3));
  VCluster indexed("indexed", kWorker, make_progress_policy());
  indexed.set_filter(std::make_unique<MaxVmsFilter>(3));

  core::SplitMix64 rng(7);
  std::uint64_t id = 1;
  for (int i = 0; i < 200; ++i) {
    const VmSpec spec = random_spec(rng);
    const VmId vm{id++};
    ASSERT_EQ(naive.try_place(vm, spec), indexed.try_place(vm, spec)) << i;
  }
  // Clearing the filter re-arms the index; decisions must keep matching
  // from the mid-run state the naive scan left behind.
  naive.set_filter(nullptr);
  indexed.set_filter(nullptr);
  for (int i = 0; i < 200; ++i) {
    const VmSpec spec = random_spec(rng);
    const VmId vm{id++};
    ASSERT_EQ(naive.try_place(vm, spec), indexed.try_place(vm, spec)) << i;
  }
}

TEST(PlacementIndexDifferential, MidRunToggleRebuildsFromLiveState) {
  VCluster naive("naive", kWorker, make_best_fit());
  naive.set_index_enabled(false);
  VCluster toggled("toggled", kWorker, make_best_fit());

  core::SplitMix64 rng(11);
  std::uint64_t id = 1;
  for (int phase = 0; phase < 4; ++phase) {
    toggled.set_index_enabled(phase % 2 == 0);
    for (int i = 0; i < 150; ++i) {
      const VmSpec spec = random_spec(rng);
      const VmId vm{id++};
      ASSERT_EQ(naive.try_place(vm, spec), toggled.try_place(vm, spec))
          << "phase " << phase << " event " << i;
    }
  }
}

TEST(PlacementIndexDifferential, RandomPolicyBypassesIndex) {
  // RandomPolicy advertises IndexMode::kNone: identical seeds must yield
  // identical sequences whether the index knob is on (bypassed) or off.
  VCluster a("a", kWorker, make_random_fit(5));
  a.set_index_enabled(false);
  VCluster b("b", kWorker, make_random_fit(5));
  core::SplitMix64 rng(13);
  for (std::uint64_t i = 1; i <= 300; ++i) {
    const VmSpec spec = random_spec(rng);
    ASSERT_EQ(a.try_place(VmId{i}, spec), b.try_place(VmId{i}, spec));
  }
}

TEST(PlacementIndexDifferential, SweepResultsBitIdenticalIndexOnVsOff) {
  // The Fig. 3 protocol end to end: every RunResult field — including the
  // floating-point shares — must be bit-identical with use_index on vs off.
  sim::ExperimentConfig on;
  on.generator.target_population = 120;
  on.generator.horizon = 2.0 * 24 * 3600;
  on.use_index = true;
  sim::ExperimentConfig off = on;
  off.use_index = false;

  const auto& catalog = workload::ovhcloud_catalog();
  const auto sweep_on = sim::run_distribution_sweep(catalog, on);
  const auto sweep_off = sim::run_distribution_sweep(catalog, off);
  ASSERT_EQ(sweep_on.size(), sweep_off.size());
  for (std::size_t i = 0; i < sweep_on.size(); ++i) {
    SCOPED_TRACE(sweep_on[i].distribution);
    for (const auto& [a, b] : {std::pair{&sweep_on[i].baseline, &sweep_off[i].baseline},
                               std::pair{&sweep_on[i].slackvm, &sweep_off[i].slackvm}}) {
      EXPECT_EQ(a->opened_pms, b->opened_pms);
      EXPECT_EQ(a->peak_active_pms, b->peak_active_pms);
      EXPECT_EQ(a->migrations, b->migrations);
      EXPECT_EQ(a->opened_per_cluster, b->opened_per_cluster);
      EXPECT_EQ(a->placed_vms, b->placed_vms);
      EXPECT_EQ(a->peak_vms, b->peak_vms);
      // Exact (not NEAR) comparisons: bit-identical is the contract.
      EXPECT_EQ(a->avg_unalloc_cpu_share, b->avg_unalloc_cpu_share);
      EXPECT_EQ(a->avg_unalloc_mem_share, b->avg_unalloc_mem_share);
      EXPECT_EQ(a->peak_unalloc_cpu_share, b->peak_unalloc_cpu_share);
      EXPECT_EQ(a->peak_unalloc_mem_share, b->peak_unalloc_mem_share);
      EXPECT_EQ(a->duration, b->duration);
      EXPECT_EQ(a->avg_active_pms, b->avg_active_pms);
      EXPECT_EQ(a->avg_alloc_cores, b->avg_alloc_cores);
    }
  }
}

TEST(PlacementIndex, SpecClassInterningIsUsageBlind) {
  PlacementIndex index(PlacementIndex::Mode::kFirstFit, nullptr);
  std::vector<HostState> hosts;
  hosts.emplace_back(0, kWorker);
  VmSpec spec = make_spec(2, gib(4), 1);
  spec.usage = core::UsageClass::kIdle;
  ASSERT_EQ(index.select(hosts, spec), std::optional<HostId>{0});
  spec.usage = core::UsageClass::kBursty;  // same shape, different usage
  ASSERT_EQ(index.select(hosts, spec), std::optional<HostId>{0});
  EXPECT_EQ(index.spec_class_count(), 1U);
  EXPECT_EQ(index.select(hosts, make_spec(4, gib(4), 2)), std::optional<HostId>{0});
  EXPECT_EQ(index.spec_class_count(), 2U);
}

TEST(PlacementIndex, EpochBumpsOnEveryMutation) {
  HostState host(0, kWorker);
  const auto e0 = host.epoch();
  host.add(VmId{1}, make_spec(2, gib(4), 1));
  const auto e1 = host.epoch();
  EXPECT_NE(e0, e1);
  host.remove(VmId{1});
  EXPECT_NE(e1, host.epoch());
  EXPECT_NE(e0, host.epoch());  // a round-trip must not restore the epoch
}

}  // namespace
}  // namespace slackvm::sched
