// Interference-aware scoring and the polluter-eviction rebalance pass:
// heat-bucket epoch semantics down to the host record, the
// InterferenceScorer contract against the PlacementIndex lazy-deletion
// protocol (stale-heap regression when heat crosses a bucket mid-window),
// plan_interference unit behaviour, a >= 10k-event naive-vs-indexed
// placement churn across policies, the planner passes and the heat feeder
// checked pass by pass and tick by tick against the references in
// tests/reference/, the full replay acceptance matrix (shards x index x
// threads, instant and engine migration modes; the index setting varies
// placement only), and the cache-polluter QoS comparison:
// interference-aware rebalance must beat progress-only on p90 response
// inflation at equal PM count.
#include "sched/rebalancer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/rng.hpp"
#include "expect_identical.hpp"
#include "perf/contention.hpp"
#include "reference/heat.hpp"
#include "reference/planners.hpp"
#include "sched/heat_index.hpp"
#include "sched/policy.hpp"
#include "sched/scorer.hpp"
#include "sched/vcluster.hpp"
#include "sim/audit.hpp"
#include "sim/replay.hpp"
#include "sim/shard.hpp"
#include "sim/usage_monitor.hpp"
#include "workload/catalog.hpp"
#include "workload/generator.hpp"
#include "workload/level_mix.hpp"
#include "workload/usage.hpp"

namespace slackvm {
namespace {

using core::gib;
using core::OversubLevel;
using core::UsageClass;
using core::VmId;
using core::VmSpec;
using sched::HostId;
using sched::InterferenceOptions;
using sched::VCluster;
using sim::Datacenter;
using sim::RunResult;

const core::Resources kWorker{32, gib(128)};

VmSpec make_spec(core::VcpuCount vcpus, core::MemMib mem, std::uint8_t ratio,
                 UsageClass usage = UsageClass::kSteady) {
  VmSpec s;
  s.vcpus = vcpus;
  s.mem_mib = mem;
  s.level = OversubLevel{ratio};
  s.usage = usage;
  return s;
}

// --- heat buckets: epoch bumps only on crossings ----------------------------

TEST(HeatBucket, EpochBumpsOnlyOnBucketCrossings) {
  sched::HostState host(0, kWorker);
  const std::uint64_t e0 = host.epoch();
  host.set_heat(0.1, 0.25);  // bucket 0 -> 0: no crossing
  EXPECT_DOUBLE_EQ(host.heat(), 0.1);
  EXPECT_EQ(host.heat_bucket(), 0U);
  EXPECT_DOUBLE_EQ(host.load().quantized_heat(), 0.0);
  EXPECT_EQ(host.epoch(), e0);
  host.set_heat(0.24, 0.25);  // still bucket 0
  EXPECT_EQ(host.epoch(), e0);
  host.set_heat(0.3, 0.25);  // crosses into bucket 1
  EXPECT_EQ(host.heat_bucket(), 1U);
  EXPECT_DOUBLE_EQ(host.load().quantized_heat(), 0.25);
  EXPECT_EQ(host.epoch(), e0 + 1);
  host.set_heat(0.49, 0.25);  // within bucket 1
  EXPECT_EQ(host.epoch(), e0 + 1);
  host.set_heat(1.1, 0.25);  // jumps to bucket 4
  EXPECT_EQ(host.heat_bucket(), 4U);
  EXPECT_DOUBLE_EQ(host.load().quantized_heat(), 1.0);
  EXPECT_EQ(host.epoch(), e0 + 2);
  host.set_heat(0.0, 0.25);  // cools back to bucket 0
  EXPECT_EQ(host.heat_bucket(), 0U);
  EXPECT_EQ(host.epoch(), e0 + 3);
}

TEST(HeatBucket, NegativeHeatClampsAndZeroWidthDisablesQuantization) {
  sched::HostState host(0, kWorker);
  host.set_heat(-2.0, 0.25);
  EXPECT_DOUBLE_EQ(host.heat(), 0.0);
  EXPECT_EQ(host.heat_bucket(), 0U);
  host.set_heat(5.0, 0.0);  // no bucketing: everything is bucket 0
  EXPECT_DOUBLE_EQ(host.heat(), 5.0);
  EXPECT_EQ(host.heat_bucket(), 0U);
  EXPECT_DOUBLE_EQ(host.load().quantized_heat(), 0.0);
}

TEST(HeatBucket, VClusterWritesHeatIntoTheHostRecordWithoutEpochBump) {
  VCluster cl("heat", kWorker, sched::make_interference_policy(4.0));
  cl.place(VmId{1}, make_spec(4, gib(8), 1));
  const std::uint64_t e0 = cl.hosts()[0].epoch();
  cl.set_host_heat(0, 0.2, 0.25);  // within bucket 0: no epoch bump...
  EXPECT_EQ(cl.hosts()[0].epoch(), e0);
  EXPECT_DOUBLE_EQ(cl.host_heat(0), 0.2);
  // ...but the host record still tracks the raw value exactly.
  EXPECT_DOUBLE_EQ(cl.hosts()[0].load().heat, 0.2);
  EXPECT_EQ(cl.hosts()[0].load().heat_bucket, 0U);
  EXPECT_TRUE(sim::audit(cl).empty());
  cl.set_host_heat(0, 0.9, 0.25);  // bucket 3: the epoch bumps
  EXPECT_EQ(cl.hosts()[0].epoch(), e0 + 1);
  EXPECT_EQ(cl.hosts()[0].load().heat_bucket, 3U);
  EXPECT_TRUE(sim::audit(cl).empty());
}

TEST(HeatBucket, UnknownHostRejected) {
  VCluster cl("heat", kWorker, sched::make_progress_policy());
  EXPECT_THROW(cl.set_host_heat(0, 1.0, 0.25), core::SlackError);
}

// --- InterferenceScorer -----------------------------------------------------

TEST(InterferenceScorer, StacksQuantizedHeatPenaltyOnProgress) {
  sched::HostState host(0, kWorker);
  const VmSpec spec = make_spec(4, gib(8), 2);
  const sched::ProgressScorer progress;
  const sched::InterferenceScorer scorer(3.0);
  // Cold host: identical to Algorithm 2.
  EXPECT_DOUBLE_EQ(scorer.score(host.load(), spec), progress.score(host.load(), spec));
  // The penalty reads the *quantized* heat, not the raw EWMA: within a
  // bucket the score must not move (PlacementIndex lazy-deletion protocol).
  host.set_heat(0.2, 0.25);
  EXPECT_DOUBLE_EQ(scorer.score(host.load(), spec), progress.score(host.load(), spec));
  host.set_heat(1.1, 0.25);  // quantized to 1.0
  EXPECT_DOUBLE_EQ(scorer.score(host.load(), spec),
                   progress.score(host.load(), spec) - 3.0 * 1.0);
  EXPECT_EQ(scorer.name(), "interference-aware(w=3)");
}

TEST(InterferenceScorer, ZeroWeightDegeneratesToProgress) {
  sched::HostState host(0, kWorker);
  host.set_heat(7.0, 0.25);
  const VmSpec spec = make_spec(8, gib(16), 3);
  const sched::ProgressScorer progress;
  const sched::InterferenceScorer scorer(0.0);
  EXPECT_DOUBLE_EQ(scorer.score(host.load(), spec), progress.score(host.load(), spec));
}

// --- stale-heap regression: bucket crossings must invalidate the index ------

TEST(InterferenceIndex, BucketCrossingMidWindowSteersIndexedSelection) {
  // Two open hosts, both able to take the probe VM. A heat-bucket crossing
  // on the preferred host must re-steer the *indexed* selection exactly
  // like the naive scan: if set_heat skipped the epoch bump (or VCluster::
  // set_host_heat skipped the index touch), the heap would serve the stale
  // pre-heat score and keep picking the hot host.
  const auto drive = [](bool index) {
    VCluster cl("itf", kWorker, sched::make_interference_policy(50.0));
    cl.set_index_enabled(index);
    cl.place(VmId{1}, make_spec(17, gib(16), 1));  // host 0
    cl.place(VmId{2}, make_spec(17, gib(16), 1));  // does not fit: host 1
    // Symmetric hosts: the cold tie breaks to host 0.
    const auto cold = cl.try_place(VmId{3}, make_spec(1, gib(1), 1));
    EXPECT_EQ(cold, std::optional<HostId>{0});
    cl.remove(VmId{3});
    // Mid-window heat update crossing buckets: host 0 becomes expensive.
    cl.set_host_heat(0, 1.0, 0.25);
    const auto hot = cl.try_place(VmId{4}, make_spec(1, gib(1), 1));
    EXPECT_EQ(hot, std::optional<HostId>{1});
    cl.remove(VmId{4});
    // Within-bucket wobble must NOT change the selection (no epoch bump,
    // cached entries stay exact).
    cl.set_host_heat(0, 1.05, 0.25);
    const auto same = cl.try_place(VmId{5}, make_spec(1, gib(1), 1));
    EXPECT_EQ(same, std::optional<HostId>{1});
    // Cooling below host 1's (zero) heat restores the low-id tie-break.
    cl.set_host_heat(0, 0.0, 0.25);
    const auto cooled = cl.try_place(VmId{6}, make_spec(1, gib(1), 1));
    EXPECT_EQ(cooled, std::optional<HostId>{0});
    EXPECT_TRUE(sim::audit(cl).empty());
  };
  drive(true);
  drive(false);
}

// --- plan_interference ------------------------------------------------------

InterferenceOptions itf_options() {
  InterferenceOptions itf;
  itf.enabled = true;
  itf.threshold = 1.25;
  itf.evictions_per_pass = 4;
  return itf;
}

TEST(PlanInterference, EvictsHeaviestContributorTowardCoolHost) {
  VCluster cl("pol", kWorker, sched::make_first_fit());
  cl.place(VmId{1}, make_spec(8, gib(8), 1));    // host 0, light
  cl.place(VmId{2}, make_spec(23, gib(16), 1));  // host 0, the polluter
  cl.place(VmId{3}, make_spec(1, gib(1), 1));    // host 0 (32 cores full)
  cl.place(VmId{4}, make_spec(2, gib(2), 1));    // forces host 1
  cl.set_host_heat(0, 3.0, 0.25);  // far above any sane threshold
  cl.set_host_heat(1, 0.1, 0.25);
  const perf::ContentionModel model;
  const sched::Rebalancer reb;
  const sched::MigrationPlan plan =
      reb.plan_interference(cl, model, itf_options());
  ASSERT_EQ(plan.migrations.size(), 1U);
  EXPECT_EQ(plan.hot_hosts, 1U);
  EXPECT_EQ(plan.migrations[0].vm, VmId{2});  // max vcpus x mean usage
  EXPECT_EQ(plan.migrations[0].from, 0U);
  EXPECT_EQ(plan.migrations[0].to, 1U);
  // Planning never mutates the cluster.
  EXPECT_EQ(cl.host_of(VmId{2}), 0U);
  EXPECT_DOUBLE_EQ(cl.host_heat(0), 3.0);
  // Deterministic: replanning yields the same plan.
  const sched::MigrationPlan again =
      reb.plan_interference(cl, model, itf_options());
  ASSERT_EQ(again.migrations.size(), 1U);
  EXPECT_EQ(again.migrations[0].vm, plan.migrations[0].vm);
  EXPECT_EQ(again.migrations[0].to, plan.migrations[0].to);
}

TEST(PlanInterference, ColdClusterPlansNothing) {
  VCluster cl("pol", kWorker, sched::make_first_fit());
  cl.place(VmId{1}, make_spec(8, gib(8), 1));
  cl.place(VmId{2}, make_spec(8, gib(8), 1));
  const perf::ContentionModel model;
  const sched::Rebalancer reb;
  const sched::MigrationPlan plan =
      reb.plan_interference(cl, model, itf_options());
  EXPECT_TRUE(plan.empty());
  EXPECT_EQ(plan.hot_hosts, 0U);
}

TEST(PlanInterference, SingleVmHostsAndMissingTargetsAreSkipped) {
  // Host 0 is hot but hosts a single VM (evicting it just moves the whole
  // load); host 1 is hotter than nothing else that could absorb: no plan.
  VCluster cl("pol", kWorker, sched::make_first_fit());
  cl.place(VmId{1}, make_spec(32, gib(16), 1));  // host 0: hot, 1 VM
  cl.set_host_heat(0, 3.0, 0.25);
  const perf::ContentionModel model;
  const sched::Rebalancer reb;
  EXPECT_TRUE(reb.plan_interference(cl, model, itf_options()).empty());
}

TEST(PlanInterference, BudgetCapsEvictions) {
  VCluster cl("pol", kWorker, sched::make_first_fit());
  // Two hot hosts whose heaviest VM (10 cores) fits on the cool host even
  // after the first eviction lands there, so an unconstrained pass plans
  // both moves.
  cl.place(VmId{1}, make_spec(8, gib(4), 1));    // host 0
  cl.place(VmId{2}, make_spec(8, gib(4), 1));    // host 0
  cl.place(VmId{3}, make_spec(10, gib(4), 1));   // host 0 (26 cores)
  cl.place(VmId{4}, make_spec(8, gib(4), 1));    // host 1
  cl.place(VmId{5}, make_spec(8, gib(4), 1));    // host 1
  cl.place(VmId{6}, make_spec(10, gib(4), 1));   // host 1 (26 cores)
  cl.place(VmId{7}, make_spec(9, gib(4), 1));    // fits neither: host 2
  cl.set_host_heat(0, 3.0, 0.25);
  cl.set_host_heat(1, 2.5, 0.25);
  cl.set_host_heat(2, 0.0, 0.25);
  const perf::ContentionModel model;
  const sched::Rebalancer reb;
  InterferenceOptions one = itf_options();
  one.evictions_per_pass = 1;
  const sched::MigrationPlan plan = reb.plan_interference(cl, model, one);
  ASSERT_EQ(plan.migrations.size(), 1U);
  EXPECT_EQ(plan.migrations[0].from, 0U);  // hottest first
  EXPECT_EQ(plan.migrations[0].vm, VmId{3});
  EXPECT_EQ(plan.migrations[0].to, 2U);
  const sched::MigrationPlan both =
      reb.plan_interference(cl, model, itf_options());
  ASSERT_EQ(both.migrations.size(), 2U);
  EXPECT_EQ(both.hot_hosts, 2U);
  // The victim is the max of vcpus x per-VM mean usage (the signal base is
  // VmId-seeded), so only the host pair is pinned here.
  EXPECT_EQ(both.migrations[1].from, 1U);
  EXPECT_EQ(both.migrations[1].to, 2U);
}

TEST(InterferenceOptionsValidate, RejectsOutOfRangeKnobs) {
  InterferenceOptions itf = itf_options();
  itf.heat_alpha = 0.0;
  EXPECT_THROW(itf.validate(), core::SlackError);
  itf = itf_options();
  itf.heat_interval = 0.0;
  EXPECT_THROW(itf.validate(), core::SlackError);
  itf = itf_options();
  itf.heat_bucket = -1.0;
  EXPECT_THROW(itf.validate(), core::SlackError);
  itf = itf_options();
  itf.threshold = 0.5;
  EXPECT_THROW(itf.validate(), core::SlackError);
  itf = itf_options();
  itf.evictions_per_pass = 0;
  EXPECT_THROW(itf.validate(), core::SlackError);
  // Disabled options never validate their knobs (defaults stay inert).
  itf.enabled = false;
  EXPECT_NO_THROW(itf.validate());
}

// --- differential churn: naive scan vs indexed InterferenceScorer -----------

TEST(InterferenceDifferential, TenThousandEventChurnMatchesNaiveScan) {
  // >= 10k randomized place/remove/heat events per policy: the indexed
  // cluster must reproduce the naive scan's host selection bit-for-bit,
  // including across heat-bucket crossings (the lazy-deletion stress).
  struct PolicyCase {
    const char* label;
    std::function<std::unique_ptr<sched::PlacementPolicy>()> make;
  };
  const std::vector<PolicyCase> policies = {
      {"progress", [] { return sched::make_progress_policy(); }},
      {"interference-w1", [] { return sched::make_interference_policy(1.0); }},
      {"interference-w8", [] { return sched::make_interference_policy(8.0); }},
  };
  for (const PolicyCase& pc : policies) {
    SCOPED_TRACE(pc.label);
    VCluster indexed("idx", kWorker, pc.make());
    VCluster naive("ref", kWorker, pc.make());
    naive.set_index_enabled(false);
    core::SplitMix64 rng(0x17feULL);
    std::vector<VmId> live;
    std::uint64_t next_id = 1;
    for (int event = 0; event < 12000; ++event) {
      const std::uint64_t roll = rng.below(10);
      if (roll < 5 || live.empty()) {
        const VmSpec spec = make_spec(
            static_cast<core::VcpuCount>(1 + rng.below(8)),
            gib(static_cast<std::int64_t>(1 + rng.below(16))),
            static_cast<std::uint8_t>(1 + rng.below(3)));
        const VmId id{next_id++};
        const auto a = indexed.try_place(id, spec);
        const auto b = naive.try_place(id, spec);
        ASSERT_EQ(a, b) << "event " << event;
        if (a) {
          live.push_back(id);
        }
      } else if (roll < 8) {
        const std::size_t pick = rng.below(live.size());
        const VmId id = live[pick];
        live[pick] = live.back();
        live.pop_back();
        indexed.remove(id);
        naive.remove(id);
      } else {
        ASSERT_EQ(indexed.opened_hosts(), naive.opened_hosts());
        if (indexed.opened_hosts() > 0) {
          const HostId host =
              static_cast<HostId>(rng.below(indexed.opened_hosts()));
          const double heat = rng.uniform(0.0, 3.0);
          indexed.set_host_heat(host, heat, 0.25);
          naive.set_host_heat(host, heat, 0.25);
        }
      }
      if (event % 2000 == 0) {
        EXPECT_TRUE(sim::audit(indexed).empty());
      }
    }
    ASSERT_EQ(indexed.opened_hosts(), naive.opened_hosts());
    for (HostId h = 0; h < indexed.opened_hosts(); ++h) {
      EXPECT_EQ(indexed.hosts()[h].vm_count(), naive.hosts()[h].vm_count());
      EXPECT_DOUBLE_EQ(indexed.host_heat(h), naive.host_heat(h));
    }
    EXPECT_TRUE(sim::audit(indexed).empty());
    EXPECT_TRUE(sim::audit(naive).empty());
  }
}

// --- differential churn: incremental planner passes vs the naive bodies ----

void expect_same_plan(const sched::MigrationPlan& a,
                      const sched::MigrationPlan& b) {
  ASSERT_EQ(a.migrations.size(), b.migrations.size());
  for (std::size_t i = 0; i < a.migrations.size(); ++i) {
    EXPECT_EQ(a.migrations[i].vm, b.migrations[i].vm) << "migration " << i;
    EXPECT_EQ(a.migrations[i].from, b.migrations[i].from) << "migration " << i;
    EXPECT_EQ(a.migrations[i].to, b.migrations[i].to) << "migration " << i;
  }
  EXPECT_EQ(a.hosts_emptied, b.hosts_emptied);
  EXPECT_EQ(a.hot_hosts, b.hot_hosts);
}

TEST(PlanDifferential, TenThousandEventChurnMatchesNaivePasses) {
  // >= 10k randomized place/remove/fault/heat events on one indexed
  // cluster; at every checkpoint both planner passes must reproduce their
  // verbatim naive references move-for-move (same VMs, same sources, same
  // targets, same order) — the scratch-load / heat-bucket-streaming
  // stress for the incremental control plane.
  struct ScorerCase {
    const char* label;
    std::function<std::unique_ptr<sched::Scorer>()> make;
  };
  // Every in-tree scorer: each one takes the incremental planner.
  const std::vector<ScorerCase> scorers = {
      {"progress", [] { return std::unique_ptr<sched::Scorer>{}; }},
      {"interference-w4",
       [] { return std::make_unique<sched::InterferenceScorer>(4.0); }},
      {"best-fit", [] { return std::make_unique<sched::BestFitScorer>(); }},
      {"worst-fit", [] { return std::make_unique<sched::WorstFitScorer>(); }},
      {"composite(1*progress+0.25*best-fit)",
       []() -> std::unique_ptr<sched::Scorer> {
         auto composite = std::make_unique<sched::CompositeScorer>();
         composite->add(std::make_unique<sched::ProgressScorer>(), 1.0);
         composite->add(std::make_unique<sched::BestFitScorer>(), 0.25);
         return composite;
       }},
  };
  for (const ScorerCase& sc : scorers) {
    SCOPED_TRACE(sc.label);
    VCluster cluster("plan-churn", kWorker, sched::make_interference_policy(4.0));
    const sched::Rebalancer rebalancer(sc.make());
    const perf::ContentionModel contention;
    InterferenceOptions itf = itf_options();
    itf.threshold = 1.02;  // keep the polluter pass firing on mild heat
    core::SplitMix64 rng(0x51acULL);
    std::vector<VmId> live;
    std::uint64_t next_id = 1;
    for (int event = 0; event < 12000; ++event) {
      const std::uint64_t roll = rng.below(20);
      if (roll < 9 || live.empty()) {
        const VmSpec spec = make_spec(
            static_cast<core::VcpuCount>(1 + rng.below(8)),
            gib(static_cast<std::int64_t>(1 + rng.below(16))),
            static_cast<std::uint8_t>(1 + rng.below(3)));
        const VmId id{next_id++};
        if (cluster.try_place(id, spec)) {
          live.push_back(id);
        }
      } else if (roll < 14) {
        const std::size_t pick = rng.below(live.size());
        const VmId id = live[pick];
        live[pick] = live.back();
        live.pop_back();
        cluster.remove(id);
      } else if (roll < 15 && cluster.opened_hosts() > 0) {
        // Fault churn: DOWN hosts must be skipped as polluter sources and
        // as drain targets in both paths.
        const HostId host =
            static_cast<HostId>(rng.below(cluster.opened_hosts()));
        if (cluster.host_phase(host) == sched::HostPhase::kUp) {
          for (const auto& [vm, spec] : cluster.fail_host(host)) {
            std::erase(live, vm);
          }
        } else {
          cluster.repair_host(host);
        }
      } else if (cluster.opened_hosts() > 0) {
        const HostId host =
            static_cast<HostId>(rng.below(cluster.opened_hosts()));
        cluster.set_host_heat(host, rng.uniform(0.0, 3.0), 0.25);
      }
      if (event % 200 == 199) {
        expect_same_plan(rebalancer.plan(cluster, 16),
                         reference::plan_naive(cluster, rebalancer.scorer(), 16));
        expect_same_plan(
            rebalancer.plan_interference(cluster, contention, itf),
            reference::plan_interference_naive(cluster, contention, itf));
      }
      if (event % 2000 == 0) {
        EXPECT_TRUE(sim::audit(cluster).empty()) << "event " << event;
      }
    }
    EXPECT_TRUE(sim::audit(cluster).empty());
  }
}

TEST(InterferenceDifferential, BucketsPastTheTableMatchTheReferencePassByPass) {
  // The smallest width the heat_bucket knob accepts (0.001) with heats up
  // to 16: every host above 4.095 files in the bucket table's last,
  // folded slot. Every 1000 events all heats are redrawn, over 0 .. 16 in
  // even rounds and 5 .. 16 in odd ones, where the sources and most
  // targets share that one slot. Each polluter pass must match the
  // reference scan move for move.
  VCluster cluster("fold", kWorker, sched::make_interference_policy(4.0));
  const sched::Rebalancer rebalancer;
  const perf::ContentionModel contention;
  InterferenceOptions itf = itf_options();
  itf.heat_bucket = 0.001;
  itf.threshold = 1.02;
  itf.evictions_per_pass = 8;
  core::SplitMix64 rng(0xf01dULL);
  std::vector<VmId> live;
  std::uint64_t next_id = 1;
  double low = 0.0;
  std::size_t folded_checks = 0;
  std::size_t planned = 0;
  for (int event = 0; event < 10000; ++event) {
    if (event % 1000 == 0) {
      low = (event / 1000) % 2 == 0 ? 0.0 : 5.0;
      for (HostId h = 0; h < cluster.opened_hosts(); ++h) {
        cluster.set_host_heat(h, rng.uniform(low, 16.0), itf.heat_bucket);
      }
    }
    const std::uint64_t roll = rng.below(20);
    if (roll < 9 || live.empty()) {
      const VmSpec spec = make_spec(
          static_cast<core::VcpuCount>(1 + rng.below(8)),
          gib(static_cast<std::int64_t>(1 + rng.below(16))),
          static_cast<std::uint8_t>(1 + rng.below(3)));
      const VmId id{next_id++};
      if (cluster.try_place(id, spec)) {
        live.push_back(id);
      }
    } else if (roll < 14) {
      const std::size_t pick = rng.below(live.size());
      const VmId id = live[pick];
      live[pick] = live.back();
      live.pop_back();
      cluster.remove(id);
    } else if (roll < 15 && cluster.opened_hosts() > 0) {
      const HostId host = static_cast<HostId>(rng.below(cluster.opened_hosts()));
      if (cluster.host_phase(host) == sched::HostPhase::kUp) {
        for (const auto& [vm, spec] : cluster.fail_host(host)) {
          std::erase(live, vm);
        }
      } else {
        cluster.repair_host(host);
      }
    } else if (cluster.opened_hosts() > 0) {
      const HostId host = static_cast<HostId>(rng.below(cluster.opened_hosts()));
      cluster.set_host_heat(host, rng.uniform(low, 16.0), itf.heat_bucket);
    }
    if (event % 100 == 99) {
      const auto folded = std::ranges::count_if(
          cluster.hosts(), [](const sched::HostState& host) {
            return host.heat_bucket() >= sched::HeatIndex::kMaxBuckets;
          });
      if (folded >= 2) {
        ++folded_checks;
      }
      const sched::MigrationPlan plan =
          rebalancer.plan_interference(cluster, contention, itf);
      expect_same_plan(plan,
                       reference::plan_interference_naive(cluster, contention, itf));
      planned += plan.migrations.size();
    }
  }
  // Not vacuous: most checks saw a shared last slot, and passes did move VMs.
  EXPECT_GT(folded_checks, 80U);
  EXPECT_GT(planned, 100U);
  EXPECT_TRUE(sim::audit(cluster).empty());
}

TEST(PlanDifferential, TieHeavyFleetMatchesNaiveMoveForMove) {
  // The winner trees must pick exactly the naive scan's target, ties
  // included. A homogeneous first-fit fleet is grown in floods of one
  // shape and thinned in the same pattern, so the fresh hosts of a flood —
  // and every empty host — score identically and only the lowest-HostId
  // tie-break tells them apart. On top: 60 (vcpus, mem, level) shapes,
  // DOWN and DRAINING hosts, whole-host VMs that make a drain fail on its
  // first VM (or mid-way, behind smaller VMs of the same host, after which
  // that host must be a valid target again), and budgets large enough that
  // hosts emptied earlier in a pass must stop receiving moves.
  VCluster cluster("plan-ties", kWorker, sched::make_first_fit());
  const sched::Rebalancer rebalancer;
  core::SplitMix64 rng(0x71e5ULL);
  std::vector<VmId> live;
  std::uint64_t next_id = 1;
  const auto random_spec = [&rng] {
    static constexpr core::VcpuCount kVcpus[] = {1, 2, 4, 8};
    static constexpr std::int64_t kMemGib[] = {1, 2, 4, 8, 16};
    return make_spec(kVcpus[rng.below(4)], gib(kMemGib[rng.below(5)]),
                     static_cast<std::uint8_t>(1 + rng.below(3)));
  };
  const auto place = [&](const VmSpec& spec) {
    const VmId id{next_id++};
    if (cluster.try_place(id, spec)) {
      live.push_back(id);
    }
  };
  const auto remove_at = [&](std::size_t pick) {
    cluster.remove(live[pick]);
    live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
  };
  std::size_t checkpoints = 0;
  for (int round = 0; round < 60; ++round) {
    // Flood one shape, then thin it with a fixed stride: the hosts the
    // flood opened end up holding identical VM sets.
    const VmSpec flood = random_spec();
    const std::size_t first = live.size();
    for (int i = 0; i < 48; ++i) {
      place(flood);
    }
    for (std::size_t i = live.size(); i > first; --i) {
      if ((i - first) % 3 == 0) {
        remove_at(i - 1);
      }
    }
    for (int i = 0; i < 12; ++i) {
      place(random_spec());
    }
    // A whole-host VM (32 vCPUs at 1:1): it can only move onto an empty UP
    // host, so its host's drain fails unless one is left.
    if (rng.below(3) == 0) {
      place(make_spec(32, gib(4), 1));
    }
    for (std::size_t i = 0; i < 10 && !live.empty(); ++i) {
      remove_at(rng.below(live.size()));
    }
    // Empty whole hosts now and then, so empty UP hosts tie too.
    if (rng.below(4) == 0 && cluster.opened_hosts() > 0) {
      const auto host = static_cast<HostId>(rng.below(cluster.opened_hosts()));
      if (cluster.host_phase(host) == sched::HostPhase::kUp) {
        std::vector<VmId> on_host;
        for (const auto& [vm, spec] : cluster.hosts()[host].vms()) {
          on_host.push_back(vm);
        }
        for (const VmId vm : on_host) {
          cluster.remove(vm);
          std::erase(live, vm);
        }
      }
    }
    if (cluster.opened_hosts() > 0) {
      const auto host = static_cast<HostId>(rng.below(cluster.opened_hosts()));
      switch (cluster.host_phase(host)) {
        case sched::HostPhase::kUp:
          if (rng.below(2) == 0) {
            for (const auto& [vm, spec] : cluster.fail_host(host)) {
              std::erase(live, vm);
            }
          } else {
            cluster.drain_host(host);
          }
          break;
        default:
          cluster.repair_host(host);
          break;
      }
    }
    for (const std::size_t budget : {std::size_t{1}, std::size_t{8},
                                     std::size_t{32}, std::size_t{100000}}) {
      SCOPED_TRACE("round " + std::to_string(round) + " budget " +
                   std::to_string(budget));
      expect_same_plan(
          rebalancer.plan(cluster, budget),
          reference::plan_naive(cluster, rebalancer.scorer(), budget));
      ++checkpoints;
    }
  }
  EXPECT_EQ(checkpoints, 240U);
  EXPECT_GT(cluster.opened_hosts(), 100U);
  EXPECT_TRUE(sim::audit(cluster).empty());
}

/// Progress scorer that counts every score it computes.
class CountingScorer final : public sched::Scorer {
 public:
  explicit CountingScorer(std::size_t& evals) : evals_(&evals) {}
  [[nodiscard]] double score(const sched::HostLoad& host,
                             const VmSpec& spec) const override {
    ++*evals_;
    return inner_.score(host, spec);
  }
  [[nodiscard]] std::string name() const override { return "counting"; }

 private:
  sched::ProgressScorer inner_;
  std::size_t* evals_;
};

TEST(PlanDifferential, WinnerTreesScoreAFractionOfTheFleetScan) {
  // 2000+ full hosts (eight 4-vCPU/16-GiB VMs at 1:1) thinned to six VMs,
  // plus a sprinkle of other shapes: many drains, each VM rescored against
  // the whole fleet by the old scan. The winner trees score each shape's
  // hosts once per pass plus the hosts a move or rollback touched.
  VCluster cluster("plan-count", kWorker, sched::make_first_fit());
  std::uint64_t next_id = 1;
  std::vector<VmId> flood;
  for (int i = 0; i < 8 * 2048; ++i) {
    const VmId id{next_id++};
    cluster.place(id, make_spec(4, gib(16), 1));
    flood.push_back(id);
  }
  for (std::size_t i = 0; i < flood.size(); ++i) {
    if (i % 8 == 3 || i % 8 == 6) {
      cluster.remove(flood[i]);
    }
  }
  core::SplitMix64 rng(0xc0deULL);
  for (int i = 0; i < 400; ++i) {
    (void)cluster.try_place(
        VmId{next_id++},
        make_spec(static_cast<core::VcpuCount>(1 + rng.below(4)),
                  gib(static_cast<std::int64_t>(1 + rng.below(8))),
                  static_cast<std::uint8_t>(1 + rng.below(3))));
  }
  ASSERT_GE(cluster.opened_hosts(), 2000U);

  std::size_t tree_evals = 0;
  std::size_t scan_evals = 0;
  const sched::Rebalancer trees(std::make_unique<CountingScorer>(tree_evals));
  const sched::Rebalancer scan(std::make_unique<CountingScorer>(scan_evals));
  const sched::MigrationPlan planned = trees.plan(cluster, 64);
  const sched::MigrationPlan naive =
      reference::plan_naive(cluster, scan.scorer(), 64);
  expect_same_plan(planned, naive);
  EXPECT_GT(planned.migrations.size(), 16U);
  EXPECT_GT(scan_evals, 0U);
  EXPECT_LT(tree_evals * 4, scan_evals)
      << tree_evals << " tree scores vs " << scan_evals << " scan scores";
}

TEST(HeatCacheDifferential, ChurnedHeatTicksMatchUncachedSampling) {
  // Mirror-churned clusters, one refreshing heat through the DemandCache,
  // one through the reference's naive per-tick sampling: every host's raw heat must
  // stay bit-identical through >= 10k events of place/remove/fault churn
  // interleaved with heat ticks — and once the churn stops, a further tick
  // must rebuild nothing (heat-crossing epoch bumps are restamped away).
  VCluster cached_cl("cached", kWorker, sched::make_progress_policy());
  VCluster plain_cl("plain", kWorker, sched::make_progress_policy());
  sim::DemandCache cache;
  core::SplitMix64 rng(0x6ea7ULL);
  std::vector<VmId> live;
  std::uint64_t next_id = 1;
  double now = 0.0;
  for (int event = 0; event < 12000; ++event) {
    const std::uint64_t roll = rng.below(20);
    if (roll < 10 || live.empty()) {
      const VmSpec spec = make_spec(
          static_cast<core::VcpuCount>(1 + rng.below(8)),
          gib(static_cast<std::int64_t>(1 + rng.below(16))),
          static_cast<std::uint8_t>(1 + rng.below(4)),
          static_cast<UsageClass>(rng.below(3)));
      const VmId id{next_id++};
      const auto a = cached_cl.try_place(id, spec);
      const auto b = plain_cl.try_place(id, spec);
      ASSERT_EQ(a, b) << "event " << event;
      if (a) {
        live.push_back(id);
      }
    } else if (roll < 15) {
      const std::size_t pick = rng.below(live.size());
      const VmId id = live[pick];
      live[pick] = live.back();
      live.pop_back();
      cached_cl.remove(id);
      plain_cl.remove(id);
    } else if (roll < 16 && cached_cl.opened_hosts() > 0) {
      const HostId host =
          static_cast<HostId>(rng.below(cached_cl.opened_hosts()));
      if (cached_cl.host_phase(host) == sched::HostPhase::kUp) {
        const auto displaced = cached_cl.fail_host(host);
        const auto mirrored = plain_cl.fail_host(host);
        ASSERT_EQ(displaced.size(), mirrored.size());
        for (const auto& [vm, spec] : displaced) {
          std::erase(live, vm);
        }
      } else {
        cached_cl.repair_host(host);
        plain_cl.repair_host(host);
      }
    } else {
      now += 30.0;
      ASSERT_EQ(sim::update_cluster_heat(cached_cl, now, 0.5, 0.25, &cache),
                reference::update_cluster_heat_naive(plain_cl, now, 0.5, 0.25));
      ASSERT_EQ(cached_cl.opened_hosts(), plain_cl.opened_hosts());
      for (HostId h = 0; h < cached_cl.opened_hosts(); ++h) {
        // Exact (not NEAR): bit-identical heat is the contract.
        ASSERT_EQ(cached_cl.host_heat(h), plain_cl.host_heat(h))
            << "event " << event << " host " << h;
      }
    }
    if (event % 2000 == 0) {
      EXPECT_TRUE(sim::audit(cached_cl).empty()) << "event " << event;
    }
  }
  // Quiet ticks: with no membership churn since the last tick, the cache
  // must replay every term list untouched.
  now += 30.0;
  sim::update_cluster_heat(cached_cl, now, 0.5, 0.25, &cache);
  const std::size_t warm = cache.rebuilds();
  now += 30.0;
  sim::update_cluster_heat(cached_cl, now, 0.5, 0.25, &cache);
  EXPECT_EQ(cache.rebuilds(), warm);
  EXPECT_TRUE(sim::audit(cached_cl).empty());
  EXPECT_TRUE(sim::audit(plain_cl).empty());
}

TEST(HeatCacheDifferential, JournalOverflowFallsBackToEpochRebuilds) {
  // More membership deltas between two ticks than the journal holds: the
  // lossy round must degrade to epoch-based rebuilds and still produce
  // bit-identical heat. Then the converse: a journal-sized trickle of
  // removals must be patched in place without a single rebuild.
  VCluster cached_cl("cached", kWorker, sched::make_progress_policy());
  VCluster plain_cl("plain", kWorker, sched::make_progress_policy());
  sim::DemandCache cache;
  std::vector<VmId> live;
  std::uint64_t next_id = 1;
  const auto churn = [&](std::size_t places, std::size_t removes) {
    for (std::size_t i = 0; i < places; ++i) {
      const VmSpec spec = make_spec(2, gib(4), 1, UsageClass::kBursty);
      const VmId id{next_id++};
      ASSERT_EQ(cached_cl.try_place(id, spec), plain_cl.try_place(id, spec));
      live.push_back(id);
    }
    for (std::size_t i = 0; i < removes && !live.empty(); ++i) {
      const VmId id = live[(i * 7) % live.size()];
      std::erase(live, id);
      cached_cl.remove(id);
      plain_cl.remove(id);
    }
  };
  const auto tick = [&](double now) {
    ASSERT_EQ(sim::update_cluster_heat(cached_cl, now, 0.5, 0.25, &cache),
              reference::update_cluster_heat_naive(plain_cl, now, 0.5, 0.25));
    for (HostId h = 0; h < cached_cl.opened_hosts(); ++h) {
      ASSERT_EQ(cached_cl.host_heat(h), plain_cl.host_heat(h)) << "host " << h;
    }
  };
  churn(3000, 1500);
  tick(1800.0);  // first round: pre-arming history is reported lost
  churn(3000, 3000);  // 6000 deltas > the 4096-record journal: overflow
  tick(3600.0);
  // Patch-in-place round: removals alone cannot open hosts, so an exact
  // journal round must not rebuild any term list.
  churn(0, 32);
  const std::size_t warm = cache.rebuilds();
  tick(5400.0);
  EXPECT_EQ(cache.rebuilds(), warm);
  EXPECT_TRUE(sim::audit(cached_cl).empty());
}

// --- acceptance matrix: shards x index x threads, instant and engine --------

workload::Trace make_trace(std::size_t population, std::uint64_t seed) {
  workload::GeneratorConfig cfg;
  cfg.target_population = population;
  cfg.horizon = 2.0 * 24 * 3600;
  cfg.mean_lifetime = 1.0 * 24 * 3600;
  cfg.seed = seed;
  workload::Generator gen(workload::azure_catalog(), workload::make_mix(10, 30, 60),
                          cfg);
  return gen.generate();
}

sim::RebalanceOptions itf_rebalance(bool engine) {
  sim::RebalanceOptions reb;
  reb.interval = 2.0 * 3600;
  reb.budget_per_pass = 16;
  reb.migration.enabled = engine;
  reb.interference.enabled = true;
  reb.interference.heat_interval = 1800.0;
  reb.interference.heat_alpha = 0.5;
  reb.interference.heat_bucket = 0.25;
  reb.interference.heat_weight = 4.0;
  // The generated azure workload runs cooler than the polluter scenario;
  // a low threshold keeps the pass firing so the matrix exercises it.
  reb.interference.threshold = 1.02;
  reb.interference.evictions_per_pass = 4;
  return reb;
}

TEST(InterferenceAcceptance, BitIdenticalAcrossShardsIndexThreads) {
  sim::ScopedDebugAudit audit_every_event;
  const workload::Trace trace = make_trace(120, 42);
  const auto policy = [] { return sched::make_interference_policy(4.0); };
  const auto make_dc = [&policy](bool index) {
    Datacenter dc = Datacenter::shared_sharded(kWorker, policy, 4);
    dc.set_index_enabled(index);
    return dc;
  };
  for (const bool engine : {false, true}) {
    SCOPED_TRACE(engine ? "engine" : "instant");
    const sim::RebalanceOptions reb = itf_rebalance(engine);
    sim::ShardOptions options;
    options.rebalance = reb;
    Datacenter reference_dc = make_dc(true);
    const RunResult reference = sim::replay_sharded(reference_dc, trace, options);
    ASSERT_GT(reference.heat_updates, 0U);
    ASSERT_GT(reference.itf_passes, 0U);
    ASSERT_GT(reference.itf_hot_hosts, 0U);
    ASSERT_GT(reference.itf_evictions, 0U);
    expect_counter_identities(reference);
    if (engine) {
      EXPECT_EQ(reference.itf_applied, 0U);
      EXPECT_EQ(reference.itf_requested, reference.itf_evictions);
    } else {
      EXPECT_EQ(reference.itf_requested, 0U);
    }
    EXPECT_TRUE(audit(reference_dc).empty());
    for (const std::size_t shards :
         {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
      for (const bool index : {true, false}) {
        for (const std::size_t threads :
             {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
          options.shards = shards;
          options.threads = threads;
          Datacenter dc = make_dc(index);
          const RunResult result = sim::replay_sharded(dc, trace, options);
          SCOPED_TRACE("shards " + std::to_string(shards) + " index " +
                       std::to_string(index) + " threads " +
                       std::to_string(threads));
          expect_identical(reference, result);
          EXPECT_TRUE(audit(dc).empty());
        }
      }
    }
  }
}

TEST(InterferenceAcceptance, DisabledLoopLeavesCountersAtZero) {
  const workload::Trace trace = make_trace(60, 7);
  sim::RebalanceOptions reb;
  reb.interval = 2.0 * 3600;
  Datacenter dc = Datacenter::shared(kWorker, sched::make_progress_policy);
  const RunResult result = sim::replay(dc, trace, reb);
  EXPECT_EQ(result.heat_updates, 0U);
  EXPECT_EQ(result.itf_passes, 0U);
  EXPECT_EQ(result.itf_evictions, 0U);
}

// --- QoS: the cache-polluter scenario ---------------------------------------

// A two-day trace where long-lived steady "victim" VMs share 3:1 hosts with
// heavyweight polluters arriving once the fleet is warm. Mirrors
// scenarios/polluter_rebalance.scn.
workload::Trace polluter_trace(std::uint64_t seed) {
  core::SplitMix64 rng(seed);
  std::vector<core::VmInstance> vms;
  std::uint64_t id = 1;
  const core::SimTime horizon = 2.0 * 24 * 3600;
  for (int i = 0; i < 28; ++i) {  // victims: small steady 3:1
    core::VmInstance vm;
    vm.id = VmId{id++};
    vm.spec = make_spec(4, gib(4), 3, UsageClass::kSteady);
    vm.arrival = rng.uniform(0.0, 1800.0);
    vm.departure = horizon - rng.uniform(0.0, 1800.0);
    vms.push_back(vm);
  }
  for (int i = 0; i < 6; ++i) {  // polluters: heavy steady 3:1, arrive warm
    core::VmInstance vm;
    vm.id = VmId{id++};
    vm.spec = make_spec(16, gib(8), 3, UsageClass::kSteady);
    vm.arrival = 3600.0 + rng.uniform(0.0, 1800.0);
    vm.departure = horizon - rng.uniform(0.0, 1800.0);
    vms.push_back(vm);
  }
  return workload::Trace(std::move(vms));
}

TEST(InterferenceQoS, PolluterRebalanceBeatsProgressOnlyOnP90Inflation) {
  // Equal PM count is enforced with a hard fleet cap, so the comparison is
  // purely about *where* load sits, not about buying more hardware. The
  // interference-aware run must strictly beat the progress-only run on p90
  // response inflation, for every seed.
  const std::size_t fleet_cap = 4;
  const perf::ContentionModel model;
  const auto run = [&](const workload::Trace& trace, bool interference) {
    Datacenter dc =
        interference
            ? Datacenter::shared(kWorker,
                                 [] { return sched::make_interference_policy(4.0); })
            : Datacenter::shared(kWorker, sched::make_progress_policy);
    dc.set_max_hosts_per_cluster(fleet_cap);
    sim::RebalanceOptions reb;
    reb.interval = 2.0 * 3600;
    reb.budget_per_pass = 16;
    if (interference) {
      reb.interference.enabled = true;
      reb.interference.heat_interval = 900.0;
      reb.interference.heat_alpha = 0.5;
      reb.interference.heat_bucket = 0.25;
      reb.interference.heat_weight = 4.0;
      reb.interference.threshold = 1.05;
      reb.interference.evictions_per_pass = 4;
    }
    sim::UsageMonitor monitor(900.0);
    monitor.track_inflation(&model);
    const RunResult result = sim::replay(dc, trace, reb, &monitor);
    return std::pair<RunResult, sim::UsageReport>(result, monitor.report());
  };
  for (const std::uint64_t seed : {11ULL, 23ULL, 47ULL}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const workload::Trace trace = polluter_trace(seed);
    const auto [base, base_report] = run(trace, false);
    const auto [itf, itf_report] = run(trace, true);
    EXPECT_EQ(base.opened_pms, itf.opened_pms);  // equal PM count
    ASSERT_GT(base_report.inflation_samples, 0U);
    ASSERT_GT(itf_report.inflation_samples, 0U);
    EXPECT_GT(itf.itf_evictions, 0U);
    EXPECT_LT(itf_report.p90_inflation, base_report.p90_inflation);
    // Determinism: the same seed reproduces the exact same comparison.
    const auto [base2, base_report2] = run(trace, false);
    const auto [itf2, itf_report2] = run(trace, true);
    EXPECT_EQ(base_report2.p90_inflation, base_report.p90_inflation);
    EXPECT_EQ(itf_report2.p90_inflation, itf_report.p90_inflation);
    expect_identical(base, base2);
    expect_identical(itf, itf2);
  }
}

}  // namespace
}  // namespace slackvm
