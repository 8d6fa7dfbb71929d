// Effective-usage monitoring during a replay.
//
// Oversubscription exists because *usage* sits far below *allocation* (§I:
// "hosted VMs are unlikely to fully utilize all their allocated resources
// simultaneously"). This monitor samples the runnable CPU demand of every
// host — derived from each hosted VM's deterministic usage signal — and
// aggregates: how hot allocated cores actually run, the whole fleet's
// effective utilization, and overload exposure (a host whose demand exceeds
// its physical capacity is time-slicing, the §II-A overload situation).
//
// The per-host demand cache (DemandCache) and the EWMA feeder
// (update_cluster_heat) close the interference loop: they turn the same
// usage signals into the per-host *heat* (sched::HostLoad::heat) that
// sched::InterferenceScorer and the polluter pass consume.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <memory_resource>
#include <vector>

#include "core/list_pool.hpp"
#include "core/units.hpp"
#include "sim/datacenter.hpp"
#include "workload/usage.hpp"

namespace slackvm::perf {
class ContentionModel;
}  // namespace slackvm::perf

namespace slackvm::sim {

/// One cluster-wide sample.
struct UsageSample {
  core::SimTime time = 0;
  double demand_cores = 0.0;       ///< sum over VMs of vcpus * usage(t)
  core::CoreCount alloc_cores = 0;  ///< vNode-allocated physical cores
  core::CoreCount capacity_cores = 0;  ///< cores of all opened PMs
  std::size_t overloaded_hosts = 0;    ///< hosts with demand > capacity
  std::size_t opened_hosts = 0;
  /// Per-host runnable demand per physical core (q), in datacenter host
  /// iteration order (clusters, then hosts) — the input of the perf::
  /// contention curve per host.
  std::vector<double> host_q;
};

/// Per-host instantaneous demand breakdown of one cluster.
struct HostUsage {
  double demand_cores = 0.0;  ///< sum over the host's VMs of vcpus * usage(t)
  core::CoreCount capacity_cores = 0;  ///< physical cores of the PM
};

/// Aggregated usage statistics over a run.
struct UsageReport {
  std::size_t samples = 0;
  /// Mean of demand / capacity over samples (effective fleet utilization).
  double avg_fleet_utilization = 0.0;
  /// Mean of demand / alloc over samples (how hot allocated cores run);
  /// > 1 means oversubscribed cores are contended on average.
  double avg_alloc_heat = 0.0;
  /// Integral of overloaded-host time, in host-hours.
  double overload_host_hours = 0.0;
  /// Peak fleet utilization observed.
  double peak_fleet_utilization = 0.0;
  /// p90 of per-host-sample response inflation (contention model applied to
  /// every host_q of every sample); 0 unless track_inflation() was armed.
  double p90_inflation = 0.0;
  /// Host-samples behind p90_inflation.
  std::size_t inflation_samples = 0;
};

/// Take one sample of the datacenter's demand at time `t`. Each host's
/// demand sums its VMs in ascending VmId order, as DemandCache does.
[[nodiscard]] UsageSample sample_usage(const Datacenter& dc, core::SimTime t);

/// Incremental demand terms behind update_cluster_heat: per host, the
/// cached (ascending-VmId) list of vcpus x UsageSignal terms whose sum is
/// exactly the naive per-VM demand sum (tests/reference/heat.hpp). A heat
/// tick re-derives a host's term list (one walk of the host's ascending VM
/// vector, one UsageSignal per VM) only when its epoch moved since the last
/// tick; every other host just replays its cached terms, in the same stored
/// order and with the same float ops, so the result is bit-identical to the
/// naive sample.
///
/// Epoch protocol: sample() rebuilds on epoch mismatch; restamp() adopts
/// the post-set_heat epochs without rebuilding (the EWMA write itself bumps
/// epochs on bucket crossings, which is heat churn, not membership churn).
/// Ids dropped by a shrink of the hosts vector (rolled-back openings) are
/// discarded with their entries, so a later regrow starts from a clean
/// rebuild.
class DemandCache {
 public:
  DemandCache();
  DemandCache(DemandCache&&) noexcept = default;
  /// Not memberwise: that would replace pool_ while the term lists being
  /// replaced still hold its memory.
  DemandCache& operator=(DemandCache&& other) noexcept;
  ~DemandCache() = default;

  /// Per-host demand breakdown at `t`, indexed by HostId: each host's
  /// demand sums its VMs' vcpus x usage(t) in ascending VmId order (the
  /// order HostState::vms() lists them), which pins the floating-point
  /// result. The reference is invalidated by the next sample() call.
  ///
  /// The first call arms the cluster's membership journal; from then on the
  /// term lists are patched in place from the exact place/remove/migrate
  /// deltas, so a churned host costs one sorted insert/erase instead of a
  /// full re-derivation. Whenever the journal reports loss (overflow,
  /// pre-arming history) the cache falls back to epoch-based invalidation
  /// for that round — the same rebuild-on-dirty protocol, just coarser.
  [[nodiscard]] const std::vector<HostUsage>& sample(sched::VCluster& cluster,
                                                     core::SimTime t);

  /// Adopt the hosts' current epochs without rebuilding. Only sound while
  /// membership is unchanged since the last sample() — i.e. right after the
  /// set_heat loop of a heat tick.
  void restamp(const sched::VCluster& cluster);

  /// Term-list re-derivations so far (differential/telemetry hook).
  [[nodiscard]] std::size_t rebuilds() const noexcept { return rebuilds_; }

 private:
  struct Term {
    core::VmId vm{0};    ///< sort/patch key (terms stay ascending-VmId)
    double vcpus = 0.0;  ///< static_cast<double>(spec.vcpus), as the naive sum casts
    workload::UsageSignal signal;
  };
  struct Entry {
    explicit Entry(std::pmr::memory_resource* pool) : terms(pool) {}
    std::uint64_t epoch = 0;
    bool present = false;
    std::pmr::vector<Term> terms;  ///< ascending VmId, drawn from pool_
  };

  /// Patch one journaled delta into the cached term lists; deltas for hosts
  /// without a present entry are ignored (the rebuild re-derives them).
  void apply(const sched::MembershipDelta& delta);

  /// The pool the term lists draw from (core::ListPool), so deriving the
  /// lists of a freshly opened fleet costs a few arena buffers rather than
  /// an allocation per host. Held by pointer, so its address survives moves
  /// of the cache (a shard keeps its caches in a vector); declared before
  /// entries_, so it is destroyed after them.
  std::unique_ptr<core::ListPool> pool_;
  std::vector<Entry> entries_;
  std::vector<HostUsage> usage_;
  std::vector<sched::MembershipDelta> log_;  ///< journal drain buffer
  std::size_t rebuilds_ = 0;
};

/// Refresh every host's interference-heat EWMA from the instantaneous
/// demand breakdown:  heat' = alpha * (demand / cores) + (1 - alpha) * heat,
/// quantized into `bucket_width` buckets (VCluster::set_host_heat — the
/// epoch, and with it the placement index, only reacts to bucket
/// crossings). Returns the number of hosts refreshed.
///
/// The demand breakdown comes from DemandCache::sample: only hosts whose
/// membership changed re-derive their term lists, and the cache is
/// restamped afterwards. A replay shard passes one cache per cluster and
/// tick after tick, which is what makes a warm tick allocation-free;
/// nullptr samples through a call-local cache, the same result at the cost
/// of re-deriving every host. The cache drains the cluster's membership
/// journal, which has one reader: a cluster's ticks must all use the same
/// cache (or all pass nullptr), or a cache would miss the deltas another
/// one took.
std::size_t update_cluster_heat(sched::VCluster& cluster, core::SimTime t,
                                double alpha, double bucket_width,
                                DemandCache* cache = nullptr);

/// Accumulates samples into a report.
class UsageMonitor {
 public:
  /// `interval` seconds between samples (> 0).
  explicit UsageMonitor(core::SimTime interval);

  [[nodiscard]] core::SimTime interval() const noexcept { return interval_; }

  /// Arm per-host response-inflation tracking: every recorded sample's
  /// host_q values are mapped through `model` (borrowed, may not dangle)
  /// and the report gains their p90. Pass nullptr to disarm.
  void track_inflation(const perf::ContentionModel* model) { model_ = model; }

  void record(const UsageSample& sample);

  [[nodiscard]] UsageReport report() const;

 private:
  core::SimTime interval_;
  UsageReport report_;
  double fleet_sum_ = 0.0;
  double heat_sum_ = 0.0;
  std::size_t heat_samples_ = 0;
  const perf::ContentionModel* model_ = nullptr;
  std::vector<double> inflations_;
};

}  // namespace slackvm::sim
