// Live-migration rebalancer (the future work of paper §VII-B2a:
// "considering live migration to further balance the packing of our vNodes
// is left as a future work").
//
// Strategy: drain-and-consolidate. The rebalancer repeatedly tries to empty
// the host with the fewest VMs by migrating each of its VMs to another open
// host (chosen by a scorer — the Algorithm-2 progress score by default). A
// host is drained atomically: if any of its VMs has no feasible target the
// whole drain is abandoned, so the plan never leaves a host half-emptied
// for nothing. Planning runs against a copy of the cluster state; the
// caller applies the plan with apply_plan().
// A second, orthogonal pass — plan_interference — closes the QoS loop: it
// picks the hottest host whose contention inflation (perf::ContentionModel
// applied to the host's heat EWMA) exceeds a threshold and evicts the
// heaviest contributor toward a cool host (Angelou et al.'s
// interference-aware rescheduling cycle: monitor → decide → live-migrate).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "sched/scorer.hpp"
#include "sched/vcluster.hpp"

namespace slackvm::perf {
class ContentionModel;
}  // namespace slackvm::perf

namespace slackvm::sched {

/// One planned live migration.
struct Migration {
  core::VmId vm{};
  HostId from = 0;
  HostId to = 0;
};

struct MigrationPlan {
  std::vector<Migration> migrations;
  std::size_t hosts_emptied = 0;
  /// Hosts found above the interference threshold (plan_interference only).
  std::size_t hot_hosts = 0;

  [[nodiscard]] bool empty() const noexcept { return migrations.empty(); }
};

/// Knobs of the interference loop: how heat is accumulated and quantized
/// (consumed by sim::update_cluster_heat and HostState::set_heat), how the
/// InterferenceScorer weighs it, and when the polluter pass fires. Lives
/// here so sim::RebalanceOptions and the scenario/CLI layers share one
/// source of truth.
struct InterferenceOptions {
  bool enabled = false;
  /// Seconds between heat EWMA refreshes (replay schedules one per cluster).
  double heat_interval = 900.0;
  /// EWMA smoothing factor in (0, 1]: heat' = alpha*q + (1-alpha)*heat.
  double heat_alpha = 0.3;
  /// Quantization bucket width (epoch bumps only on bucket crossings).
  double heat_bucket = 0.25;
  /// InterferenceScorer penalty weight per unit of quantized heat.
  double heat_weight = 4.0;
  /// Polluter pass fires on hosts whose contention_inflation(heat) exceeds
  /// this (1.0 == no inflation; Table IV's 2:1 operating point is ~1.26).
  double threshold = 1.25;
  /// Max polluter evictions planned per rebalance pass.
  std::size_t evictions_per_pass = 4;

  /// Validate the knobs (throws core::SlackError); no-op when disabled.
  void validate() const;
};

class Rebalancer {
 public:
  /// Uses the given scorer to pick migration targets; defaults to the
  /// Algorithm-2 progress scorer (held by value: a default Rebalancer
  /// allocates nothing).
  explicit Rebalancer(std::unique_ptr<Scorer> scorer = nullptr)
      : custom_(std::move(scorer)) {}

  /// Plan up to `max_migrations` migrations on the cluster's current state.
  /// The cluster is not modified.
  ///
  /// Copies every HostLoad into the reusable PlanScratch, rolls failed
  /// drains back through a per-attempt undo log, picks sources from a lazy
  /// vm-count min-heap and targets from one winner tree per spec class. The
  /// plan equals the naive fleet-copy pass move for move as long as the
  /// scorer never returns NaN (tests/reference/planners.hpp holds that pass;
  /// PlanDifferential.* compares them).
  [[nodiscard]] MigrationPlan plan(const VCluster& cluster,
                                   std::size_t max_migrations) const;

  /// Polluter-detection pass. Repeatedly picks the hottest untried UP host
  /// with >= 2 VMs whose contention inflation model(heat) exceeds
  /// options.threshold, and plans the eviction of its heaviest contributor
  /// (max expected core demand: vcpus x mean usage, ties to the lowest
  /// VmId) toward the coolest UP host that fits it and is strictly cooler
  /// than the source (ties to the lowest HostId). Scratch heats are
  /// adjusted after each planned move so one pass does not dogpile a single
  /// cool target. The cluster is not modified; fully deterministic.
  ///
  /// Hottest/coolest selection streams the cluster's HeatIndex buckets
  /// (hosts this pass already shifted are overlaid from the scratch loads).
  /// The plan equals the naive fleet-copy scan's (tests/reference/
  /// planners.hpp; InterferenceDifferential.* compares them).
  [[nodiscard]] MigrationPlan plan_interference(
      const VCluster& cluster, const perf::ContentionModel& model,
      const InterferenceOptions& options) const;

  /// Execute a plan. Returns the number of migrations actually performed
  /// (a migration may be skipped if the cluster changed since planning).
  static std::size_t apply_plan(VCluster& cluster, const MigrationPlan& plan);

  /// The scorer picking drain targets.
  [[nodiscard]] const Scorer& scorer() const noexcept {
    if (custom_ != nullptr) {
      return *custom_;
    }
    return progress_;
  }

 private:
  /// Reusable planning state. One pass copies every host's HostLoad and VM
  /// count in (into retained capacity — no allocations once warm) and plans
  /// against the copies; rollback replays a per-attempt undo log instead of
  /// re-copying the fleet. The log also threads, per host, the moves this
  /// pass made *onto* it (`last_gain`), so source enumeration stays
  /// live-map ∪ gained (a host is drained as a source at most once, so
  /// nothing ever needs to be subtracted).
  ///
  /// Drain targets come from one winner tree per spec class met this pass:
  /// leaf h holds score(loads[h], spec) when h could take the spec (not the
  /// drain source, not emptied, can_host), each inner node the better
  /// child — higher score, ties to the lower HostId — so the root is the
  /// naive scan's pick. Every host whose leaf may have changed is appended
  /// to `dirty`; a class replays the log entries past its cursor before it
  /// answers (see DESIGN.md §5 "Consolidation planner").
  struct PlanScratch {
    static constexpr HostId kNoHost = ~HostId{0};
    static constexpr std::size_t kNoMove = ~std::size_t{0};

    /// One tentative move, reversed in LIFO order on a failed drain; the
    /// consolidation pass's committed moves are its plan.
    struct Undo {
      core::VmId vm{};
      core::VmSpec spec;
      HostId from = 0;
      HostId to = 0;
      std::size_t prev_gain = kNoMove;  ///< the previous move onto `to`
    };
    /// Lazy min-heap entry: valid while vm_count[host] == count.
    struct CountEntry {
      std::uint32_t count = 0;
      HostId host = 0;
    };
    /// Winner-tree node: the best drain target in a subtree for one spec
    /// class, or host == kNoHost when no host there can take it.
    struct Winner {
      double score = 0.0;
      HostId host = kNoHost;
    };
    /// A spec class — one (vcpus, mem_mib, level) shape, usage ignored as
    /// in PlacementIndex — met this pass. Its tree is the 2 * tree_width
    /// nodes at winners[slot * 2 * tree_width] (root at offset 1, leaf h at
    /// tree_width + h); dirty[0, synced) is already applied to it.
    struct SpecClass {
      core::VmSpec spec;
      std::size_t synced = 0;
    };

    // Copied from the cluster's hosts at the top of every pass.
    std::vector<HostLoad> loads;
    std::vector<std::uint32_t> vm_count;

    // Per-pass planning state (capacity reused across passes).
    std::vector<std::uint8_t> attempted;
    std::vector<std::uint8_t> emptied;
    std::vector<std::uint8_t> shifted;  ///< load diverged from the index view
    std::vector<HostId> shifted_list;
    std::vector<std::size_t> last_gain;  ///< per host: latest move onto it
    std::vector<HostedVm> gained_sorted;  ///< one source's gains, by VmId
    std::vector<HostedVm> source_vms;
    std::vector<Undo> undo;
    std::vector<CountEntry> count_heap;
    std::vector<SpecClass> classes;  ///< this pass's, in first-met order
    std::vector<Winner> winners;     ///< pooled trees; grows geometrically
    std::vector<HostId> dirty;       ///< hosts whose leaves may be stale
    std::size_t tree_width = 1;      ///< leaves per tree: bit_ceil(size())
    HostId drain_source = kNoHost;   ///< excluded from every tree

    /// Min-heap "after" relation: lowest (count, host) surfaces first —
    /// exactly the naive scan's fewest-VMs-ties-to-lowest-id candidate.
    static bool count_entry_after(const CountEntry& a,
                                  const CountEntry& b) noexcept {
      return a.count != b.count ? a.count > b.count : a.host > b.host;
    }

    void load(std::span<const HostState> hosts);
    [[nodiscard]] std::size_t size() const noexcept { return loads.size(); }
    /// Shift one spec between two hosts' loads (HostLoad::book/unbook, the
    /// arithmetic of HostState::add/remove).
    void shift(const core::VmSpec& spec, HostId from, HostId to) noexcept;
    /// Apply one tentative move to the loads; logs an Undo.
    void move_vm(core::VmId vm, const core::VmSpec& spec, HostId from, HostId to);
    /// Reverse every move logged past `mark`, restoring loads and gains.
    void roll_back_to(std::size_t mark);
    /// Live-map ∪ gained membership of `source`, ascending VmId: a merge
    /// of the host's own ascending VMs with its sorted gains.
    void collect_source_vms(const HostState& source);
    void mark_shifted(HostId host);

    /// Make `source` the host every tree excludes; logs it and the previous
    /// source (whose exclusion ends, and whose load a drain may have
    /// changed).
    void begin_drain(HostId source);
    /// Best target for `spec` — the class's tree root, seeded from the
    /// loads on first use this pass and brought up to date from `dirty`.
    [[nodiscard]] std::optional<HostId> best_target(const core::VmSpec& spec,
                                                    const Scorer& scorer);
    [[nodiscard]] Winner leaf(HostId host, const core::VmSpec& spec,
                              const Scorer& scorer) const;
    /// Higher score wins; ties (and a missing right side) keep the left,
    /// lower-id subtree — the naive ascending strict-> scan's order.
    [[nodiscard]] static Winner better(const Winner& left,
                                       const Winner& right) noexcept {
      if (right.host == kNoHost ||
          (left.host != kNoHost && !(right.score > left.score))) {
        return left;
      }
      return right;
    }
  };

  std::unique_ptr<Scorer> custom_;
  ProgressScorer progress_;
  /// Planning never mutates the cluster, so Rebalancer stays const at the
  /// call sites; the scratch is a per-pass cache. Not synchronized: replay()
  /// owns one serial Rebalancer and every shard owns its own, so a scratch
  /// is only ever used by one thread.
  mutable PlanScratch scratch_;
};

}  // namespace slackvm::sched
