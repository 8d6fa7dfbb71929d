// Elastic cluster of hosts driven by a placement policy.
//
// In the paper's protocol (§VII-B1) a cluster starts empty and a new PM is
// opened only when no open PM passes the capacity filter; the minimal
// cluster size for a policy is the number of PMs ever opened. A VCluster
// implements exactly that. In baseline mode the datacenter holds one
// VCluster per oversubscription level (dedicated clusters); in SlackVM mode
// it holds a single shared VCluster whose hosts co-host all levels.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/list_pool.hpp"
#include "sched/filter.hpp"
#include "sched/fleet.hpp"
#include "sched/heat_index.hpp"
#include "sched/host_state.hpp"
#include "sched/placement_index.hpp"
#include "sched/policy.hpp"
#include "sched/vm_directory.hpp"

namespace slackvm::sched {

/// One journaled membership mutation (see VCluster::arm_membership_log).
/// kAdd/kRemove carry the VM; kWipe marks a host whose whole population
/// changed at once (fail_host evictions) — consumers drop their cached view
/// of that host and re-derive it.
struct MembershipDelta {
  enum class Op : std::uint8_t { kAdd, kRemove, kWipe };
  Op op = Op::kAdd;
  HostId host = 0;
  core::VmId vm{0};        ///< kAdd/kRemove
  core::VmSpec spec;       ///< kAdd only
};

class VCluster {
 public:
  VCluster(std::string name, core::Resources host_config,
           std::unique_ptr<PlacementPolicy> policy, double mem_oversub = 1.0);

  /// Heterogeneous fleet: the i-th opened PM follows the fleet's cycle.
  VCluster(std::string name, FleetSpec fleet, std::unique_ptr<PlacementPolicy> policy,
           double mem_oversub = 1.0);

  VCluster(VCluster&&) noexcept = default;
  /// Not memberwise: that would replace pool_ while the hosts being
  /// replaced still hold its memory (see pool_).
  VCluster& operator=(VCluster&& other) noexcept;
  ~VCluster() = default;

  /// Install an additional hard-constraint filter applied to every
  /// placement (paper §II-B). Pass nullptr to clear. The incremental index
  /// only models the built-in capacity filter, so it is dropped while an
  /// extra filter is installed (placements fall back to the naive scan)
  /// and lazily rebuilt once the filter is cleared.
  void set_filter(std::unique_ptr<Filter> filter) {
    filter_ = std::move(filter);
    index_.reset();
  }

  /// Incremental candidate index (placement_index.hpp), on by default:
  /// try_place consults it instead of the naive O(hosts) policy scan
  /// (PlacementPolicy::select), with provably identical selection
  /// (differential-tested). This hook chooses between those two placement
  /// paths only; the planners and the heat index do not read it. Disabling
  /// it is the test and bench hook that runs the policy scan; re-enabling
  /// rebuilds the index from live state.
  void set_index_enabled(bool enabled) {
    index_enabled_ = enabled;
    if (!enabled) {
      index_.reset();
    }
  }
  [[nodiscard]] bool index_enabled() const noexcept { return index_enabled_; }

  /// Return to the state of a freshly constructed cluster (same name,
  /// fleet, memory ratio and policy; no hosts, no filter, no host cap,
  /// index on, no heat width pinned, membership journal disarmed) while
  /// keeping every container's storage. The hosts are parked, not
  /// destroyed: opening a host revives a parked one in place
  /// (HostState::revive), so its VM vector and reservation map keep their
  /// capacity. Every cache tagged with host epochs is emptied, since
  /// revived hosts restart at epoch 0. Placement is a pure function of
  /// host state, so a reset cluster places exactly like a new one.
  void reset();

  /// Pre-size the host containers for an expected number of VMs (a
  /// trace-size hint). Purely a capacity hint — never required. The VM
  /// directory ignores it: a trace's row count overstates the live VMs by
  /// the ratio of its span to the mean lifetime, so the table grows with
  /// the live population instead.
  void reserve(std::size_t expected_vms);

  /// Live-migrate a VM to a specific open host; returns false (no state
  /// change) when the target cannot host it. Throws for unknown VMs/hosts.
  bool migrate(core::VmId vm, HostId to);

  // --- in-flight migration reservations (sim/migration.hpp) ----------------

  /// Book migration capacity for `vm` on `host`: returns false (no state
  /// change) unless the host is UP and the spec fits on top of everything
  /// already hosted *and* reserved there. The booking is visible to every
  /// placement path (can_host, the placement index, the running totals)
  /// until released or committed. Throws for unknown hosts.
  bool try_reserve(HostId host, core::VmId vm, const core::VmSpec& spec);

  /// Roll back a reservation booked earlier; throws when absent.
  void release_reservation(HostId host, core::VmId vm);

  /// Commit an in-flight migration: atomically swap the reservation on `to`
  /// for the VM itself and detach it from its source. The reserved capacity
  /// is exact, so the move cannot fail; throws when `vm` has no reservation
  /// on `to` or is not placed here.
  void commit_migration(core::VmId vm, HostId to);

  /// Place a VM, opening a new host when no open one fits. Throws when the
  /// VM cannot fit even on an empty host (spec larger than the PM) or when
  /// the host cap is exhausted.
  HostId place(core::VmId id, const core::VmSpec& spec);

  /// Like place(), but returns std::nullopt (state unchanged) instead of
  /// throwing when the VM cannot be placed within the host cap.
  std::optional<HostId> try_place(core::VmId id, const core::VmSpec& spec);

  /// Cap the number of PMs this cluster may open (fixed-fleet mode); by
  /// default growth is unbounded (the paper's elastic protocol).
  void set_max_hosts(std::size_t max_hosts) { max_hosts_ = max_hosts; }
  [[nodiscard]] std::optional<std::size_t> max_hosts() const noexcept {
    return max_hosts_;
  }

  /// Remove a VM placed earlier; throws for unknown ids. Emptied hosts stay
  /// open (they were provisioned) and are reused by later placements.
  void remove(core::VmId id);

  /// Like remove(), but returns false (state unchanged) for a VM that is
  /// not placed here — one directory probe whether or not it is.
  bool try_remove(core::VmId id);

  // --- availability lifecycle (sim/fault.hpp drives these) -----------------

  /// Current phase of an opened host; throws for unknown hosts.
  [[nodiscard]] HostPhase host_phase(HostId host) const;

  /// UP → DRAINING: stop admitting VMs on `host` while the existing ones are
  /// migrated off (migrate_off) or depart naturally. No-op when already
  /// draining; throws for unknown or failed hosts.
  void drain_host(HostId host);

  /// Any phase → FAILED: evict every VM the host ran and return the victims
  /// in ascending VmId order (the deterministic evacuation order, which is
  /// the host's own VM order). The host stays in the fleet (opened_hosts is
  /// unchanged) but admits nothing until repaired. Throws for unknown hosts;
  /// no-op victims list when already failed.
  [[nodiscard]] std::vector<HostedVm> fail_host(HostId host);

  /// DRAINING|FAILED → UP: the host admits placements again. No-op when
  /// already up; throws for unknown hosts.
  void repair_host(HostId host);

  /// Move as many VMs as possible off a draining host through the normal
  /// policy/index placement path (ascending VmId order). VMs with no
  /// feasible target are restored in place and returned by a later
  /// fail_host. Returns the number of VMs moved. Throws unless the host is
  /// draining.
  std::size_t migrate_off(HostId host);

  // --- interference heat (sim/usage_monitor.hpp feeds it) ------------------

  /// Update a host's interference-heat EWMA through the index-safe funnel:
  /// the indexes are touched only when the quantized bucket crossed (== the
  /// epoch bumped). A cluster quantizes every host with one width: the
  /// first call pins `bucket_width`, and a width <= 0 or different from the
  /// pinned one throws, as does an unknown host; reset() clears the pin.
  /// The heat index's visit order is heat order only under one width.
  void set_host_heat(HostId host, double heat, double bucket_width);

  /// Raw heat of an opened host; throws for unknown hosts.
  [[nodiscard]] double host_heat(HostId host) const;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const PlacementPolicy& policy() const noexcept { return *policy_; }

  /// Number of PMs ever opened == minimal cluster size for this policy.
  [[nodiscard]] std::size_t opened_hosts() const noexcept { return hosts_.size(); }

  [[nodiscard]] const std::vector<HostState>& hosts() const noexcept { return hosts_; }

  [[nodiscard]] std::size_t vm_count() const noexcept { return placements_.size(); }

  /// True when `vm` is currently placed here.
  [[nodiscard]] bool contains(core::VmId vm) const noexcept {
    return placements_.contains(vm);
  }

  /// Host currently running `vm`; throws for unknown ids.
  [[nodiscard]] HostId host_of(core::VmId vm) const;

  /// Aggregate allocation over all opened hosts — O(1): a running total
  /// kept by note(), which sim::audit checks against a recomputation.
  [[nodiscard]] const core::Resources& total_alloc() const noexcept {
    return total_alloc_;
  }

  /// Aggregate capacity over all opened hosts — O(1) (see total_alloc).
  [[nodiscard]] const core::Resources& total_config() const noexcept {
    return total_config_;
  }

  /// Hosts currently running at least one VM — O(1) (see total_alloc).
  [[nodiscard]] std::size_t nonempty_hosts() const noexcept { return nonempty_; }

  /// The quantized-heat bucket index serving plan_interference, its dirty
  /// log replayed. Created lazily on first use, whatever set_index_enabled
  /// says; logically const (the member is a mutable cache).
  [[nodiscard]] const HeatIndex& synced_heat_index() const;

  /// The placement index serving try_place, or nullptr while placements
  /// take the naive scan (or before the first one).
  [[nodiscard]] const PlacementIndex* placement_index() const noexcept {
    return index_.get();
  }

  /// Replay the placement index's whole dirty log now (batched at shard
  /// barriers so per-event touches stay O(1) appends). No-op while naive.
  void flush_index();

  // --- membership journal (sim::DemandCache rides it) -----------------------

  /// Start journaling every membership mutation (place/remove/migrate/
  /// commit/fail) as MembershipDelta records. Idempotent; journaling stays
  /// on for the cluster's lifetime. Records appended before arming are
  /// reported as lost by the first take_membership_log.
  void arm_membership_log() { membership_armed_ = true; }

  /// Move the journaled deltas since the last take into `out` (replacing
  /// its contents; capacities are swapped, so a reused `out` keeps the
  /// steady state allocation-free). Returns false when records were dropped
  /// (pre-arming mutations or journal overflow) — the deltas in `out` are
  /// then incomplete and the consumer must fall back to full invalidation.
  bool take_membership_log(std::vector<MembershipDelta>& out) {
    out.swap(membership_log_);
    membership_log_.clear();
    const bool complete = !membership_lost_;
    membership_lost_ = false;
    return complete;
  }

 private:
  /// The index serving the current placement path, or nullptr when the
  /// naive scan must be used (index disabled, extra filter installed, or
  /// the policy needs full candidate lists). Created lazily.
  [[nodiscard]] PlacementIndex* active_index();

  /// Report a host epoch bump to the indexes (no-op while naive).
  void touch(HostId host) {
    if (index_ != nullptr) {
      index_->touch(host);
    }
    if (heat_index_ != nullptr) {
      heat_index_->touch(host);
    }
  }

  /// Bound both indexes' dirty logs: touch() is an O(1) append, and the
  /// logs are otherwise replayed only by a polluter pass (heat index) or a
  /// select() (placement index). Epoch bumps with neither in between (heat
  /// crossings, phase changes, a run of departures) must not grow them
  /// forever. The placement index drops its candidates instead of
  /// replaying the log: each class re-seeds by one O(hosts) scan on its
  /// next select, cheaper than replaying 8·hosts entries into every class,
  /// and its heaps do not fill with entries for epochs no select will see.
  /// Only called from settled contexts (never inside try_place's
  /// opening-rollback window), so a sync here can never file a host that
  /// is about to be parked.
  void bound_logs() {
    const std::size_t bound = 8 * hosts_.size() + 1024;
    if (heat_index_ != nullptr && heat_index_->dirty_size() > bound) {
      heat_index_->sync(hosts_);
    }
    if (index_ != nullptr && index_->dirty_size() > bound) {
      index_->reset();
    }
  }

  /// A host's share of the running totals, taken before a mutation so that
  /// note(host, before) can apply the difference.
  struct Footprint {
    core::Resources alloc;
    bool nonempty = false;
  };
  [[nodiscard]] Footprint footprint(HostId host) const noexcept {
    return Footprint{hosts_[host].alloc(), !hosts_[host].empty()};
  }

  /// Every epoch bump of hosts_[host] funnels through here: report it to
  /// the indexes and keep their logs bounded.
  void note(HostId host) {
    touch(host);
    bound_logs();
  }

  /// note() after a mutation that may have changed the host's footprint:
  /// move the running totals from `before` to the host's current share.
  void note(HostId host, const Footprint& before) {
    const Footprint after = footprint(host);
    total_alloc_ -= before.alloc;
    total_alloc_ += after.alloc;
    nonempty_ = nonempty_ - std::size_t{before.nonempty} + std::size_t{after.nonempty};
    note(host);
  }

  /// Open the next host of the fleet cycle, reviving a parked one if any.
  [[nodiscard]] HostState& open_host();

  /// Append one membership record (no-op until armed). A full journal stops
  /// recording and flags the loss instead of growing unboundedly — the next
  /// take_membership_log then reports incompleteness and the consumer falls
  /// back to epoch-based invalidation, so overflow only costs speed.
  static constexpr std::size_t kMembershipLogCap = 4096;
  void journal(MembershipDelta::Op op, HostId host, core::VmId vm,
               const core::VmSpec& spec) {
    if (!membership_armed_ || membership_lost_) {
      return;
    }
    if (membership_log_.size() >= kMembershipLogCap) {
      membership_log_.clear();
      membership_lost_ = true;
      return;
    }
    membership_log_.push_back(MembershipDelta{op, host, vm, spec});
  }

  /// The pool every host's VM vector and reservation map draw from
  /// (core::ListPool). One per cluster: a replay shard mutates only its own
  /// clusters, so the pool needs no lock. Held by pointer, so its address
  /// survives moves of the cluster; declared before hosts_ and parked_, so
  /// it is destroyed after them.
  std::unique_ptr<core::ListPool> pool_;
  std::string name_;
  FleetSpec fleet_;
  double mem_oversub_ = 1.0;
  std::unique_ptr<PlacementPolicy> policy_;
  std::unique_ptr<Filter> filter_;
  std::optional<std::size_t> max_hosts_;
  std::vector<HostState> hosts_;
  /// Hosts parked by reset() or a rolled-back opening, the next to revive
  /// at the back.
  std::vector<HostState> parked_;
  /// Running totals over hosts_ (total_alloc, total_config, nonempty_hosts).
  core::Resources total_alloc_{};
  core::Resources total_config_{};
  std::size_t nonempty_ = 0;
  VmDirectory placements_;  ///< VmId -> host, one entry per placed VM
  bool index_enabled_ = true;
  double heat_width_ = 0.0;  ///< pinned by the first set_host_heat; 0 = none
  /// Membership journal (arm_membership_log). lost_ starts true so the
  /// first take after arming reports the pre-arming history as dropped.
  std::vector<MembershipDelta> membership_log_;
  bool membership_armed_ = false;
  bool membership_lost_ = true;
  std::unique_ptr<PlacementIndex> index_;
  /// Lazily created cache (see synced_heat_index).
  mutable std::unique_ptr<HeatIndex> heat_index_;
};

}  // namespace slackvm::sched
