// Global-scheduler view of one PM.
//
// This is the fast accounting model used for cluster-scale simulation: it
// tracks, per oversubscription level, the vCPUs committed on the host, and
// derives the physical-core allocation with the same integer-core rule as
// the local scheduler (one vNode per level, `ceil(vcpus / ratio)` cores).
// tests/integration_local_sched_test.cpp cross-checks that HostState accepts
// a VM if and only if a real VNodeManager on the same hardware does.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <memory_resource>
#include <span>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/oversub.hpp"
#include "core/resources.hpp"
#include "core/vm.hpp"

namespace slackvm::sched {

using HostId = std::uint32_t;

/// One VM hosted on a PM, as HostState::vms() lists it.
using HostedVm = std::pair<core::VmId, core::VmSpec>;

/// Availability lifecycle of a PM (sim/fault.hpp drives the transitions):
///
///   kUp ──drain──▶ kDraining ──fail──▶ kFailed ──repair──▶ kUp
///    └────────────────fail─────────────────▲   (◀─repair── kDraining too)
///
/// kUp admits placements; kDraining stops admission while existing VMs are
/// migrated off (or simply depart); kFailed holds no VMs at all — failing a
/// host evicts everything it ran (VCluster::fail_host). "Repaired" is not a
/// distinct state: a repaired host is kUp again.
enum class HostPhase : std::uint8_t { kUp, kDraining, kFailed };

[[nodiscard]] const char* to_string(HostPhase phase) noexcept;

/// The accounting of one PM that admission and scoring read: every per-host
/// scalar, without the VM list. A plain value: HostState holds the live one
/// and bumps its epoch, and the consolidation planner copies it to try
/// moves on (Rebalancer::PlanScratch). Scorers read nothing else, so a copy
/// scores bit-identically to the host it was taken from.
struct HostLoad {
  static constexpr std::size_t kLevels = core::OversubLevel::kMaxRatio + 1;

  core::Resources config;
  /// Memory admission bound: config.mem_mib * mem_oversub, rounded once.
  core::MemMib mem_capacity = 0;
  core::MemMib committed_mem = 0;
  /// Physical cores of the per-level vNodes: the sum of ceil(vcpus / ratio).
  core::CoreCount alloc_cores = 0;
  HostPhase phase = HostPhase::kUp;
  /// vCPUs committed per level ratio (index = ratio, 0 unused).
  std::array<core::VcpuCount, kLevels> vcpus_per_level{};
  /// floor(heat / heat_bucket_width), clamped (see quantize).
  std::uint32_t heat_bucket = 0;
  /// Modification epoch (HostState::epoch).
  std::uint64_t epoch = 0;
  /// EWMA of runnable vCPU demand per physical core (HostState::set_heat).
  double heat = 0.0;
  double heat_bucket_width = 0.0;

  friend bool operator==(const HostLoad&, const HostLoad&) = default;

  /// Physical cores consumed by the per-level vNodes plus committed memory.
  /// This is Algorithm 2's allocPM.
  [[nodiscard]] core::Resources alloc() const noexcept {
    return core::Resources{alloc_cores, committed_mem};
  }

  /// The heat value scorers are allowed to read: the lower edge of the
  /// current bucket. Changes only when the bucket does, which is what keeps
  /// index-cached scores valid (sched/placement_index.hpp purity contract).
  [[nodiscard]] double quantized_heat() const noexcept {
    return static_cast<double>(heat_bucket) * heat_bucket_width;
  }

  /// Physical cores the host would allocate if `spec` were added. Only the
  /// spec's own vNode changes, so the ceil-rounded demand is O(1).
  [[nodiscard]] core::CoreCount cores_with(const core::VmSpec& spec) const noexcept {
    const std::uint8_t ratio = spec.level.ratio();
    const core::VcpuCount vcpus = vcpus_per_level[ratio];
    return alloc_cores - core::ceil_div<core::CoreCount>(vcpus, ratio) +
           core::ceil_div<core::CoreCount>(vcpus + spec.vcpus, ratio);
  }

  /// Pure capacity check: both dimensions fit after adding `spec`,
  /// regardless of the availability phase.
  [[nodiscard]] bool fits(const core::VmSpec& spec) const noexcept {
    return committed_mem + spec.mem_mib <= mem_capacity &&
           cores_with(spec) <= config.cores;
  }

  /// Admission filter: the host is UP and `spec` fits. Draining and failed
  /// hosts admit nothing, on the naive and the indexed path alike.
  [[nodiscard]] bool can_host(const core::VmSpec& spec) const noexcept {
    return phase == HostPhase::kUp && fits(spec);
  }

  /// Commit `spec`'s footprint (a hosted VM or a migration reservation).
  void book(const core::VmSpec& spec) noexcept {
    alloc_cores = cores_with(spec);
    vcpus_per_level[spec.level.ratio()] += spec.vcpus;
    committed_mem += spec.mem_mib;
  }

  /// Release a footprint booked earlier.
  void unbook(const core::VmSpec& spec) noexcept {
    const std::uint8_t ratio = spec.level.ratio();
    core::VcpuCount& vcpus = vcpus_per_level[ratio];
    alloc_cores = alloc_cores - core::ceil_div<core::CoreCount>(vcpus, ratio) +
                  core::ceil_div<core::CoreCount>(vcpus - spec.vcpus, ratio);
    vcpus -= spec.vcpus;
    committed_mem -= spec.mem_mib;
  }

  /// Bucket of `heat` at `bucket_width`: floor(heat / width), or 0 when
  /// `bucket_width <= 0` disables quantization. A quotient past the largest
  /// bucket (a tiny width, a huge or NaN heat) files in that bucket; the
  /// cast of an out-of-range double is undefined.
  [[nodiscard]] static std::uint32_t quantize(double heat, double bucket_width) noexcept {
    constexpr double kTop = std::numeric_limits<std::uint32_t>::max();
    const double quotient = bucket_width > 0.0 ? heat / bucket_width : 0.0;
    return quotient < kTop ? static_cast<std::uint32_t>(quotient)
                           : std::numeric_limits<std::uint32_t>::max();
  }

  /// Set the heat EWMA (negative inputs clamp to zero) and re-file it;
  /// returns true when the bucket changed.
  bool set_heat(double value, double bucket_width) noexcept {
    heat = std::max(value, 0.0);
    heat_bucket_width = bucket_width;
    const std::uint32_t bucket = quantize(heat, bucket_width);
    if (bucket == heat_bucket) {
      return false;
    }
    heat_bucket = bucket;
    return true;
  }
};
static_assert(std::is_trivially_copyable_v<HostLoad>);

/// One PM: its HostLoad, the VMs it runs and its migration reservations.
class HostState {
 public:
  /// `mem_oversub` >= 1 enables limited memory oversubscription (paper
  /// footnote 2: OpenStack defaults to 16:1 CPU and 1.5:1 DRAM): committed
  /// memory may reach config.mem_mib * mem_oversub. The VM vector and the
  /// reservation map draw from `pool`, which must outlive the host (a
  /// VCluster passes its own; see VCluster::pool_). A copy draws from the
  /// default resource.
  HostState(HostId id, core::Resources config, double mem_oversub = 1.0,
            std::pmr::memory_resource* pool = std::pmr::get_default_resource());

  /// Turn a parked host into a freshly opened one (VCluster::reset parks
  /// its hosts): every field is as the constructor leaves it, epoch 0
  /// included, but the VM vector and the reservation map keep their
  /// storage and their pool, so refilling the host allocates nothing.
  void revive(HostId id, core::Resources config, double mem_oversub);

  [[nodiscard]] HostId id() const noexcept { return id_; }
  [[nodiscard]] const HostLoad& load() const noexcept { return load_; }
  [[nodiscard]] const core::Resources& config() const noexcept { return load_.config; }

  /// Modification epoch: bumped by every add()/remove() *and* every phase
  /// transition. Cached derived state (sched::PlacementIndex
  /// score/feasibility entries) is valid exactly as long as the epoch it was
  /// computed at still matches. Phase changes must participate: an empty
  /// host that fails and repairs without the epoch advancing would leave a
  /// "valid" index entry pointing at a host the naive scan rejects
  /// (regression-tested in tests/sim_fault_test.cpp).
  [[nodiscard]] std::uint64_t epoch() const noexcept { return load_.epoch; }

  [[nodiscard]] HostPhase phase() const noexcept { return load_.phase; }

  /// Transition the availability phase (no-op when already there). Bumps the
  /// epoch so every PlacementIndex entry cached for the old phase is
  /// invalidated. Transition legality is enforced by VCluster.
  void set_phase(HostPhase phase) noexcept {
    if (load_.phase != phase) {
      load_.phase = phase;
      ++load_.epoch;
    }
  }

  // --- interference heat (sim/usage_monitor.hpp feeds it) ------------------
  //
  // `heat` is an EWMA of runnable vCPU demand per physical core — the q that
  // perf::ContentionModel maps to response inflation. The raw value moves a
  // little on every sample; caching layers must not see every wiggle, so the
  // value the scorers read is *quantized*: bucket = floor(heat / width), and
  // the epoch advances only when the bucket changes (same contract as
  // set_phase above). Within a bucket every cached PlacementIndex entry
  // stays exact; a crossing invalidates them all.

  /// Update the heat EWMA (HostLoad::set_heat); bumps the epoch on a bucket
  /// crossing. `bucket_width <= 0` pins the bucket at 0.
  void set_heat(double heat, double bucket_width) noexcept {
    if (load_.set_heat(heat, bucket_width)) {
      ++load_.epoch;
    }
  }

  /// Raw EWMA heat (runnable demand / physical cores).
  [[nodiscard]] double heat() const noexcept { return load_.heat; }
  [[nodiscard]] std::uint32_t heat_bucket() const noexcept { return load_.heat_bucket; }

  [[nodiscard]] core::Resources alloc() const noexcept { return load_.alloc(); }
  [[nodiscard]] bool can_host(const core::VmSpec& spec) const noexcept {
    return load_.can_host(spec);
  }

  /// Commit a VM. Callers must have checked capacity (HostLoad::fits);
  /// admission by phase is the placement path's responsibility — a draining
  /// host must still accept the restore of a VM whose evacuation found no
  /// target.
  void add(core::VmId id, const core::VmSpec& spec);

  /// Release a VM; throws for unknown ids.
  void remove(core::VmId id);

  /// Release every hosted VM at once and return them in ascending VmId
  /// order (reservations stay booked). One epoch bump covers the batch, and
  /// the host keeps its VM vector's capacity for the refill.
  [[nodiscard]] std::vector<HostedVm> evict_all();

  // --- migration reservations (sim/migration.hpp holds them in flight) -----
  //
  // A reservation double-books the capacity of a VM that is still running on
  // its *source* host while its pre-copy is in flight: the spec is booked
  // into the HostLoad (per-level vCPUs, committed memory, alloc cores,
  // epoch) exactly like a hosted VM, so fits()/can_host(), the placement
  // index and the cluster's running totals all see the booked space — but
  // the VM is not in vms() and the host does not count as non-empty.

  /// Book `spec` for an in-flight migration. Callers must have checked
  /// capacity (HostLoad::fits); throws when `id` is already reserved here.
  void reserve(core::VmId id, const core::VmSpec& spec);

  /// Release a reservation booked earlier; throws for unknown ids.
  void release_reservation(core::VmId id);

  [[nodiscard]] std::size_t reservation_count() const noexcept {
    return reservations_.size();
  }

  [[nodiscard]] bool has_reservation(core::VmId id) const noexcept {
    return reservations_.contains(id);
  }

  /// All in-flight reservations (unordered).
  [[nodiscard]] const std::pmr::unordered_map<core::VmId, core::VmSpec>& reservations()
      const noexcept {
    return reservations_;
  }

  [[nodiscard]] std::size_t vm_count() const noexcept { return vms_.size(); }
  [[nodiscard]] bool empty() const noexcept { return vms_.empty(); }

  /// vCPUs committed at a given level (0 when the level is absent).
  [[nodiscard]] core::VcpuCount committed_vcpus(core::OversubLevel level) const noexcept {
    return load_.vcpus_per_level[level.ratio()];
  }

  /// Spec of a hosted VM; throws for unknown ids.
  [[nodiscard]] const core::VmSpec& spec_of(core::VmId id) const;

  /// True when `id` is hosted here (reservations do not count).
  [[nodiscard]] bool hosts_vm(core::VmId id) const noexcept;

  /// All hosted VMs in strictly ascending VmId order. Every caller that
  /// needs a deterministic VM order (evacuation, victim ranking, demand
  /// sums) iterates this directly. The span is invalidated by add/remove.
  [[nodiscard]] std::span<const HostedVm> vms() const noexcept { return vms_; }

 private:
  HostId id_;
  HostLoad load_;
  /// Hosted VMs sorted by VmId. Trace ids usually grow with arrival time,
  /// so an add is almost always an append; a PM holds tens of VMs, so a
  /// mid-vector insert or erase shifts a few cache lines at most.
  std::pmr::vector<HostedVm> vms_;
  /// In-flight migration reservations; booked in load_ but not in vms_.
  std::pmr::unordered_map<core::VmId, core::VmSpec> reservations_;
};
// A host vector that copied on growth would move its hosts' lists to the
// default resource.
static_assert(std::is_nothrow_move_constructible_v<HostState>);

}  // namespace slackvm::sched
