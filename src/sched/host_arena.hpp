// Struct-of-arrays mirror of a VCluster's host fleet.
//
// The authoritative per-host record stays HostState (AoS: one object per PM
// with its own VM list). That layout is right for mutation but wrong for the
// two scans the sharded simulator hammers: per-event cluster aggregates
// (total allocation / capacity / non-empty count) and the linear feasibility
// sweeps of PlacementIndex seeding and compaction. HostArena keeps every
// scan-relevant field of every host in a dense column, maintained in O(1)
// per mutation by VCluster, so:
//
//  * cluster aggregates become O(1) reads of running totals (the per-event
//    observe() of a 100k-host shard no longer walks 100k hosts);
//  * feasibility checks stream over flat arrays (epoch, phase, committed
//    memory, per-level vCPU columns) instead of chasing one heap-allocated
//    HostState per candidate;
//  * audits can cross-check the mirror field-for-field against the
//    authoritative rows (check()), which the shard test suite does at every
//    barrier.
//
// Every column value is copied verbatim from the HostState it mirrors —
// including mem_capacity(), whose double-rounded value is materialized once
// per refresh — so any answer computed from the arena is bit-identical to
// the same answer computed from the host object.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/oversub.hpp"
#include "core/resources.hpp"
#include "core/vm.hpp"
#include "sched/host_state.hpp"
#include "sched/scorer.hpp"

namespace slackvm::sched {

class HostArena {
 public:
  /// Mirror a newly opened host (ids are dense: host.id() == size()).
  void push_host(const HostState& host);

  /// Roll back the most recent push_host (VCluster undoes empty openings
  /// when a placement attempt fails).
  void pop_host();

  /// Re-copy one host's row and adjust the running totals by the delta.
  /// Must be called after every mutation of the host (add/remove/phase).
  void refresh(const HostState& host);

  void reserve(std::size_t hosts);

  /// Drop every row and zero the totals; the columns keep their storage.
  void reset() noexcept;

  [[nodiscard]] std::size_t size() const noexcept { return epoch_.size(); }

  // --- O(1) cluster aggregates -------------------------------------------
  [[nodiscard]] const core::Resources& total_alloc() const noexcept {
    return total_alloc_;
  }
  [[nodiscard]] const core::Resources& total_config() const noexcept {
    return total_config_;
  }
  /// Hosts currently running at least one VM.
  [[nodiscard]] std::size_t nonempty_hosts() const noexcept { return nonempty_; }

  // --- columnar per-host reads -------------------------------------------
  [[nodiscard]] std::uint64_t epoch(HostId host) const noexcept {
    return epoch_[host];
  }
  [[nodiscard]] HostPhase phase(HostId host) const noexcept {
    return static_cast<HostPhase>(phase_[host]);
  }
  /// Raw interference heat EWMA mirrored from HostState::heat().
  [[nodiscard]] double heat(HostId host) const noexcept { return heat_[host]; }
  /// Quantization bucket mirrored from HostState::heat_bucket().
  [[nodiscard]] std::uint32_t heat_bucket(HostId host) const noexcept {
    return heat_bucket_[host];
  }
  /// HostState::quantized_heat() from the columns — the identical
  /// bucket * width expression, so the double is bit-identical.
  [[nodiscard]] double quantized_heat(HostId host) const noexcept {
    return static_cast<double>(heat_bucket_[host]) * heat_bucket_width_[host];
  }

  // --- whole-column views (Rebalancer::PlanScratch copies these) -----------
  [[nodiscard]] std::span<const std::uint8_t> phase_col() const noexcept {
    return phase_;
  }
  [[nodiscard]] std::span<const core::CoreCount> alloc_cores_col() const noexcept {
    return alloc_cores_;
  }
  [[nodiscard]] std::span<const core::MemMib> committed_mem_col() const noexcept {
    return committed_mem_;
  }
  [[nodiscard]] std::span<const core::MemMib> mem_capacity_col() const noexcept {
    return mem_capacity_;
  }
  [[nodiscard]] std::span<const core::CoreCount> config_cores_col() const noexcept {
    return config_cores_;
  }
  [[nodiscard]] std::span<const core::MemMib> config_mem_col() const noexcept {
    return config_mem_;
  }
  [[nodiscard]] std::span<const std::uint32_t> vm_count_col() const noexcept {
    return vm_count_;
  }
  [[nodiscard]] std::span<const double> heat_col() const noexcept { return heat_; }
  /// Flattened [host][ratio] vCPU commitments, kLevels entries per host.
  [[nodiscard]] std::span<const core::VcpuCount> vcpus_per_level_col() const noexcept {
    return vcpus_per_level_;
  }

  /// The scorer's view of one row (scorer.hpp). Every field is the verbatim
  /// column value, so for a scorer that supports_cols() the score of
  /// cols(host) is bit-identical to the score of the HostState it mirrors.
  [[nodiscard]] HostCols cols(HostId host) const noexcept {
    return HostCols{config_cores_[host],
                    config_mem_[host],
                    alloc_cores_[host],
                    committed_mem_[host],
                    quantized_heat(host),
                    &vcpus_per_level_[std::size_t{host} * kLevels]};
  }

  /// Same admission answer as hosts[host].can_host(spec), computed from the
  /// columns: UP phase, memory within the (oversubscribed) bound, and the
  /// incremental integer-core rule cores_with(spec) <= config.cores.
  [[nodiscard]] bool can_host(HostId host, const core::VmSpec& spec) const noexcept;

  /// Field-for-field comparison against the authoritative rows; returns one
  /// human-readable line per divergence (empty == the mirror is exact).
  [[nodiscard]] std::vector<std::string> check(
      std::span<const HostState> hosts) const;

  static constexpr std::size_t kLevels = core::OversubLevel::kMaxRatio + 1;

 private:
  void copy_row(const HostState& host);

  std::vector<std::uint64_t> epoch_;
  std::vector<std::uint8_t> phase_;
  std::vector<core::CoreCount> alloc_cores_;
  std::vector<core::MemMib> committed_mem_;
  std::vector<core::MemMib> mem_capacity_;
  std::vector<core::CoreCount> config_cores_;
  std::vector<core::MemMib> config_mem_;
  std::vector<std::uint32_t> vm_count_;
  std::vector<double> heat_;
  std::vector<std::uint32_t> heat_bucket_;
  std::vector<double> heat_bucket_width_;
  /// Flattened [host][ratio] vCPU commitments, kLevels entries per host.
  std::vector<core::VcpuCount> vcpus_per_level_;

  core::Resources total_alloc_{};
  core::Resources total_config_{};
  std::size_t nonempty_ = 0;
};

}  // namespace slackvm::sched
