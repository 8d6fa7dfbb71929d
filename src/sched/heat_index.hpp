// Quantized-heat bucket index: O(1) hottest/coolest candidate streams for
// the polluter pass.
//
// Rebalancer::plan_interference needs, per eviction, the hottest untried UP
// host and the coolest strictly-cooler host that fits the victim. The naive
// pass answers both with O(hosts) scans of a fleet copy. This index keeps
// every host filed under its quantized heat bucket (HostState::heat_bucket):
// a dense vector of per-bucket HostBitsets, plus a HostBitset of the
// occupied buckets. The planner visits buckets from either end (ids
// ascending within each) and stops at the first one that yields an eligible
// host — raw heats within a bucket span [b*w, (b+1)*w), so no host in a
// farther bucket can beat a candidate found in a nearer one, and equal heats
// always share a bucket (ties stay id-ordered).
//
// Maintenance rides the exact epoch + dirty-log protocol of
// sched/placement_index.hpp:
//
//  1. every epoch bump of a host is reported through touch() — an O(1)
//     append to a dirty log (VCluster funnels add/remove/phase/heat here,
//     and set_heat bumps the epoch precisely on bucket crossings);
//  2. sync() replays the log tail: a host whose cached epoch still matches
//     is untouched (its bucket cannot have moved), otherwise it is refiled;
//  3. dirty ids >= hosts.size() are rolled-back openings and are dropped,
//     exactly like PlacementIndex::sync.
//
// Buckets from kMaxBuckets - 1 up share the table's last slot, so visit
// order stays monotone in heat: that slot holds only heats >= (kMaxBuckets
// - 1)*w, and the planner compares raw heats inside a slot anyway. The
// ordering argument needs one width w per cluster, which
// VCluster::set_host_heat enforces (hosts never heated sit at heat 0 in
// bucket 0, consistent with any width).
//
// VCluster owns the index and builds it lazily on the first polluter pass.
// Rebalancer::plan_interference is its only reader; the naive scan it must
// match lives in tests/reference/planners.hpp.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "sched/host_bitset.hpp"
#include "sched/host_state.hpp"

namespace slackvm::sched {

class HeatIndex {
 public:
  using Bucket = std::uint32_t;

  /// Buckets at or above this id share the last slot of the dense bucket
  /// table: a tiny bucket width must not size the table to millions of
  /// empty slots.
  static constexpr Bucket kMaxBuckets = 4096;

  enum class Order { kCoolestFirst, kHottestFirst };

  /// Record a host epoch bump: O(1) append to the dirty log consumed by the
  /// next sync(). Every epoch bump must be reported, including no-op
  /// round-trips.
  void touch(HostId host);

  /// Replay the dirty log: refile hosts whose quantized bucket crossed since
  /// their last sync, drop rolled-back openings (ids >= hosts.size()).
  /// Amortized O(dirty).
  void sync(std::span<const HostState> hosts);

  /// Seed (or re-seed) from live state, discarding everything cached.
  void rebuild(std::span<const HostState> hosts);

  /// Return to the state of a fresh index, keeping the storage. The cached
  /// epochs must go: hosts opened afterwards restart at epoch 0.
  void reset() noexcept;

  /// Call f(bucket, hosts) for every non-empty bucket in `order`; `hosts`
  /// holds its ids (HostBitset::for_each visits them ascending). f may
  /// return bool: false stops the visit. Exact after sync().
  template <class F>
  void visit(Order order, F&& f) const {
    const auto each = [&](HostId bucket) {
      return visit_continues(f, static_cast<Bucket>(bucket), buckets_[bucket]);
    };
    if (order == Order::kCoolestFirst) {
      occupied_.for_each(each);
    } else {
      occupied_.for_each_descending(each);
    }
  }

  /// Hosts currently filed.
  [[nodiscard]] std::size_t size() const noexcept { return indexed_; }

  /// Unconsumed dirty-log entries (VCluster bounds this between passes).
  [[nodiscard]] std::size_t dirty_size() const noexcept { return dirty_.size(); }

  /// Audit against the authoritative rows (call after sync): every host
  /// filed exactly once under its current bucket. One line per divergence.
  [[nodiscard]] std::vector<std::string> check(
      std::span<const HostState> hosts) const;

 private:
  /// Valid while hosts[host].epoch() == epoch (the set_heat contract: the
  /// bucket cannot move without an epoch bump).
  struct Cached {
    std::uint64_t epoch = 0;
    Bucket bucket = 0;
    bool present = false;
  };

  /// The slot of the dense bucket table that files `bucket`.
  [[nodiscard]] static Bucket slot(Bucket bucket) noexcept {
    return bucket < kMaxBuckets ? bucket : kMaxBuckets - 1;
  }

  void update(const HostState& host);
  void file(HostId host, Bucket bucket);
  void unfile(HostId host, Bucket bucket);
  void erase(HostId host);

  std::vector<Cached> cached_;
  std::vector<HostBitset> buckets_;  ///< by slot(bucket); sized on demand
  HostBitset occupied_;              ///< slots whose bitset is non-empty
  std::vector<HostId> dirty_;
  std::size_t indexed_ = 0;
};

}  // namespace slackvm::sched
