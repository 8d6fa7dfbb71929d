// Invariant audit of simulated cluster state (the fault-injection test
// harness's ground truth).
//
// audit() recomputes every derived quantity of a Datacenter / VCluster /
// host set from first principles — the per-VM spec maps — and reports any
// disagreement with the cached accounting as a human-readable violation:
//
//  * no VM runs on a FAILED host;
//  * per-level oversubscription bounds hold (committed vCPUs at level n
//    never exceed n x physical cores, and the ceil-rounded vNode cores sum
//    to the cached allocation, within the PM's core budget);
//  * memory is conserved and within the (possibly oversubscribed) bound;
//  * in-flight migration reservations double-book coherently: they feed the
//    same per-level/memory recomputation as hosted VMs, never overlap the
//    hosted set, and only UP hosts hold them;
//  * each host's VM vector ascends strictly by VmId (the order every
//    deterministic VM walk relies on), and VM membership is conserved
//    across those vectors, the cluster's VM directory, and the per-cluster
//    counts the datacenter aggregates;
//  * the cluster's running totals (total_alloc, total_config,
//    nonempty_hosts) equal a recomputation over its hosts;
//  * each host's heat bucket is HostLoad::quantize of its heat.
//
// An empty result means the state is coherent. The audit is O(VMs) and
// cheap enough to run after every event in tests: replay() does exactly
// that when the process-wide debug-audit flag is set (ScopedDebugAudit),
// which lets the pre-fault sweep tests assert the same invariants on the
// old code paths for free.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "sched/host_state.hpp"
#include "sched/vcluster.hpp"
#include "sim/datacenter.hpp"

namespace slackvm::sim {

/// Host-level invariants only (phase/emptiness, per-level bounds,
/// allocation and memory conservation against the per-host VM vector,
/// which must ascend strictly by VmId).
[[nodiscard]] std::vector<std::string> audit(std::span<const sched::HostState> hosts);

/// Host invariants plus cluster-level membership conservation (every hosted
/// VM maps back to its host in the cluster's VM directory, counts agree).
[[nodiscard]] std::vector<std::string> audit(const sched::VCluster& cluster);

/// Cluster invariants across every cluster plus datacenter-level VM-count
/// conservation.
[[nodiscard]] std::vector<std::string> audit(const Datacenter& dc);

/// Process-wide debug-audit flag: while set, replay() runs audit() after
/// every simulation event and throws core::SlackError on the first
/// violation. Off by default (the audit is for tests, not production runs).
void set_debug_audit(bool enabled) noexcept;
[[nodiscard]] bool debug_audit_enabled() noexcept;

/// Throws core::SlackError listing all violations when the debug-audit flag
/// is set and `dc` fails the audit; no-op otherwise.
void debug_audit_check(const Datacenter& dc);

/// Single-cluster variant: the sharded engine audits only the clusters a
/// shard owns after its events (other shards' clusters are concurrently
/// mutating); the full datacenter audit runs at barriers.
void debug_audit_check(const sched::VCluster& cluster);

/// RAII enabling of the debug-audit flag for one test scope.
class ScopedDebugAudit {
 public:
  ScopedDebugAudit() noexcept;
  ~ScopedDebugAudit();
  ScopedDebugAudit(const ScopedDebugAudit&) = delete;
  ScopedDebugAudit& operator=(const ScopedDebugAudit&) = delete;

 private:
  bool previous_;
};

}  // namespace slackvm::sim
