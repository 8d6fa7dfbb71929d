// The replay loop: drive a Datacenter with a workload trace through the
// event queue, with its clusters dealt across one or more shards, and
// collect run metrics. sim::replay is the one-shard case of this loop.
//
// The unit of parallelism is the VCluster (Stillwell et al.'s per-cluster
// decomposition): shard k owns the clusters whose index is k modulo the
// shard count, and — because placement routing (Datacenter::route) is a
// pure function of (VmId, spec) — no event of one shard ever reads or
// writes another shard's state. Each shard therefore gets its own
// EventQueue, its own partial RunResult counters, its own FaultInjector
// and MigrationEngine (scoped so the per-shard timetables partition the
// whole-datacenter one), and its own metric observations. Every control
// tick is the same per-cluster step: polluter pass, then consolidation,
// each handed to the engine or applied at once.
//
// The shard count decides how rows are pulled and how observations reach
// the single MetricsCollector:
//
//  * One shard — rows are pumped lazily: before each event, every row
//    arriving no later than the queue's next event is scheduled, so the
//    queue holds only the trace's active window and a plain replay needs
//    no horizon hint. Observations stream straight into the collector.
//  * S > 1 — execution alternates parallel windows with serial barriers:
//    the horizon is cut into `barriers` windows; each window's arrivals
//    are demuxed serially to their shards, then every shard runs
//    independently (EventQueue::run_until); at each barrier the per-shard
//    sample logs are merged and dropped (bounding memory), every cluster's
//    placement-index dirty log is replayed in one batch
//    (VCluster::flush_index), and — when the debug-audit flag is set — the
//    full datacenter audit runs. After the last window each shard drains
//    its queue completely (fault repairs and retries may fire past the
//    horizon).
//
// Determinism comes from two disciplines, both inherited from
// sim/parallel.hpp rather than invented here:
//
//  * *Grid-seeded schedules* — everything stochastic (the fault timetable)
//    is a pure function of (seed, k), never of thread scheduling; within a
//    shard the EventQueue's insertion-order tie-break applies unchanged.
//  * *Fixed-order reduction* — per-shard sample logs are merged into the
//    single MetricsCollector in the documented cross-shard order: ascending
//    time, ties to the lowest shard index, within a shard in log order
//    (shard_merge_order is that comparator, exposed for tests). The merged
//    stream feeds the collector the exact global aggregates, so the
//    floating-point sequence — and hence every RunResult field — is
//    bit-identical at every thread count.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "sim/datacenter.hpp"
#include "sim/event_queue.hpp"
#include "sim/metrics.hpp"
#include "sim/replay.hpp"
#include "workload/trace.hpp"

namespace slackvm::sim {

/// Knobs of the replay loop. The defaults run one shard, inline on the
/// calling thread — exactly replay().
struct ShardOptions {
  /// Shard count: clusters are dealt round-robin across shards. May exceed
  /// the cluster count (excess shards simply own nothing).
  std::size_t shards = 1;
  /// Worker threads driving the shards (sim/parallel.hpp semantics: 1 =
  /// inline serial, 0 = all hardware threads). Results are bit-identical at
  /// every value; only wall-clock time changes.
  std::size_t threads = 1;
  /// Barrier windows the horizon is cut into (>= 1) when shards > 1. More
  /// barriers bound sample-log memory tighter and refresh placement indexes
  /// more often; fewer maximize the parallel stretches. Results are
  /// identical either way — barriers only batch work, they never reorder
  /// it. One shard pumps lazily and has no barriers.
  std::size_t barriers = 8;
  /// Periodic consolidation (sim/replay.hpp).
  std::optional<RebalanceOptions> rebalance;
  /// Effective-usage samples at the monitor's interval throughout the run.
  /// Samples read the whole datacenter, so this needs shards == 1 (the
  /// call throws otherwise).
  UsageMonitor* usage_monitor = nullptr;
  /// Fault injection (sim/fault.hpp); each shard owns the timetable events
  /// that target its clusters. Pass the config through resolve_fault_seed
  /// first when its seed should follow the workload seed.
  const FaultConfig* faults = nullptr;
  /// Stall watchdog over every barrier wait (sim/parallel.hpp): when a
  /// window makes no progress for this long, per-shard progress (clusters
  /// owned, events fired, simulated time, in-flight migrations) is dumped
  /// to stderr and — with `watchdog_fatal` — the process aborts instead of
  /// hanging. 0 disables. Ignored on the serial path (threads <= 1), where
  /// no cross-thread wait exists.
  std::size_t watchdog_ms = 0;
  bool watchdog_fatal = true;
  /// A queue to run shard 0 on instead of a new one, e.g. one a sweep
  /// thread keeps across its cells, so a replay regrows none of its
  /// storage. The replay resets it first (EventQueue::reset), and nothing
  /// else may use it until the replay returns. Results are identical
  /// either way.
  EventQueue* queue = nullptr;
};

/// One metric observation recorded by a shard after one of its events:
/// the aggregates over the shard's own clusters at `time`.
struct ShardSample {
  core::SimTime time = 0;
  core::Resources alloc;
  core::Resources config;
  std::size_t vms = 0;
  std::size_t active = 0;
};

/// The documented cross-shard ordering, as a standalone function over
/// per-shard sample logs (each log ascending in time): returns the merged
/// (shard, index-within-log) sequence — ascending time, ties across shards
/// to the lowest shard index, within a shard in log order. The engine's
/// streaming merge follows exactly this comparator; the shard test suite
/// pins it.
[[nodiscard]] std::vector<std::pair<std::size_t, std::size_t>> shard_merge_order(
    std::span<const std::vector<ShardSample>> logs);

/// Drain `source` (sim/event_source.hpp) against `dc` with the clusters
/// sharded per `options`. `dc` must be fresh or reset (Datacenter::reset):
/// a reset datacenter keeps its grown containers and yields the RunResult
/// a new one would, which is how the sweeps replay cell after cell on one
/// datacenter per thread. Rows are pulled
/// incrementally and routed to the shard owning their routed cluster
/// (Datacenter::route), in row order, on the workload lane — lazily at one
/// shard, a window at a time at S > 1 — so resident memory is O(active
/// window), never O(trace). The horizon hint is required when shards > 1
/// (barrier windows) and whenever rebalance, usage or fault schedules are
/// set (they are laid out before the first event fires); the call throws
/// without it — pre-scan streaming files with TraceReader::scan, or
/// materialize. Deterministic, and bit-identical across options.threads.
/// While the debug-audit flag is set (sim/audit.hpp), every event is
/// followed by an invariant audit that throws on the first violation.
[[nodiscard]] RunResult replay_sharded(Datacenter& dc, EventSource& source,
                                       const ShardOptions& options = {});

/// Replay a materialized trace: wraps it in a MaterializedSource and runs
/// the engine above, so the two paths are bit-identical by construction.
[[nodiscard]] RunResult replay_sharded(Datacenter& dc, const workload::Trace& trace,
                                       const ShardOptions& options = {});

}  // namespace slackvm::sim
