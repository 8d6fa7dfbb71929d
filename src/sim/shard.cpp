#include "sim/shard.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <sstream>

#include "core/error.hpp"
#include "perf/contention.hpp"
#include "sched/rebalancer.hpp"
#include "sim/audit.hpp"
#include "sim/event_queue.hpp"
#include "sim/event_source.hpp"
#include "sim/fault.hpp"
#include "sim/migration.hpp"
#include "sim/parallel.hpp"
#include "sim/usage_monitor.hpp"

namespace slackvm::sim {

namespace {

class SampleMerger;

/// Everything one shard owns. The shards live in a vector that is sized
/// once and never grows, so the queue's event closures can capture stable
/// references.
struct ShardState {
  std::vector<std::size_t> clusters;  ///< owned cluster indices, ascending
  EventQueue own_queue;
  /// The queue the shard runs on: own_queue, or the one ShardOptions lends.
  EventQueue* queue = &own_queue;
  RunResult partial;              ///< integer counters only (summed at the end)
  std::vector<ShardSample> log;   ///< observations, drained at each barrier
  /// One shard: observations skip the log and stream straight into the
  /// merger (there is no barrier to wait for).
  SampleMerger* direct = nullptr;
  std::function<void(core::SimTime)> observe;
  std::optional<FaultInjector> injector;
  std::optional<MigrationEngine> engine;  ///< time-extended migration flights
  const sched::Rebalancer rebalancer{};
  /// Default-calibrated contention curve for the polluter pass; stateless,
  /// so per-shard instances answer identically.
  const perf::ContentionModel contention{};
  /// Demand caches for the heat ticks, indexed by *global* cluster index
  /// (only owned entries are touched, so caches stay shard-local).
  std::vector<DemandCache> heat_caches;
};

/// Streams merged samples into the single MetricsCollector. The global
/// aggregates are maintained as exact integer sums: when shard k reports a
/// new sample, only its delta against k's previous sample moves the totals,
/// so the value handed to the collector equals the sum of every shard's
/// latest aggregates — for one shard, exactly that shard's observation.
class SampleMerger {
 public:
  SampleMerger(std::size_t shards, core::SimTime initial_end)
      : latest_(shards), end_time_(initial_end) {}

  void merge(std::vector<ShardState>& shards) {
    std::vector<std::vector<ShardSample>> logs(shards.size());
    for (std::size_t k = 0; k < shards.size(); ++k) {
      logs[k] = std::move(shards[k].log);
      shards[k].log.clear();
    }
    for (const auto& [shard, index] : shard_merge_order(logs)) {
      add(shard, logs[shard][index]);
    }
  }

  void add(std::size_t shard, const ShardSample& s) {
    ShardSample& prev = latest_[shard];
    alloc_cores_ += static_cast<std::int64_t>(s.alloc.cores) - prev.alloc.cores;
    alloc_mem_ += s.alloc.mem_mib - prev.alloc.mem_mib;
    config_cores_ += static_cast<std::int64_t>(s.config.cores) - prev.config.cores;
    config_mem_ += s.config.mem_mib - prev.config.mem_mib;
    vms_ += static_cast<std::int64_t>(s.vms) - static_cast<std::int64_t>(prev.vms);
    active_ +=
        static_cast<std::int64_t>(s.active) - static_cast<std::int64_t>(prev.active);
    prev = s;
    const core::Resources alloc{static_cast<core::CoreCount>(alloc_cores_),
                                alloc_mem_};
    const core::Resources config{static_cast<core::CoreCount>(config_cores_),
                                 config_mem_};
    const auto active = static_cast<std::size_t>(active_);
    metrics_.observe(s.time, alloc, config, static_cast<std::size_t>(vms_), active);
    peak_active_ = std::max(peak_active_, active);
    end_time_ = std::max(end_time_, s.time);
  }

  void finish(RunResult& result) const {
    result.peak_active_pms = peak_active_;
    metrics_.finish(end_time_, result);
  }

 private:
  MetricsCollector metrics_;
  std::vector<ShardSample> latest_;  ///< last merged sample per shard
  std::int64_t alloc_cores_ = 0;
  std::int64_t alloc_mem_ = 0;
  std::int64_t config_cores_ = 0;
  std::int64_t config_mem_ = 0;
  std::int64_t vms_ = 0;
  std::int64_t active_ = 0;
  std::size_t peak_active_ = 0;
  core::SimTime end_time_;
};

/// One control tick over one cluster: the polluter pass first (with
/// interference on, so its evictions claim in-flight slots before
/// consolidation fills them), then consolidation. With a migration engine
/// every planned move becomes an intent — request() pumps and observes by
/// itself, and flights already in the air make it reject repeats —
/// otherwise the plans apply at once.
void control_tick(ShardState& shard, sched::VCluster& cluster, std::size_t c,
                  const RebalanceOptions& rebalance, core::SimTime now) {
  RunResult& r = shard.partial;
  // Moves applied at once (0 in engine mode).
  const auto execute = [&shard, &cluster, c, now](const sched::MigrationPlan& plan) {
    if (!shard.engine.has_value()) {
      return sched::Rebalancer::apply_plan(cluster, plan);
    }
    for (const sched::Migration& m : plan.migrations) {
      shard.engine->request(c, m, now);
    }
    return std::size_t{0};
  };
  if (rebalance.interference.enabled) {
    const sched::MigrationPlan hot = shard.rebalancer.plan_interference(
        cluster, shard.contention, rebalance.interference);
    ++r.itf_passes;
    r.itf_hot_hosts += hot.hot_hosts;
    r.itf_evictions += hot.migrations.size();
    const std::size_t applied = execute(hot);
    if (shard.engine.has_value()) {
      r.itf_requested += hot.migrations.size();
    } else {
      r.itf_applied += applied;
      r.itf_skipped += hot.migrations.size() - applied;
      r.migrations += applied;
    }
  }
  r.migrations +=
      execute(shard.rebalancer.plan(cluster, rebalance.budget_per_pass));
}

}  // namespace

std::vector<std::pair<std::size_t, std::size_t>> shard_merge_order(
    std::span<const std::vector<ShardSample>> logs) {
  std::size_t total = 0;
  for (const auto& log : logs) {
    total += log.size();
  }
  std::vector<std::pair<std::size_t, std::size_t>> order;
  order.reserve(total);
  std::vector<std::size_t> pos(logs.size(), 0);
  while (order.size() < total) {
    // Lowest time wins; the strict < keeps the first (lowest-index) shard
    // on ties, and within a shard the log is consumed in order.
    std::size_t best = logs.size();
    for (std::size_t k = 0; k < logs.size(); ++k) {
      if (pos[k] < logs[k].size() &&
          (best == logs.size() || logs[k][pos[k]].time < logs[best][pos[best]].time)) {
        best = k;
      }
    }
    SLACKVM_ASSERT(best < logs.size());
    order.emplace_back(best, pos[best]++);
  }
  return order;
}

RunResult replay_sharded(Datacenter& dc, EventSource& source,
                         const ShardOptions& options) {
  const std::size_t shard_count = std::max<std::size_t>(1, options.shards);
  const std::size_t barrier_count = std::max<std::size_t>(1, options.barriers);
  const bool faulty = options.faults != nullptr && options.faults->enabled();

  // Barrier windows and the periodic control schedules (consolidation
  // passes, usage samples, the fault timetable) are laid out before the
  // first event fires, which needs the horizon up-front. A plain one-shard
  // replay converges to the horizon by observation instead (the last
  // departure is the latest event).
  const std::optional<core::SimTime> horizon_hint = source.horizon_hint();
  const bool wants_horizon = shard_count > 1 || options.rebalance.has_value() ||
                             options.usage_monitor != nullptr || faulty;
  if (wants_horizon && !horizon_hint.has_value()) {
    SLACKVM_THROW(
        "replay: barrier windows (shards > 1) and rebalance/usage-monitor/fault "
        "schedules need the trace horizon up-front, but this event source has "
        "no horizon hint; pre-scan the file (TraceReader::scan) or materialize "
        "the trace");
  }
  // Usage samples read the whole datacenter, which only one shard may do.
  if (shard_count > 1 && options.usage_monitor != nullptr) {
    SLACKVM_THROW("replay: usage sampling needs shards == 1");
  }
  const core::SimTime horizon = horizon_hint.value_or(0.0);

  // Row-count hint: pre-size the host vectors before the churn. Purely a
  // performance hint — absent for unscanned streams.
  if (const std::optional<std::size_t> rows = source.size_hint()) {
    dc.reserve(*rows);
  }

  // Fault events (repairs, backoff retries) may legitimately fire past the
  // trace horizon; the run ends at the later of the two.
  SampleMerger merger(shard_count, horizon);

  // Deal clusters round-robin: shard k owns {c : c % shards == k}.
  std::vector<ShardState> shards(shard_count);
  if (options.queue != nullptr) {
    options.queue->reset();
    shards[0].queue = options.queue;
  }
  for (std::size_t k = 0; k < shard_count; ++k) {
    ShardState& shard = shards[k];
    shard.clusters.reserve(dc.clusters().size() / shard_count + 1);
    for (std::size_t c = k; c < dc.clusters().size(); c += shard_count) {
      shard.clusters.push_back(c);
    }
    shard.direct = shard_count == 1 ? &merger : nullptr;
    shard.observe = [&dc, &shard](core::SimTime t) {
      // Shard-local aggregates over the owned clusters only; the merger
      // turns them into the global tuples the collector sees. O(owned
      // clusters) thanks to each cluster's running totals.
      ShardSample s;
      s.time = t;
      for (const std::size_t c : shard.clusters) {
        const sched::VCluster& cluster = *dc.clusters()[c];
        s.alloc += cluster.total_alloc();
        s.config += cluster.total_config();
        s.vms += cluster.vm_count();
        s.active += cluster.nonempty_hosts();
      }
      if (shard.direct != nullptr) {
        shard.direct->add(0, s);
      } else {
        shard.log.push_back(s);
      }
      // No-op unless the debug-audit flag is set (tests): every event is
      // then followed by an invariant audit, throwing on the first
      // violation. It stays shard-local (other shards' clusters are
      // mutating concurrently); the full datacenter audit runs at barriers.
      if (debug_audit_enabled()) {
        for (const std::size_t c : shard.clusters) {
          debug_audit_check(*dc.clusters()[c]);
        }
      }
    };
    if (faulty) {
      shard.injector.emplace(dc, *shard.queue, *options.faults, shard.partial,
                             shard.observe, ShardScope{k, shard_count});
    }
    if (options.rebalance && options.rebalance->migration.enabled) {
      // One engine per shard, scoped like the injector: all flight state is
      // per-cluster, so the union of the shard engines evolves exactly like
      // a single engine over the whole datacenter.
      shard.engine.emplace(dc, *shard.queue, options.rebalance->migration,
                           shard.partial, shard.observe, ShardScope{k, shard_count});
      if (shard.injector.has_value()) {
        // Faults must abort/reroute the flights they touch *before* they
        // mutate the fleet (sim/migration.hpp failure semantics).
        shard.injector->set_migration_engine(&*shard.engine);
      }
    }
  }

  // Route one row to the shard owning its routed cluster, arrival then
  // departure on the workload lane. Rows are pumped in arrival (row) order,
  // so within a shard the lane-0 insertion order — and hence every time
  // tie — is the same however the rows are batched; the workload lane keeps
  // rows inserted mid-run winning time ties against control events
  // scheduled up-front. The row's id and spec are captured by value (the
  // source's buffers are recycled long before the events fire); both
  // closures stay within EventAction's inline buffer.
  const auto route_row = [&dc, &shards, shard_count](const core::VmInstance& vm) {
    const std::size_t cluster = dc.route(vm.id, vm.spec);
    ShardState& shard = shards[cluster % shard_count];
    shard.queue->schedule_lane(
        vm.arrival, EventQueue::kLaneWorkload,
        [&dc, &shard, id = vm.id, spec = vm.spec](core::SimTime t) {
          if (shard.injector.has_value()) {
            // Under fault injection capacity can be transiently exhausted;
            // arrivals defer into the retry/degraded machinery instead of
            // aborting the run.
            shard.injector->deploy_or_defer(id, spec, t);
          } else {
            dc.deploy(id, spec);
            ++shard.partial.placed_vms;
          }
          shard.observe(t);
        });
    shard.queue->schedule_lane(vm.departure, EventQueue::kLaneWorkload,
                               [&dc, &shard, cluster, id = vm.id](core::SimTime t) {
                                 // A departing VM first cancels any migration
                                 // intent it carries (rolling back an in-flight
                                 // reservation) — the engine must let go before
                                 // the VM leaves the placement maps.
                                 if (shard.engine.has_value()) {
                                   shard.engine->on_departure(id, t);
                                 }
                                 // A VM still waiting for a retry (or parked
                                 // degraded) is not in the datacenter; the
                                 // injector absorbs its departure. Otherwise a
                                 // routed removal: a shard must never read the
                                 // other shards' placement maps.
                                 if (!shard.injector.has_value() ||
                                     !shard.injector->absorb_departure(id)) {
                                   dc.cluster(cluster).remove(id);
                                 }
                                 shard.observe(t);
                               });
  };
  // Route every row whose arrival satisfies `due`, in row order.
  const auto pump = [&source, &route_row](const auto& due) {
    while (const core::VmInstance* row = source.peek()) {
      if (!due(row->arrival)) {
        break;
      }
      route_row(*row);
      source.advance();
    }
  };

  if (options.rebalance) {
    options.rebalance->interference.validate();
  }
  if (options.rebalance && horizon > 0) {
    const RebalanceOptions& rebalance = *options.rebalance;
    for (core::SimTime t = rebalance.interval; t < horizon; t += rebalance.interval) {
      for (ShardState& shard : shards) {
        if (shard.clusters.empty()) {
          continue;
        }
        shard.queue->schedule(t, [&dc, &shard, &rebalance](core::SimTime now) {
          for (const std::size_t c : shard.clusters) {
            control_tick(shard, dc.cluster(c), c, rebalance, now);
          }
          if (!shard.engine.has_value()) {
            shard.observe(now);
          }
        });
      }
    }
    if (rebalance.interference.enabled) {
      // Heat refresh schedule, per shard over its owned clusters. Scheduled
      // after the rebalance events so a coincident tick rebalances against
      // the *previous* window's heat. Heat is cluster-local state, so the
      // update is race-free while shards run in parallel, and no observe()
      // fires: a run only differs from a heat-free run through actual
      // placement changes. Each cluster's ticks go through the shard's
      // demand cache for it, the journal's one reader.
      const sched::InterferenceOptions& itf = rebalance.interference;
      for (core::SimTime t = itf.heat_interval; t < horizon; t += itf.heat_interval) {
        for (ShardState& shard : shards) {
          if (shard.clusters.empty()) {
            continue;
          }
          shard.heat_caches.resize(dc.clusters().size());
          shard.queue->schedule(t, [&dc, &shard, &itf](core::SimTime now) {
            for (const std::size_t c : shard.clusters) {
              shard.partial.heat_updates +=
                  update_cluster_heat(dc.cluster(c), now, itf.heat_alpha,
                                      itf.heat_bucket, &shard.heat_caches[c]);
            }
            if (debug_audit_enabled()) {
              for (const std::size_t c : shard.clusters) {
                debug_audit_check(*dc.clusters()[c]);
              }
            }
          });
        }
      }
    }
  }
  if (options.usage_monitor != nullptr && horizon > 0) {
    UsageMonitor* monitor = options.usage_monitor;
    for (core::SimTime t = monitor->interval() / 2; t < horizon;
         t += monitor->interval()) {
      shards[0].queue->schedule(t, [&dc, monitor](core::SimTime now) {
        monitor->record(sample_usage(dc, now));
      });
    }
  }
  // Armed last so that control-lane ties between the timetable and the
  // schedules above resolve the same way on every run. Workload events win
  // time ties regardless via their lane.
  for (ShardState& shard : shards) {
    if (shard.injector.has_value()) {
      shard.injector->arm(horizon);
    }
  }

  if (shard_count == 1) {
    // The pump invariant: before any event at time T fires, every row with
    // arrival <= T is scheduled. Rows arrive in nondecreasing order and
    // depart strictly after they arrive, so pulling until the next row
    // arrives after the queue's earliest pending event maintains it — and
    // the queue never holds more than the trace's active window.
    EventQueue& queue = *shards[0].queue;
    const auto due = [&queue](core::SimTime arrival) {
      return queue.empty() || arrival <= queue.next_time();
    };
    while (true) {
      pump(due);
      if (queue.empty()) {
        break;
      }
      queue.step();
    }
  } else {
    ParallelRunner runner(options.threads);

    // Bounded-wait barrier watchdog: a shard that stops draining its window
    // turns into a per-shard progress dump on stderr (and an abort when
    // fatal) instead of an undiagnosable hang.
    WatchdogConfig watchdog;
    watchdog.timeout = std::chrono::milliseconds(options.watchdog_ms);
    watchdog.fatal = options.watchdog_fatal;
    watchdog.on_stall = [&shards] {
      std::ostringstream os;
      os << "replay_sharded: barrier stalled; per-shard progress:\n";
      for (std::size_t k = 0; k < shards.size(); ++k) {
        const ShardState& shard = shards[k];
        os << "  shard " << k << ": " << shard.clusters.size() << " clusters, "
           << shard.queue->fired_count() << " events fired, sim time "
           << shard.queue->approx_now();
        if (shard.engine.has_value()) {
          os << ", " << shard.engine->in_flight() << " migrations in flight";
        }
        os << '\n';
      }
      std::fputs(os.str().c_str(), stderr);
      std::fflush(stderr);
    };
    const WatchdogConfig* dog = options.watchdog_ms > 0 ? &watchdog : nullptr;

    // Windowed execution: parallel stretches separated by serial barriers.
    // Each window's arrivals are demuxed serially before the window runs
    // (all their events lie in the window: departures are strictly after
    // arrivals, and events at or past the deadline wait for a later window
    // either way), so the shards only ever pull from their own queues while
    // in parallel.
    for (std::size_t b = 1; b < barrier_count; ++b) {
      const core::SimTime deadline =
          horizon * static_cast<double>(b) / static_cast<double>(barrier_count);
      pump([deadline](core::SimTime arrival) { return arrival < deadline; });
      runner.for_each(
          shard_count,
          [&shards, deadline](std::size_t k) { shards[k].queue->run_until(deadline); },
          dog);
      // Barrier (serial): merge + drop the window's samples, replay every
      // placement index's dirty log in one linear batch, and — in tests —
      // audit the whole datacenter.
      merger.merge(shards);
      for (std::size_t c = 0; c < dc.clusters().size(); ++c) {
        dc.cluster(c).flush_index();
      }
      debug_audit_check(dc);
    }
    // Final window: demux the remaining rows (arrivals at exactly the last
    // deadline, or past a 0 horizon), then drain completely (fault
    // repairs/retries may fire past the horizon).
    pump([](core::SimTime) { return true; });
    runner.for_each(
        shard_count, [&shards](std::size_t k) { shards[k].queue->run(); }, dog);
    merger.merge(shards);
  }
  debug_audit_check(dc);

  RunResult result;
  for (const ShardState& shard : shards) {
    if (shard.engine.has_value()) {
      // Drained queues mean every intent is terminal; re-derive the counter
      // identity and the reservation <-> flight bijection per shard.
      SLACKVM_ASSERT(shard.engine->in_flight() == 0 &&
                     shard.engine->pending_intents() == 0);
      const std::vector<std::string> violations = shard.engine->audit();
      if (!violations.empty()) {
        std::string message = "replay: migration audit failed:";
        for (const std::string& v : violations) {
          message += "\n  " + v;
        }
        SLACKVM_THROW(message);
      }
    }
    const RunResult& p = shard.partial;
    result.migrations += p.migrations;
    result.placed_vms += p.placed_vms;
    result.host_failures += p.host_failures;
    result.host_repairs += p.host_repairs;
    result.drained_hosts += p.drained_hosts;
    result.evacuated_vms += p.evacuated_vms;
    result.evac_replaced += p.evac_replaced;
    result.evac_migrated += p.evac_migrated;
    result.evac_retries += p.evac_retries;
    result.evac_departed += p.evac_departed;
    result.degraded_vms += p.degraded_vms;
    result.deferred_arrivals += p.deferred_arrivals;
    result.arrivals_dropped += p.arrivals_dropped;
    result.mig_planned += p.mig_planned;
    result.mig_committed += p.mig_committed;
    result.mig_cancelled += p.mig_cancelled;
    result.mig_rolled_back += p.mig_rolled_back;
    result.mig_timed_out += p.mig_timed_out;
    result.mig_degraded += p.mig_degraded;
    result.mig_retries += p.mig_retries;
    result.heat_updates += p.heat_updates;
    result.itf_passes += p.itf_passes;
    result.itf_hot_hosts += p.itf_hot_hosts;
    result.itf_evictions += p.itf_evictions;
    result.itf_applied += p.itf_applied;
    result.itf_requested += p.itf_requested;
    result.itf_skipped += p.itf_skipped;
  }
  result.opened_pms = dc.opened_pms();
  result.opened_per_cluster = dc.opened_per_cluster();
  merger.finish(result);
  return result;
}

RunResult replay_sharded(Datacenter& dc, const workload::Trace& trace,
                         const ShardOptions& options) {
  MaterializedSource source(trace);
  return replay_sharded(dc, source, options);
}

}  // namespace slackvm::sim
