#include "sim/replay.hpp"

#include <algorithm>
#include <optional>

#include "perf/contention.hpp"
#include "sim/audit.hpp"
#include "sim/event_source.hpp"

namespace slackvm::sim {

RunResult replay(Datacenter& dc, EventSource& source,
                 const std::optional<RebalanceOptions>& rebalance,
                 UsageMonitor* usage_monitor, const FaultConfig* faults) {
  EventQueue queue;
  MetricsCollector metrics;
  RunResult result;

  // Row-count hint: pre-size the host vectors before the churn. Purely a
  // performance hint — absent for unscanned streams.
  if (const std::optional<std::size_t> rows = source.size_hint()) {
    dc.reserve(*rows);
  }

  // Periodic control schedules (consolidation passes, usage samples, the
  // fault timetable) must be laid out before the first event fires, which
  // needs the horizon up-front. A plain replay converges to the horizon by
  // observation instead (the last departure is the latest event).
  const std::optional<core::SimTime> horizon_hint = source.horizon_hint();
  const bool wants_horizon = rebalance.has_value() || usage_monitor != nullptr ||
                             (faults != nullptr && faults->enabled());
  if (wants_horizon && !horizon_hint.has_value()) {
    SLACKVM_THROW(
        "replay: rebalance/usage-monitor/fault schedules need the trace "
        "horizon up-front, but this event source has no horizon hint; "
        "pre-scan the file (TraceReader::scan) or materialize the trace");
  }
  const core::SimTime horizon = horizon_hint.value_or(0.0);

  // Fault events (repairs, backoff retries) may legitimately fire past the
  // trace horizon; the run ends at the later of the two.
  core::SimTime end_time = horizon;

  auto observe = [&dc, &metrics, &result, &end_time](core::SimTime t) {
    end_time = std::max(end_time, t);
    const std::size_t active = dc.active_pms();
    metrics.observe(t, dc.total_alloc(), dc.total_config(), dc.vm_count(), active);
    result.peak_active_pms = std::max(result.peak_active_pms, active);
    // No-op unless the debug-audit flag is set (tests): every event is then
    // followed by a full invariant audit, throwing on the first violation.
    debug_audit_check(dc);
  };

  std::optional<FaultInjector> injector;
  if (faults != nullptr && faults->enabled()) {
    injector.emplace(dc, queue, *faults, result, observe);
  }
  std::optional<MigrationEngine> engine;
  if (rebalance && rebalance->migration.enabled) {
    engine.emplace(dc, queue, rebalance->migration, result, observe);
    if (injector.has_value()) {
      // Faults must abort/reroute the flights they touch *before* they
      // mutate the fleet (sim/migration.hpp failure semantics).
      injector->set_migration_engine(&*engine);
    }
  }

  // Lazily schedule one trace row: arrival then departure, both on the
  // workload lane so a row inserted mid-run still wins time ties against
  // control events exactly as the historical schedule-everything-first
  // replay did. The row is captured by value — the source's buffers are
  // long recycled by the time the events fire.
  const auto schedule_row = [&queue, &dc, &result, &observe, &injector,
                             &engine](const core::VmInstance& vm) {
    queue.schedule_lane(
        vm.arrival, EventQueue::kLaneWorkload,
        [&dc, &result, vm, &observe, &injector](core::SimTime t) {
          if (injector.has_value()) {
            // Under fault injection capacity can be transiently exhausted;
            // arrivals defer into the retry/degraded machinery instead of
            // aborting the run.
            injector->deploy_or_defer(vm.id, vm.spec, t);
          } else {
            dc.deploy(vm.id, vm.spec);
            ++result.placed_vms;
          }
          observe(t);
        });
    queue.schedule_lane(vm.departure, EventQueue::kLaneWorkload,
                        [&dc, &observe, &injector, &engine, id = vm.id](core::SimTime t) {
                          // A departing VM first cancels any migration intent
                          // it carries (rolling back an in-flight
                          // reservation) — the engine must let go before the
                          // VM leaves the placement maps.
                          if (engine.has_value()) {
                            engine->on_departure(id, t);
                          }
                          // A VM still waiting for a retry (or parked
                          // degraded) is not in the datacenter; the injector
                          // absorbs its departure.
                          if (!injector.has_value() || !injector->absorb_departure(id)) {
                            dc.remove(id);
                          }
                          observe(t);
                        });
  };

  // The pump invariant: before any event at time T fires, every row with
  // arrival <= T is scheduled. Rows arrive in nondecreasing order and
  // depart strictly after they arrive, so pulling until the next row
  // arrives after the queue's earliest pending event maintains it — and
  // the queue never holds more than the trace's active window.
  const auto pump = [&queue, &source, &schedule_row]() {
    while (const core::VmInstance* row = source.peek()) {
      if (!queue.empty() && row->arrival > queue.next_time()) {
        break;
      }
      schedule_row(*row);
      source.advance();
    }
  };
  pump();

  // Must outlive queue.run(): the periodic events below capture them.
  const sched::Rebalancer rebalancer;
  const perf::ContentionModel contention;
  // Per-cluster demand caches for the heat ticks; handed to
  // update_cluster_heat only when the cluster's index machinery is on, so
  // --index=off keeps the naive sample as the live differential reference.
  std::vector<DemandCache> heat_caches(dc.clusters().size());
  const bool interference = rebalance && rebalance->interference.enabled;
  if (interference) {
    rebalance->interference.validate();
  }
  if (rebalance && horizon > 0) {
    for (core::SimTime t = rebalance->interval; t < horizon; t += rebalance->interval) {
      if (engine.has_value()) {
        // Continuous rebalance loop: plan per cluster against the live
        // (reservation-aware) state and hand every move to the engine as an
        // intent. Flights already in the air make request() reject repeats,
        // and the per-cluster in-flight budget bounds the launch rate. With
        // interference on, each cluster's polluter pass runs first so its
        // evictions claim in-flight slots before consolidation fills them.
        queue.schedule(t, [&dc, &result, &rebalancer, &rebalance, &engine,
                           &contention, interference](core::SimTime now) {
          for (std::size_t c = 0; c < dc.clusters().size(); ++c) {
            if (interference) {
              const sched::MigrationPlan hot = rebalancer.plan_interference(
                  dc.cluster(c), contention, rebalance->interference);
              ++result.itf_passes;
              result.itf_hot_hosts += hot.hot_hosts;
              result.itf_evictions += hot.migrations.size();
              for (const sched::Migration& m : hot.migrations) {
                engine->request(c, m, now);
                ++result.itf_requested;
              }
            }
            const sched::MigrationPlan plan =
                rebalancer.plan(dc.cluster(c), rebalance->budget_per_pass);
            for (const sched::Migration& m : plan.migrations) {
              engine->request(c, m, now);
            }
          }
        });
      } else if (interference) {
        // Instant mode, interference on: interleave polluter pass and
        // consolidation per cluster — the exact order replay_sharded()'s
        // per-shard pass uses, so both paths stay bit-identical.
        queue.schedule(t, [&dc, &result, &rebalancer, &rebalance, &contention,
                           &observe](core::SimTime now) {
          for (std::size_t c = 0; c < dc.clusters().size(); ++c) {
            const sched::MigrationPlan hot = rebalancer.plan_interference(
                dc.cluster(c), contention, rebalance->interference);
            ++result.itf_passes;
            result.itf_hot_hosts += hot.hot_hosts;
            result.itf_evictions += hot.migrations.size();
            const std::size_t applied =
                sched::Rebalancer::apply_plan(dc.cluster(c), hot);
            result.itf_applied += applied;
            result.itf_skipped += hot.migrations.size() - applied;
            result.migrations += applied;
            const sched::MigrationPlan plan =
                rebalancer.plan(dc.cluster(c), rebalance->budget_per_pass);
            result.migrations += sched::Rebalancer::apply_plan(dc.cluster(c), plan);
          }
          observe(now);
        });
      } else {
        queue.schedule(t, [&dc, &result, &rebalancer, &rebalance,
                           &observe](core::SimTime now) {
          result.migrations += dc.rebalance(rebalancer, rebalance->budget_per_pass);
          observe(now);
        });
      }
    }
  }
  if (interference && horizon > 0) {
    // Heat refresh schedule: one event per heat_interval updates every
    // host's EWMA through the index-safe funnel. Scheduled after the
    // rebalance events so a coincident tick rebalances against the
    // *previous* window's heat — the same relative order replay_sharded()
    // uses. The metric sample stream is untouched (no observe()): a run
    // only differs from a heat-free run through actual placement changes.
    const sched::InterferenceOptions& itf = rebalance->interference;
    for (core::SimTime t = itf.heat_interval; t < horizon; t += itf.heat_interval) {
      queue.schedule(t, [&dc, &result, &itf, &heat_caches](core::SimTime now) {
        for (std::size_t c = 0; c < dc.clusters().size(); ++c) {
          DemandCache* cache =
              dc.cluster(c).index_enabled() ? &heat_caches[c] : nullptr;
          result.heat_updates += update_cluster_heat(
              dc.cluster(c), now, itf.heat_alpha, itf.heat_bucket, cache);
        }
        debug_audit_check(dc);
      });
    }
  }
  if (usage_monitor != nullptr && horizon > 0) {
    for (core::SimTime t = usage_monitor->interval() / 2; t < horizon;
         t += usage_monitor->interval()) {
      queue.schedule(t, [&dc, usage_monitor](core::SimTime now) {
        usage_monitor->record(sample_usage(dc, now));
      });
    }
  }
  // Armed last so that control-lane ties between the timetable and the
  // schedules above resolve the same way on every run. Workload events win
  // time ties regardless via their lane.
  if (injector.has_value()) {
    injector->arm(horizon);
  }

  while (true) {
    pump();
    if (queue.empty()) {
      break;
    }
    queue.step();
  }

  if (engine.has_value()) {
    // A drained queue means every intent reached a terminal bucket; the
    // engine re-derives the counter identity and the reservation <-> flight
    // bijection from first principles.
    SLACKVM_ASSERT(engine->in_flight() == 0 && engine->pending_intents() == 0);
    const std::vector<std::string> violations = engine->audit();
    if (!violations.empty()) {
      std::string message = "replay: migration audit failed:";
      for (const std::string& v : violations) {
        message += "\n  " + v;
      }
      SLACKVM_THROW(message);
    }
  }

  result.opened_pms = dc.opened_pms();
  result.opened_per_cluster = dc.opened_per_cluster();
  metrics.finish(end_time, result);
  return result;
}

RunResult replay(Datacenter& dc, const workload::Trace& trace,
                 const std::optional<RebalanceOptions>& rebalance,
                 UsageMonitor* usage_monitor, const FaultConfig* faults) {
  MaterializedSource source(trace);
  return replay(dc, source, rebalance, usage_monitor, faults);
}

}  // namespace slackvm::sim
