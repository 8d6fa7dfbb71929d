#include "traced_replay.hpp"

#include <algorithm>
#include <array>
#include <map>
#include <memory>
#include <span>
#include <string>

#include "core/error.hpp"
#include "core/oversub.hpp"
#include "perf/contention.hpp"
#include "sched/policy.hpp"
#include "sched/rebalancer.hpp"
#include "sim/audit.hpp"
#include "sim/event_queue.hpp"
#include "sim/migration.hpp"
#include "sim/usage_monitor.hpp"
#include "workload/generator.hpp"

namespace perfbench {

namespace sim = slackvm::sim;
namespace sched = slackvm::sched;
namespace core = slackvm::core;
namespace workload = slackvm::workload;
using Span = Tracer::Span;

namespace {

/// Fault-side state a queue event can move: the fault counters of the
/// RunResult plus the injector's retry and degraded queues.
std::array<std::size_t, 13> fault_state(const sim::RunResult& r,
                                        const sim::FaultInjector* injector) {
  return {r.host_failures,     r.host_repairs,     r.drained_hosts,   r.evacuated_vms,
          r.evac_replaced,     r.evac_migrated,    r.evac_retries,    r.evac_departed,
          r.degraded_vms,      r.deferred_arrivals, r.arrivals_dropped,
          injector != nullptr ? injector->pending() : 0,
          injector != nullptr ? injector->degraded() : 0};
}

void audit_or_throw(const sim::Datacenter& dc) {
  const std::vector<std::string> violations = sim::audit(dc);
  if (!violations.empty()) {
    std::string message = "post-run audit failed:";
    for (const std::string& v : violations) {
      message += "\n  " + v;
    }
    SLACKVM_THROW(message);
  }
}

}  // namespace

sim::RunResult traced_replay(Tracer& tracer, sim::Datacenter& dc, sim::EventSource& source,
                             const std::optional<sim::RebalanceOptions>& rebalance,
                             const sim::FaultConfig* faults, bool trace_source) {
  TraceStats& stats = tracer.stats();
  if (rebalance && !rebalance->migration.enabled) {
    SLACKVM_THROW("traced_replay mirrors engine-mode rebalancing only");
  }
  sim::EventQueue queue;
  sim::MetricsCollector metrics;
  sim::RunResult result;

  if (const std::optional<std::size_t> rows = source.size_hint()) {
    Span span(tracer, Layer::kSetup);
    dc.reserve(*rows);
  }
  const std::optional<core::SimTime> horizon_hint = source.horizon_hint();
  const bool wants_horizon =
      rebalance.has_value() || (faults != nullptr && faults->enabled());
  if (wants_horizon && !horizon_hint.has_value()) {
    SLACKVM_THROW("traced_replay: control schedules need a horizon hint");
  }
  const core::SimTime horizon = horizon_hint.value_or(0.0);
  core::SimTime end_time = horizon;

  auto observe = [&tracer, &dc, &metrics, &result, &end_time](core::SimTime t) {
    Span span(tracer, Layer::kMetrics);
    end_time = std::max(end_time, t);
    const std::size_t active = dc.active_pms();
    metrics.observe(t, dc.total_alloc(), dc.total_config(), dc.vm_count(), active);
    result.peak_active_pms = std::max(result.peak_active_pms, active);
    sim::debug_audit_check(dc);
  };

  std::optional<sim::FaultInjector> injector;
  if (faults != nullptr && faults->enabled()) {
    Span span(tracer, Layer::kFault);
    injector.emplace(dc, queue, *faults, result, observe);
  }
  std::optional<sim::MigrationEngine> engine;
  if (rebalance && rebalance->migration.enabled) {
    Span span(tracer, Layer::kMigration);
    engine.emplace(dc, queue, rebalance->migration, result, observe);
    if (injector.has_value()) {
      injector->set_migration_engine(&*engine);
    }
  }

  // Set by every event this driver schedules.
  bool mine = false;

  const auto schedule_row = [&](const core::VmInstance& vm) {
    queue.schedule_lane(vm.arrival, sim::EventQueue::kLaneWorkload,
                        [&, vm](core::SimTime t) {
                          mine = true;
                          {
                            Span span(tracer, Layer::kPlace);
                            if (injector.has_value()) {
                              injector->deploy_or_defer(vm.id, vm.spec, t);
                            } else {
                              dc.deploy(vm.id, vm.spec);
                              ++result.placed_vms;
                            }
                            stats.deploy_ns += span.close();
                            ++stats.deploys;
                          }
                          observe(t);
                        });
    queue.schedule_lane(vm.departure, sim::EventQueue::kLaneWorkload,
                        [&, id = vm.id](core::SimTime t) {
                          mine = true;
                          if (engine.has_value()) {
                            Span span(tracer, Layer::kMigration);
                            engine->on_departure(id, t);
                          }
                          {
                            Span span(tracer, Layer::kPlace);
                            if (!injector.has_value() || !injector->absorb_departure(id)) {
                              dc.remove(id);
                            }
                            stats.remove_ns += span.close();
                            ++stats.removes;
                          }
                          observe(t);
                        });
  };

  const auto pull = [&]() -> const core::VmInstance* {
    if (!trace_source) {
      return source.peek();
    }
    Span span(tracer, Layer::kWorkload);
    return source.peek();
  };
  const auto consume = [&]() {
    if (!trace_source) {
      source.advance();
      return;
    }
    Span span(tracer, Layer::kWorkload);
    source.advance();
    ++stats.rows;
  };
  // The caller holds the queue span: each main-loop iteration is one span
  // covering the pump and the step, so no time falls between two spans.
  const auto pump = [&]() {
    while (const core::VmInstance* row = pull()) {
      if (!queue.empty() && row->arrival > queue.next_time()) {
        break;
      }
      schedule_row(*row);
      consume();
    }
    stats.peak_pending = std::max<std::uint64_t>(stats.peak_pending, queue.pending());
  };
  {
    Span span(tracer, Layer::kQueue);
    pump();
  }

  Span setup_span(tracer, Layer::kSetup);
  const sched::Rebalancer rebalancer;
  const slackvm::perf::ContentionModel contention;
  std::vector<sim::DemandCache> heat_caches(dc.clusters().size());
  setup_span.close();
  const bool interference = rebalance && rebalance->interference.enabled;
  if (interference) {
    rebalance->interference.validate();
  }
  if (rebalance && horizon > 0) {
    stats.tick_ns.reserve(stats.tick_ns.size() +
                          static_cast<std::size_t>(horizon / rebalance->interval) + 1);
    for (core::SimTime t = rebalance->interval; t < horizon; t += rebalance->interval) {
      queue.schedule(t, [&](core::SimTime now) {
        mine = true;
        const std::int64_t tick_start = now_ns();
        for (std::size_t c = 0; c < dc.clusters().size(); ++c) {
          if (interference) {
            std::optional<sched::MigrationPlan> hot;
            {
              Span span(tracer, Layer::kPlanItf);
              hot.emplace(rebalancer.plan_interference(dc.cluster(c), contention,
                                                       rebalance->interference));
            }
            ++result.itf_passes;
            result.itf_hot_hosts += hot->hot_hosts;
            result.itf_evictions += hot->migrations.size();
            ++stats.itf_passes;
            stats.itf_hot_hosts += hot->hot_hosts;
            stats.itf_evictions += hot->migrations.size();
            for (const sched::Migration& m : hot->migrations) {
              Span span(tracer, Layer::kMigration);
              engine->request(c, m, now);
              ++result.itf_requested;
            }
          }
          std::optional<sched::MigrationPlan> plan;
          {
            Span span(tracer, Layer::kPlan);
            plan.emplace(rebalancer.plan(dc.cluster(c), rebalance->budget_per_pass));
          }
          ++stats.plan_passes;
          stats.plan_moves += plan->migrations.size();
          stats.plan_budget += rebalance->budget_per_pass;
          for (const sched::Migration& m : plan->migrations) {
            Span span(tracer, Layer::kMigration);
            engine->request(c, m, now);
          }
        }
        stats.tick_ns.push_back(now_ns() - tick_start);
      });
    }
  }
  if (interference && horizon > 0) {
    const sched::InterferenceOptions& itf = rebalance->interference;
    for (core::SimTime t = itf.heat_interval; t < horizon; t += itf.heat_interval) {
      queue.schedule(t, [&](core::SimTime now) {
        mine = true;
        Span span(tracer, Layer::kHeat);
        for (std::size_t c = 0; c < dc.clusters().size(); ++c) {
          sim::DemandCache* cache =
              dc.cluster(c).index_enabled() ? &heat_caches[c] : nullptr;
          const std::size_t updated = sim::update_cluster_heat(
              dc.cluster(c), now, itf.heat_alpha, itf.heat_bucket, cache);
          result.heat_updates += updated;
          stats.host_updates += updated;
        }
        sim::debug_audit_check(dc);
      });
    }
  }
  if (injector.has_value()) {
    Span span(tracer, Layer::kFault);
    injector->arm(horizon);
  }

  // Events the injector or the engine scheduled fire with `mine` clear. One
  // that moved the fault-side state is the injector's; any other is the
  // engine's when one is armed (flight completions, retries, stale tickets).
  const bool foreign_events = injector.has_value() || engine.has_value();
  const sim::FaultInjector* injector_ptr = injector.has_value() ? &*injector : nullptr;
  while (true) {
    Span span(tracer, Layer::kQueue);
    pump();
    if (queue.empty()) {
      break;
    }
    mine = false;
    if (!foreign_events) {
      queue.step();
      ++stats.events;
      continue;
    }
    const auto fault_before = fault_state(result, injector_ptr);
    queue.step();
    ++stats.events;
    if (!mine) {
      const bool fault = fault_state(result, injector_ptr) != fault_before;
      span.relabel(fault || !engine.has_value() ? Layer::kFault : Layer::kMigration);
    }
  }

  if (engine.has_value()) {
    Span span(tracer, Layer::kMigration);
    SLACKVM_ASSERT(engine->in_flight() == 0 && engine->pending_intents() == 0);
    const std::vector<std::string> violations = engine->audit();
    if (!violations.empty()) {
      std::string message = "traced_replay: migration audit failed:";
      for (const std::string& v : violations) {
        message += "\n  " + v;
      }
      SLACKVM_THROW(message);
    }
  }

  {
    Span span(tracer, Layer::kMetrics);
    result.opened_pms = dc.opened_pms();
    result.opened_per_cluster = dc.opened_per_cluster();
    metrics.finish(end_time, result);
  }
  return result;
}

std::vector<sim::PackingComparison> traced_sweep(Tracer& tracer,
                                                 const workload::Catalog& catalog,
                                                 const sim::ExperimentConfig& config) {
  if (config.shards > 1 || config.parallelism != 1 || config.faults.enabled() ||
      config.rebalance_interval > 0 || !config.trace_path.empty()) {
    SLACKVM_THROW("traced_sweep mirrors serial, generated, control-free sweeps only");
  }
  TraceStats& stats = tracer.stats();
  const std::vector<workload::LevelMix>& mixes = workload::paper_distributions();
  const std::size_t reps = config.repetitions == 0 ? 1 : config.repetitions;

  // One replay of `trace` on a datacenter built (and torn down) inside a
  // setup span, audited after the run like the other workloads' fleets.
  const auto replay_on = [&](const workload::Trace& trace, auto build) {
    std::optional<sim::Datacenter> dc;
    {
      Span span(tracer, Layer::kSetup);
      dc.emplace(build());
      dc->set_index_enabled(config.use_index);
    }
    sim::MaterializedSource source(trace);
    const sim::RunResult result =
        traced_replay(tracer, *dc, source, std::nullopt, nullptr, false);
    audit_or_throw(*dc);
    Span span(tracer, Layer::kSetup);
    dc.reset();
    return result;
  };

  std::vector<sim::PackingComparison> out;
  out.reserve(mixes.size());
  for (const workload::LevelMix& mix : mixes) {
    std::vector<core::OversubLevel> levels;
    for (const std::uint8_t ratio : core::kPaperLevelRatios) {
      if (mix.share(core::OversubLevel{ratio}) > 0.0) {
        levels.push_back(core::OversubLevel{ratio});
      }
    }
    std::vector<sim::RunResult> baseline;
    std::vector<sim::RunResult> slackvm;
    for (std::size_t rep = 0; rep < reps; ++rep) {
      workload::GeneratorConfig gen_cfg = config.generator;
      gen_cfg.seed = config.generator.seed + rep;
      std::optional<workload::Trace> trace;
      {
        Span span(tracer, Layer::kWorkload);
        trace.emplace(workload::Generator(catalog, mix, gen_cfg).generate());
        stats.rows += trace->size();
      }
      baseline.push_back(replay_on(*trace, [&] {
        return sim::Datacenter::dedicated(config.host_config, levels,
                                          sched::make_first_fit, config.mem_oversub);
      }));
      slackvm.push_back(replay_on(*trace, [&] {
        return sim::Datacenter::shared(config.host_config, sched::make_progress_policy,
                                       config.mem_oversub);
      }));
      Span span(tracer, Layer::kWorkload);
      trace.reset();
    }
    sim::PackingComparison cmp;
    cmp.provider = catalog.provider();
    cmp.distribution = mix.name;
    cmp.baseline = sim::mean_result(baseline);
    cmp.slackvm = sim::mean_result(slackvm);
    out.push_back(std::move(cmp));
  }
  return out;
}

}  // namespace perfbench
