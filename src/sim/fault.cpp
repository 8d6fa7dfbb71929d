#include "sim/fault.hpp"

#include <algorithm>
#include <utility>

#include "core/error.hpp"
#include "sim/migration.hpp"

namespace slackvm::sim {

FaultConfig resolve_fault_seed(FaultConfig config, std::uint64_t workload_seed) noexcept {
  if (config.seed == 0) {
    config.seed = core::derive_seed(workload_seed, kFaultSeedStream);
  }
  return config;
}

FaultInjector::FaultInjector(Datacenter& dc, EventQueue& queue, const FaultConfig& config,
                             RunResult& result, std::function<void(core::SimTime)> observe,
                             ShardScope scope)
    : dc_(dc),
      queue_(queue),
      config_(config),
      scope_(scope),
      result_(result),
      observe_(std::move(observe)) {
  SLACKVM_ASSERT(observe_ != nullptr);
  SLACKVM_ASSERT(scope_.of >= 1 && scope_.shard < scope_.of);
}

void FaultInjector::arm(core::SimTime horizon) {
  // Seeded faults first, directives second, both in stable order: at equal
  // timestamps the queue falls back to insertion order, so the timetable is
  // deterministic even when events collide.
  for (std::size_t k = 0; k < config_.count; ++k) {
    schedule_seeded(k, horizon);
  }
  for (const FaultDirective& directive : config_.directives) {
    schedule_directive(directive);
  }
}

void FaultInjector::schedule_seeded(std::size_t k, core::SimTime horizon) {
  // The k-th fault depends only on (seed, k), so the timetable is stable
  // under count changes and identical across index/parallelism settings.
  core::SplitMix64 rng(core::derive_seed(config_.seed, k));
  const core::SimTime fail_at = rng.uniform(0.0, std::max(horizon, 0.0));
  const std::uint64_t cluster_slot = rng();
  const std::uint64_t host_slot = rng();
  // The target cluster is fixed at schedule time (the cluster count never
  // changes during a run), so a sharded injector can drop the events it
  // does not own here and the per-shard timetables partition the one-shard one.
  const auto cluster = static_cast<std::size_t>(cluster_slot % dc_.clusters().size());
  if (!scope_.owns(cluster)) {
    return;
  }
  const core::SimTime begin_at = std::max(0.0, fail_at - config_.drain_lead);
  queue_.schedule(begin_at, [this, cluster, host_slot, fail_at](core::SimTime now) {
    fire_seeded_begin(cluster, host_slot, fail_at, now);
  });
}

void FaultInjector::schedule_directive(const FaultDirective& directive) {
  // Out-of-range directives stay with shard 0 so the range error below is
  // still raised exactly once.
  const bool in_range = directive.cluster < dc_.clusters().size();
  if (in_range ? !scope_.owns(directive.cluster) : scope_.shard != 0) {
    return;
  }
  queue_.schedule(directive.at, [this, d = directive](core::SimTime now) {
    if (d.cluster >= dc_.clusters().size()) {
      SLACKVM_THROW("FaultInjector: directive cluster " + std::to_string(d.cluster) +
                    " out of range");
    }
    if (d.host >= dc_.cluster(d.cluster).opened_hosts()) {
      return;  // the fleet never grew this far; the directive fizzles
    }
    switch (d.kind) {
      case FaultDirective::Kind::kDrain:
        fire_drain(d.cluster, d.host, now);
        return;
      case FaultDirective::Kind::kFail:
        // Explicit failures do not auto-repair: the scenario author pairs
        // them with explicit `repair` directives (or leaves the host down).
        fire_fail(d.cluster, d.host, /*auto_repair=*/false, now);
        return;
      case FaultDirective::Kind::kRepair:
        fire_repair(d.cluster, d.host, now);
        return;
    }
  });
}

void FaultInjector::fire_seeded_begin(std::size_t cluster, std::uint64_t host_slot,
                                      core::SimTime fail_at, core::SimTime now) {
  // Resolve the host against the cluster's live fleet at fire time.
  // Placement selection is bit-identical across index on/off and
  // parallelism settings, so the fleet — and therefore this resolution —
  // is too.
  sched::VCluster& cl = dc_.cluster(cluster);
  if (cl.opened_hosts() == 0) {
    return;  // nothing opened yet; the fault fizzles
  }
  const auto host = static_cast<sched::HostId>(host_slot % cl.opened_hosts());
  if (cl.host_phase(host) != sched::HostPhase::kUp) {
    return;  // already draining or down from an overlapping fault
  }
  if (config_.drain_lead > 0.0 && fail_at > now) {
    fire_drain(cluster, host, now);
    queue_.schedule(fail_at, [this, cluster, host](core::SimTime t) {
      fire_fail(cluster, host, /*auto_repair=*/true, t);
    });
    return;
  }
  fire_fail(cluster, host, /*auto_repair=*/true, now);
}

void FaultInjector::fire_drain(std::size_t cluster, sched::HostId host,
                               core::SimTime now) {
  sched::VCluster& cl = dc_.cluster(cluster);
  if (cl.host_phase(host) != sched::HostPhase::kUp) {
    return;
  }
  if (migration_engine_ != nullptr) {
    // Flights must let go of the host before migrate_off moves its VMs and
    // before the phase change strands destination reservations.
    migration_engine_->on_host_draining(cluster, host, now);
  }
  cl.drain_host(host);
  ++result_.drained_hosts;
  result_.evac_migrated += cl.migrate_off(host);
  observe_(now);
}

void FaultInjector::fire_fail(std::size_t cluster, sched::HostId host, bool auto_repair,
                              core::SimTime now) {
  sched::VCluster& cl = dc_.cluster(cluster);
  if (cl.host_phase(host) == sched::HostPhase::kFailed) {
    return;  // double failure (overlapping schedules); the repair is pending
  }
  if (migration_engine_ != nullptr) {
    // Cancel flights sourced here (the eviction below re-places their VMs)
    // and roll back reservations targeting the dying host — all before any
    // fleet mutation, so the engine classifies against pre-failure state.
    migration_engine_->on_host_failing(cluster, host, now);
  }
  ++result_.host_failures;
  const auto victims = dc_.fail_host(cluster, host);
  result_.evacuated_vms += victims.size();
  for (const auto& [vm, spec] : victims) {
    place_or_queue(vm, spec, /*from_failure=*/true, now);
  }
  observe_(now);
  if (auto_repair) {
    queue_.schedule(now + config_.repair_delay, [this, cluster, host](core::SimTime t) {
      fire_repair(cluster, host, t);
    });
  }
}

void FaultInjector::fire_repair(std::size_t cluster, sched::HostId host,
                                core::SimTime now) {
  sched::VCluster& cl = dc_.cluster(cluster);
  if (cl.host_phase(host) == sched::HostPhase::kUp) {
    return;  // an explicit directive repaired it earlier
  }
  cl.repair_host(host);
  ++result_.host_repairs;
  observe_(now);
}

void FaultInjector::deploy_or_defer(core::VmId id, const core::VmSpec& spec,
                                    core::SimTime now) {
  place_or_queue(id, spec, /*from_failure=*/false, now);
}

void FaultInjector::place_or_queue(core::VmId id, const core::VmSpec& spec,
                                   bool from_failure, core::SimTime now) {
  if (dc_.try_deploy(id, spec).has_value()) {
    if (from_failure) {
      ++result_.evac_replaced;
    } else {
      ++result_.placed_vms;
    }
    return;
  }
  if (!from_failure) {
    ++result_.deferred_arrivals;
  }
  const auto [it, inserted] = pending_.emplace(id, Pending{spec, 1, from_failure});
  SLACKVM_ASSERT(inserted);
  static_cast<void>(it);
  schedule_retry(id, 1, now);
}

void FaultInjector::schedule_retry(core::VmId id, std::size_t attempts,
                                   core::SimTime now) {
  // Exponential backoff keyed to the number of failed attempts so far:
  // base, 2x, 4x, ... (shift clamped only to dodge UB; max_retries keeps
  // real runs far below it).
  const double delay =
      config_.backoff_base *
      static_cast<double>(std::uint64_t{1} << std::min<std::size_t>(attempts - 1, 62));
  queue_.schedule(now + delay, [this, id](core::SimTime t) { retry(id, t); });
}

void FaultInjector::retry(core::VmId id, core::SimTime now) {
  const auto it = pending_.find(id);
  if (it == pending_.end()) {
    return;  // departed while waiting
  }
  Pending& entry = it->second;
  if (entry.from_failure) {
    ++result_.evac_retries;
  }
  if (dc_.try_deploy(id, entry.spec).has_value()) {
    if (entry.from_failure) {
      ++result_.evac_replaced;
    } else {
      ++result_.placed_vms;
    }
    pending_.erase(it);
    observe_(now);
    return;
  }
  ++entry.attempts;
  if (entry.attempts > config_.max_retries) {
    if (entry.from_failure) {
      ++result_.degraded_vms;
    } else {
      ++result_.arrivals_dropped;
    }
    degraded_.insert(id);
    pending_.erase(it);
    return;
  }
  schedule_retry(id, entry.attempts, now);
}

bool FaultInjector::absorb_departure(core::VmId id) {
  const auto it = pending_.find(id);
  if (it != pending_.end()) {
    if (it->second.from_failure) {
      ++result_.evac_departed;
    } else {
      // A deferred arrival whose lifetime ran out before capacity appeared
      // counts as dropped: it was never placed.
      ++result_.arrivals_dropped;
    }
    pending_.erase(it);
    return true;
  }
  return degraded_.erase(id) > 0;
}

}  // namespace slackvm::sim
