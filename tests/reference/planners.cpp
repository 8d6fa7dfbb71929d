#include "reference/planners.hpp"

#include <optional>
#include <vector>

#include "perf/contention.hpp"
#include "workload/usage.hpp"

namespace slackvm::reference {

using sched::HostId;
using sched::HostPhase;
using sched::HostState;
using sched::Migration;
using sched::MigrationPlan;

MigrationPlan plan_naive(const sched::VCluster& cluster, const sched::Scorer& scorer,
                         std::size_t max_migrations) {
  MigrationPlan plan;
  // Work on a scratch copy of the host states. Each host is attempted as a
  // drain source at most once, and emptied hosts never receive migrations —
  // otherwise two light hosts would ping-pong their VMs forever.
  std::vector<HostState> hosts = cluster.hosts();
  std::vector<bool> attempted(hosts.size(), false);
  std::vector<bool> emptied(hosts.size(), false);

  while (plan.migrations.size() < max_migrations) {
    // Pick the untried non-empty host with the fewest VMs — the cheapest
    // host to empty entirely.
    std::optional<std::size_t> candidate;
    for (std::size_t h = 0; h < hosts.size(); ++h) {
      if (hosts[h].empty() || attempted[h]) {
        continue;
      }
      if (!candidate || hosts[h].vm_count() < hosts[*candidate].vm_count()) {
        candidate = h;
      }
    }
    if (!candidate) {
      break;  // nothing left to try
    }
    attempted[*candidate] = true;
    HostState& source = hosts[*candidate];
    if (source.vm_count() > max_migrations - plan.migrations.size()) {
      break;  // even the cheapest drain exceeds the budget
    }

    // Tentatively migrate every VM of the source, best target first.
    std::vector<Migration> drain;
    std::vector<HostState> snapshot = hosts;  // rollback point
    bool drained = true;
    // Ascending VmId order: each successful move removes the source's
    // lowest-id VM, so the front is always the next one to place.
    while (!source.empty()) {
      const auto [vm, spec] = source.vms().front();
      std::optional<std::size_t> best;
      double best_score = 0.0;
      for (std::size_t h = 0; h < hosts.size(); ++h) {
        if (h == *candidate || emptied[h] || !hosts[h].can_host(spec)) {
          continue;
        }
        const double score = scorer.score(hosts[h].load(), spec);
        if (!best || score > best_score) {
          best = h;
          best_score = score;
        }
      }
      if (!best) {
        drained = false;
        break;
      }
      source.remove(vm);
      hosts[*best].add(vm, spec);
      drain.push_back(Migration{vm, static_cast<HostId>(*candidate),
                                static_cast<HostId>(*best)});
    }

    if (!drained) {
      hosts = std::move(snapshot);  // undo the partial drain, try next host
      continue;
    }
    emptied[*candidate] = true;
    plan.migrations.insert(plan.migrations.end(), drain.begin(), drain.end());
    ++plan.hosts_emptied;
  }
  return plan;
}

MigrationPlan plan_interference_naive(const sched::VCluster& cluster,
                                      const perf::ContentionModel& model,
                                      const sched::InterferenceOptions& options) {
  MigrationPlan plan;
  if (!options.enabled) {
    return plan;
  }
  // Scratch copy: planned evictions adjust the copies' heat so one pass
  // spreads its moves instead of dogpiling the coolest host. Each host is
  // considered as a polluter source at most once per pass.
  std::vector<HostState> hosts = cluster.hosts();
  std::vector<bool> attempted(hosts.size(), false);

  while (plan.migrations.size() < options.evictions_per_pass) {
    // Hottest untried UP host with at least two VMs (evicting the only VM
    // of a host just moves the whole load somewhere cooler — polluter
    // separation needs co-located victims to split).
    std::optional<std::size_t> source;
    for (std::size_t h = 0; h < hosts.size(); ++h) {
      if (attempted[h] || hosts[h].phase() != HostPhase::kUp ||
          hosts[h].vm_count() < 2) {
        continue;
      }
      if (!source || hosts[h].heat() > hosts[*source].heat()) {
        source = h;  // strict > keeps ties on the lowest id
      }
    }
    if (!source) {
      break;
    }
    // The fleet is scanned hottest-first, so once the hottest candidate sits
    // below the threshold every other host does too.
    if (model.contention_inflation(hosts[*source].heat()) <= options.threshold) {
      break;
    }
    attempted[*source] = true;
    ++plan.hot_hosts;
    HostState& src = hosts[*source];

    // Heaviest contributor: max expected physical-core demand, i.e. vCPUs
    // weighted by the VM's long-run mean usage. Deterministic: candidates
    // are ranked in ascending VmId order and replaced only on strictly
    // higher demand, so ties keep the lowest id.
    std::optional<core::VmId> victim;
    double victim_demand = 0.0;
    for (const auto& [vm, spec] : src.vms()) {
      const double demand = static_cast<double>(spec.vcpus) *
                            workload::UsageSignal(vm, spec.usage).mean();
      if (!victim || demand > victim_demand) {
        victim = vm;
        victim_demand = demand;
      }
    }
    const core::VmSpec spec = src.spec_of(*victim);

    // Coolest strictly-cooler UP host that fits the victim; ties to the
    // lowest id via strict <.
    std::optional<std::size_t> target;
    for (std::size_t h = 0; h < hosts.size(); ++h) {
      if (h == *source || hosts[h].heat() >= src.heat() ||
          !hosts[h].can_host(spec)) {
        continue;
      }
      if (!target || hosts[h].heat() < hosts[*target].heat()) {
        target = h;
      }
    }
    if (!target) {
      continue;  // hottest host is stuck; try the next-hottest
    }

    // Move the victim in scratch and shift its expected demand share
    // between the two heat columns (the EWMA re-converges on the real
    // values at the next heat refresh; this only guides within-pass
    // decisions).
    src.remove(*victim);
    hosts[*target].add(*victim, spec);
    const double src_cores = static_cast<double>(src.config().cores);
    const double dst_cores = static_cast<double>(hosts[*target].config().cores);
    src.set_heat(src.heat() - victim_demand / src_cores, options.heat_bucket);
    hosts[*target].set_heat(hosts[*target].heat() + victim_demand / dst_cores,
                            options.heat_bucket);
    plan.migrations.push_back(Migration{*victim, static_cast<HostId>(*source),
                                        static_cast<HostId>(*target)});
  }
  return plan;
}

}  // namespace slackvm::reference
