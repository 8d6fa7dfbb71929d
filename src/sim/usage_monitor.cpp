#include "sim/usage_monitor.hpp"

#include <algorithm>
#include <memory>
#include <optional>

#include "core/error.hpp"
#include "core/stats.hpp"
#include "perf/contention.hpp"
#include "workload/usage.hpp"

namespace slackvm::sim {

UsageSample sample_usage(const Datacenter& dc, core::SimTime t) {
  UsageSample sample;
  sample.time = t;
  for (const auto& cluster : dc.clusters()) {
    for (const sched::HostState& host : cluster->hosts()) {
      ++sample.opened_hosts;
      sample.capacity_cores += host.config().cores;
      sample.alloc_cores += host.alloc().cores;
      double host_demand = 0.0;
      for (const auto& [vm, spec] : host.vms()) {
        const workload::UsageSignal signal(vm, spec.usage);
        host_demand += static_cast<double>(spec.vcpus) * signal.at(t);
      }
      sample.demand_cores += host_demand;
      sample.host_q.push_back(host_demand /
                              static_cast<double>(host.config().cores));
      if (host_demand > static_cast<double>(host.config().cores)) {
        ++sample.overloaded_hosts;
      }
    }
  }
  return sample;
}

DemandCache::DemandCache()
    : pool_(std::make_unique<core::ListPool>()) {}

DemandCache& DemandCache::operator=(DemandCache&& other) noexcept {
  if (this != &other) {
    // Term lists before the pool they draw from, as the destructor does.
    std::destroy_at(this);
    std::construct_at(this, std::move(other));
  }
  return *this;
}

void DemandCache::apply(const sched::MembershipDelta& delta) {
  if (delta.host >= entries_.size() || !entries_[delta.host].present) {
    // No cached view to patch (fresh opening, post-wipe, or a rolled-back
    // opening's id reused): the rebuild pass re-derives it from scratch.
    return;
  }
  Entry& entry = entries_[delta.host];
  switch (delta.op) {
    case sched::MembershipDelta::Op::kAdd: {
      const auto pos = std::ranges::lower_bound(entry.terms, delta.vm, {},
                                                &Term::vm);
      entry.terms.insert(
          pos, Term{delta.vm, static_cast<double>(delta.spec.vcpus),
                    workload::UsageSignal(delta.vm, delta.spec.usage)});
      break;
    }
    case sched::MembershipDelta::Op::kRemove: {
      const auto pos = std::ranges::lower_bound(entry.terms, delta.vm, {},
                                                &Term::vm);
      SLACKVM_ASSERT(pos != entry.terms.end() && pos->vm == delta.vm);
      entry.terms.erase(pos);
      break;
    }
    case sched::MembershipDelta::Op::kWipe:
      entry.terms.clear();
      entry.present = false;
      break;
  }
}

const std::vector<HostUsage>& DemandCache::sample(sched::VCluster& cluster,
                                                  core::SimTime t) {
  const std::vector<sched::HostState>& hosts = cluster.hosts();
  // A shrink (rolled-back openings) destroys the tail entries, so a later
  // regrow at the same ids starts present=false and rebuilds cleanly.
  if (entries_.size() > hosts.size()) {
    entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(hosts.size()),
                   entries_.end());
  }
  while (entries_.size() < hosts.size()) {
    entries_.emplace_back(pool_->resource());
  }
  usage_.resize(hosts.size());
  cluster.arm_membership_log();
  // With a complete journal the term lists are patched in place and the
  // epoch check is skipped entirely — membership epochs drifted since the
  // last restamp exactly because those mutations were journaled. A lossy
  // round (overflow, pre-arming history) degrades to the epoch protocol:
  // rebuild every host whose epoch moved since the last tick.
  const bool exact = cluster.take_membership_log(log_);
  if (exact) {
    for (const sched::MembershipDelta& delta : log_) {
      apply(delta);
    }
  }
  for (sched::HostId h = 0; h < hosts.size(); ++h) {
    const sched::HostState& host = hosts[h];
    Entry& entry = entries_[h];
    if (!entry.present || (!exact && entry.epoch != host.epoch())) {
      // Re-derive the term list exactly as the naive sample does, in the
      // host's ascending-VmId order.
      entry.terms.clear();
      entry.terms.reserve(host.vm_count());
      for (const auto& [vm, spec] : host.vms()) {
        entry.terms.push_back(Term{vm, static_cast<double>(spec.vcpus),
                                   workload::UsageSignal(vm, spec.usage)});
      }
      entry.present = true;
      ++rebuilds_;
    }
    entry.epoch = host.epoch();
    HostUsage usage;
    usage.capacity_cores = host.config().cores;
    // Same terms, same order, same ops as the naive sum: bit-identical.
    for (const Term& term : entry.terms) {
      usage.demand_cores += term.vcpus * term.signal.at(t);
    }
    usage_[h] = usage;
  }
  return usage_;
}

void DemandCache::restamp(const sched::VCluster& cluster) {
  const std::vector<sched::HostState>& hosts = cluster.hosts();
  const std::size_t n = std::min(entries_.size(), hosts.size());
  for (sched::HostId h = 0; h < n; ++h) {
    if (entries_[h].present) {
      entries_[h].epoch = hosts[h].epoch();
    }
  }
}

std::size_t update_cluster_heat(sched::VCluster& cluster, core::SimTime t,
                                double alpha, double bucket_width,
                                DemandCache* cache) {
  std::optional<DemandCache> local;
  DemandCache& demand = cache != nullptr ? *cache : local.emplace();
  const std::vector<HostUsage>& usage = demand.sample(cluster, t);
  for (sched::HostId h = 0; h < usage.size(); ++h) {
    const double q =
        usage[h].capacity_cores > 0
            ? usage[h].demand_cores / static_cast<double>(usage[h].capacity_cores)
            : 0.0;
    cluster.set_host_heat(
        h, alpha * q + (1.0 - alpha) * cluster.host_heat(h), bucket_width);
  }
  // The EWMA writes bumped epochs on bucket crossings; adopt them now so a
  // later lossy journal round does not mistake heat churn for membership
  // churn.
  demand.restamp(cluster);
  return usage.size();
}

UsageMonitor::UsageMonitor(core::SimTime interval) : interval_(interval) {
  SLACKVM_ASSERT(interval > 0);
}

void UsageMonitor::record(const UsageSample& sample) {
  ++report_.samples;
  if (sample.capacity_cores > 0) {
    const double fleet =
        sample.demand_cores / static_cast<double>(sample.capacity_cores);
    fleet_sum_ += fleet;
    report_.peak_fleet_utilization = std::max(report_.peak_fleet_utilization, fleet);
  }
  if (sample.alloc_cores > 0) {
    heat_sum_ += sample.demand_cores / static_cast<double>(sample.alloc_cores);
    ++heat_samples_;
  }
  report_.overload_host_hours +=
      static_cast<double>(sample.overloaded_hosts) * interval_ / 3600.0;
  if (model_ != nullptr) {
    for (const double q : sample.host_q) {
      inflations_.push_back(model_->contention_inflation(q));
    }
  }
}

UsageReport UsageMonitor::report() const {
  UsageReport out = report_;
  if (out.samples > 0) {
    out.avg_fleet_utilization = fleet_sum_ / static_cast<double>(out.samples);
  }
  if (heat_samples_ > 0) {
    out.avg_alloc_heat = heat_sum_ / static_cast<double>(heat_samples_);
  }
  out.inflation_samples = inflations_.size();
  if (!inflations_.empty()) {
    out.p90_inflation = core::percentile(inflations_, 90.0);
  }
  return out;
}

}  // namespace slackvm::sim
