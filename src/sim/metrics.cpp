#include "sim/metrics.hpp"

#include <algorithm>

namespace slackvm::sim {

namespace {

double share(double part, double whole) { return whole > 0 ? part / whole : 0.0; }

}  // namespace

void MetricsCollector::observe(core::SimTime time, const core::Resources& alloc,
                               const core::Resources& config, std::size_t running_vms,
                               std::size_t active_pms) {
  const double cpu_share = share(static_cast<double>(config.cores - alloc.cores),
                                 static_cast<double>(config.cores));
  const double mem_share = share(static_cast<double>(config.mem_mib - alloc.mem_mib),
                                 static_cast<double>(config.mem_mib));
  unalloc_cpu_.record(time, cpu_share);
  unalloc_mem_.record(time, mem_share);
  active_pms_.record(time, static_cast<double>(active_pms));
  alloc_cores_.record(time, static_cast<double>(alloc.cores));
  peak_vms_ = std::max(peak_vms_, running_vms);
  if (alloc.cores >= peak_alloc_cores_) {
    peak_alloc_cores_ = alloc.cores;
    peak_cpu_share_ = cpu_share;
    peak_mem_share_ = mem_share;
  }
}

void MetricsCollector::finish(core::SimTime end_time, RunResult& result) const {
  result.avg_unalloc_cpu_share = unalloc_cpu_.finish(end_time);
  result.avg_unalloc_mem_share = unalloc_mem_.finish(end_time);
  result.duration = end_time;
  result.avg_active_pms = active_pms_.finish(end_time);
  result.avg_alloc_cores = alloc_cores_.finish(end_time);
  result.peak_vms = peak_vms_;
  result.peak_unalloc_cpu_share = peak_cpu_share_;
  result.peak_unalloc_mem_share = peak_mem_share_;
}

std::vector<std::string> counter_identity_violations(const RunResult& r) {
  std::vector<std::string> out;
  const auto check = [&out](const char* identity, std::size_t total, std::size_t parts) {
    if (total != parts) {
      out.push_back(std::string(identity) + ": " + std::to_string(total) +
                    " != " + std::to_string(parts));
    }
  };
  check("evacuated_vms == evac_replaced + evac_departed + degraded_vms",
        r.evacuated_vms, r.evac_replaced + r.evac_departed + r.degraded_vms);
  check("mig_planned == mig_committed + mig_cancelled + mig_rolled_back + "
        "mig_timed_out + mig_degraded",
        r.mig_planned,
        r.mig_committed + r.mig_cancelled + r.mig_rolled_back + r.mig_timed_out +
            r.mig_degraded);
  check("itf_evictions == itf_applied + itf_requested + itf_skipped", r.itf_evictions,
        r.itf_applied + r.itf_requested + r.itf_skipped);
  return out;
}

}  // namespace slackvm::sim
