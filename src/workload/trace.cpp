#include "workload/trace.hpp"

#include <algorithm>
#include <map>

#include "core/error.hpp"

namespace slackvm::workload {

Trace::Trace(std::vector<core::VmInstance> vms) : vms_(std::move(vms)) {
  for (const core::VmInstance& vm : vms_) {
    SLACKVM_ASSERT(vm.departure > vm.arrival);
  }
  // Stable: VMs sharing an arrival timestamp (possible after a CSV
  // round-trip truncates precision) keep their input order, so a
  // materialized trace replays the exact event sequence the streaming
  // frontend (TraceReader) produces from the same file.
  // Generated traces arrive sorted; checking first spares the sort's
  // temporary buffer.
  const auto arrival = [](const core::VmInstance& vm) { return vm.arrival; };
  if (!std::ranges::is_sorted(vms_, {}, arrival)) {
    std::ranges::stable_sort(vms_, {}, arrival);
  }
}

core::SimTime Trace::horizon() const { return workload::horizon(vms_); }

core::SimTime horizon(std::span<const core::VmInstance> rows) {
  core::SimTime latest = 0;
  for (const core::VmInstance& vm : rows) {
    latest = std::max(latest, vm.departure);
  }
  return latest;
}

std::size_t Trace::peak_population() const {
  // Sweep over +1/-1 deltas ordered by time; departures before arrivals at
  // equal timestamps (a slot freed at t is available at t).
  std::map<core::SimTime, long> delta;
  for (const core::VmInstance& vm : vms_) {
    delta[vm.arrival] += 1;
    delta[vm.departure] -= 1;
  }
  long current = 0;
  long peak = 0;
  for (const auto& [time, d] : delta) {
    current += d;
    peak = std::max(peak, current);
  }
  return static_cast<std::size_t>(peak);
}

Trace Trace::filter_level(core::OversubLevel level) const {
  std::vector<core::VmInstance> filtered;
  for (const core::VmInstance& vm : vms_) {
    if (vm.spec.level == level) {
      filtered.push_back(vm);
    }
  }
  return Trace(std::move(filtered));
}

}  // namespace slackvm::workload
