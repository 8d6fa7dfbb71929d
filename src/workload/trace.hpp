// VM lifecycle traces: the "workload" fed to both evaluation platforms.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "core/vm.hpp"

namespace slackvm::workload {

/// A workload trace: VM instances with arrival/departure times, sorted by
/// arrival. Events are derived on demand by the simulator.
class Trace {
 public:
  Trace() = default;
  explicit Trace(std::vector<core::VmInstance> vms);

  [[nodiscard]] const std::vector<core::VmInstance>& vms() const noexcept { return vms_; }
  [[nodiscard]] std::size_t size() const noexcept { return vms_.size(); }
  [[nodiscard]] bool empty() const noexcept { return vms_.empty(); }

  /// Horizon: the latest departure time (0 for an empty trace).
  [[nodiscard]] core::SimTime horizon() const;

  /// Peak number of concurrently alive VMs.
  [[nodiscard]] std::size_t peak_population() const;

  /// Restrict to VMs at one oversubscription level (dedicated-cluster
  /// baseline input).
  [[nodiscard]] Trace filter_level(core::OversubLevel level) const;

 private:
  std::vector<core::VmInstance> vms_;
};

/// Latest departure over `rows` (0 when empty): Trace::horizon of a trace
/// holding them.
[[nodiscard]] core::SimTime horizon(std::span<const core::VmInstance> rows);

}  // namespace slackvm::workload
