#include "sim/replay.hpp"

#include "sim/event_source.hpp"
#include "sim/shard.hpp"

namespace slackvm::sim {

RunResult replay(Datacenter& dc, EventSource& source,
                 const std::optional<RebalanceOptions>& rebalance,
                 UsageMonitor* usage_monitor, const FaultConfig* faults) {
  ShardOptions options;
  options.rebalance = rebalance;
  options.usage_monitor = usage_monitor;
  options.faults = faults;
  return replay_sharded(dc, source, options);
}

RunResult replay(Datacenter& dc, const workload::Trace& trace,
                 const std::optional<RebalanceOptions>& rebalance,
                 UsageMonitor* usage_monitor, const FaultConfig* faults) {
  MaterializedSource source(trace);
  return replay(dc, source, rebalance, usage_monitor, faults);
}

}  // namespace slackvm::sim
