// The benchmark's traced driver: the same public calls sim::replay and
// sim::run_distribution_sweep make, in the same order, each wrapped in a
// span from the outside. Its results must be bit-identical to the library
// calls; the benchmark counts any difference as a failed replay.
#pragma once

#include <optional>
#include <vector>

#include "sim/datacenter.hpp"
#include "sim/event_source.hpp"
#include "sim/experiment.hpp"
#include "sim/fault.hpp"
#include "sim/metrics.hpp"
#include "sim/replay.hpp"
#include "tracer.hpp"

namespace perfbench {

/// Mirror of sim::replay(dc, source, rebalance, nullptr, faults). Supports
/// the configurations the workloads use: no rebalancing, or engine-mode
/// rebalancing with or without the interference loop; instant-mode
/// rebalancing throws. With `trace_source` set, every peek/advance on the
/// source is a `workload` span (streamed ingest); otherwise pulling rows is
/// charged to the queue, because an array index is cheaper than its span.
/// Every replay datacenter is audited after the run; violations throw.
[[nodiscard]] slackvm::sim::RunResult traced_replay(
    Tracer& tracer, slackvm::sim::Datacenter& dc, slackvm::sim::EventSource& source,
    const std::optional<slackvm::sim::RebalanceOptions>& rebalance,
    const slackvm::sim::FaultConfig* faults, bool trace_source);

/// Mirror of sim::run_distribution_sweep for serial, unsharded, fault- and
/// rebalance-free configurations (the paper's Fig. 3 protocol).
[[nodiscard]] std::vector<slackvm::sim::PackingComparison> traced_sweep(
    Tracer& tracer, const slackvm::workload::Catalog& catalog,
    const slackvm::sim::ExperimentConfig& config);

}  // namespace perfbench
