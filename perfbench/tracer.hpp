// Outside-in span tracer: the benchmark wraps each call it makes into a
// simulator layer in a Span, and the tracer accumulates per-layer call
// counts, self time (span duration minus the time its child spans cover)
// and self allocations. Spans live on a fixed stack reserved up front, so
// tracing adds no heap allocations of its own.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "alloc_probe.hpp"

namespace perfbench {

/// The layers a traced run attributes time to, named after the modules
/// the benchmark calls into.
enum class Layer : std::uint8_t {
  kWorkload,   ///< trace ingest (streaming source) and trace generation
  kQueue,      ///< EventQueue: step self time plus scheduling
  kPlace,      ///< Datacenter deploy/remove (global placement + Algorithm 1)
  kPlan,       ///< Rebalancer::plan
  kPlanItf,    ///< Rebalancer::plan_interference
  kHeat,       ///< update_cluster_heat with a DemandCache
  kMigration,  ///< MigrationEngine calls and the flight events it schedules
  kFault,      ///< FaultInjector timetable and evacuation events
  kMetrics,    ///< MetricsCollector observe/finish
  kSetup,      ///< per-replay datacenter build and teardown
  kCount
};

inline constexpr std::array<const char*, static_cast<std::size_t>(Layer::kCount)>
    kLayerNames = {"workload",       "sim.queue",     "sched.place", "sched.plan",
                   "sched.plan_itf", "sim.heat",      "sim.migration",
                   "sim.fault",      "sim.metrics",   "sim.setup"};

[[nodiscard]] inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct LayerStats {
  std::uint64_t calls = 0;
  std::int64_t self_ns = 0;
  std::uint64_t self_allocs = 0;
};

/// Layer totals plus the per-layer extras the report derives ratios from.
/// Counters are plain fields the traced driver bumps at the boundary where
/// the work happens.
struct TraceStats {
  std::array<LayerStats, static_cast<std::size_t>(Layer::kCount)> layers{};
  std::uint64_t rows = 0;          ///< rows streamed from a file or generated
  std::uint64_t events = 0;        ///< queue steps fired
  std::uint64_t peak_pending = 0;  ///< largest queue size seen after a pump
  std::uint64_t deploys = 0;
  std::uint64_t removes = 0;
  std::int64_t deploy_ns = 0;
  std::int64_t remove_ns = 0;
  std::uint64_t plan_passes = 0;
  std::uint64_t plan_moves = 0;
  std::uint64_t plan_budget = 0;  ///< sum of the budgets handed to plan()
  std::uint64_t itf_passes = 0;
  std::uint64_t itf_hot_hosts = 0;
  std::uint64_t itf_evictions = 0;
  std::uint64_t host_updates = 0;
  std::vector<std::int64_t> tick_ns;  ///< whole control-tick durations

  [[nodiscard]] LayerStats& operator[](Layer layer) {
    return layers[static_cast<std::size_t>(layer)];
  }
  [[nodiscard]] const LayerStats& operator[](Layer layer) const {
    return layers[static_cast<std::size_t>(layer)];
  }
};

class Tracer {
 public:
  Tracer() { stack_.reserve(kMaxDepth); }
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] TraceStats& stats() noexcept { return stats_; }

  /// RAII span. close() may end it early and returns its self time.
  class Span {
   public:
    Span(Tracer& tracer, Layer layer) : tracer_(&tracer) { tracer.push(layer); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    ~Span() {
      if (tracer_ != nullptr) {
        tracer_->pop();
      }
    }

    /// Charge this span's self time to `layer` instead of the one it was
    /// opened with (used for queue events attributed after they fired).
    void relabel(Layer layer) noexcept { tracer_->stack_.back().layer = layer; }

    std::int64_t close() {
      const std::int64_t self = tracer_->pop();
      tracer_ = nullptr;
      return self;
    }

   private:
    Tracer* tracer_;
  };

 private:
  static constexpr std::size_t kMaxDepth = 16;

  struct Frame {
    Layer layer;
    std::int64_t start_ns;
    std::uint64_t start_allocs;
    std::int64_t child_ns;
    std::uint64_t child_allocs;
  };

  void push(Layer layer) {
    if (stack_.size() == kMaxDepth) {
      throw std::logic_error("perfbench: span stack overflow");
    }
    stack_.push_back(Frame{layer, 0, alloc_count(), 0, 0});
    stack_.back().start_ns = now_ns();
  }

  std::int64_t pop() {
    const std::int64_t end = now_ns();
    const Frame f = stack_.back();
    stack_.pop_back();
    const std::int64_t duration = end - f.start_ns;
    const std::uint64_t allocs = alloc_count() - f.start_allocs;
    const std::int64_t self = duration - f.child_ns;
    LayerStats& layer = stats_[f.layer];
    ++layer.calls;
    layer.self_ns += self;
    layer.self_allocs += allocs - f.child_allocs;
    if (!stack_.empty()) {
      stack_.back().child_ns += duration;
      stack_.back().child_allocs += allocs;
    }
    return self;
  }

  std::vector<Frame> stack_;
  TraceStats stats_;
};

}  // namespace perfbench
