// Pull-based workload event sources: the seam between trace ingestion and
// the replay engines.
//
// Historically replay()/replay_sharded() took a materialized
// workload::Trace and scheduled every arrival/departure up-front — O(trace)
// events resident before the first one fired. EventSource inverts that: the
// engine *pulls* rows one at a time (peek/advance, arrivals nondecreasing)
// and schedules them lazily on the workload lane
// (EventQueue::kLaneWorkload), so only the active window of the trace is
// ever in memory. Three implementations cover the workload zoo:
//
//  * MaterializedSource  — wraps a Trace; exact size and horizon hints.
//    replay(dc, trace, ...) is now sugar for this, so the materialized and
//    streaming paths run the identical engine (bit-identical RunResults,
//    pinned by tests/sim_stream_test.cpp).
//  * StreamingTraceSource — owns a workload::TraceReader; O(chunk) memory
//    for arbitrarily large files. Horizon/size hints come from an optional
//    TraceReader::scan() pre-pass (a cheap O(1)-memory sweep); without one
//    the source advertises no hints.
//  * GeneratorSource — wraps workload::Generator::Stream (synthetic rows,
//    never materialized). Advertises *no* horizon hint: generated
//    departures can exceed GeneratorConfig::horizon (the arrival+1 bump at
//    the edge), so the true horizon is data-dependent.
//
// Hint contract: hints are optional. Engines use size_hint() purely as a
// container reserve (never a decision input), and horizon_hint() to lay out
// periodic control schedules (rebalance passes, usage samples, the fault
// timetable) and barrier windows. Configurations that need the horizon
// up-front throw when the source cannot provide it — pre-scan or
// materialize in that case. When present, horizon_hint() must equal the
// latest departure of the full row stream (Trace::horizon()).
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <utility>

#include "core/error.hpp"
#include "core/units.hpp"
#include "core/vm.hpp"
#include "workload/generator.hpp"
#include "workload/trace.hpp"
#include "workload/trace_reader.hpp"

namespace slackvm::sim {

/// Arrival-ordered stream of VM lifecycle rows, pulled by the replay
/// engines. Implementations must yield rows with nondecreasing arrival
/// times; equal-arrival rows define the deterministic tie order.
class EventSource {
 public:
  EventSource() = default;
  EventSource(const EventSource&) = delete;
  EventSource& operator=(const EventSource&) = delete;
  virtual ~EventSource() = default;

  /// The next row without consuming it; nullptr once the stream is
  /// exhausted. The pointer is invalidated by advance().
  [[nodiscard]] virtual const core::VmInstance* peek() = 0;

  /// Consume the row returned by the last peek() (which must have been
  /// non-null).
  virtual void advance() = 0;

  /// Total rows in the stream, when known up-front. A pure reserve hint:
  /// engines must produce bit-identical results with or without it.
  [[nodiscard]] virtual std::optional<std::size_t> size_hint() const = 0;

  /// Latest departure across the whole stream (== Trace::horizon()), when
  /// known up-front. Required by replay_sharded (barrier windows) and by
  /// replay configurations with periodic control schedules.
  [[nodiscard]] virtual std::optional<core::SimTime> horizon_hint() const = 0;
};

/// EventSource over an already-materialized Trace, or over rows laid out
/// as a Trace holds them: sorted by arrival, each departing after it
/// arrives (Generator::generate_into writes them so). Not owned; they must
/// outlive the source. Exact hints.
class MaterializedSource final : public EventSource {
 public:
  explicit MaterializedSource(const workload::Trace& trace)
      : MaterializedSource(std::span<const core::VmInstance>(trace.vms())) {}

  explicit MaterializedSource(std::span<const core::VmInstance> rows)
      : rows_(rows), horizon_(workload::horizon(rows)) {}

  [[nodiscard]] const core::VmInstance* peek() override {
    return pos_ < rows_.size() ? &rows_[pos_] : nullptr;
  }
  void advance() override {
    SLACKVM_ASSERT(pos_ < rows_.size());
    ++pos_;
  }
  [[nodiscard]] std::optional<std::size_t> size_hint() const override {
    return rows_.size();
  }
  [[nodiscard]] std::optional<core::SimTime> horizon_hint() const override {
    return horizon_;
  }

 private:
  std::span<const core::VmInstance> rows_;
  core::SimTime horizon_;
  std::size_t pos_ = 0;
};

/// EventSource over a streaming TraceReader (owned). Pass the result of a
/// TraceReader::scan() pre-pass to provide the hints sharded/periodic
/// replays need; without it the source works for plain one-shard replays
/// only.
class StreamingTraceSource final : public EventSource {
 public:
  explicit StreamingTraceSource(
      workload::TraceReader reader,
      std::optional<workload::TraceReader::ScanInfo> scan = std::nullopt)
      : reader_(std::move(reader)), scan_(scan) {}

  /// Convenience: open `path` and (optionally) pre-scan it first. The scan
  /// streams the file once with O(chunk) memory.
  static StreamingTraceSource open(const std::string& path,
                                   workload::TraceReaderOptions options = {},
                                   bool pre_scan = false) {
    std::optional<workload::TraceReader::ScanInfo> scan;
    if (pre_scan) {
      scan = workload::TraceReader::scan(path, options);
    }
    return StreamingTraceSource(workload::TraceReader(path, options), scan);
  }

  [[nodiscard]] const core::VmInstance* peek() override { return reader_.peek(); }
  void advance() override { reader_.advance(); }
  [[nodiscard]] std::optional<std::size_t> size_hint() const override {
    if (!scan_.has_value()) {
      return std::nullopt;
    }
    return scan_->rows;
  }
  [[nodiscard]] std::optional<core::SimTime> horizon_hint() const override {
    if (!scan_.has_value()) {
      return std::nullopt;
    }
    return scan_->horizon;
  }

 private:
  workload::TraceReader reader_;
  std::optional<workload::TraceReader::ScanInfo> scan_;
};

/// EventSource over the synthetic generator's row stream. The generator
/// (and its catalog) must outlive the source. No horizon hint — see the
/// file comment — so this pairs with plain one-shard replays; materialize via
/// Generator::generate() when a horizon is needed.
class GeneratorSource final : public EventSource {
 public:
  explicit GeneratorSource(const workload::Generator& gen) : stream_(gen.stream()) {}

  [[nodiscard]] const core::VmInstance* peek() override {
    if (!have_ && !done_) {
      if (stream_.next(current_)) {
        have_ = true;
      } else {
        done_ = true;
      }
    }
    return have_ ? &current_ : nullptr;
  }
  void advance() override {
    SLACKVM_ASSERT(have_);
    have_ = false;
  }
  [[nodiscard]] std::optional<std::size_t> size_hint() const override {
    return std::nullopt;
  }
  [[nodiscard]] std::optional<core::SimTime> horizon_hint() const override {
    return std::nullopt;
  }

 private:
  workload::Generator::Stream stream_;
  core::VmInstance current_{};
  bool have_ = false;
  bool done_ = false;
};

}  // namespace slackvm::sim
