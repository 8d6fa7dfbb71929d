// Streaming replay differential suite: draining an EventSource
// incrementally (O(active window) memory) must be bit-identical to the
// historical materialize-then-schedule-everything path, across the full
// shards x index x faults x threads matrix, with the invariant audits
// re-validating the datacenter at every event. Also pins the
// GeneratorSource equivalence, the serial no-hint path, and the
// horizon-hint contract (configurations that need the horizon up-front
// must throw on hintless sources instead of silently mis-scheduling).
#include "sim/event_source.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "core/error.hpp"
#include "expect_identical.hpp"
#include "sched/policy.hpp"
#include "sim/audit.hpp"
#include "sim/experiment.hpp"
#include "sim/fault.hpp"
#include "sim/replay.hpp"
#include "sim/shard.hpp"
#include "workload/catalog.hpp"
#include "workload/generator.hpp"
#include "workload/level_mix.hpp"
#include "workload/trace.hpp"
#include "workload/trace_reader.hpp"

namespace slackvm::sim {
namespace {

using core::gib;

constexpr std::size_t kShardCounts[] = {1, 2, 8};
constexpr std::size_t kThreadCounts[] = {1, 2, 8};

const core::Resources kWorker{32, gib(128)};

workload::GeneratorConfig make_generator_config(std::size_t population,
                                                std::uint64_t seed) {
  workload::GeneratorConfig cfg;
  cfg.target_population = population;
  cfg.horizon = 2.0 * 24 * 3600;
  cfg.mean_lifetime = 1.0 * 24 * 3600;
  cfg.seed = seed;
  return cfg;
}

workload::Trace make_trace(std::size_t population, std::uint64_t seed) {
  workload::Generator gen(workload::azure_catalog(), workload::make_mix(34, 33, 33),
                          make_generator_config(population, seed));
  return gen.generate();
}

Datacenter make_dc(std::size_t shards, bool index) {
  Datacenter dc = Datacenter::shared_sharded(kWorker, sched::make_progress_policy,
                                             shards, 1.0);
  dc.set_index_enabled(index);
  return dc;
}

FaultConfig make_faults() {
  FaultConfig faults;
  faults.count = 40;
  faults.seed = 777;
  faults.repair_delay = 3600.0;
  return faults;
}

// Serialize with write_csv_fast (shortest round-trip times), so the rows
// the streaming reader yields are bit-exactly the rows of the in-memory
// trace the materialized reference replays.
std::string write_trace_file(const workload::Trace& trace, const std::string& name) {
  const std::string path = testing::TempDir() + name;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  workload::write_csv_fast(trace, out);
  out.close();
  EXPECT_TRUE(out.good());
  return path;
}

// --- the streaming differential matrix ---------------------------------------
//
// For every cell of shards {1,2,8} x index {on,off} x faults {on,off} x
// threads {1,2,8}: the reference is the materialized trace through
// replay_sharded; the candidate streams the same rows from disk through a
// pre-scanned StreamingTraceSource (the scan provides the horizon the
// barrier windows need). Per-event invariant audits stay on throughout.
TEST(StreamDifferential, StreamingMatchesMaterializedAcrossShardMatrix) {
  ScopedDebugAudit audit_every_event;
  const workload::Trace trace = make_trace(100, 42);
  const std::string path = write_trace_file(trace, "stream_matrix.csv");
  const FaultConfig faults = make_faults();
  for (const std::size_t shards : kShardCounts) {
    for (const bool index : {true, false}) {
      for (const bool inject : {false, true}) {
        ShardOptions options;
        options.shards = shards;
        options.faults = inject ? &faults : nullptr;
        Datacenter reference_dc = make_dc(shards, index);
        const RunResult reference = replay_sharded(reference_dc, trace, options);
        if (inject) {
          EXPECT_GT(reference.host_failures, 0U);
        }
        for (const std::size_t threads : kThreadCounts) {
          options.threads = threads;
          Datacenter dc = make_dc(shards, index);
          StreamingTraceSource source =
              StreamingTraceSource::open(path, {}, /*pre_scan=*/true);
          const RunResult result = replay_sharded(dc, source, options);
          SCOPED_TRACE("shards " + std::to_string(shards) + " index " +
                       std::to_string(index) + " faults " + std::to_string(inject) +
                       " threads " + std::to_string(threads));
          expect_identical(reference, result);
        }
      }
    }
  }
  std::remove(path.c_str());
}

// A plain one-shard replay needs no hints at all: a hintless streaming
// source (no scan pre-pass) must still be bit-identical to the
// materialized path, with the run duration converging to the horizon
// through observation — through replay() and through replay_sharded at
// one shard on any thread count (S > 1 still refuses a hintless source,
// see HintlessSourcesThrowWhereHorizonIsRequired).
TEST(StreamDifferential, SerialStreamingWithoutHintsMatchesMaterialized) {
  ScopedDebugAudit audit_every_event;
  const workload::Trace trace = make_trace(100, 7);
  const std::string path = write_trace_file(trace, "stream_serial.csv");
  for (const bool index : {true, false}) {
    SCOPED_TRACE("index " + std::to_string(index));
    Datacenter reference_dc = make_dc(1, index);
    const RunResult reference = replay(reference_dc, trace);
    EXPECT_EQ(reference.duration, trace.horizon());

    Datacenter dc = make_dc(1, index);
    StreamingTraceSource source =
        StreamingTraceSource::open(path, {}, /*pre_scan=*/false);
    EXPECT_FALSE(source.horizon_hint().has_value());
    expect_identical(reference, replay(dc, source));

    for (const std::size_t threads : kThreadCounts) {
      SCOPED_TRACE("replay_sharded, threads " + std::to_string(threads));
      Datacenter sharded_dc = make_dc(1, index);
      StreamingTraceSource sharded_source =
          StreamingTraceSource::open(path, {}, /*pre_scan=*/false);
      ShardOptions options;
      options.threads = threads;
      expect_identical(reference, replay_sharded(sharded_dc, sharded_source, options));
    }
  }
  std::remove(path.c_str());
}

// Periodic control schedules (rebalance passes, the fault timetable) are
// laid out from the horizon hint; with a scan pre-pass the streamed run
// must reproduce the materialized one bit-for-bit.
TEST(StreamDifferential, SerialControlSchedulesMatchWithScanHint) {
  ScopedDebugAudit audit_every_event;
  const workload::Trace trace = make_trace(100, 13);
  const std::string path = write_trace_file(trace, "stream_control.csv");
  const FaultConfig faults = make_faults();
  const RebalanceOptions rebalance{.interval = 6.0 * 3600, .budget_per_pass = 64};

  Datacenter reference_dc = make_dc(1, true);
  const RunResult reference =
      replay(reference_dc, trace, rebalance, nullptr, &faults);
  EXPECT_GT(reference.host_failures, 0U);

  Datacenter dc = make_dc(1, true);
  StreamingTraceSource source =
      StreamingTraceSource::open(path, {}, /*pre_scan=*/true);
  EXPECT_EQ(source.horizon_hint(), std::optional<core::SimTime>(trace.horizon()));
  expect_identical(reference, replay(dc, source, rebalance, nullptr, &faults));
  std::remove(path.c_str());
}

// The synthetic path: pulling rows straight off Generator::Stream (never
// materialized) must equal materializing via generate() first — the stream
// is the generate() implementation, so this pins the refactor.
TEST(StreamDifferential, GeneratorSourceMatchesMaterializedGenerate) {
  ScopedDebugAudit audit_every_event;
  const workload::Generator gen(workload::azure_catalog(),
                                workload::make_mix(34, 33, 33),
                                make_generator_config(100, 21));
  Datacenter reference_dc = make_dc(1, true);
  const RunResult reference = replay(reference_dc, gen.generate());

  Datacenter dc = make_dc(1, true);
  GeneratorSource source(gen);
  expect_identical(reference, replay(dc, source));
}

// The horizon-hint contract: configurations that must know the horizon
// before the first event fires (barrier windows, rebalance passes, the
// fault timetable) throw on a hintless source instead of guessing.
TEST(StreamDifferential, HintlessSourcesThrowWhereHorizonIsRequired) {
  const workload::Trace trace = make_trace(40, 5);
  const std::string path = write_trace_file(trace, "stream_hintless.csv");
  const FaultConfig faults = make_faults();
  const RebalanceOptions rebalance{};

  {
    Datacenter dc = make_dc(2, true);
    StreamingTraceSource source = StreamingTraceSource::open(path);
    ShardOptions options;
    options.shards = 2;
    try {
      (void)replay_sharded(dc, source, options);
      FAIL() << "expected SlackError";
    } catch (const core::SlackError& e) {
      EXPECT_NE(std::string(e.what()).find("horizon"), std::string::npos)
          << e.what();
    }
  }
  {
    Datacenter dc = make_dc(1, true);
    StreamingTraceSource source = StreamingTraceSource::open(path);
    EXPECT_THROW((void)replay(dc, source, rebalance), core::SlackError);
  }
  {
    Datacenter dc = make_dc(1, true);
    StreamingTraceSource source = StreamingTraceSource::open(path);
    EXPECT_THROW((void)replay(dc, source, std::nullopt, nullptr, &faults),
                 core::SlackError);
  }
  {
    // A generator source never has a horizon; sharded replay must refuse it.
    const workload::Generator gen(workload::azure_catalog(),
                                  workload::make_mix(34, 33, 33),
                                  make_generator_config(40, 5));
    Datacenter dc = make_dc(2, true);
    GeneratorSource source(gen);
    ShardOptions options;
    options.shards = 2;
    EXPECT_THROW((void)replay_sharded(dc, source, options), core::SlackError);
  }
  std::remove(path.c_str());
}

// End-to-end: an ExperimentConfig with trace_path set streams the file for
// every cell — deterministically, with the dedicated baseline covering all
// three paper levels (the classifier decides the level population row by
// row, so all three clusters must exist up-front).
TEST(StreamDifferential, ExperimentStreamsTraceFile) {
  const workload::Trace trace = make_trace(60, 9);
  const std::string path = write_trace_file(trace, "stream_experiment.csv");

  ExperimentConfig config;
  config.trace_path = path;
  config.generator = make_generator_config(60, 9);  // ignored for workload

  const PackingComparison first =
      compare_packing(workload::azure_catalog(), workload::make_mix(34, 33, 33),
                      config);
  EXPECT_EQ(first.slackvm.placed_vms, trace.size());
  EXPECT_EQ(first.baseline.opened_per_cluster.size(), 3U);
  EXPECT_GT(first.slackvm.opened_pms, 0U);

  const PackingComparison second =
      compare_packing(workload::azure_catalog(), workload::make_mix(34, 33, 33),
                      config);
  expect_identical(first.baseline, second.baseline);
  expect_identical(first.slackvm, second.slackvm);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace slackvm::sim
