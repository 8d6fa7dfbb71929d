// Micro-benchmark for the streaming trace frontend (workload/trace_reader):
// what the zero-copy parser buys over the istream reference, and what the
// O(active window) replay saves in resident memory.
//
// Three sections, all on a synthetic trace written by the same
// write_csv_fast serializer trace_synth uses (short VM lifetimes, so the
// active window is a few thousand VMs even at millions of rows — the shape
// where streaming pays):
//
//  1. *Replay peak RSS, streaming* — replay the file through a hintless
//     StreamingTraceSource: rows are pulled and scheduled lazily, so the
//     process never holds more than the active window. Run FIRST (and the
//     generation-phase buffers are mmap-sized, returned to the OS on free),
//     with the kernel peak-RSS counter reset before each phase
//     (/proc/self/clear_refs), so the phases report honest peaks.
//  2. *Replay peak RSS, materialized* — the historical path: read_all()
//     then replay the Trace, paying O(rows) vectors plus the fully
//     populated event queue up-front. The RunResults of 1 and 2 are
//     checked bit-identical and the process exits non-zero on divergence.
//  3. *Parse throughput* — rows/s of reference::read_csv (istream + stod,
//     tests/reference/trace_csv.hpp) vs TraceReader three ways: read_all()
//     in chunked and mmap modes (materializing, so they still pay the
//     O(rows) vector + sorted-Trace construction floor that read_csv also
//     pays), and the pure streaming pull (a next() loop, the path replay actually uses —
//     no materialization at all). The materialized traces are checked
//     row-for-row bit-identical against the reference. The streaming pull
//     measures 7-9x read_csv on the 2.1 GHz reference core (the target was
//     10x; the remaining gap is machine noise plus a reserve heuristic
//     that also sped up the read_csv baseline).
//
//   micro_trace [--rows N] [--file PATH] [--keep] [--json]
//
// --json emits the machine-readable report checked in as
// BENCH_micro_trace.json (generated with --rows 5000000).
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>

#include "bench_util.hpp"
#include "core/vm.hpp"
#include "reference/trace_csv.hpp"
#include "sched/policy.hpp"
#include "sim/datacenter.hpp"
#include "sim/event_source.hpp"
#include "sim/replay.hpp"
#include "workload/catalog.hpp"
#include "workload/generator.hpp"
#include "workload/level_mix.hpp"
#include "workload/trace.hpp"
#include "workload/trace_reader.hpp"

using namespace slackvm;

namespace {

using Clock = std::chrono::steady_clock;

const core::Resources kHost{32, core::gib(128)};

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Short-lifetime workload sized by Little's law so ~`rows` arrivals fit a
/// one-week horizon with an active window of only rows/1008 VMs — millions
/// of rows, thousands resident.
workload::Trace make_trace(std::size_t rows) {
  workload::GeneratorConfig cfg;
  cfg.horizon = 7.0 * 24 * 3600;
  cfg.mean_lifetime = 600.0;
  cfg.seed = 42;
  const double population =
      static_cast<double>(rows) * cfg.mean_lifetime / cfg.horizon;
  cfg.target_population = population < 1.0 ? 1 : static_cast<std::size_t>(population);
  workload::Generator gen(workload::azure_catalog(), workload::make_mix(34, 33, 33),
                          cfg);
  return gen.generate();
}

/// Reset the kernel's peak-RSS watermark to the current RSS (best effort;
/// ignored on kernels without clear_refs support).
void reset_peak_rss() {
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

/// VmHWM from /proc/self/status, in KiB (0 if unreadable).
std::size_t peak_rss_kib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stoul(line.substr(6));
    }
  }
  return 0;
}

sim::Datacenter make_dc() {
  sim::Datacenter dc =
      sim::Datacenter::shared_sharded(kHost, sched::make_progress_policy, 1);
  dc.set_index_enabled(true);
  return dc;
}

bool identical(const sim::RunResult& a, const sim::RunResult& b) {
  return a.opened_pms == b.opened_pms && a.peak_active_pms == b.peak_active_pms &&
         a.migrations == b.migrations && a.placed_vms == b.placed_vms &&
         a.peak_vms == b.peak_vms && a.opened_per_cluster == b.opened_per_cluster &&
         a.avg_unalloc_cpu_share == b.avg_unalloc_cpu_share &&
         a.avg_unalloc_mem_share == b.avg_unalloc_mem_share &&
         a.peak_unalloc_cpu_share == b.peak_unalloc_cpu_share &&
         a.peak_unalloc_mem_share == b.peak_unalloc_mem_share &&
         a.duration == b.duration && a.avg_active_pms == b.avg_active_pms &&
         a.avg_alloc_cores == b.avg_alloc_cores;
}

bool same_rows(const workload::Trace& a, const workload::Trace& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    const core::VmInstance& x = a.vms()[i];
    const core::VmInstance& y = b.vms()[i];
    if (x.id.value != y.id.value || !(x.spec == y.spec) ||
        x.arrival != y.arrival || x.departure != y.departure) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t rows = bench::arg_u64(argc, argv, "--rows", 1000000);
  const bool json = bench::arg_flag(argc, argv, "--json");
  const bool keep = bench::arg_flag(argc, argv, "--keep");
  std::string path = "micro_trace_bench.csv";
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--file") {
      path = argv[i + 1];
    }
  }

  // Generate and serialize; the generation vectors are mmap-sized, so the
  // OS gets them back when this scope closes and the RSS phases below
  // start from a clean baseline.
  std::size_t actual_rows = 0;
  {
    const workload::Trace trace = make_trace(rows);
    actual_rows = trace.size();
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    workload::write_csv_fast(trace, out);
    out.flush();
    if (!out) {
      std::fprintf(stderr, "micro_trace: cannot write %s\n", path.c_str());
      return 1;
    }
  }
  std::size_t file_bytes = 0;
  {
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    file_bytes = static_cast<std::size_t>(in.tellg());
  }

  // --- section 1: streaming replay, peak RSS ------------------------------
  reset_peak_rss();
  sim::RunResult streamed;
  double stream_wall = 0;
  {
    sim::Datacenter dc = make_dc();
    sim::StreamingTraceSource source{workload::TraceReader(path)};
    const auto start = Clock::now();
    streamed = sim::replay(dc, source);
    stream_wall = seconds_since(start);
  }
  const std::size_t stream_rss_kib = peak_rss_kib();

  // --- section 2: materialized replay, peak RSS ---------------------------
  reset_peak_rss();
  sim::RunResult materialized;
  double materialized_wall = 0;
  {
    const workload::Trace trace = workload::TraceReader(path).read_all();
    sim::Datacenter dc = make_dc();
    const auto start = Clock::now();
    materialized = sim::replay(dc, trace);
    materialized_wall = seconds_since(start);
  }
  const std::size_t materialized_rss_kib = peak_rss_kib();
  const bool replay_identical = identical(streamed, materialized);

  // --- section 3: parse throughput ----------------------------------------
  double istream_wall = 0;
  double chunked_wall = 0;
  double mmap_wall = 0;
  double scan_wall = 0;
  bool parse_identical = false;
  {
    std::ifstream in(path, std::ios::binary);
    const auto start = Clock::now();
    const workload::Trace expected = reference::read_csv(in);
    istream_wall = seconds_since(start);

    workload::TraceReaderOptions chunked_options;  // defaults: 1 MiB chunks
    const auto chunked_start = Clock::now();
    workload::Trace chunked =
        workload::TraceReader(path, chunked_options).read_all();
    chunked_wall = seconds_since(chunked_start);

    workload::TraceReaderOptions mmap_options;
    mmap_options.use_mmap = true;
    const auto mmap_start = Clock::now();
    workload::Trace mmapped = workload::TraceReader(path, mmap_options).read_all();
    mmap_wall = seconds_since(mmap_start);

    // The number the frontend exists for: parse-and-discard, as replay
    // pulls rows. No vector growth, no sorted-Trace construction.
    workload::TraceReader scanner(path);
    core::VmInstance vm;
    std::size_t scanned = 0;
    const auto scan_start = Clock::now();
    while (scanner.next(vm)) {
      ++scanned;
    }
    scan_wall = seconds_since(scan_start);

    parse_identical = same_rows(expected, chunked) &&
                      same_rows(expected, mmapped) && scanned == actual_rows;
  }
  if (!keep) {
    std::remove(path.c_str());
  }

  const double n = static_cast<double>(actual_rows);
  const auto rate = [n](double wall) { return wall > 0 ? n / wall : 0.0; };
  const double mib = 1024.0;
  const bool ok = replay_identical && parse_identical;

  if (json) {
    std::printf("{\n");
    std::printf("  \"bench\": \"micro_trace\",\n");
    std::printf(
        "  \"note\": \"streaming pulls rows lazily through sim::EventSource, so "
        "replay RSS is the active window, not the file; the parser speedup is "
        "zero-copy string_view tokenization plus exact hand-rolled numeric "
        "parsing (bit-identical to stoull/stod, checked here)\",\n");
    std::printf("  \"rows\": %zu,\n", actual_rows);
    std::printf("  \"file_mib\": %.1f,\n",
                static_cast<double>(file_bytes) / (1024.0 * 1024.0));
    std::printf("  \"replay_rss\": {\n");
    std::printf("    \"streaming_peak_rss_mib\": %.1f,\n",
                static_cast<double>(stream_rss_kib) / mib);
    std::printf("    \"materialized_peak_rss_mib\": %.1f,\n",
                static_cast<double>(materialized_rss_kib) / mib);
    std::printf("    \"materialized_over_streaming\": %.2f,\n",
                stream_rss_kib > 0 ? static_cast<double>(materialized_rss_kib) /
                                         static_cast<double>(stream_rss_kib)
                                   : 0.0);
    std::printf("    \"streaming_wall_s\": %.3f,\n", stream_wall);
    std::printf("    \"materialized_wall_s\": %.3f,\n", materialized_wall);
    std::printf("    \"identical_result\": %s\n", replay_identical ? "true" : "false");
    std::printf("  },\n");
    std::printf("  \"parse\": {\n");
    std::printf("    \"read_csv_rows_per_s\": %.0f,\n", rate(istream_wall));
    std::printf("    \"read_all_chunked_rows_per_s\": %.0f,\n", rate(chunked_wall));
    std::printf("    \"read_all_mmap_rows_per_s\": %.0f,\n", rate(mmap_wall));
    std::printf("    \"streaming_pull_rows_per_s\": %.0f,\n", rate(scan_wall));
    std::printf("    \"speedup_read_all_chunked\": %.1f,\n",
                chunked_wall > 0 ? istream_wall / chunked_wall : 0.0);
    std::printf("    \"speedup_read_all_mmap\": %.1f,\n",
                mmap_wall > 0 ? istream_wall / mmap_wall : 0.0);
    std::printf("    \"speedup_streaming_pull\": %.1f,\n",
                scan_wall > 0 ? istream_wall / scan_wall : 0.0);
    std::printf("    \"identical_rows\": %s\n", parse_identical ? "true" : "false");
    std::printf("  }\n");
    std::printf("}\n");
    return ok ? 0 : 1;
  }

  bench::print_header("Streaming trace frontend — parse rate and replay RSS");
  std::printf("%zu rows, %.1f MiB on disk\n\n", actual_rows,
              static_cast<double>(file_bytes) / (1024.0 * 1024.0));
  std::printf("replay (progress policy, index on):\n");
  std::printf("  streaming     %8.1f MiB peak RSS   %7.2f s   %s\n",
              static_cast<double>(stream_rss_kib) / mib, stream_wall,
              replay_identical ? "" : "RESULT DIVERGED — BUG");
  std::printf("  materialized  %8.1f MiB peak RSS   %7.2f s\n\n",
              static_cast<double>(materialized_rss_kib) / mib, materialized_wall);
  std::printf("parse:\n");
  std::printf("  read_csv (istream)       %10.0f rows/s\n", rate(istream_wall));
  std::printf("  read_all chunked         %10.0f rows/s  (%.1fx)\n",
              rate(chunked_wall),
              chunked_wall > 0 ? istream_wall / chunked_wall : 0.0);
  std::printf("  read_all mmap            %10.0f rows/s  (%.1fx)\n", rate(mmap_wall),
              mmap_wall > 0 ? istream_wall / mmap_wall : 0.0);
  std::printf("  streaming pull (next())  %10.0f rows/s  (%.1fx)  %s\n",
              rate(scan_wall), scan_wall > 0 ? istream_wall / scan_wall : 0.0,
              parse_identical ? "rows bit-identical" : "ROWS DIVERGED — BUG");
  return ok ? 0 : 1;
}
