// Streaming trace frontend: zero-copy CSV ingestion of multi-GB traces.
//
// An istream reader materializes the whole file through getline and
// per-field std::string temporaries — fine for tests, hopeless for real
// datacenter traces (the paper's SAP Cloud Infrastructure month is tens of
// millions of rows). TraceReader is the only trace parser shipped:
//
//  * input is either mmap'ed (MADV_SEQUENTIAL, with the processed prefix
//    periodically dropped via MADV_DONTNEED) or read in fixed-size chunks
//    with a partial-line carry, so resident memory stays O(chunk), not
//    O(file);
//  * rows are tokenized as std::string_view slices of the input buffer —
//    no per-row or per-field allocation;
//  * integers use a hand-rolled overflow-checked u64 parser and times use
//    an exact-fast-path double parser (mantissa < 2^53 and |exp10| <= 22
//    resolve with a single rounding; everything else falls back to
//    std::from_chars) — both produce bit-identical values to the
//    stoull/stod calls of the istream parser that tests/reference/
//    trace_csv.hpp keeps as the differential reference (read_csv);
//  * iteration is pull-based with one row of lookahead (peek/advance), the
//    shape sim::EventSource needs, so a replay never holds more than the
//    active window of the trace in memory.
//
// Two on-disk formats are supported (auto-detected from the header line):
//
//   native  id,vcpus,mem_mib,level,usage,arrival,departure
//           — the format write_csv_fast writes (below);
//   real    id,vcpus,mem_mib,arrival,departure
//           — real-provider style (SAP/Azure traces carry sizes and
//             lifetimes but no oversubscription contract): the level is
//             inferred from the requested memory-per-vCPU ratio via
//             core::classify_level and the usage class defaults to
//             kSteady.
//
// Validation matches read_csv exactly (same rejections, same semantics);
// error messages additionally carry the byte offset of the offending row so
// a multi-GB file can be inspected with dd/tail instead of counting lines.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>

#include "core/units.hpp"
#include "core/vm.hpp"

namespace slackvm::workload {

class Trace;

/// On-disk trace flavour; see the file comment.
enum class TraceFormat : std::uint8_t {
  kAuto,    ///< resolve from the header line (constructor-time detection)
  kNative,  ///< 7-column format of write_csv_fast
  kReal,    ///< 5-column real-provider format (level classified, usage steady)
};

struct TraceReaderOptions {
  /// Expected format; kAuto matches the header against both known layouts.
  TraceFormat format = TraceFormat::kAuto;
  /// Chunked-read buffer size (also the resident-memory bound in that mode).
  /// Lines longer than the buffer grow it transparently.
  std::size_t chunk_bytes = std::size_t{1} << 20;
  /// Map the file instead of chunked reads. Faster on warm page cache; the
  /// reader still drops the processed prefix so the resident set stays
  /// bounded on cold multi-GB files.
  bool use_mmap = false;
};

/// Pull-based streaming reader for trace CSVs. Not copyable; movable.
class TraceReader {
 public:
  /// Open `path`. The header line is consumed (and the format resolved)
  /// lazily on the first row access, so constructing is cheap.
  explicit TraceReader(const std::string& path, TraceReaderOptions options = {});

  /// Parse from an in-memory buffer (tests, synthetic round-trips).
  [[nodiscard]] static TraceReader from_string(std::string text,
                                               TraceReaderOptions options = {});

  TraceReader(TraceReader&&) noexcept;
  TraceReader& operator=(TraceReader&&) noexcept;
  TraceReader(const TraceReader&) = delete;
  TraceReader& operator=(const TraceReader&) = delete;
  ~TraceReader();

  /// Copy the next row into `out`; false once the input is exhausted.
  /// Throws SlackError (line, column, byte offset, raw row) on malformed
  /// input, exactly where the reference read_csv would.
  bool next(core::VmInstance& out);

  /// One-row lookahead: the next row without consuming it, or nullptr at
  /// end of input. The pointer stays valid until the next advance()/next().
  [[nodiscard]] const core::VmInstance* peek();

  /// Consume the row returned by the last peek(). peek() must have
  /// returned non-null since the last consumption.
  void advance();

  /// Resolved format. Forces header detection if no row was read yet.
  [[nodiscard]] TraceFormat format();

  /// Rows successfully parsed so far.
  [[nodiscard]] std::size_t rows_read() const noexcept;

  /// Byte offset just past the last parsed row (diagnostics / progress).
  [[nodiscard]] std::uint64_t bytes_consumed() const noexcept;

  /// Cheap O(chunk)-memory pre-pass over a whole file: row count and
  /// horizon (latest departure). replay_sharded and the fault/rebalance
  /// machinery need the horizon before the first event fires; scan()
  /// provides it without materializing the trace.
  struct ScanInfo {
    std::size_t rows = 0;
    core::SimTime horizon = 0;  ///< 0 for an empty trace
  };
  [[nodiscard]] static ScanInfo scan(const std::string& path,
                                     TraceReaderOptions options = {});

  /// Drain the remaining rows into a materialized Trace (convenience for
  /// tools and tests; defeats the O(window) property by construction).
  [[nodiscard]] Trace read_all();

 private:
  struct Impl;
  explicit TraceReader(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

/// The trace writer: std::to_chars into a chunked buffer, rows in trace
/// (arrival) order. Times are written in shortest round-trip form, so
/// reading the output back reproduces every timestamp bit-exactly.
/// `format` selects the native 7-column or real 5-column layout (kAuto is
/// invalid here).
void write_csv_fast(const Trace& trace, std::ostream& os,
                    TraceFormat format = TraceFormat::kNative);

}  // namespace slackvm::workload
