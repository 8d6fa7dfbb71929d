// Streaming trace frontend differential suite: workload::TraceReader must
// accept exactly what reference::read_csv accepts, reject exactly what it
// rejects, and produce bit-identical VmInstances — across the contiguous
// (from_string), chunked (tiny buffers forcing partial-line carries) and
// mmap backings. Also pins the real-format level classifier, the
// peek/advance lookahead contract, the scan() pre-pass, the byte-offset
// error messages, and the exactness of the hand-rolled double parser
// against std::stod.
#include "workload/trace_reader.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <string>
#include <vector>

#include "core/error.hpp"
#include "reference/trace_csv.hpp"
#include "workload/catalog.hpp"
#include "workload/generator.hpp"
#include "workload/level_mix.hpp"
#include "workload/trace.hpp"

namespace slackvm::workload {
namespace {

constexpr std::string_view kNativeHeader =
    "id,vcpus,mem_mib,level,usage,arrival,departure";
constexpr std::string_view kRealHeader = "id,vcpus,mem_mib,arrival,departure";

Trace make_trace(std::size_t population, std::uint64_t seed) {
  GeneratorConfig cfg;
  cfg.target_population = population;
  cfg.horizon = 2.0 * 24 * 3600;
  cfg.mean_lifetime = 1.0 * 24 * 3600;
  cfg.seed = seed;
  Generator gen(azure_catalog(), make_mix(34, 33, 33), cfg);
  return gen.generate();
}

// Bit-exact equality on every field (EXPECT_EQ on the time doubles is
// deliberate: the parsers must agree on bits, not approximately).
void expect_same_rows(const Trace& a, const Trace& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("row " + std::to_string(i));
    const core::VmInstance& x = a.vms()[i];
    const core::VmInstance& y = b.vms()[i];
    EXPECT_EQ(x.id.value, y.id.value);
    EXPECT_EQ(x.spec.vcpus, y.spec.vcpus);
    EXPECT_EQ(x.spec.mem_mib, y.spec.mem_mib);
    EXPECT_EQ(x.spec.level.ratio(), y.spec.level.ratio());
    EXPECT_EQ(x.spec.usage, y.spec.usage);
    EXPECT_EQ(x.arrival, y.arrival);
    EXPECT_EQ(x.departure, y.departure);
  }
}

std::string fast_csv(const Trace& trace, TraceFormat format = TraceFormat::kNative) {
  std::ostringstream os;
  write_csv_fast(trace, os, format);
  return os.str();
}

std::string write_temp_file(const std::string& name, const std::string& text) {
  const std::string path = testing::TempDir() + name;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  out.close();
  EXPECT_TRUE(out.good());
  return path;
}

// --- parser equivalence ------------------------------------------------------

// On rows with 6-significant-digit times (short decimals that round on
// parsing) the streaming parser must produce exactly what the istream
// reference produces.
TEST(TraceReader, NativeMatchesReadCsvBitExact) {
  const Trace trace = make_trace(200, 42);
  std::ostringstream os;
  os << std::setprecision(6) << "id,vcpus,mem_mib,level,usage,arrival,departure\n";
  for (const core::VmInstance& vm : trace.vms()) {
    os << vm.id.value << ',' << vm.spec.vcpus << ',' << vm.spec.mem_mib << ','
       << static_cast<int>(vm.spec.level.ratio()) << ',' << core::to_string(vm.spec.usage)
       << ',' << vm.arrival << ',' << vm.departure << '\n';
  }
  const std::string text = os.str();

  std::istringstream is(text);
  const Trace reference = reference::read_csv(is);
  Trace streamed = TraceReader::from_string(text).read_all();
  expect_same_rows(reference, streamed);
}

// write_csv_fast emits shortest-round-trip times: reading them back must
// reproduce the original trace bit-exactly, and the streaming parser must
// still agree with read_csv on that text.
TEST(TraceReader, FastWriterRoundTripsTimestampsExactly) {
  const Trace trace = make_trace(150, 7);
  const std::string text = fast_csv(trace);

  Trace streamed = TraceReader::from_string(text).read_all();
  expect_same_rows(trace, streamed);

  std::istringstream is(text);
  const Trace reference = reference::read_csv(is);
  expect_same_rows(reference, streamed);
}

// The chunked backing (with buffers far smaller than a row, forcing
// partial-line carries and buffer growth) and the mmap backing must agree
// with the contiguous in-memory parse.
TEST(TraceReader, ChunkedAndMmapBackingsMatchContiguous) {
  const Trace trace = make_trace(600, 3);  // ~1.2k rows, many buffer refills
  const std::string text = fast_csv(trace);
  const std::string path = write_temp_file("trace_reader_backings.csv", text);

  const Trace reference = TraceReader::from_string(text).read_all();

  TraceReaderOptions tiny;
  tiny.chunk_bytes = 16;  // floored to 4 KiB internally — still dozens of
                          // refills with a partial-line carry at each seam
  Trace chunked = TraceReader(path, tiny).read_all();
  expect_same_rows(reference, chunked);

  TraceReaderOptions mapped;
  mapped.use_mmap = true;
  Trace mmapped = TraceReader(path, mapped).read_all();
  expect_same_rows(reference, mmapped);

  std::remove(path.c_str());
}

// The fast-path/fallback split of the hand-rolled double parser must be
// invisible: every accepted time literal parses to the exact bits stod
// produces. The list crosses the fast-path boundaries (19-digit mantissas,
// |exp10| = 22, 2^53) in both directions.
TEST(TraceReader, HandRolledDoubleParserMatchesStod) {
  const std::vector<std::string> literals = {
      "1", "0.5", "5.269484217085177", "56435.36923582795",
      "123456.789", "1e22", "9.999999999999999e21", "1e-22", "1.5e-22",
      "9007199254740992", "9007199254740993",        // 2^53, 2^53 + 1
      "1234567890123456789", "12345678901234567890",  // 19 then 20 digits
      "12345678901234567890.5", "1.7976931348623157e299",
      "2.2250738585072014e-308", "1e300"};  // (no subnormals: stod — the
                                            // reference here — raises
                                            // out_of_range on ERANGE)
  for (const std::string& lit : literals) {
    SCOPED_TRACE(lit);
    const std::string text =
        std::string(kNativeHeader) + "\n1,1,1024,2,steady,0," + lit + "\n";
    Trace parsed = TraceReader::from_string(text).read_all();
    ASSERT_EQ(parsed.size(), 1U);
    EXPECT_EQ(parsed.vms()[0].departure, std::stod(lit));
  }
}

// --- formats -----------------------------------------------------------------

TEST(TraceReader, RealFormatClassifiesLevelsFromRatio) {
  const std::string text = std::string(kRealHeader) +
                           "\n"
                           "1,1,4096,0,10\n"    // 4 GiB/vCPU -> 1:1
                           "2,1,2048,1,10\n"    // 2 GiB/vCPU -> 2:1
                           "3,2,2048,2,10\n"    // 1 GiB/vCPU -> 3:1
                           "4,2,16384,3,10\n";  // 8 GiB/vCPU -> 1:1
  TraceReader reader = TraceReader::from_string(text);
  EXPECT_EQ(reader.format(), TraceFormat::kReal);
  const Trace trace = reader.read_all();
  ASSERT_EQ(trace.size(), 4U);
  EXPECT_EQ(trace.vms()[0].spec.level.ratio(), 1);
  EXPECT_EQ(trace.vms()[1].spec.level.ratio(), 2);
  EXPECT_EQ(trace.vms()[2].spec.level.ratio(), 3);
  EXPECT_EQ(trace.vms()[3].spec.level.ratio(), 1);
  for (const core::VmInstance& vm : trace.vms()) {
    EXPECT_EQ(vm.spec.usage, core::UsageClass::kSteady);
  }
}

TEST(TraceReader, AutoDetectsBothHeaders) {
  TraceReader native =
      TraceReader::from_string(std::string(kNativeHeader) + "\n");
  EXPECT_EQ(native.format(), TraceFormat::kNative);
  EXPECT_TRUE(native.read_all().empty());

  // CRLF headers (real traces exported from Windows tooling) are tolerated.
  TraceReader real = TraceReader::from_string(std::string(kRealHeader) + "\r\n");
  EXPECT_EQ(real.format(), TraceFormat::kReal);

  EXPECT_THROW((void)TraceReader::from_string("who,knows\n1,2\n").format(),
               core::SlackError);
}

// Like read_csv, an explicit format consumes the header line without
// validating it.
TEST(TraceReader, ExplicitFormatSkipsHeaderUnvalidated) {
  TraceReaderOptions options;
  options.format = TraceFormat::kNative;
  const Trace trace =
      TraceReader::from_string("not,a,header,at,all\n1,1,1024,2,steady,0,5\n",
                               options)
          .read_all();
  ASSERT_EQ(trace.size(), 1U);
  EXPECT_EQ(trace.vms()[0].id.value, 1U);
}

TEST(TraceReader, EmptyInputThrowsLikeReadCsv) {
  std::istringstream empty("");
  EXPECT_THROW((void)reference::read_csv(empty), core::SlackError);
  EXPECT_THROW((void)TraceReader::from_string("").read_all(), core::SlackError);
}

// Header-only files, blank lines between rows, and a missing trailing
// newline are all fine — matching read_csv.
TEST(TraceReader, ToleratesBlanksAndMissingFinalNewline) {
  EXPECT_TRUE(TraceReader::from_string(std::string(kNativeHeader) + "\n")
                  .read_all()
                  .empty());
  const std::string text = std::string(kNativeHeader) +
                           "\n\n1,1,1024,2,steady,0,5\n\n2,1,1024,2,steady,1,6";
  const Trace trace = TraceReader::from_string(text).read_all();
  ASSERT_EQ(trace.size(), 2U);
  EXPECT_EQ(trace.vms()[1].id.value, 2U);
  EXPECT_EQ(trace.vms()[1].departure, 6.0);
}

// --- lookahead contract ------------------------------------------------------

TEST(TraceReader, PeekAdvanceSemantics) {
  const std::string text = std::string(kNativeHeader) +
                           "\n1,1,1024,2,steady,0,5\n2,2,2048,3,idle,1,6\n";
  TraceReader reader = TraceReader::from_string(text);

  const core::VmInstance* first = reader.peek();
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->id.value, 1U);
  EXPECT_EQ(reader.peek(), first);  // repeated peek: same row, no consumption
  reader.advance();

  core::VmInstance vm;
  ASSERT_TRUE(reader.next(vm));  // next() after advance() reads row 2
  EXPECT_EQ(vm.id.value, 2U);
  EXPECT_EQ(reader.rows_read(), 2U);
  EXPECT_GT(reader.bytes_consumed(), kNativeHeader.size());

  EXPECT_EQ(reader.peek(), nullptr);
  EXPECT_FALSE(reader.next(vm));
}

// --- scan pre-pass -----------------------------------------------------------

TEST(TraceReader, ScanReportsRowsAndHorizon) {
  const Trace trace = make_trace(80, 11);
  const std::string path =
      write_temp_file("trace_reader_scan.csv", fast_csv(trace));
  const TraceReader::ScanInfo info = TraceReader::scan(path);
  EXPECT_EQ(info.rows, trace.size());
  EXPECT_EQ(info.horizon, trace.horizon());  // bit-exact via write_csv_fast
  std::remove(path.c_str());
}

// --- rejection parity and diagnostics ----------------------------------------

// Every malformed row read_csv rejects, the streaming reader must reject
// too (same semantics; its messages add the byte offset).
TEST(TraceReader, RejectsEverythingReadCsvRejects) {
  const std::vector<std::string> bad_rows = {
      "1,2,3",                            // too few columns
      "1,1,1024,2,steady,0,5,9",          // too many columns
      "x,1,1024,2,steady,0,5",            // non-numeric id
      "1,-1,1024,2,steady,0,5",           // signed integer
      "1,0,1024,2,steady,0,5",            // vcpus must be >= 1
      "1,1,1024,200,steady,0,5",          // level out of range
      "1,1,1024,2,chaotic,0,5",           // unknown usage class
      "1,1,1024,2,steady,1.5x,5",         // partially-numeric time
      "1,1,1024,2,steady,nan,5",          // non-finite time
      "1,1,1024,2,steady,1e301,2e301",    // time beyond the 1e300 cap
      "1,1,1024,2,steady,5,5",            // departure not after arrival
      "99999999999999999999,1,1024,2,steady,0,5",  // u64 overflow
  };
  for (const std::string& row : bad_rows) {
    SCOPED_TRACE(row);
    const std::string text = std::string(kNativeHeader) + "\n" + row + "\n";
    std::istringstream is(text);
    EXPECT_THROW((void)reference::read_csv(is), core::SlackError);
    EXPECT_THROW((void)TraceReader::from_string(text).read_all(),
                 core::SlackError);
  }

  // Out-of-order arrivals span two rows; both parsers reject the second.
  const std::string unsorted = std::string(kNativeHeader) +
                               "\n1,1,1024,2,steady,10,20\n2,1,1024,2,steady,5,9\n";
  std::istringstream is(unsorted);
  EXPECT_THROW((void)reference::read_csv(is), core::SlackError);
  EXPECT_THROW((void)TraceReader::from_string(unsorted).read_all(),
               core::SlackError);
}

// Errors name the 1-based line, the offending column, the byte offset of
// the row start, and quote the raw row — so a multi-GB file can be opened
// at the exact spot with dd/tail.
TEST(TraceReader, ErrorsCarryLineColumnAndByteOffset) {
  const std::string good = "1,1,1024,2,steady,0,5";
  const std::string bad = "2,huh,1024,2,steady,1,6";
  const std::string text =
      std::string(kNativeHeader) + "\n" + good + "\n" + bad + "\n";
  const std::uint64_t offset = text.find(bad);
  try {
    (void)TraceReader::from_string(text).read_all();
    FAIL() << "expected SlackError";
  } catch (const core::SlackError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("line 3"), std::string::npos) << msg;
    EXPECT_NE(msg.find("column 'vcpus'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("byte " + std::to_string(offset)), std::string::npos)
        << msg;
    EXPECT_NE(msg.find(bad), std::string::npos) << msg;
  }
}

// --- fast writer -------------------------------------------------------------

TEST(TraceReader, FastWriterEmitsBothFormats) {
  const Trace trace = make_trace(40, 5);
  const std::string native = fast_csv(trace, TraceFormat::kNative);
  const std::string real = fast_csv(trace, TraceFormat::kReal);
  EXPECT_EQ(native.substr(0, kNativeHeader.size()), kNativeHeader);
  EXPECT_EQ(real.substr(0, kRealHeader.size()), kRealHeader);

  // The real emission drops level/usage; reading it back re-classifies, so
  // sizes and lifecycle times survive even though levels may differ.
  const Trace back = TraceReader::from_string(real).read_all();
  ASSERT_EQ(back.size(), trace.size());
  for (std::size_t i = 0; i < back.size(); ++i) {
    EXPECT_EQ(back.vms()[i].spec.mem_mib, trace.vms()[i].spec.mem_mib);
    EXPECT_EQ(back.vms()[i].arrival, trace.vms()[i].arrival);
    EXPECT_EQ(back.vms()[i].departure, trace.vms()[i].departure);
  }
}

}  // namespace
}  // namespace slackvm::workload
