#include "workload/trace.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/error.hpp"
#include "reference/trace_csv.hpp"
#include "workload/trace_reader.hpp"

namespace slackvm::workload {
namespace {

core::VmInstance make_vm(std::uint64_t id, core::SimTime arrival, core::SimTime departure,
                         std::uint8_t ratio = 1) {
  core::VmInstance vm;
  vm.id = core::VmId{id};
  vm.spec.vcpus = 2;
  vm.spec.mem_mib = core::gib(4);
  vm.spec.level = core::OversubLevel{ratio};
  vm.arrival = arrival;
  vm.departure = departure;
  return vm;
}

TEST(TraceTest, SortsByArrival) {
  Trace trace({make_vm(1, 50, 60), make_vm(2, 10, 20), make_vm(3, 30, 40)});
  ASSERT_EQ(trace.size(), 3U);
  EXPECT_EQ(trace.vms()[0].id, core::VmId{2});
  EXPECT_EQ(trace.vms()[1].id, core::VmId{3});
  EXPECT_EQ(trace.vms()[2].id, core::VmId{1});
}

TEST(TraceTest, RejectsNonPositiveLifetime) {
  EXPECT_THROW(Trace({make_vm(1, 10, 10)}), core::SlackError);
  EXPECT_THROW(Trace({make_vm(1, 10, 5)}), core::SlackError);
}

TEST(TraceTest, HorizonIsLatestDeparture) {
  const Trace trace({make_vm(1, 0, 100), make_vm(2, 10, 250), make_vm(3, 20, 50)});
  EXPECT_DOUBLE_EQ(trace.horizon(), 250.0);
  EXPECT_DOUBLE_EQ(Trace{}.horizon(), 0.0);
}

TEST(TraceTest, PeakPopulationCountsOverlaps) {
  // [0,100), [10,250), [20,50): all three alive in [20,50).
  const Trace trace({make_vm(1, 0, 100), make_vm(2, 10, 250), make_vm(3, 20, 50)});
  EXPECT_EQ(trace.peak_population(), 3U);
}

TEST(TraceTest, PeakPopulationDepartureFreesSlotAtSameInstant) {
  // VM 1 departs exactly when VM 2 arrives: peak stays 1.
  const Trace trace({make_vm(1, 0, 10), make_vm(2, 10, 20)});
  EXPECT_EQ(trace.peak_population(), 1U);
}

TEST(TraceTest, FilterLevelKeepsOnlyMatching) {
  const Trace trace({make_vm(1, 0, 10, 1), make_vm(2, 1, 10, 2), make_vm(3, 2, 10, 2)});
  const Trace level2 = trace.filter_level(core::OversubLevel{2});
  EXPECT_EQ(level2.size(), 2U);
  for (const auto& vm : level2.vms()) {
    EXPECT_EQ(vm.spec.level, core::OversubLevel{2});
  }
}

TEST(TraceTest, CsvRoundTrip) {
  core::VmInstance vm = make_vm(7, 12.5, 99.25, 3);
  vm.spec.usage = core::UsageClass::kInteractive;
  vm.spec.vcpus = 4;
  vm.spec.mem_mib = core::gib(8);
  const Trace original({vm, make_vm(8, 1, 2, 1)});

  std::stringstream buffer;
  write_csv_fast(original, buffer);
  const Trace restored = reference::read_csv(buffer);

  ASSERT_EQ(restored.size(), 2U);
  const core::VmInstance& r = restored.vms()[1];  // sorted by arrival
  EXPECT_EQ(r.id, core::VmId{7});
  EXPECT_EQ(r.spec.vcpus, 4U);
  EXPECT_EQ(r.spec.mem_mib, core::gib(8));
  EXPECT_EQ(r.spec.level, core::OversubLevel{3});
  EXPECT_EQ(r.spec.usage, core::UsageClass::kInteractive);
  EXPECT_DOUBLE_EQ(r.arrival, 12.5);
  EXPECT_DOUBLE_EQ(r.departure, 99.25);
}

TEST(TraceTest, CsvHeaderWritten) {
  std::stringstream buffer;
  write_csv_fast(Trace{}, buffer);
  std::string header;
  std::getline(buffer, header);
  EXPECT_EQ(header, "id,vcpus,mem_mib,level,usage,arrival,departure");
}

TEST(TraceTest, ReadCsvRejectsEmptyInput) {
  std::stringstream buffer;
  EXPECT_THROW((void)reference::read_csv(buffer), core::SlackError);
}

TEST(TraceTest, ReadCsvRejectsTruncatedRow) {
  std::stringstream buffer("id,vcpus,mem_mib,level,usage,arrival,departure\n1,2,4096\n");
  EXPECT_THROW((void)reference::read_csv(buffer), core::SlackError);
}

TEST(TraceTest, ReadCsvRejectsUnknownUsage) {
  std::stringstream buffer(
      "id,vcpus,mem_mib,level,usage,arrival,departure\n1,2,4096,1,gaming,0,10\n");
  EXPECT_THROW((void)reference::read_csv(buffer), core::SlackError);
}

// --- malformed-row hardening regressions -----------------------------------

constexpr const char* kHeader = "id,vcpus,mem_mib,level,usage,arrival,departure\n";

/// Parse header + `row`, asserting a SlackError whose message contains
/// every string in `fragments` (line number, column, raw row context).
void expect_rejected(const std::string& row,
                     const std::vector<std::string>& fragments) {
  std::stringstream buffer(kHeader + row + "\n");
  try {
    (void)reference::read_csv(buffer);
    FAIL() << "row accepted: " << row;
  } catch (const core::SlackError& e) {
    const std::string message = e.what();
    for (const std::string& fragment : fragments) {
      EXPECT_NE(message.find(fragment), std::string::npos)
          << "missing '" << fragment << "' in: " << message;
    }
  }
}

TEST(TraceTest, ReadCsvRejectsTooManyColumns) {
  expect_rejected("1,2,4096,1,steady,0,10,extra", {"line 2", "too many columns"});
}

TEST(TraceTest, ReadCsvRejectsNonNumericFields) {
  expect_rejected("abc,2,4096,1,steady,0,10", {"line 2", "'id'", "abc"});
  expect_rejected("1,two,4096,1,steady,0,10", {"'vcpus'", "two"});
  expect_rejected("1,2,lots,1,steady,0,10", {"'mem_mib'", "lots"});
  expect_rejected("1,2,4096,one,steady,0,10", {"'level'", "one"});
  expect_rejected("1,2,4096,1,steady,noon,10", {"'arrival'", "noon"});
  expect_rejected("1,2,4096,1,steady,0,never", {"'departure'", "never"});
}

TEST(TraceTest, ReadCsvRejectsPartiallyNumericFields) {
  // std::stoull/stod would silently accept these prefixes.
  expect_rejected("12x,2,4096,1,steady,0,10", {"'id'", "12x"});
  expect_rejected("1,2,4096,1,steady,0.5h,10", {"'arrival'", "trailing junk"});
  expect_rejected("1,-2,4096,1,steady,0,10", {"'vcpus'", "-2"});
}

TEST(TraceTest, ReadCsvRejectsZeroVcpus) {
  expect_rejected("1,0,4096,1,steady,0,10", {"'vcpus'", ">= 1"});
}

TEST(TraceTest, ReadCsvRejectsOutOfRangeLevel) {
  expect_rejected("1,2,4096,0,steady,0,10", {"'level'", "[1, 16]"});
  expect_rejected("1,2,4096,17,steady,0,10", {"'level'", "[1, 16]"});
}

TEST(TraceTest, ReadCsvRejectsNonFiniteTimes) {
  expect_rejected("1,2,4096,1,steady,nan,10", {"'arrival'"});
  expect_rejected("1,2,4096,1,steady,0,inf", {"'departure'"});
  expect_rejected("1,2,4096,1,steady,-5,10", {"'arrival'"});
}

TEST(TraceTest, ReadCsvRejectsDepartureNotAfterArrival) {
  expect_rejected("1,2,4096,1,steady,10,10",
                  {"line 2", "departure must be strictly after arrival"});
  expect_rejected("1,2,4096,1,steady,10,5", {"strictly after"});
}

TEST(TraceTest, ReadCsvRejectsUnsortedArrivals) {
  std::stringstream buffer(std::string(kHeader) +
                           "1,2,4096,1,steady,50,60\n"
                           "2,2,4096,1,steady,10,20\n");
  try {
    (void)reference::read_csv(buffer);
    FAIL() << "unsorted trace accepted";
  } catch (const core::SlackError& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("line 3"), std::string::npos) << message;
    EXPECT_NE(message.find("sorted by arrival"), std::string::npos) << message;
  }
}

TEST(TraceTest, ReadCsvReportsLineNumberOfBadRow) {
  std::stringstream buffer(std::string(kHeader) +
                           "1,2,4096,1,steady,0,10\n"
                           "\n"
                           "2,2,4096,1,steady,1,oops\n");
  try {
    (void)reference::read_csv(buffer);
    FAIL() << "bad row accepted";
  } catch (const core::SlackError& e) {
    // Blank lines still count toward line numbers.
    EXPECT_NE(std::string(e.what()).find("line 4"), std::string::npos) << e.what();
  }
}

TEST(TraceTest, ReadCsvStillAcceptsBlankLinesAndSortedInput) {
  std::stringstream buffer(std::string(kHeader) +
                           "1,2,4096,1,steady,0,10\n"
                           "\n"
                           "2,4,8192,3,bursty,0,5.5\n"
                           "3,1,1024,16,idle,7,8\n");
  const Trace trace = reference::read_csv(buffer);
  ASSERT_EQ(trace.size(), 3U);
  EXPECT_EQ(trace.vms()[2].spec.level, core::OversubLevel{16});
}

}  // namespace
}  // namespace slackvm::workload
