#include "reference/trace_csv.hpp"

#include <cstdint>
#include <istream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/error.hpp"

namespace slackvm::reference {

namespace {

core::UsageClass usage_from_string(const std::string& s) {
  if (s == "idle") {
    return core::UsageClass::kIdle;
  }
  if (s == "steady") {
    return core::UsageClass::kSteady;
  }
  if (s == "bursty") {
    return core::UsageClass::kBursty;
  }
  if (s == "interactive") {
    return core::UsageClass::kInteractive;
  }
  SLACKVM_THROW("unknown usage class: " + s);
}

/// Context-carrying parse failure: every malformed row reports its 1-based
/// line number, the offending column, and the raw text.
[[noreturn]] void row_fail(std::size_t line_no, const std::string& column,
                           const std::string& line, const std::string& why) {
  SLACKVM_THROW("read_csv: line " + std::to_string(line_no) + ", column '" +
                column + "': " + why + " (row: \"" + line + "\")");
}

/// Full-string unsigned parse — rejects partial matches ("12x"), empty
/// fields, signs, and whitespace that std::stoull would silently accept.
std::uint64_t parse_u64(std::size_t line_no, const std::string& column,
                        const std::string& line, const std::string& field) {
  if (field.empty() || field.find_first_not_of("0123456789") != std::string::npos) {
    row_fail(line_no, column, line, "expected a non-negative integer, got '" + field + "'");
  }
  try {
    return std::stoull(field);
  } catch (const std::out_of_range&) {
    row_fail(line_no, column, line, "integer out of range: '" + field + "'");
  }
}

/// Full-string finite-double parse with the same strictness.
double parse_time(std::size_t line_no, const std::string& column,
                  const std::string& line, const std::string& field) {
  std::size_t consumed = 0;
  double value = 0;
  try {
    value = std::stod(field, &consumed);
  } catch (const std::exception&) {
    row_fail(line_no, column, line, "expected a number, got '" + field + "'");
  }
  if (consumed != field.size()) {
    row_fail(line_no, column, line, "trailing junk in number '" + field + "'");
  }
  if (!(value >= 0) || !(value <= 1e300)) {  // also rejects NaN/inf
    row_fail(line_no, column, line, "time must be finite and >= 0, got '" + field + "'");
  }
  return value;
}

}  // namespace

workload::Trace read_csv(std::istream& is) {
  // Stream-size heuristic: seekable inputs reveal their byte count, and a
  // row of the native format averages ~45 bytes, so one reservation
  // replaces the geometric growth's O(log n) reallocations (and their
  // copies) with a single allocation. Non-seekable streams skip the hint.
  std::size_t reserve_hint = 0;
  if (const std::istream::pos_type at = is.tellg(); at != std::istream::pos_type(-1)) {
    is.seekg(0, std::ios_base::end);
    if (const std::istream::pos_type end = is.tellg();
        end != std::istream::pos_type(-1) && end > at) {
      constexpr std::size_t kAvgRowBytes = 45;
      reserve_hint = static_cast<std::size_t>(end - at) / kAvgRowBytes;
    }
    is.seekg(at);
  }
  std::string line;
  if (!std::getline(is, line)) {
    SLACKVM_THROW("read_csv: empty input");
  }
  std::vector<core::VmInstance> vms;
  vms.reserve(reserve_hint);
  std::size_t line_no = 1;  // header was line 1
  core::SimTime last_arrival = 0;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty()) {
      continue;
    }
    std::istringstream fields(line);
    std::string field;
    core::VmInstance vm;
    auto next = [&](const char* column) -> std::string {
      if (!std::getline(fields, field, ',')) {
        row_fail(line_no, column, line, "row has too few columns (expected 7)");
      }
      return field;
    };
    vm.id.value = parse_u64(line_no, "id", line, next("id"));
    vm.spec.vcpus =
        static_cast<core::VcpuCount>(parse_u64(line_no, "vcpus", line, next("vcpus")));
    if (vm.spec.vcpus == 0) {
      row_fail(line_no, "vcpus", line, "vcpus must be >= 1");
    }
    vm.spec.mem_mib =
        static_cast<core::MemMib>(parse_u64(line_no, "mem_mib", line, next("mem_mib")));
    const std::uint64_t ratio = parse_u64(line_no, "level", line, next("level"));
    if (ratio < 1 || ratio > core::OversubLevel::kMaxRatio) {
      row_fail(line_no, "level", line,
               "oversubscription ratio must be in [1, " +
                   std::to_string(core::OversubLevel::kMaxRatio) + "], got '" + field +
                   "'");
    }
    vm.spec.level = core::OversubLevel{static_cast<std::uint8_t>(ratio)};
    vm.spec.usage = usage_from_string(next("usage"));
    vm.arrival = parse_time(line_no, "arrival", line, next("arrival"));
    vm.departure = parse_time(line_no, "departure", line, next("departure"));
    if (std::getline(fields, field, ',')) {
      row_fail(line_no, "trailing", line, "row has too many columns (expected 7)");
    }
    if (!(vm.departure > vm.arrival)) {
      row_fail(line_no, "departure", line,
               "departure must be strictly after arrival");
    }
    if (vm.arrival < last_arrival) {
      row_fail(line_no, "arrival", line,
               "rows must be sorted by arrival (write_csv_fast emits them sorted); this "
               "row arrives before the previous one");
    }
    last_arrival = vm.arrival;
    vms.push_back(vm);
  }
  return workload::Trace(std::move(vms));
}

}  // namespace slackvm::reference
