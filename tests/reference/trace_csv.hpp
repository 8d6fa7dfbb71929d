// istream reference parser for the native trace CSV format. It reads
// through getline and per-field std::string temporaries with stoull/stod,
// which makes it slow and obviously right; workload::TraceReader must
// accept, reject and parse exactly what it does (the TraceReader-vs-read_csv
// suite, workload_trace_reader_test.cpp).
#pragma once

#include <iosfwd>

#include "workload/trace.hpp"

namespace slackvm::reference {

/// Strict parser for the native format. Malformed input throws a
/// SlackError naming the 1-based line, the offending column, and the raw
/// row: rows with too few or too many columns, non-numeric or
/// partially-numeric fields, out-of-range levels, non-finite or negative
/// times, departures not after arrivals, and rows out of arrival order
/// (files must be sorted, as write_csv_fast emits them) are all rejected
/// rather than silently skewing an experiment.
[[nodiscard]] workload::Trace read_csv(std::istream& is);

}  // namespace slackvm::reference
