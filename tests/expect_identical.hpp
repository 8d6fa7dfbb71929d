// Shared RunResult assertions for the differential suites: field-by-field
// bit equality over RunResult::for_each_field, and the drained-replay
// counter identities.
#pragma once

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/metrics.hpp"

namespace slackvm::sim {

/// EXPECT_EQ on every RunResult field, each failure naming its field.
/// Doubles are compared exactly: the determinism contracts (thread counts,
/// shard counts, index on/off, reset datacenters) promise identical bits,
/// not approximate agreement.
inline void expect_identical(const RunResult& a, const RunResult& b) {
  RunResult::for_each_field([&a, &b](const char* name, auto field) {
    EXPECT_EQ(a.*field, b.*field) << "RunResult::" << name;
  });
}

/// Every counter identity of a single drained replay holds.
inline void expect_counter_identities(const RunResult& r) {
  EXPECT_EQ(counter_identity_violations(r), std::vector<std::string>{});
}

}  // namespace slackvm::sim
