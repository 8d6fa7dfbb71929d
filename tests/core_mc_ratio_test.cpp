// Unit tests for Algorithm 2 (progress towards target ratio).
#include "core/mc_ratio.hpp"

#include <gtest/gtest.h>

#include "core/units.hpp"

namespace slackvm::core {
namespace {

// The simulator worker used throughout the evaluation: M/C target = 4.
const Resources kWorker{32, gib(128)};

ProgressInputs make(Resources alloc, Resources vm) {
  return ProgressInputs{kWorker, alloc, vm};
}

TEST(ProgressScore, BalancingVmScoresPositive) {
  // Host is CPU-heavy (ratio 2 < target 4); a memory-heavy VM helps.
  const double score = progress_towards_target_ratio(
      make(Resources{8, gib(16)}, Resources{1, gib(16)}));
  EXPECT_GT(score, 0.0);
}

TEST(ProgressScore, WorseningVmScoresNegative) {
  // Host is already CPU-heavy; a pure-CPU VM makes it worse.
  const double score = progress_towards_target_ratio(
      make(Resources{8, gib(16)}, Resources{4, gib(1)}));
  EXPECT_LT(score, 0.0);
}

TEST(ProgressScore, IdlePmTreatedAsIdealRatio) {
  // Line 6: on an empty PM currentRatio = targetRatio, so progress is
  // -|vmRatio - target| * factor <= 0, and it is 0 only for a perfectly
  // balanced VM.
  const double balanced = progress_towards_target_ratio(
      make(Resources{}, Resources{2, gib(8)}));  // ratio 4 == target
  EXPECT_DOUBLE_EQ(balanced, 0.0);

  const double unbalanced = progress_towards_target_ratio(
      make(Resources{}, Resources{4, gib(4)}));  // ratio 1
  EXPECT_LT(unbalanced, 0.0);
}

TEST(ProgressScore, BusyPmPreferredOverIdleForCorrectiveVm) {
  // A memory-heavy VM on a CPU-heavy busy PM must outscore the same VM on
  // an idle PM: this is what makes the scorer consolidate.
  const Resources vm{1, gib(12)};
  const double busy =
      progress_towards_target_ratio(make(Resources{8, gib(8)}, vm));  // ratio 1
  const double idle = progress_towards_target_ratio(make(Resources{}, vm));
  EXPECT_GT(busy, idle);
}

TEST(ProgressScore, NegativeProgressAmplifiedByLoad) {
  // Lines 12-15: for the same ratio trajectory (current 4 -> next 2.5, i.e.
  // identical raw delta), the worsening deployment hurts more on a loaded
  // PM because the load factor amplifies negative progress.
  const double lightly_loaded = progress_towards_target_ratio(
      make(Resources{4, gib(16)}, Resources{4, gib(4)}));
  const double heavily_loaded = progress_towards_target_ratio(
      make(Resources{28, gib(112)}, Resources{28, gib(28)}));
  ASSERT_LT(lightly_loaded, 0.0);
  ASSERT_LT(heavily_loaded, 0.0);
  EXPECT_LT(heavily_loaded, lightly_loaded);  // more negative
}

TEST(ProgressScore, PositiveProgressNotAmplified) {
  // The load factor (lines 12-15) only applies to negative progress.
  const Resources vm{1, gib(16)};  // strongly corrective on a CPU-heavy host
  const double light =
      progress_towards_target_ratio(make(Resources{4, gib(4)}, vm));
  ASSERT_GT(light, 0.0);
  // Score equals the plain delta difference: recompute by hand.
  const double current_delta = std::abs(1.0 - 4.0);
  const double next_delta = std::abs((4.0 + 16.0) / (4.0 + 1.0) - 4.0);
  EXPECT_DOUBLE_EQ(light, current_delta - next_delta);
}

TEST(ProgressScore, PerfectFinishScoresMaximal) {
  // Host at 24c/120GiB allocated; a VM bringing it exactly to 32c/128GiB
  // target ratio 4 achieves next_delta == 0, the best possible outcome.
  const Resources alloc{24, gib(120)};
  const Resources vm{8, gib(8)};
  const double score = progress_towards_target_ratio(make(alloc, vm));
  const double current_delta = std::abs(5.0 - 4.0);
  EXPECT_DOUBLE_EQ(score, current_delta);
}

TEST(ProgressScore, MemoryOnlyVmHandled) {
  // A VM whose cores were absorbed by vNode slack (delta cores == 0).
  const double score = progress_towards_target_ratio(
      make(Resources{8, gib(16)}, Resources{0, gib(8)}));
  EXPECT_GT(score, 0.0);  // raises ratio 2 -> 3, closer to 4
}

TEST(ProgressScore, HeterogeneousHardwareUsesOwnTarget) {
  // A memory-rich PM (target 8) scores the same VM differently from the
  // standard worker: Algorithm 2 is per-PM.
  const Resources fat_config{32, gib(256)};
  const Resources alloc{8, gib(32)};  // ratio 4
  const Resources vm{2, gib(4)};      // ratio 2, pulls away from 8
  const double fat = progress_towards_target_ratio({fat_config, alloc, vm});
  const double std_worker = progress_towards_target_ratio({kWorker, alloc, vm});
  EXPECT_LT(fat, 0.0);        // moves away from 8
  EXPECT_LT(std_worker, 0.0); // ratio 4 was perfect; any VM below 4 hurts
  EXPECT_NE(fat, std_worker);
}

TEST(RatioDelta, ZeroWhenEmptyOrOnTarget) {
  EXPECT_DOUBLE_EQ(ratio_delta(Resources{}, kWorker), 0.0);
  EXPECT_DOUBLE_EQ(ratio_delta(Resources{16, gib(64)}, kWorker), 0.0);
  EXPECT_DOUBLE_EQ(ratio_delta(Resources{16, gib(32)}, kWorker), 2.0);
}

// Parameterized property sweep: for any current allocation, a VM that moves
// the ratio strictly toward the target never scores negative, and a VM that
// moves it strictly away never scores positive.
// Both fields are 64-bit so the struct has no padding: ctest names each case
// after gtest's byte dump of the parameter, and padding bytes would make those
// names differ from build to build.
struct AllocCase {
  std::int64_t cores;
  std::int64_t mem_gib;
};

class ProgressDirectionProperty : public ::testing::TestWithParam<AllocCase> {};

TEST_P(ProgressDirectionProperty, SignMatchesDirection) {
  const auto cores = static_cast<CoreCount>(GetParam().cores);
  const Resources alloc{cores, gib(GetParam().mem_gib)};
  const double target = 4.0;
  const double current = mib_to_gib(alloc.mem_mib) / cores;

  for (CoreCount vc = 1; vc <= 4; ++vc) {
    for (std::int64_t vm_gib = 1; vm_gib <= 32; vm_gib *= 2) {
      const Resources vm{vc, gib(vm_gib)};
      const Resources next_alloc = alloc + vm;
      const double next = mib_to_gib(next_alloc.mem_mib) / next_alloc.cores;
      const double score = progress_towards_target_ratio(make(alloc, vm));
      if (std::abs(next - target) < std::abs(current - target)) {
        EXPECT_GE(score, 0.0) << "alloc " << to_string(alloc) << " vm " << to_string(vm);
      } else if (std::abs(next - target) > std::abs(current - target)) {
        EXPECT_LE(score, 0.0) << "alloc " << to_string(alloc) << " vm " << to_string(vm);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ProgressDirectionProperty,
                         ::testing::Values(AllocCase{4, 4}, AllocCase{4, 32},
                                           AllocCase{8, 32}, AllocCase{16, 64},
                                           AllocCase{16, 16}, AllocCase{24, 120},
                                           AllocCase{1, 1}, AllocCase{31, 124}));

}  // namespace
}  // namespace slackvm::core
