// Placement policies: filter + select, the final stage of a global scheduler.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>

#include "core/rng.hpp"
#include "sched/filter.hpp"
#include "sched/host_state.hpp"
#include "sched/scorer.hpp"

namespace slackvm::sched {

/// Selects a host for a VM from an ordered candidate list. Candidates that
/// fail the built-in capacity filter — or the optional extra hard-constraint
/// filter (paper §II-B) — are skipped by every policy.
///
/// select() is the *naive reference path*: a full linear scan over the
/// candidate list. VCluster's incremental PlacementIndex answers the same
/// question in O(log N) for policies that advertise an IndexMode; the
/// differential tests (tests/sched_placement_index_test.cpp) assert both
/// paths pick the identical host for every placement.
class PlacementPolicy {
 public:
  /// How sched::PlacementIndex can serve this policy: kNone — the policy
  /// needs the full candidate list each time (e.g. RandomPolicy), the index
  /// is bypassed; kFirstFit — lowest feasible id; kScore — argmax of
  /// index_scorer() with ties to the lowest id.
  enum class IndexMode { kNone, kFirstFit, kScore };

  virtual ~PlacementPolicy() = default;

  /// Returns the chosen host id, or std::nullopt when no candidate fits.
  /// Tie-breaking contract (guaranteed, relied upon by the index): when
  /// several feasible hosts are equally preferred, the lowest HostId wins.
  [[nodiscard]] virtual std::optional<HostId> select(std::span<const HostState> hosts,
                                                     const core::VmSpec& spec,
                                                     const Filter* extra = nullptr) const = 0;
  [[nodiscard]] virtual std::string name() const = 0;

  [[nodiscard]] virtual IndexMode index_mode() const noexcept { return IndexMode::kNone; }

  /// Return to the state the policy was constructed in (VCluster::reset).
  /// A no-op for every policy whose select() is pure.
  virtual void reset() noexcept {}

  /// Scorer the index caches per host in kScore mode; must be pure in
  /// (host state, spec). nullptr unless index_mode() == kScore.
  [[nodiscard]] virtual const Scorer* index_scorer() const noexcept { return nullptr; }

 protected:
  /// Built-in admission: capacity plus the optional extra filter.
  [[nodiscard]] static bool admits(const HostState& host, const core::VmSpec& spec,
                                   const Filter* extra) {
    return host.can_host(spec) && (extra == nullptr || extra->admits(host, spec));
  }
};

/// First-Fit: the first (lowest-index) host that fits — the packing baseline
/// used throughout the paper's evaluation (§VII-B).
class FirstFitPolicy final : public PlacementPolicy {
 public:
  [[nodiscard]] std::optional<HostId> select(std::span<const HostState> hosts,
                                             const core::VmSpec& spec,
                                             const Filter* extra = nullptr) const override;
  [[nodiscard]] std::string name() const override { return "first-fit"; }
  [[nodiscard]] IndexMode index_mode() const noexcept override {
    return IndexMode::kFirstFit;
  }
};

/// Score-based selection: the feasible host with the strictly highest score;
/// ties break on the lowest host index (the scan only replaces the incumbent
/// on a *strictly* greater score), matching First-Fit's determinism. The
/// indexed path orders its heap by (score desc, id asc) to guarantee the
/// same winner; tests/sched_policy_test.cpp pins the contract.
class ScorePolicy final : public PlacementPolicy {
 public:
  explicit ScorePolicy(std::unique_ptr<Scorer> scorer);

  [[nodiscard]] std::optional<HostId> select(std::span<const HostState> hosts,
                                             const core::VmSpec& spec,
                                             const Filter* extra = nullptr) const override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] IndexMode index_mode() const noexcept override {
    return IndexMode::kScore;
  }
  [[nodiscard]] const Scorer* index_scorer() const noexcept override {
    return scorer_.get();
  }

 private:
  std::unique_ptr<Scorer> scorer_;
};

/// Uniform random choice among feasible hosts (seeded, deterministic) — the
/// weakest sensible baseline for the policy ablation.
class RandomPolicy final : public PlacementPolicy {
 public:
  explicit RandomPolicy(std::uint64_t seed = 42);

  [[nodiscard]] std::optional<HostId> select(std::span<const HostState> hosts,
                                             const core::VmSpec& spec,
                                             const Filter* extra = nullptr) const override;
  [[nodiscard]] std::string name() const override { return "random-fit"; }
  void reset() noexcept override { rng_ = core::SplitMix64(seed_); }

 private:
  std::uint64_t seed_;
  mutable core::SplitMix64 rng_;
};

/// Factory helpers for the experiment harness.
[[nodiscard]] std::unique_ptr<PlacementPolicy> make_first_fit();
[[nodiscard]] std::unique_ptr<PlacementPolicy> make_progress_policy();
[[nodiscard]] std::unique_ptr<PlacementPolicy> make_best_fit();
[[nodiscard]] std::unique_ptr<PlacementPolicy> make_worst_fit();
[[nodiscard]] std::unique_ptr<PlacementPolicy> make_random_fit(std::uint64_t seed = 42);

/// Interference-aware placement: Algorithm 2's progress score stacked with a
/// penalty on the host's quantized heat (scorer.hpp InterferenceScorer).
/// Serves the index in kScore mode like every other ScorePolicy.
[[nodiscard]] std::unique_ptr<PlacementPolicy> make_interference_policy(
    double heat_weight = 1.0);

/// The production-shaped SlackVM policy (paper §VII-B2: "providers may guide
/// workload packing by adjusting the weight of our metric in their scoring
/// mechanism, alongside their other criteria"): the Algorithm-2 progress
/// score blended with a light best-fit packing pressure that breaks
/// near-ties toward fuller PMs.
[[nodiscard]] std::unique_ptr<PlacementPolicy> make_slackvm_policy(
    double packing_weight = 0.25);

}  // namespace slackvm::sched
