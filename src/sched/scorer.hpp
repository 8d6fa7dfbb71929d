// Host scoring for score-based global schedulers (paper §II-B, §VI).
//
// Production control planes (OpenStack, Protean, Borg) filter hosts on hard
// constraints and rank survivors with weighted soft-constraint scores.
// SlackVM's contribution is ProgressScorer — Algorithm 2 — which rewards
// placements that move a host's allocated M/C ratio toward its hardware
// target ratio. The other scorers are classical packing heuristics used as
// baselines and for weighted composition.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/mc_ratio.hpp"
#include "sched/host_state.hpp"

namespace slackvm::sched {

/// Interface of a soft-constraint scorer; higher is better. Implementations
/// may assume the host already passed the capacity filter, and must read the
/// spec's shape only (vcpus, mem_mib, level — never usage): PlacementIndex
/// and the consolidation planner share one ranking per shape.
class Scorer {
 public:
  virtual ~Scorer() = default;
  [[nodiscard]] virtual double score(const HostLoad& host,
                                     const core::VmSpec& spec) const = 0;
  [[nodiscard]] virtual std::string name() const = 0;
};

/// Paper Algorithm 2. The candidate VM footprint is host-aware: the cores
/// input is the *incremental* physical-core demand on this host (integer
/// vNode rounding means a VM may be absorbed by slack in its level's vNode).
class ProgressScorer final : public Scorer {
 public:
  [[nodiscard]] double score(const HostLoad& host,
                             const core::VmSpec& spec) const override;
  [[nodiscard]] std::string name() const override { return "progress-to-target-ratio"; }
};

/// Classical best-fit: prefer the host with the least normalized residual
/// capacity after placement (sum of the core and memory residual fractions).
class BestFitScorer final : public Scorer {
 public:
  [[nodiscard]] double score(const HostLoad& host,
                             const core::VmSpec& spec) const override;
  [[nodiscard]] std::string name() const override { return "best-fit"; }
};

/// Classical worst-fit: prefer the emptiest host (load spreading).
class WorstFitScorer final : public Scorer {
 public:
  [[nodiscard]] double score(const HostLoad& host,
                             const core::VmSpec& spec) const override;
  [[nodiscard]] std::string name() const override { return "worst-fit"; }

 private:
  BestFitScorer best_;  ///< negated per call; held, not rebuilt per score
};

/// Interference-aware scorer: Algorithm 2's progress score minus a penalty
/// proportional to the host's *quantized* heat (HostLoad::quantized_heat).
/// Reading the quantized value — never the raw EWMA — is what keeps this
/// scorer inside the PlacementIndex lazy-deletion protocol: the score of a
/// host can only change when its epoch does (heat-bucket crossings bump it),
/// so cached heap entries stay exact within a bucket.
class InterferenceScorer final : public Scorer {
 public:
  explicit InterferenceScorer(double heat_weight = 1.0);

  [[nodiscard]] double score(const HostLoad& host,
                             const core::VmSpec& spec) const override;
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] double heat_weight() const noexcept { return heat_weight_; }

 private:
  ProgressScorer progress_;
  double heat_weight_ = 1.0;
};

/// Weighted sum of scorers, mirroring how providers compose dozens of rules;
/// used by the ablation bench to mix Algorithm 2 with packing pressure.
class CompositeScorer final : public Scorer {
 public:
  void add(std::unique_ptr<Scorer> scorer, double weight);

  [[nodiscard]] double score(const HostLoad& host,
                             const core::VmSpec& spec) const override;
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] std::size_t size() const noexcept { return parts_.size(); }

 private:
  struct Part {
    std::unique_ptr<Scorer> scorer;
    double weight;
  };
  std::vector<Part> parts_;
};

}  // namespace slackvm::sched
