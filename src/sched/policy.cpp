#include "sched/policy.hpp"

#include "core/error.hpp"

namespace slackvm::sched {

std::optional<HostId> FirstFitPolicy::select(std::span<const HostState> hosts,
                                             const core::VmSpec& spec,
                                             const Filter* extra) const {
  for (const HostState& host : hosts) {
    if (admits(host, spec, extra)) {
      return host.id();
    }
  }
  return std::nullopt;
}

ScorePolicy::ScorePolicy(std::unique_ptr<Scorer> scorer) : scorer_(std::move(scorer)) {
  SLACKVM_ASSERT(scorer_ != nullptr);
}

std::optional<HostId> ScorePolicy::select(std::span<const HostState> hosts,
                                          const core::VmSpec& spec,
                                          const Filter* extra) const {
  std::optional<HostId> best;
  double best_score = 0.0;
  for (const HostState& host : hosts) {
    if (!admits(host, spec, extra)) {
      continue;
    }
    const double s = scorer_->score(host.load(), spec);
    if (!best || s > best_score) {
      best = host.id();
      best_score = s;
    }
  }
  return best;
}

std::string ScorePolicy::name() const { return "score(" + scorer_->name() + ")"; }

RandomPolicy::RandomPolicy(std::uint64_t seed) : seed_(seed), rng_(seed) {}

std::optional<HostId> RandomPolicy::select(std::span<const HostState> hosts,
                                           const core::VmSpec& spec,
                                           const Filter* extra) const {
  std::vector<HostId> feasible;
  for (const HostState& host : hosts) {
    if (admits(host, spec, extra)) {
      feasible.push_back(host.id());
    }
  }
  if (feasible.empty()) {
    return std::nullopt;
  }
  return feasible[rng_.below(feasible.size())];
}

std::unique_ptr<PlacementPolicy> make_first_fit() {
  return std::make_unique<FirstFitPolicy>();
}

std::unique_ptr<PlacementPolicy> make_progress_policy() {
  return std::make_unique<ScorePolicy>(std::make_unique<ProgressScorer>());
}

std::unique_ptr<PlacementPolicy> make_best_fit() {
  return std::make_unique<ScorePolicy>(std::make_unique<BestFitScorer>());
}

std::unique_ptr<PlacementPolicy> make_worst_fit() {
  return std::make_unique<ScorePolicy>(std::make_unique<WorstFitScorer>());
}

std::unique_ptr<PlacementPolicy> make_random_fit(std::uint64_t seed) {
  return std::make_unique<RandomPolicy>(seed);
}

std::unique_ptr<PlacementPolicy> make_interference_policy(double heat_weight) {
  return std::make_unique<ScorePolicy>(
      std::make_unique<InterferenceScorer>(heat_weight));
}

std::unique_ptr<PlacementPolicy> make_slackvm_policy(double packing_weight) {
  auto composite = std::make_unique<CompositeScorer>();
  composite->add(std::make_unique<ProgressScorer>(), 1.0);
  composite->add(std::make_unique<BestFitScorer>(), packing_weight);
  return std::make_unique<ScorePolicy>(std::move(composite));
}

}  // namespace slackvm::sched
