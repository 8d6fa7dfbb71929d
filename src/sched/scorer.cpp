#include "sched/scorer.hpp"

#include <sstream>

#include "core/error.hpp"

namespace slackvm::sched {

double ProgressScorer::score(const HostLoad& host, const core::VmSpec& spec) const {
  const core::Resources alloc = host.alloc();
  const core::CoreCount delta_cores = host.cores_with(spec) - alloc.cores;
  core::ProgressInputs in;
  in.config = host.config;
  in.alloc = alloc;
  in.vm = core::Resources{delta_cores, spec.mem_mib};
  return core::progress_towards_target_ratio(in);
}

double BestFitScorer::score(const HostLoad& host, const core::VmSpec& spec) const {
  const double residual_cores =
      static_cast<double>(host.config.cores - host.cores_with(spec)) /
      static_cast<double>(host.config.cores);
  const double residual_mem =
      static_cast<double>(host.config.mem_mib - host.committed_mem - spec.mem_mib) /
      static_cast<double>(host.config.mem_mib);
  return -(residual_cores + residual_mem);  // fuller host -> higher score
}

double WorstFitScorer::score(const HostLoad& host, const core::VmSpec& spec) const {
  return -best_.score(host, spec);
}

InterferenceScorer::InterferenceScorer(double heat_weight)
    : heat_weight_(heat_weight) {
  SLACKVM_ASSERT(heat_weight >= 0.0);
}

double InterferenceScorer::score(const HostLoad& host, const core::VmSpec& spec) const {
  return progress_.score(host, spec) - heat_weight_ * host.quantized_heat();
}

std::string InterferenceScorer::name() const {
  std::ostringstream os;
  os << "interference-aware(w=" << heat_weight_ << ')';
  return os.str();
}

void CompositeScorer::add(std::unique_ptr<Scorer> scorer, double weight) {
  SLACKVM_ASSERT(scorer != nullptr);
  parts_.push_back(Part{std::move(scorer), weight});
}

double CompositeScorer::score(const HostLoad& host, const core::VmSpec& spec) const {
  double total = 0.0;
  for (const Part& part : parts_) {
    total += part.weight * part.scorer->score(host, spec);
  }
  return total;
}

std::string CompositeScorer::name() const {
  std::ostringstream os;
  os << "composite(";
  for (std::size_t i = 0; i < parts_.size(); ++i) {
    if (i > 0) {
      os << '+';
    }
    os << parts_[i].weight << '*' << parts_[i].scorer->name();
  }
  os << ')';
  return os.str();
}

}  // namespace slackvm::sched
