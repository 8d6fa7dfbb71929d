#include "workload/generator.hpp"

#include <cmath>
#include <numbers>

#include "core/error.hpp"

namespace slackvm::workload {

Generator::Generator(const Catalog& catalog, LevelMix mix, GeneratorConfig config)
    : catalog_(catalog),
      oversub_catalog_(catalog.oversub_offers()),
      mix_(std::move(mix)),
      config_(config) {
  SLACKVM_ASSERT(mix_.valid());
  SLACKVM_ASSERT(config_.target_population > 0);
  SLACKVM_ASSERT(config_.horizon > 0 && config_.mean_lifetime > 0);
  SLACKVM_ASSERT(config_.idle_share + config_.steady_share + config_.bursty_share <= 1.0);
  SLACKVM_ASSERT(config_.diurnal_amplitude >= 0.0 && config_.diurnal_amplitude < 1.0);
}

core::VmSpec Generator::sample_spec(core::SplitMix64& rng) const {
  core::VmSpec spec;
  spec.level = mix_.sample(rng);
  // Oversubscribed offers are capped at 8 GB (§III-A); premium VMs draw from
  // the full catalog.
  const Catalog& source = spec.level.oversubscribed() ? oversub_catalog_ : catalog_;
  const Flavor& flavor = source.sample(rng);
  spec.vcpus = flavor.vcpus;
  spec.mem_mib = flavor.mem_mib;

  const double u = rng.uniform();
  if (u < config_.idle_share) {
    spec.usage = core::UsageClass::kIdle;
  } else if (u < config_.idle_share + config_.steady_share) {
    spec.usage = core::UsageClass::kSteady;
  } else if (u < config_.idle_share + config_.steady_share + config_.bursty_share) {
    spec.usage = core::UsageClass::kBursty;
  } else {
    spec.usage = core::UsageClass::kInteractive;
  }
  return spec;
}

Generator::Stream::Stream(const Generator& gen)
    : gen_(&gen), rng_(gen.config_.seed), spec_rng_(rng_.fork()) {}

bool Generator::Stream::next(core::VmInstance& out) {
  const GeneratorConfig& config = gen_->config_;
  // Little's law: arrival rate lambda = N / E[lifetime] keeps the
  // steady-state population at the target once the ramp-up completes. With
  // a diurnal amplitude the rate is modulated around that mean via Lewis &
  // Shedler thinning (candidates at the peak rate, accepted with
  // probability lambda(t)/lambda_max).
  const double lambda =
      static_cast<double>(config.target_population) / config.mean_lifetime;
  const double lambda_max = lambda * (1.0 + config.diurnal_amplitude);
  constexpr double kDay = 24.0 * 3600.0;
  while (true) {
    t_ += rng_.exponential(1.0 / lambda_max);
    if (t_ >= config.horizon) {
      return false;
    }
    if (config.diurnal_amplitude > 0.0) {
      const double rate_now =
          lambda * (1.0 + config.diurnal_amplitude *
                              std::sin(2.0 * std::numbers::pi * t_ / kDay));
      if (rng_.uniform() >= rate_now / lambda_max) {
        continue;  // thinned-out candidate
      }
    }
    out.id = core::VmId{next_id_++};
    out.spec = gen_->sample_spec(spec_rng_);
    out.arrival = t_;
    // Lifetimes are clipped to the horizon: the paper's experiment measures
    // the week window, so VMs alive at the end simply depart at the horizon.
    // (The +1.0 bump near the edge means the latest departure can slightly
    // exceed config.horizon — the true horizon is data-dependent, which is
    // why GeneratorSource advertises no horizon hint.)
    out.departure =
        std::min(t_ + rng_.exponential(config.mean_lifetime), config.horizon);
    if (out.departure <= out.arrival) {
      out.departure = out.arrival + 1.0;
    }
    return true;
  }
}

Trace Generator::generate() const {
  std::vector<core::VmInstance> vms;
  generate_into(vms);
  return Trace(std::move(vms));
}

void Generator::generate_into(std::vector<core::VmInstance>& rows) const {
  rows.clear();
  Stream stream(*this);
  core::VmInstance vm;
  while (stream.next(vm)) {
    rows.push_back(vm);
  }
}

}  // namespace slackvm::workload
