// CloudFactory-like workload generator (paper §VII).
//
// Generates a one-week IAAS trace as an M/G/inf-style birth-death process:
// Poisson arrivals with rate chosen so the steady-state population matches
// `target_population`, exponential lifetimes, VM sizes sampled from the
// provider catalog (full catalog at 1:1, <= 8 GB truncation for
// oversubscribed offers), level sampled from a LevelMix, and usage classes
// matching the paper's physical-experiment mix (10% idle / 60% CPU-bound /
// 30% interactive).
#pragma once

#include <cstdint>
#include <vector>

#include "core/rng.hpp"
#include "workload/catalog.hpp"
#include "workload/level_mix.hpp"
#include "workload/trace.hpp"

namespace slackvm::workload {

/// Generator parameters; defaults mirror §VII-B1.
struct GeneratorConfig {
  std::size_t target_population = 500;       ///< steady-state concurrent VMs
  core::SimTime horizon = 7.0 * 24 * 3600;   ///< one week in seconds
  core::SimTime mean_lifetime = 2.0 * 24 * 3600;  ///< mean VM lifetime
  double idle_share = 0.10;                  ///< §VII-A1 usage mix
  double steady_share = 0.60;
  double bursty_share = 0.0;
  // remaining share -> interactive
  /// Diurnal arrival modulation in [0, 1): the instantaneous arrival rate
  /// is lambda * (1 + amplitude * sin(2*pi*t/day)). 0 = homogeneous
  /// Poisson (the default protocol).
  double diurnal_amplitude = 0.0;
  std::uint64_t seed = 42;
};

class Generator {
 public:
  Generator(const Catalog& catalog, LevelMix mix, GeneratorConfig config = {});

  /// Resumable row-at-a-time view of the generated trace. Arrivals are
  /// emitted in nondecreasing order (the Poisson clock only moves forward),
  /// so the stream satisfies the sorted-arrival contract of
  /// sim::EventSource without any buffering. generate() is implemented on
  /// top of this, so the stream and the materialized trace contain
  /// identical rows by construction. The Generator (and its catalog) must
  /// outlive the stream.
  class Stream {
   public:
    explicit Stream(const Generator& gen);

    /// Produce the next VM; false once the arrival clock passes the horizon.
    bool next(core::VmInstance& out);

   private:
    const Generator* gen_;
    core::SplitMix64 rng_;
    core::SplitMix64 spec_rng_;
    std::uint64_t next_id_ = 1;
    core::SimTime t_ = 0;
  };

  /// Start a fresh stream from the configured seed.
  [[nodiscard]] Stream stream() const { return Stream(*this); }

  /// Generate the full trace. Deterministic for a given (catalog, mix, seed).
  [[nodiscard]] Trace generate() const;

  /// The rows generate() would hold, in the same (arrival) order, written
  /// over `rows` so that a caller generating trace after trace into one
  /// vector reuses its storage.
  void generate_into(std::vector<core::VmInstance>& rows) const;

  [[nodiscard]] const GeneratorConfig& config() const noexcept { return config_; }
  [[nodiscard]] const LevelMix& mix() const noexcept { return mix_; }

 private:
  [[nodiscard]] core::VmSpec sample_spec(core::SplitMix64& rng) const;

  const Catalog& catalog_;
  const Catalog& oversub_catalog_;  ///< catalog_.oversub_offers()
  LevelMix mix_;
  GeneratorConfig config_;
};

}  // namespace slackvm::workload
