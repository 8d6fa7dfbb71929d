// The benchmark's three workloads. Each is set up from the workload seed,
// then called untraced (the end-to-end measurement) or through the traced
// driver (the layer breakdown), and every call's results are checked.
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "tracer.hpp"

namespace perfbench {

/// Workload sizes. The full sizes are what the benchmark measures; the tiny
/// ones keep the smoke test under a second.
struct Sizes {
  std::size_t stream_rows;         ///< stream_churn trace rows (about)
  std::size_t control_population;  ///< control_loop steady-state VMs
  std::size_t control_faults;      ///< control_loop seeded host failures
  std::size_t sweep_population;    ///< paper_sweep VMs per cell
  std::size_t sweep_reps;          ///< paper_sweep repetitions per distribution

  friend constexpr bool operator==(const Sizes&, const Sizes&) = default;
};

inline constexpr Sizes kFullSizes{500000, 50000, 1000, 500, 20};
inline constexpr Sizes kTinySizes{6000, 600, 20, 60, 2};

/// What one call produced: the results flattened to words (doubles as
/// their bit patterns), the modelled headline, and every failed check.
struct Outcome {
  std::vector<std::uint64_t> words;
  double opened_pms = 0.0;
  double pm_saving_pct = 0.0;  ///< paper_sweep only: mean over cells
  std::uint64_t events = 0;    ///< workload events (2 per trace row)
  // Control-plane outcomes the layer report turns into ratios.
  std::uint64_t mig_planned = 0;
  std::uint64_t mig_committed = 0;
  std::uint64_t mig_retries = 0;
  std::uint64_t evacuated = 0;
  std::uint64_t evac_replaced = 0;
  std::vector<std::string> problems;

  [[nodiscard]] std::uint64_t digest() const;
};

/// Wall time and heap allocations of one timed call.
struct CallCost {
  std::int64_t ns = 0;
  std::uint64_t allocs = 0;
};

class Workload {
 public:
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  virtual ~Workload() = default;

  /// Build the inputs from the seed. Called several times per run (set-up
  /// time is a metric); each call replaces the previous inputs.
  virtual void setup() = 0;

  /// One untraced call of the library entry point. Only the call itself is
  /// inside `cost`; building a fresh datacenter and checking are not.
  virtual Outcome call(CallCost& cost) = 0;

  /// The same call through the traced driver; `cost` covers the whole
  /// traced call.
  virtual Outcome call_traced(Tracer& tracer, CallCost& cost) = 0;

  /// Replays one call runs (the unit of `attempted`).
  [[nodiscard]] virtual std::size_t replays_per_call() const = 0;
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// nullptr for an unknown name. `work_dir` holds files a workload writes.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      std::uint64_t seed,
                                                      const Sizes& sizes,
                                                      const std::filesystem::path& work_dir);

/// Pinned digest of a workload's results at seed 1, or nullopt when none is
/// pinned for these sizes.
[[nodiscard]] std::optional<std::uint64_t> pinned_digest(const std::string& name,
                                                         const Sizes& sizes);

}  // namespace perfbench
