#include "workloads.hpp"

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <bit>
#include <cstdlib>
#include <fstream>
#include <stdexcept>

#include "core/error.hpp"
#include "sched/policy.hpp"
#include "sim/audit.hpp"
#include "sim/datacenter.hpp"
#include "sim/event_source.hpp"
#include "sim/experiment.hpp"
#include "sim/replay.hpp"
#include "traced_replay.hpp"
#include "workload/catalog.hpp"
#include "workload/generator.hpp"
#include "workload/level_mix.hpp"
#include "workload/trace_reader.hpp"

namespace perfbench {

namespace sim = slackvm::sim;
namespace sched = slackvm::sched;
namespace core = slackvm::core;
namespace workload = slackvm::workload;

namespace {

constexpr core::SimTime kWeek = 7.0 * 24 * 3600;
const core::Resources kHost{32, core::gib(128)};

template <class F>
void measure(CallCost& cost, F&& f) {
  const std::uint64_t allocs = alloc_count();
  const std::int64_t start = now_ns();
  f();
  cost.ns = now_ns() - start;
  cost.allocs = alloc_count() - allocs;
}

void append(std::vector<std::uint64_t>& w, const std::string& s) {
  w.push_back(s.size());
  for (const char c : s) {
    w.push_back(static_cast<unsigned char>(c));
  }
}

/// Every RunResult field, doubles bit-exact.
void append(std::vector<std::uint64_t>& w, const sim::RunResult& r) {
  for (const std::size_t v :
       {r.opened_pms, r.peak_active_pms, r.migrations, r.placed_vms, r.peak_vms,
        r.host_failures, r.host_repairs, r.drained_hosts, r.evacuated_vms,
        r.evac_replaced, r.evac_migrated, r.evac_retries, r.evac_departed,
        r.degraded_vms, r.deferred_arrivals, r.arrivals_dropped, r.mig_planned,
        r.mig_committed, r.mig_cancelled, r.mig_rolled_back, r.mig_timed_out,
        r.mig_degraded, r.mig_retries, r.heat_updates, r.itf_passes, r.itf_hot_hosts,
        r.itf_evictions, r.itf_applied, r.itf_requested, r.itf_skipped}) {
    w.push_back(v);
  }
  for (const double v : {r.avg_unalloc_cpu_share, r.avg_unalloc_mem_share,
                         r.peak_unalloc_cpu_share, r.peak_unalloc_mem_share, r.duration,
                         r.avg_active_pms, r.avg_alloc_cores}) {
    w.push_back(std::bit_cast<std::uint64_t>(v));
  }
  w.push_back(r.opened_per_cluster.size());
  for (const auto& [name, pms] : r.opened_per_cluster) {
    append(w, name);
    w.push_back(pms);
  }
}

/// The audited counter identities of sim/metrics.hpp.
void check_identities(const sim::RunResult& r, std::vector<std::string>& problems) {
  if (r.evacuated_vms != r.evac_replaced + r.evac_departed + r.degraded_vms) {
    problems.emplace_back("evacuated identity violated");
  }
  if (r.mig_planned != r.mig_committed + r.mig_cancelled + r.mig_rolled_back +
                           r.mig_timed_out + r.mig_degraded) {
    problems.emplace_back("mig_* identity violated");
  }
  if (r.itf_evictions != r.itf_applied + r.itf_requested + r.itf_skipped) {
    problems.emplace_back("itf_* identity violated");
  }
}

void check_audit(const sim::Datacenter& dc, std::vector<std::string>& problems) {
  for (const std::string& v : sim::audit(dc)) {
    problems.push_back("audit: " + v);
  }
}

/// Outcome of a workload whose call is a single replay.
Outcome single_replay(const sim::RunResult& r, const sim::Datacenter& dc) {
  Outcome o;
  append(o.words, r);
  o.opened_pms = static_cast<double>(r.opened_pms);
  o.events = 2 * r.placed_vms;
  o.mig_planned = r.mig_planned;
  o.mig_committed = r.mig_committed;
  o.mig_retries = r.mig_retries;
  o.evacuated = r.evacuated_vms;
  o.evac_replaced = r.evac_replaced;
  check_identities(r, o.problems);
  check_audit(dc, o.problems);
  return o;
}

// --- stream_churn -----------------------------------------------------------
// A synthetic OVHcloud week written as a real-provider 5-column CSV at
// set-up, then streamed through StreamingTraceSource into a serial replay
// on a shared progress-policy datacenter with the control plane off. Ingest,
// the event queue and deploy/remove on a large fleet do all the work.
class StreamChurn final : public Workload {
 public:
  StreamChurn(std::uint64_t seed, const Sizes& sizes, const std::filesystem::path& dir)
      : seed_(seed),
        rows_(sizes.stream_rows),
        path_(dir / ("stream_churn_" + std::to_string(seed) + "_" +
                     std::to_string(::getpid()) + ".csv")) {}

  ~StreamChurn() override {
    std::error_code ignored;
    std::filesystem::remove(path_, ignored);
  }

  // The generator materialises the whole trace before writing it. A child
  // process does that, so the parent's peak RSS stays the streaming
  // replay's own.
  void setup() override {
    std::filesystem::create_directories(path_.parent_path());
    const pid_t pid = ::fork();
    if (pid < 0) {
      throw std::runtime_error("stream_churn: fork failed");
    }
    if (pid == 0) {
      int code = 0;
      try {
        synthesize();
      } catch (const std::exception& e) {
        std::fprintf(stderr, "stream_churn set-up: %s\n", e.what());
        code = 1;
      }
      std::_Exit(code);
    }
    int status = 0;
    if (::waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0) {
      throw std::runtime_error("stream_churn: trace synthesis failed");
    }
  }

  Outcome call(CallCost& cost) override {
    sim::Datacenter dc = sim::Datacenter::shared(kHost, sched::make_progress_policy);
    sim::RunResult r;
    measure(cost, [&] {
      sim::StreamingTraceSource source{workload::TraceReader(path_.string())};
      r = sim::replay(dc, source);
    });
    return single_replay(r, dc);
  }

  Outcome call_traced(Tracer& tracer, CallCost& cost) override {
    sim::Datacenter dc = sim::Datacenter::shared(kHost, sched::make_progress_policy);
    sim::RunResult r;
    measure(cost, [&] {
      std::optional<sim::StreamingTraceSource> source;
      {
        Tracer::Span span(tracer, Layer::kWorkload);
        source.emplace(workload::TraceReader(path_.string()));
      }
      r = traced_replay(tracer, dc, *source, std::nullopt, nullptr, true);
    });
    Outcome o = single_replay(r, dc);
    if (tracer.stats().rows != r.placed_vms) {
      o.problems.emplace_back("placed VMs differ from streamed rows");
    }
    return o;
  }

  [[nodiscard]] std::size_t replays_per_call() const override { return 1; }

 private:
  void synthesize() const {
    workload::GeneratorConfig cfg;
    cfg.horizon = kWeek;
    cfg.seed = seed_;
    // Little's law, as tools/trace_synth inverts it: ~rows arrivals over
    // the horizon need this steady-state population.
    cfg.target_population =
        static_cast<std::size_t>(static_cast<double>(rows_) * cfg.mean_lifetime / cfg.horizon);
    const workload::Generator gen(workload::catalog_by_name("ovhcloud"),
                                  workload::distribution('F'), cfg);
    const workload::Trace trace = gen.generate();
    std::ofstream out(path_, std::ios::binary);
    workload::write_csv_fast(trace, out, workload::TraceFormat::kReal);
    out.close();
    if (!out) {
      throw std::runtime_error("cannot write " + path_.string());
    }
  }

  std::uint64_t seed_;
  std::size_t rows_;
  std::filesystem::path path_;
};

// --- control_loop -----------------------------------------------------------
// A materialised Azure distribution-J week through a serial replay with the
// whole control plane on: engine-mode rebalancing, seeded faults and the
// interference loop. The planners, heat feeder, migration engine and
// evacuation path do most of the work; ingest does none.
class ControlLoop final : public Workload {
 public:
  ControlLoop(std::uint64_t seed, const Sizes& sizes)
      : seed_(seed), population_(sizes.control_population) {
    rebalance_.interval = 2.0 * 3600;
    rebalance_.budget_per_pass = 32;
    rebalance_.migration.enabled = true;
    rebalance_.migration.bandwidth_mibps = 16.0;
    rebalance_.migration.max_concurrent_per_host = 2;
    rebalance_.migration.max_in_flight = 16;
    rebalance_.interference.enabled = true;
    rebalance_.interference.heat_interval = 900.0;
    rebalance_.interference.threshold = 1.02;
    rebalance_.interference.evictions_per_pass = 4;
    sim::FaultConfig faults;
    faults.count = sizes.control_faults;
    faults_ = sim::resolve_fault_seed(faults, seed);
  }

  void setup() override {
    workload::GeneratorConfig cfg;
    cfg.target_population = population_;
    cfg.seed = seed_;
    trace_ = workload::Generator(workload::catalog_by_name("azure"),
                                 workload::distribution('J'), cfg)
                 .generate();
    static_cast<void>(make_dc());
  }

  Outcome call(CallCost& cost) override {
    sim::Datacenter dc = make_dc();
    sim::RunResult r;
    measure(cost, [&] { r = sim::replay(dc, trace_, rebalance_, nullptr, &faults_); });
    return check(r, dc);
  }

  Outcome call_traced(Tracer& tracer, CallCost& cost) override {
    sim::Datacenter dc = make_dc();
    sim::RunResult r;
    measure(cost, [&] {
      sim::MaterializedSource source(trace_);
      r = traced_replay(tracer, dc, source, rebalance_, &faults_, false);
    });
    return check(r, dc);
  }

  [[nodiscard]] std::size_t replays_per_call() const override { return 1; }

 private:
  [[nodiscard]] sim::Datacenter make_dc() const {
    const double weight = rebalance_.interference.heat_weight;
    return sim::Datacenter::shared(
        kHost, [weight] { return sched::make_interference_policy(weight); });
  }

  Outcome check(const sim::RunResult& r, const sim::Datacenter& dc) const {
    Outcome o = single_replay(r, dc);
    o.events = 2 * trace_.size();
    if (r.placed_vms != trace_.size()) {
      o.problems.emplace_back("not every arrival was placed");
    }
    // The workload exists to load the control plane: a run where a part of
    // it did nothing measures the wrong thing.
    if (r.itf_passes == 0 || r.mig_committed == 0 || r.host_failures == 0 ||
        r.evacuated_vms == 0 || r.heat_updates == 0) {
      o.problems.emplace_back("a control-plane layer did no work");
    }
    return o;
  }

  std::uint64_t seed_;
  std::size_t population_;
  sim::RebalanceOptions rebalance_;
  sim::FaultConfig faults_;
  workload::Trace trace_;
};

// --- paper_sweep ------------------------------------------------------------
// The paper's Fig. 3 protocol: every distribution, the dedicated First-Fit
// baseline and the shared SlackVM cluster per cell, serially. Hundreds of
// short replays of small fleets, so per-replay fixed costs dominate.
class PaperSweep final : public Workload {
 public:
  PaperSweep(std::uint64_t seed, const Sizes& sizes)
      : catalog_(&workload::catalog_by_name("ovhcloud")) {
    config_.generator.target_population = sizes.sweep_population;
    config_.generator.seed = seed;
    config_.repetitions = sizes.sweep_reps;
    config_.parallelism = 1;
  }

  // Counts the rows every cell generates; the sweep regenerates them
  // inside the timed call, as run_distribution_sweep always does.
  void setup() override {
    events_ = 0;
    for (const workload::LevelMix& mix : workload::paper_distributions()) {
      for (std::size_t rep = 0; rep < config_.repetitions; ++rep) {
        workload::GeneratorConfig cfg = config_.generator;
        cfg.seed = config_.generator.seed + rep;
        // Two events per row, replayed on both organisations.
        events_ += 4 * workload::Generator(*catalog_, mix, cfg).generate().size();
      }
    }
  }

  Outcome call(CallCost& cost) override {
    std::vector<sim::PackingComparison> cmp;
    measure(cost, [&] { cmp = sim::run_distribution_sweep(*catalog_, config_); });
    return collect(cmp);
  }

  Outcome call_traced(Tracer& tracer, CallCost& cost) override {
    std::vector<sim::PackingComparison> cmp;
    measure(cost, [&] { cmp = traced_sweep(tracer, *catalog_, config_); });
    return collect(cmp);
  }

  [[nodiscard]] std::size_t replays_per_call() const override {
    return 2 * config_.repetitions * workload::paper_distributions().size();
  }

 private:
  Outcome collect(const std::vector<sim::PackingComparison>& cmp) const {
    Outcome o;
    o.events = events_;
    double saving = 0.0;
    for (const sim::PackingComparison& c : cmp) {
      append(o.words, c.provider);
      append(o.words, c.distribution);
      append(o.words, c.baseline);
      append(o.words, c.slackvm);
      check_identities(c.baseline, o.problems);
      check_identities(c.slackvm, o.problems);
      o.opened_pms += static_cast<double>(c.slackvm.opened_pms);
      saving += c.pm_saving_pct();
    }
    if (cmp.size() != workload::paper_distributions().size()) {
      o.problems.emplace_back("sweep returned the wrong number of cells");
    } else {
      o.pm_saving_pct = saving / static_cast<double>(cmp.size());
    }
    return o;
  }

  const workload::Catalog* catalog_;
  sim::ExperimentConfig config_;
  std::uint64_t events_ = 0;
};

struct Pin {
  const char* workload;
  Sizes sizes;
  std::uint64_t digest;
};

// Digests of every result field at seed 1, taken from this build of the
// simulator. A change that alters any modelled result must re-pin them.
constexpr Pin kPins[] = {
    {"stream_churn", kFullSizes, 0xb6cf686abe16cccdULL},
    {"control_loop", kFullSizes, 0xf01d62392f5236ffULL},
    {"paper_sweep", kFullSizes, 0x0050b871b28e6d98ULL},
    {"stream_churn", kTinySizes, 0x7ffdd6bed25f1441ULL},
    {"control_loop", kTinySizes, 0xf90544f0beb0cb47ULL},
    {"paper_sweep", kTinySizes, 0xac9c9bf5edf4eae3ULL},
};

}  // namespace

std::uint64_t Outcome::digest() const {
  // FNV-1a over the words' bytes.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint64_t w : words) {
    for (int i = 0; i < 8; ++i) {
      h ^= (w >> (8 * i)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"stream_churn", "control_loop",
                                                 "paper_sweep"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed,
                                        const Sizes& sizes,
                                        const std::filesystem::path& work_dir) {
  if (name == "stream_churn") {
    return std::make_unique<StreamChurn>(seed, sizes, work_dir);
  }
  if (name == "control_loop") {
    return std::make_unique<ControlLoop>(seed, sizes);
  }
  if (name == "paper_sweep") {
    return std::make_unique<PaperSweep>(seed, sizes);
  }
  return nullptr;
}

std::optional<std::uint64_t> pinned_digest(const std::string& name, const Sizes& sizes) {
  for (const Pin& pin : kPins) {
    if (name == pin.workload && sizes == pin.sizes && pin.digest != 0) {
      return pin.digest;
    }
  }
  return std::nullopt;
}

}  // namespace perfbench
