// perfbench — the end-to-end replay benchmark.
//
//   perfbench run --workload NAME --seed N --seconds S --trace 0|1
//                 --work-dir DIR
//   perfbench smoke --work-dir DIR
//
// `run` sets the workload up several times (set-up time is a metric), makes
// one warm-up call, then repeats the untraced library call for S seconds
// (--trace 0) or alternates it with the traced driver (--trace 1). Every
// call's results are checked: counter identities, a post-run audit, the
// traced driver against the untraced call, every call against the first,
// and, at seed 1, a pinned digest. The last line of stdout is one JSON
// object; any failed check makes the exit code 1.
//
// `smoke` runs every workload at tiny sizes on the default and a
// non-default seed and exits non-zero on the first failed check.
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "tracer.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

constexpr std::uint64_t kDefaultSeed = 1;
constexpr std::size_t kSetups = 11;
constexpr std::size_t kMinCalls = 3;

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

double median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string json_number(double v) {
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  return ec == std::errc() ? std::string(buf, end) : std::string("0");
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += i == 0 ? "" : ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + json_number(metrics[i].value) +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

/// This process's peak resident set (VmHWM). getrusage's ru_maxrss is no
/// use here: Linux carries it over from the process image that called
/// exec, so a large launcher would show through.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

/// One traced call: its wall time, layer totals and results.
struct TracedCall {
  std::int64_t wall_ns = 0;
  TraceStats stats;
  Outcome outcome;
};

/// The per-layer report of one traced call.
std::vector<Metric> layer_metrics(const TracedCall& call, double overhead_pct) {
  const TraceStats& s = call.stats;
  const double wall = static_cast<double>(call.wall_ns);
  const auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  std::vector<Metric> m;
  double covered = 0.0;
  for (std::size_t i = 0; i < s.layers.size(); ++i) {
    const LayerStats& l = s.layers[i];
    const std::string name = kLayerNames[i];
    const auto calls = static_cast<double>(l.calls);
    const auto self = static_cast<double>(l.self_ns);
    covered += self;
    m.push_back({name + ".calls", calls, "count"});
    m.push_back({name + ".self_s", self * 1e-9, "s"});
    m.push_back({name + ".share", ratio(self, wall), "ratio"});
    m.push_back({name + ".ns_per_call", ratio(self, calls), "ns"});
    m.push_back({name + ".allocs_per_call", ratio(static_cast<double>(l.self_allocs), calls),
                 "count"});
  }
  const auto u = [](std::uint64_t v) { return static_cast<double>(v); };
  m.push_back({"workload.rows", u(s.rows), "count"});
  m.push_back({"sim.queue.events", u(s.events), "count"});
  m.push_back({"sim.queue.peak_pending", u(s.peak_pending), "count"});
  m.push_back({"sched.place.deploys", u(s.deploys), "count"});
  m.push_back({"sched.place.removes", u(s.removes), "count"});
  m.push_back({"sched.place.ns_per_deploy",
               ratio(static_cast<double>(s.deploy_ns), u(s.deploys)), "ns"});
  m.push_back({"sched.place.ns_per_remove",
               ratio(static_cast<double>(s.remove_ns), u(s.removes)), "ns"});
  m.push_back({"sched.plan.passes", u(s.plan_passes), "count"});
  m.push_back({"sched.plan.moves", u(s.plan_moves), "count"});
  m.push_back({"sched.plan.budget_fill", ratio(u(s.plan_moves), u(s.plan_budget)), "ratio"});

  // Whole control ticks: the median, and the tail as the highest
  // percentile with at least ten ticks beyond it.
  std::vector<double> ticks;
  for (const std::int64_t t : s.tick_ns) {
    ticks.push_back(static_cast<double>(t) * 1e-6);
  }
  std::sort(ticks.begin(), ticks.end());
  const std::size_t n = ticks.size();
  const bool has_tail = n > 10;
  m.push_back({"sched.plan.ticks", u(n), "count"});
  m.push_back({"sched.plan.tick_ms_p50", median(ticks), "ms"});
  m.push_back({"sched.plan.tick_ms_tail", has_tail ? ticks[n - 11] : 0.0, "ms"});
  m.push_back({"sched.plan.tick_tail_pct",
               has_tail ? 100.0 * static_cast<double>(n - 10) / static_cast<double>(n) : 0.0,
               "%"});

  m.push_back({"sched.plan_itf.passes", u(s.itf_passes), "count"});
  m.push_back({"sched.plan_itf.hot_hosts", u(s.itf_hot_hosts), "count"});
  m.push_back({"sched.plan_itf.evictions", u(s.itf_evictions), "count"});
  m.push_back({"sim.heat.host_updates", u(s.host_updates), "count"});
  m.push_back({"sim.heat.ns_per_host_update",
               ratio(static_cast<double>(s[Layer::kHeat].self_ns), u(s.host_updates)), "ns"});
  const Outcome& o = call.outcome;
  m.push_back({"sim.migration.planned", u(o.mig_planned), "count"});
  m.push_back({"sim.migration.committed", u(o.mig_committed), "count"});
  m.push_back({"sim.migration.commit_ratio", ratio(u(o.mig_committed), u(o.mig_planned)),
               "ratio"});
  m.push_back({"sim.migration.retries", u(o.mig_retries), "count"});
  m.push_back({"sim.fault.evacuated", u(o.evacuated), "count"});
  m.push_back({"sim.fault.replaced_ratio", ratio(u(o.evac_replaced), u(o.evacuated)),
               "ratio"});
  m.push_back({"trace.coverage", ratio(covered, wall), "ratio"});
  m.push_back({"trace.overhead_pct", overhead_pct, "%"});
  return m;
}

struct Args {
  std::string command;
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  int trace = 0;
  std::filesystem::path work_dir = "perfbench_work";
};

std::optional<Args> parse(int argc, char** argv) {
  if (argc < 2) {
    return std::nullopt;
  }
  Args a;
  a.command = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::strtoull(value, &end, 10);
    } else if (key == "--seconds") {
      a.seconds = std::strtod(value, &end);
    } else if (key == "--trace") {
      a.trace = static_cast<int>(std::strtol(value, &end, 10));
    } else if (key == "--work-dir") {
      a.work_dir = value;
    } else {
      return std::nullopt;
    }
    if (end != nullptr && *end != '\0') {
      return std::nullopt;
    }
  }
  if (argc % 2 != 0 || a.seconds <= 0 || (a.trace != 0 && a.trace != 1)) {
    return std::nullopt;
  }
  return a;
}

/// Tracks attempted/failed replays and compares every call with the first.
class Judge {
 public:
  Judge(const std::string& workload, std::size_t replays_per_call)
      : workload_(workload), replays_(replays_per_call) {}

  /// `allocs` is compared with the first untraced timed call's count.
  void record(const Outcome& o, std::optional<std::uint64_t> allocs, const char* what) {
    std::vector<std::string> problems = o.problems;
    if (!reference_.has_value()) {
      reference_ = o;
    } else if (o.words != reference_->words) {
      problems.emplace_back("results differ from the first call");
    }
    if (allocs.has_value()) {
      if (!allocs_.has_value()) {
        allocs_ = allocs;
      } else if (*allocs != *allocs_) {
        problems.push_back("allocation count " + std::to_string(*allocs) +
                           " differs from " + std::to_string(*allocs_));
      }
    }
    attempted_ += replays_;
    if (!problems.empty()) {
      failed_ += replays_;
    }
    for (const std::string& p : problems) {
      std::fprintf(stderr, "perfbench: %s %s: %s\n", workload_.c_str(), what, p.c_str());
    }
  }

  void fail(const std::string& why) {
    std::fprintf(stderr, "perfbench: %s: %s\n", workload_.c_str(), why.c_str());
    failed_ = attempted_ = std::max<std::uint64_t>(attempted_, replays_);
  }

  [[nodiscard]] const Outcome& reference() const { return *reference_; }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }

 private:
  std::string workload_;
  std::size_t replays_;
  std::optional<Outcome> reference_;
  std::optional<std::uint64_t> allocs_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

int run(const Args& args) {
  if (!kOptimized) {
    std::fprintf(stderr, "perfbench: refusing to report numbers from a binary built "
                         "without optimisation\n");
    return 3;
  }
  std::unique_ptr<Workload> wl = make_workload(args.workload, args.seed, kFullSizes,
                                               args.work_dir);
  if (wl == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  std::printf("# build: compiler=%s build_type=%s optimized=yes nproc=%ld\n", __VERSION__,
              PERFBENCH_BUILD_TYPE, sysconf(_SC_NPROCESSORS_ONLN));

  // A fixed number of set-ups: the allocator's state after them, and so the
  // peak RSS, must not depend on how fast this machine happens to be.
  std::vector<double> setup_s;
  for (std::size_t i = 0; i < kSetups; ++i) {
    const std::int64_t start = now_ns();
    wl->setup();
    setup_s.push_back(static_cast<double>(now_ns() - start) * 1e-9);
  }

  Judge judge(args.workload, wl->replays_per_call());
  std::vector<double> events_per_s;
  std::vector<double> allocs_per_event;
  std::vector<double> untraced_s;
  std::vector<TracedCall> traced;
  double rss_mib = 0.0;
  try {
    CallCost cost;
    judge.record(wl->call(cost), std::nullopt, "warm-up call");
    // Set-up plus one call, as a user's process would run it; the timed
    // calls that follow would only add the allocator's reuse history.
    rss_mib = peak_rss_mib();
    const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(args.seconds * 1e9);
    while (now_ns() < deadline || untraced_s.size() < kMinCalls) {
      const Outcome o = wl->call(cost);
      judge.record(o, cost.allocs, "timed call");
      const double events = static_cast<double>(o.events);
      untraced_s.push_back(static_cast<double>(cost.ns) * 1e-9);
      events_per_s.push_back(events / untraced_s.back());
      std::fprintf(stderr, "# call %zu: %.6f s, %.1f events/s\n", untraced_s.size(),
                   untraced_s.back(), events_per_s.back());
      allocs_per_event.push_back(static_cast<double>(cost.allocs) / events);
      if (args.trace == 1) {
        TracedCall t;
        Tracer tracer;
        t.outcome = wl->call_traced(tracer, cost);
        judge.record(t.outcome, std::nullopt, "traced call");
        t.wall_ns = cost.ns;
        t.stats = std::move(tracer.stats());
        traced.push_back(std::move(t));
      }
    }
    if (args.trace == 0) {
      Tracer tracer;
      judge.record(wl->call_traced(tracer, cost), std::nullopt, "traced call");
    }
  } catch (const std::exception& e) {
    judge.fail(std::string("call threw: ") + e.what());
  }

  if (judge.failed() == 0 && args.seed == kDefaultSeed) {
    const std::optional<std::uint64_t> pin = pinned_digest(args.workload, kFullSizes);
    if (pin.has_value() && *pin != judge.reference().digest()) {
      judge.fail("digest differs from the pinned seed-1 digest");
    }
  }
  const bool correct = judge.failed() == 0;
  if (correct) {
    const Outcome& ref = judge.reference();
    std::printf("# %s seed=%llu calls=%zu events=%llu digest=0x%016llx opened_pms=%.17g "
                "pm_saving_pct=%.17g\n",
                args.workload.c_str(), static_cast<unsigned long long>(args.seed),
                untraced_s.size(), static_cast<unsigned long long>(ref.events),
                static_cast<unsigned long long>(ref.digest()), ref.opened_pms,
                ref.pm_saving_pct);
  }

  std::vector<Metric> metrics;
  if (args.trace == 0) {
    metrics = {{"setup_s", median(setup_s), "s"},
               {"sim_events_per_s", median(events_per_s), "events/s"},
               {"peak_rss_mib", rss_mib, "MiB"},
               {"allocs_per_event", median(allocs_per_event), "allocs/event"},
               {"opened_pms", correct ? judge.reference().opened_pms : 0.0, "PMs"}};
  } else if (!traced.empty()) {
    // Report the traced call of median wall time.
    std::sort(traced.begin(), traced.end(),
              [](const TracedCall& a, const TracedCall& b) { return a.wall_ns < b.wall_ns; });
    const TracedCall& mid = traced[(traced.size() - 1) / 2];
    const double overhead_pct =
        100.0 * (static_cast<double>(mid.wall_ns) * 1e-9 / median(untraced_s) - 1.0);
    metrics = layer_metrics(mid, overhead_pct);
  }
  print_result(correct, judge.attempted(), judge.failed(), metrics);
  return correct ? 0 : 1;
}

/// Tiny sizes, every workload: the default seed with every check including
/// the pinned digest, and a non-default seed with every check but it.
int smoke(const Args& args) {
  int failures = 0;
  for (const std::string& name : workload_names()) {
    for (const std::uint64_t seed : {kDefaultSeed, std::uint64_t{7}}) {
      std::unique_ptr<Workload> wl = make_workload(name, seed, kTinySizes, args.work_dir);
      Judge judge(name, wl->replays_per_call());
      try {
        wl->setup();
        CallCost cost;
        judge.record(wl->call(cost), std::nullopt, "warm-up call");
        judge.record(wl->call(cost), cost.allocs, "first call");
        judge.record(wl->call(cost), cost.allocs, "second call");
        Tracer tracer;
        judge.record(wl->call_traced(tracer, cost), std::nullopt, "traced call");
      } catch (const std::exception& e) {
        judge.fail(std::string("threw: ") + e.what());
      }
      std::optional<std::uint64_t> digest;
      if (judge.failed() == 0) {
        digest = judge.reference().digest();
        const std::optional<std::uint64_t> pin = pinned_digest(name, kTinySizes);
        if (seed == kDefaultSeed && pin.has_value() && *pin != *digest) {
          judge.fail("digest differs from the pinned seed-1 digest");
        }
      }
      const bool ok = judge.failed() == 0;
      failures += ok ? 0 : 1;
      std::printf("%s %s seed=%llu digest=0x%016llx\n", ok ? "PASS" : "FAIL", name.c_str(),
                  static_cast<unsigned long long>(seed),
                  static_cast<unsigned long long>(digest.value_or(0)));
    }
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> args = parse(argc, argv);
  if (!args.has_value() || (args->command != "run" && args->command != "smoke")) {
    std::fprintf(stderr,
                 "usage: perfbench run --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--work-dir DIR]\n"
                 "       perfbench smoke [--work-dir DIR]\n");
    return 2;
  }
  try {
    return args->command == "run" ? run(*args) : smoke(*args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
