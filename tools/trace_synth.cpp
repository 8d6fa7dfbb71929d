// trace_synth — emit large benchmark/replay trace CSVs fast.
//
// Generates a calibrated synthetic workload (provider catalog + level mix,
// the same Generator the experiments use) and serializes it with the
// to_chars fast writer, in either on-disk format:
//
//   native  id,vcpus,mem_mib,level,usage,arrival,departure
//   real    id,vcpus,mem_mib,arrival,departure   (level/usage dropped — a
//           real-provider-style trace whose levels the streaming reader
//           re-derives from the M/C classifier)
//
// The row count is the contract: --rows R picks the target population via
// Little's law (population = R * lifetime / horizon) so the generator's
// Poisson process emits ~R rows over the horizon. A 5M-row native file is
// ~230 MB and writes in seconds; feed it to `slackvm replay --trace FILE`
// or bench/micro_trace.
//
//   trace_synth --rows 5000000 --out trace5m.csv [--format native|real]
//               [--provider azure|ovhcloud] [--dist A..O] [--seed N]
//               [--horizon-days D] [--lifetime-days D]
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <string>

#include "core/error.hpp"
#include "sim/scenario.hpp"
#include "workload/catalog.hpp"
#include "workload/generator.hpp"
#include "workload/level_mix.hpp"
#include "workload/trace_reader.hpp"

using namespace slackvm;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: trace_synth --rows N --out FILE [--format native|real]\n"
               "       [--provider azure|ovhcloud] [--dist A..O] [--seed N]\n"
               "       [--horizon-days D] [--lifetime-days D]\n");
  return 2;
}

/// Exit with status 2 and a message naming the flag.
[[noreturn]] void reject(const std::string& key, const std::string& requirement,
                         const char* text) {
  std::fprintf(stderr, "trace_synth: %s must be %s, got '%s'\n", key.c_str(),
               requirement.c_str(), text);
  std::exit(2);
}

/// The whole token as a base-10 integer >= min (no sign), else reject().
std::uint64_t integer_flag(const std::string& key, const char* text, std::uint64_t min) {
  const std::optional<std::uint64_t> value = sim::parse_number<std::uint64_t>(text);
  if (!value || *value < min) {
    reject(key, min == 0 ? "an integer" : "an integer >= " + std::to_string(min), text);
  }
  return *value;
}

/// The whole token as a finite number > 0, else reject().
double positive_flag(const std::string& key, const char* text) {
  const std::optional<double> value = sim::parse_number<double>(text);
  if (!value || !(*value > 0)) {
    reject(key, "a number > 0", text);
  }
  return *value;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t rows = 100000;
  std::string out_path;
  std::string provider = "ovhcloud";
  char dist = 'F';
  workload::TraceFormat format = workload::TraceFormat::kNative;
  std::uint64_t seed = 42;
  double horizon_days = 7.0;
  double lifetime_days = 2.0;

  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", key.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (key == "--rows") {
      rows = integer_flag(key, value(), 1);
    } else if (key == "--out") {
      out_path = value();
    } else if (key == "--provider") {
      provider = value();
    } else if (key == "--dist") {
      const char* text = value();
      if (std::string(text).size() != 1) {
        reject(key, "one letter A..O", text);
      }
      dist = text[0];
    } else if (key == "--format") {
      const std::string v = value();
      if (v == "native") {
        format = workload::TraceFormat::kNative;
      } else if (v == "real") {
        format = workload::TraceFormat::kReal;
      } else {
        std::fprintf(stderr, "--format must be native|real\n");
        return 2;
      }
    } else if (key == "--seed") {
      seed = integer_flag(key, value(), 0);
    } else if (key == "--horizon-days") {
      horizon_days = positive_flag(key, value());
    } else if (key == "--lifetime-days") {
      lifetime_days = positive_flag(key, value());
    } else {
      return usage();
    }
  }
  if (out_path.empty()) {
    return usage();
  }

  try {
    workload::GeneratorConfig cfg;
    cfg.horizon = horizon_days * 24 * 3600;
    cfg.mean_lifetime = lifetime_days * 24 * 3600;
    cfg.seed = seed;
    // Little's law, inverted: arrivals ~= population * horizon / lifetime,
    // so hitting ~rows arrivals needs this steady-state population.
    const double population =
        static_cast<double>(rows) * cfg.mean_lifetime / cfg.horizon;
    cfg.target_population = population < 1.0 ? 1 : static_cast<std::size_t>(population);

    const workload::Catalog& catalog = workload::catalog_by_name(provider);
    const workload::Generator gen(catalog, workload::distribution(dist), cfg);
    const workload::Trace trace = gen.generate();

    std::ofstream out(out_path, std::ios::binary);
    if (!out) {
      throw core::SlackError("cannot write " + out_path);
    }
    workload::write_csv_fast(trace, out, format);
    out.flush();
    if (!out) {
      throw core::SlackError("write failed for " + out_path);
    }
    std::printf("wrote %zu rows (%s format, provider %s, dist %c, seed %llu) to %s\n",
                trace.size(),
                format == workload::TraceFormat::kNative ? "native" : "real",
                provider.c_str(), dist, static_cast<unsigned long long>(seed),
                out_path.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "trace_synth: %s\n", e.what());
    return 1;
  }
  return 0;
}
