#include "sim/scenario.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "core/error.hpp"

namespace slackvm::sim {
namespace {

TEST(ScenarioParse, ReadsAllKeys) {
  std::istringstream in(R"(# a comment
name       test-case
provider   azure
distribution E
population 250
seed       7
repetitions 2
mem_oversub 1.5
horizon_days 3
lifetime_days 1
diurnal    0.4
host_cores 64
host_mem_gib 256
)");
  const Scenario scenario = parse_scenario(in);
  EXPECT_EQ(scenario.name, "test-case");
  EXPECT_EQ(scenario.provider, "azure");
  EXPECT_EQ(scenario.distribution, 'E');
  EXPECT_EQ(scenario.config.generator.target_population, 250U);
  EXPECT_EQ(scenario.config.generator.seed, 7U);
  EXPECT_EQ(scenario.config.repetitions, 2U);
  EXPECT_DOUBLE_EQ(scenario.config.mem_oversub, 1.5);
  EXPECT_DOUBLE_EQ(scenario.config.generator.horizon, 3.0 * 24 * 3600);
  EXPECT_DOUBLE_EQ(scenario.config.generator.mean_lifetime, 1.0 * 24 * 3600);
  EXPECT_DOUBLE_EQ(scenario.config.generator.diurnal_amplitude, 0.4);
  EXPECT_EQ(scenario.config.host_config.cores, 64U);
  EXPECT_EQ(scenario.config.host_config.mem_mib, core::gib(256));
  EXPECT_EQ(&scenario.catalog(), &workload::azure_catalog());
  EXPECT_EQ(scenario.mix().name, "E");
}

TEST(ScenarioParse, DefaultsApply) {
  std::istringstream in("population 100\n");
  const Scenario scenario = parse_scenario(in);
  EXPECT_EQ(scenario.provider, "ovhcloud");
  EXPECT_EQ(scenario.distribution, 'F');
  EXPECT_EQ(scenario.config.repetitions, 1U);
}

TEST(ScenarioParse, TrailingCommentsStripped) {
  std::istringstream in("provider azure # the big one\npopulation 50\n");
  EXPECT_EQ(parse_scenario(in).provider, "azure");
}

TEST(ScenarioParse, UnknownKeyRejectedWithLineNumber) {
  std::istringstream in("population 100\nflavor big\n");
  try {
    (void)parse_scenario(in);
    FAIL() << "expected SlackError";
  } catch (const core::SlackError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(ScenarioParse, BadValuesRejected) {
  std::istringstream bad_number("population many\n");
  EXPECT_THROW((void)parse_scenario(bad_number), core::SlackError);
  std::istringstream missing_value("provider\n");
  EXPECT_THROW((void)parse_scenario(missing_value), core::SlackError);
  std::istringstream bad_dist("distribution Z\npopulation 10\n");
  EXPECT_THROW((void)parse_scenario(bad_dist), core::SlackError);
  std::istringstream bad_provider("provider gcp\npopulation 10\n");
  EXPECT_THROW((void)parse_scenario(bad_provider), core::SlackError);
}

TEST(ScenarioParse, RoundTripsThroughWriter) {
  Scenario original;
  original.name = "rt";
  original.provider = "azure";
  original.distribution = 'H';
  original.config.generator.target_population = 123;
  original.config.generator.seed = 9;
  original.config.mem_oversub = 1.25;
  original.config.shards = 4;
  std::stringstream buffer;
  write_scenario(original, buffer);
  const Scenario restored = parse_scenario(buffer);
  EXPECT_EQ(restored.name, original.name);
  EXPECT_EQ(restored.provider, original.provider);
  EXPECT_EQ(restored.distribution, original.distribution);
  EXPECT_EQ(restored.config.generator.target_population, 123U);
  EXPECT_DOUBLE_EQ(restored.config.mem_oversub, 1.25);
  EXPECT_EQ(restored.config.shards, 4U);
}

TEST(ScenarioParse, TraceKeyRoundTrips) {
  std::istringstream in("population 10\ntrace traces/sap_month.csv\n");
  const Scenario scenario = parse_scenario(in);
  EXPECT_EQ(scenario.config.trace_path, "traces/sap_month.csv");

  // Defaults to empty (generated workload) and round-trips through the
  // writer when set.
  std::istringstream plain("population 10\n");
  EXPECT_TRUE(parse_scenario(plain).config.trace_path.empty());
  std::stringstream buffer;
  write_scenario(scenario, buffer);
  EXPECT_NE(buffer.str().find("trace traces/sap_month.csv"), std::string::npos);
  EXPECT_EQ(parse_scenario(buffer).config.trace_path, "traces/sap_month.csv");
}

TEST(ScenarioParse, ShardsKeyParsedAndValidated) {
  std::istringstream in("population 100\nshards 8\n");
  EXPECT_EQ(parse_scenario(in).config.shards, 8U);
  std::istringstream zero("population 100\nshards 0\n");
  EXPECT_THROW((void)parse_scenario(zero), core::SlackError);
}

TEST(ScenarioParse, DuplicateScalarKeyRejectedWithBothLines) {
  std::istringstream in("population 100\nseed 1\npopulation 200\n");
  try {
    (void)parse_scenario(in);
    FAIL() << "expected SlackError";
  } catch (const core::SlackError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 3"), std::string::npos) << what;
    EXPECT_NE(what.find("duplicate key 'population'"), std::string::npos) << what;
    EXPECT_NE(what.find("first set on line 1"), std::string::npos) << what;
  }
}

TEST(ScenarioParse, DirectiveKeysMayRepeat) {
  std::istringstream in(R"(population 100
fail host=0 at=3600
fail host=1 at=7200
drain host=2 at=1800
repair host=0 at=9000
repair host=1 at=9600 cluster=1
)");
  const Scenario scenario = parse_scenario(in);
  ASSERT_EQ(scenario.config.faults.directives.size(), 5U);
  EXPECT_EQ(scenario.config.faults.directives[4].cluster, 1U);
}

TEST(ScenarioParse, TrailingTokensRejected) {
  std::istringstream in("population 100 extra\n");
  try {
    (void)parse_scenario(in);
    FAIL() << "expected SlackError";
  } catch (const core::SlackError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("trailing token 'extra'"), std::string::npos) << what;
    EXPECT_NE(what.find("line 1"), std::string::npos) << what;
  }
  // A trailing comment is not a trailing token.
  std::istringstream commented("population 100 # fleet size\n");
  EXPECT_EQ(parse_scenario(commented).config.generator.target_population, 100U);
}

TEST(ScenarioParse, MigrationKeysParsedValidatedAndRoundTripped) {
  std::istringstream in(R"(population 100
rebalance_s 7200
rebalance_budget 8
migration engine
mig_bw_mibps 512
mig_cap 3
mig_in_flight 24
mig_timeout_s 900
mig_retries 5
mig_backoff_s 120
)");
  const Scenario scenario = parse_scenario(in);
  EXPECT_DOUBLE_EQ(scenario.config.rebalance_interval, 7200.0);
  EXPECT_EQ(scenario.config.rebalance_budget, 8U);
  EXPECT_TRUE(scenario.config.migration.enabled);
  EXPECT_DOUBLE_EQ(scenario.config.migration.bandwidth_mibps, 512.0);
  EXPECT_EQ(scenario.config.migration.max_concurrent_per_host, 3U);
  EXPECT_EQ(scenario.config.migration.max_in_flight, 24U);
  EXPECT_DOUBLE_EQ(scenario.config.migration.timeout, 900.0);
  EXPECT_EQ(scenario.config.migration.max_retries, 5U);
  EXPECT_DOUBLE_EQ(scenario.config.migration.backoff_base, 120.0);

  std::stringstream buffer;
  write_scenario(scenario, buffer);
  const Scenario restored = parse_scenario(buffer);
  EXPECT_DOUBLE_EQ(restored.config.rebalance_interval, 7200.0);
  EXPECT_EQ(restored.config.rebalance_budget, 8U);
  EXPECT_TRUE(restored.config.migration.enabled);
  EXPECT_DOUBLE_EQ(restored.config.migration.bandwidth_mibps, 512.0);
  EXPECT_EQ(restored.config.migration.max_concurrent_per_host, 3U);
  EXPECT_EQ(restored.config.migration.max_in_flight, 24U);
  EXPECT_DOUBLE_EQ(restored.config.migration.timeout, 900.0);
  EXPECT_EQ(restored.config.migration.max_retries, 5U);
  EXPECT_DOUBLE_EQ(restored.config.migration.backoff_base, 120.0);

  std::istringstream bad_mode("population 10\nmigration teleport\n");
  EXPECT_THROW((void)parse_scenario(bad_mode), core::SlackError);
  std::istringstream bad_bw("population 10\nmig_bw_mibps 0\n");
  EXPECT_THROW((void)parse_scenario(bad_bw), core::SlackError);
  std::istringstream bad_cap("population 10\nmig_cap 0\n");
  EXPECT_THROW((void)parse_scenario(bad_cap), core::SlackError);
  std::istringstream bad_interval("population 10\nrebalance_s -1\n");
  EXPECT_THROW((void)parse_scenario(bad_interval), core::SlackError);
}

TEST(ScenarioParse, InterferenceKeysParsedValidatedAndRoundTripped) {
  std::istringstream in(R"(population 100
rebalance_s 7200
interference on
heat_interval_s 600
heat_alpha 0.5
heat_bucket 0.2
heat_weight 2.5
itf_threshold 1.1
itf_evictions 3
)");
  const Scenario scenario = parse_scenario(in);
  const sched::InterferenceOptions& itf = scenario.config.interference;
  EXPECT_TRUE(itf.enabled);
  EXPECT_DOUBLE_EQ(itf.heat_interval, 600.0);
  EXPECT_DOUBLE_EQ(itf.heat_alpha, 0.5);
  EXPECT_DOUBLE_EQ(itf.heat_bucket, 0.2);
  EXPECT_DOUBLE_EQ(itf.heat_weight, 2.5);
  EXPECT_DOUBLE_EQ(itf.threshold, 1.1);
  EXPECT_EQ(itf.evictions_per_pass, 3U);

  std::stringstream buffer;
  write_scenario(scenario, buffer);
  const Scenario restored = parse_scenario(buffer);
  const sched::InterferenceOptions& rt = restored.config.interference;
  EXPECT_TRUE(rt.enabled);
  EXPECT_DOUBLE_EQ(rt.heat_interval, 600.0);
  EXPECT_DOUBLE_EQ(rt.heat_alpha, 0.5);
  EXPECT_DOUBLE_EQ(rt.heat_bucket, 0.2);
  EXPECT_DOUBLE_EQ(rt.heat_weight, 2.5);
  EXPECT_DOUBLE_EQ(rt.threshold, 1.1);
  EXPECT_EQ(rt.evictions_per_pass, 3U);

  // Off by default; "off" parses; every knob is range-checked.
  std::istringstream plain("population 10\n");
  EXPECT_FALSE(parse_scenario(plain).config.interference.enabled);
  std::istringstream off("population 10\ninterference off\n");
  EXPECT_FALSE(parse_scenario(off).config.interference.enabled);
  std::istringstream bad_switch("population 10\ninterference maybe\n");
  EXPECT_THROW((void)parse_scenario(bad_switch), core::SlackError);
  std::istringstream bad_interval("population 10\nheat_interval_s 0\n");
  EXPECT_THROW((void)parse_scenario(bad_interval), core::SlackError);
  std::istringstream bad_alpha("population 10\nheat_alpha 1.5\n");
  EXPECT_THROW((void)parse_scenario(bad_alpha), core::SlackError);
  std::istringstream bad_bucket("population 10\nheat_bucket -0.1\n");
  EXPECT_THROW((void)parse_scenario(bad_bucket), core::SlackError);
  std::istringstream bad_weight("population 10\nheat_weight -1\n");
  EXPECT_THROW((void)parse_scenario(bad_weight), core::SlackError);
  std::istringstream bad_threshold("population 10\nitf_threshold 0.9\n");
  EXPECT_THROW((void)parse_scenario(bad_threshold), core::SlackError);
  std::istringstream bad_evictions("population 10\nitf_evictions 0\n");
  EXPECT_THROW((void)parse_scenario(bad_evictions), core::SlackError);
}

TEST(ScenarioParse, DuplicateInterferenceKeyRejected) {
  std::istringstream in("population 10\nheat_alpha 0.3\nheat_alpha 0.4\n");
  try {
    (void)parse_scenario(in);
    FAIL() << "expected SlackError";
  } catch (const core::SlackError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("duplicate key 'heat_alpha'"), std::string::npos) << what;
    EXPECT_NE(what.find("line 3"), std::string::npos) << what;
  }
}

TEST(ScenarioRun, SmallScenarioExecutes) {
  std::istringstream in(R"(name smoke
provider ovhcloud
distribution F
population 60
horizon_days 2
lifetime_days 1
)");
  const Scenario scenario = parse_scenario(in);
  const PackingComparison cmp = scenario.run();
  EXPECT_GT(cmp.baseline.opened_pms, 0U);
  EXPECT_LE(cmp.slackvm.opened_pms, cmp.baseline.opened_pms + 1);
}

// --- strict values ----------------------------------------------------------

// Each input was once accepted with a wrong value (a prefix parse, a
// wrapped sign, a truncated overflow, a NaN); now each is a located error.
TEST(ScenarioStrictParse, MisparsesAreErrorsNamingLineAndKey) {
  struct Case {
    const char* line;
    const char* key;
  };
  for (const Case& c : {
           Case{"population 12abc", "population"},
           Case{"population -1", "population"},
           Case{"population +5", "population"},
           Case{"host_cores 4294967297", "host_cores"},
           Case{"host_mem_gib 9007199254740992", "host_mem_gib"},
           Case{"seed 0x10", "seed"},
           Case{"seed 18446744073709551616", "seed"},
           Case{"mig_retries -1", "mig_retries"},
           Case{"mem_oversub nan", "mem_oversub"},
           Case{"mem_oversub inf", "mem_oversub"},
           Case{"mem_oversub 1e999", "mem_oversub"},
           Case{"diurnal 0.5x", "diurnal"},
           Case{"distribution FF", "distribution"},
           Case{"migration on", "migration"},
           Case{"fail host=-1 at=5", "host"},
           Case{"fail host=4294967296 at=5", "host"},
           Case{"drain host=1 at=nan", "at"},
           Case{"repair host=1 at=5 cluster=-1", "cluster"},
       }) {
    SCOPED_TRACE(c.line);
    std::istringstream in(std::string("name strict\n") + c.line + "\n");
    try {
      (void)parse_scenario(in);
      ADD_FAILURE() << "accepted";
    } catch (const core::SlackError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("line 2"), std::string::npos) << what;
      EXPECT_NE(what.find(std::string(c.key) + " must be"), std::string::npos) << what;
    }
  }
}

// Values outside a knob's domain are refused where they are written. Each
// used to be accepted: most then tripped a library assertion mid-run (a
// negative backoff does once an evacuation retry is scheduled), and a
// negative drain lead silently postponed each seeded failure.
TEST(ScenarioStrictParse, OutOfDomainValuesAreParseErrors) {
  for (const char* line : {"mem_oversub 0.5", "horizon_days 0", "lifetime_days -1",
                           "diurnal 1", "host_cores 0", "host_mem_gib 0",
                           "repair_delay_s -100", "evac_backoff_s -5",
                           "drain_lead_s -1000"}) {
    SCOPED_TRACE(line);
    std::istringstream in(std::string("population 40\n") + line + "\n");
    try {
      (void)parse_scenario(in);
      ADD_FAILURE() << "accepted";
    } catch (const core::SlackError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("line 2"), std::string::npos) << what;
      const std::string key(line, std::string_view(line).find(' '));
      EXPECT_NE(what.find(key + " must be"), std::string::npos) << what;
    }
  }
}

TEST(ScenarioStrictParse, InterferenceNeedsARebalanceCadence) {
  // One check for both front ends: scenarios name the keys, the CLI flags.
  std::istringstream in("population 10\ninterference on\n");
  try {
    (void)parse_scenario(in);
    FAIL() << "expected SlackError";
  } catch (const core::SlackError& e) {
    EXPECT_NE(std::string(e.what()).find("interference on needs rebalance_s > 0"),
              std::string::npos)
        << e.what();
  }
  Scenario scenario;
  scenario.config.interference.enabled = true;
  try {
    check_knobs(scenario, KnobName::kFlag);
    FAIL() << "expected SlackError";
  } catch (const core::SlackError& e) {
    EXPECT_NE(std::string(e.what()).find("--interference on needs --rebalance > 0"),
              std::string::npos)
        << e.what();
  }
  scenario.config.rebalance_interval = 60;
  EXPECT_NO_THROW(check_knobs(scenario, KnobName::kFlag));
}

// --- the knob table ----------------------------------------------------------

TEST(KnobTable, KeysAndFlagsAreUnique) {
  std::set<std::string_view> keys;
  std::set<std::string_view> flags;
  for (const Knob& knob : knobs()) {
    EXPECT_TRUE(keys.insert(knob.key).second) << knob.key;
    EXPECT_FALSE(knob.help.empty()) << knob.key;
    if (!knob.flag.empty()) {
      EXPECT_TRUE(flags.insert(knob.flag).second) << knob.flag;
      EXPECT_EQ(knob.flag.substr(0, 2), "--") << knob.flag;
    }
  }
  EXPECT_EQ(keys.count("index"), 0U);
  EXPECT_EQ(flags.count("--index"), 0U);
  EXPECT_EQ(flags.count("--stream"), 0U);
}

bool admits(const Knob& knob, double written) {
  const KnobRange& r = knob.range;
  return (r.min_open ? written > r.min : written >= r.min) &&
         (r.max_open ? written < r.max : written <= r.max);
}

// Field values to round-trip for one knob, in field units; values the
// knob's range refuses are left out.
template <class T>
std::vector<T> samples(const Knob& knob) {
  if constexpr (std::is_same_v<T, std::string>) {
    const std::string_view arg = knob.arg;
    if (const auto bar = arg.find('|'); bar != std::string_view::npos) {
      return {std::string(arg.substr(0, bar)), std::string(arg.substr(bar + 1))};
    }
    return {"x", "traces/sap-month_2.csv"};
  } else if constexpr (std::is_same_v<T, char>) {
    return {'A', 'F', 'O'};
  } else if constexpr (std::is_same_v<T, bool>) {
    return {false, true};
  } else {
    std::vector<T> out;
    if constexpr (std::is_floating_point_v<T>) {
      // Values the old 6-digit writer lost, and neighbours of 1 that only
      // the shortest round-trip form keeps apart.
      for (const double written :
           {0.0, 1.0, 0.1 + 0.2, 0.123456789, 1234567.0, std::nextafter(1.0, 2.0),
            std::nextafter(1.0, 0.0), 6.02214076e23, 3.5e-7}) {
        if (admits(knob, written)) {
          out.push_back(written * knob.scale);
        }
      }
    } else {
      const auto scale = static_cast<std::uint64_t>(knob.scale);
      const std::uint64_t top =
          static_cast<std::uint64_t>(std::numeric_limits<T>::max()) / scale;
      for (const std::uint64_t written : {std::uint64_t{0}, std::uint64_t{1},
                                          std::uint64_t{7}, top}) {
        if (admits(knob, static_cast<double>(written))) {
          out.push_back(static_cast<T>(written * scale));
        }
      }
    }
    return out;
  }
}

std::string written(const Scenario& scenario) {
  std::ostringstream out;
  write_scenario(scenario, out);
  return out.str();
}

Scenario reparsed(const std::string& text) {
  std::istringstream in(text);
  return parse_scenario(in);
}

// Set one field, write, parse: the field comes back bit for bit, and
// writing the parsed scenario gives the same text.
TEST(KnobTable, EveryKnobRoundTripsThroughTheWriter) {
  for (const Knob& knob : knobs()) {
    SCOPED_TRACE(std::string(knob.key));
    std::visit(
        [&](auto get) {
          using T = std::remove_reference_t<decltype(get(std::declval<Scenario&>()))>;
          const std::vector<T> values = samples<T>(knob);
          EXPECT_GE(values.size(), 2U);
          for (const T& value : values) {
            Scenario original;
            original.config.rebalance_interval = 3600;  // lets interference be on
            get(original) = value;
            const std::string text = written(original);
            Scenario restored = reparsed(text);
            EXPECT_EQ(written(restored), text);
            if constexpr (std::is_floating_point_v<T>) {
              if (knob.scale != 1) {
                // horizon_days and lifetime_days are stored in seconds: the
                // text holds seconds / 86400, and days * 86400 can land one
                // ulp off the original. The text above is still a fixpoint.
                EXPECT_LE(std::abs(get(restored) - value),
                          std::abs(std::nextafter(value, 2 * value + 1) - value))
                    << text;
              } else {
                EXPECT_EQ(std::bit_cast<std::uint64_t>(get(restored)),
                          std::bit_cast<std::uint64_t>(value))
                    << text;
              }
            } else {
              EXPECT_EQ(get(restored), value) << text;
            }
          }
        },
        knob.field);
  }
}

// The directive form round-trips its fields exactly too (`at` used to be
// written with 6 significant digits).
TEST(KnobTable, DirectivesRoundTripExactly) {
  Scenario original;
  original.config.faults.directives = {
      {FaultDirective::Kind::kFail, 86400.123456789, 4294967295U, 3},
      {FaultDirective::Kind::kDrain, 0.1 + 0.2, 0, 0},
      {FaultDirective::Kind::kRepair, 1e9, 7, 18446744073709551615U},
  };
  const std::string text = written(original);
  const Scenario restored = reparsed(text);
  EXPECT_EQ(restored.config.faults.directives, original.config.faults.directives);
  EXPECT_EQ(written(restored), text);
}

// Every shipped scenario parses, and writing it is a write->parse->write
// fixpoint. real_trace_replay.scn parses without its trace file.
TEST(ShippedScenarios, ParseAndRoundTrip) {
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(SLACKVM_SCENARIO_DIR)) {
    if (entry.path().extension() == ".scn") {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  EXPECT_GE(files.size(), 7U);
  for (const std::filesystem::path& file : files) {
    SCOPED_TRACE(file.filename().string());
    std::ifstream in(file);
    ASSERT_TRUE(in.good());
    const Scenario scenario = parse_scenario(in);
    EXPECT_NE(scenario.name, "unnamed");
    const std::string text = written(scenario);
    EXPECT_EQ(written(reparsed(text)), text);
  }
}

}  // namespace
}  // namespace slackvm::sim
