#include "sim/scenario.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <istream>
#include <map>
#include <ostream>
#include <sstream>
#include <type_traits>

#include "core/error.hpp"

namespace slackvm::sim {

static_assert(std::is_same_v<std::size_t, std::uint64_t>,
              "size_t knobs bind to the table's uint64_t field type");

const workload::Catalog& Scenario::catalog() const {
  return workload::catalog_by_name(provider);
}

const workload::LevelMix& Scenario::mix() const {
  return workload::distribution(distribution);
}

PackingComparison Scenario::run() const { return compare_packing(catalog(), mix(), config); }

template <class T>
std::optional<T> parse_number(std::string_view text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end) {
    return std::nullopt;
  }
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) {
      return std::nullopt;
    }
  }
  return value;
}

template std::optional<double> parse_number(std::string_view);
template std::optional<std::uint32_t> parse_number(std::string_view);
template std::optional<std::uint64_t> parse_number(std::string_view);

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr KnobRange at_least(double min) { return {min, kInf, false, false}; }
constexpr KnobRange above(double min) { return {min, kInf, true, false}; }

// Integers in base 10, doubles in their shortest round-trip form.
template <class T>
std::string number_text(T value) {
  std::array<char, 32> buffer{};
  const auto result = std::to_chars(buffer.data(), buffer.data() + buffer.size(), value);
  return {buffer.data(), result.ptr};
}

// The accessor of `scenario.path`, as a Knob::Field.
#define SLACKVM_FIELD(path) [](Scenario& s) -> auto& { return s.path; }

// The knob table: one row per knob, in write order. Rows with no flag are
// scenario-only. See Knob (scenario.hpp) for the columns; a row that leaves
// out `readers` is read by the replay alone.
const Knob kKnobs[] = {
    {"name", "", "NAME", SLACKVM_FIELD(name), {}, "label printed with the results", 0},
    {"provider", "--provider", "azure|ovhcloud", SLACKVM_FIELD(provider), {},
     "flavor catalog (Table I)", kReadByCatalog},
    {"distribution", "--dist", "A..O", SLACKVM_FIELD(distribution), {'A', 'O'},
     "oversubscription level mix (Fig. 3)", kReadByMix},
    {"population", "--population", "N", SLACKVM_FIELD(config.generator.target_population),
     at_least(1), "steady-state concurrent VMs", kReadByGenerator},
    {"seed", "--seed", "N", SLACKVM_FIELD(config.generator.seed), {},
     "workload seed; repetition r uses seed + r", kReadByGenerator | kReadByReplay},
    {"repetitions", "--reps", "N", SLACKVM_FIELD(config.repetitions), {},
     "seeded workloads averaged per cell", kReadByGrid},
    {"parallelism", "--parallelism", "N", SLACKVM_FIELD(config.parallelism), {},
     "worker threads, 0 = all cores (same results)"},
    {"shards", "--shards", "N", SLACKVM_FIELD(config.shards), at_least(1),
     "replay shards the clusters are dealt across"},
    {"mem_oversub", "--mem-oversub", "X", SLACKVM_FIELD(config.mem_oversub), at_least(1),
     "DRAM oversubscription ratio of every PM"},
    {"horizon_days", "", "DAYS", SLACKVM_FIELD(config.generator.horizon), above(0),
     "length of the generated workload", kReadByGenerator, 24 * 3600},
    {"lifetime_days", "", "DAYS", SLACKVM_FIELD(config.generator.mean_lifetime), above(0),
     "mean VM lifetime", kReadByGenerator, 24 * 3600},
    {"diurnal", "", "X", SLACKVM_FIELD(config.generator.diurnal_amplitude),
     {0, 1, false, true}, "diurnal arrival-rate amplitude", kReadByGenerator},
    {"trace", "--trace", "FILE", SLACKVM_FIELD(config.trace_path), {},
     "replay this CSV instead of generating a workload", kReadByTrace},
    {"host_cores", "", "N", SLACKVM_FIELD(config.host_config.cores), at_least(1),
     "cores per PM"},
    {"host_mem_gib", "", "GIB", SLACKVM_FIELD(config.host_config.mem_mib), at_least(1),
     "DRAM per PM", kReadByReplay, core::kMibPerGib},
    {"faults", "--faults", "N", SLACKVM_FIELD(config.faults.count), {},
     "seed-derived host failures over the run"},
    {"fault_seed", "--fault-seed", "N", SLACKVM_FIELD(config.faults.seed), {},
     "fault timetable seed; 0 = derive from the seed"},
    {"repair_delay_s", "--repair-s", "X", SLACKVM_FIELD(config.faults.repair_delay),
     at_least(0), "repair delay of a seeded failure (s)"},
    {"drain_lead_s", "--drain-lead-s", "X", SLACKVM_FIELD(config.faults.drain_lead),
     at_least(0), "drain ahead of each seeded failure (s)"},
    {"evac_retries", "", "N", SLACKVM_FIELD(config.faults.max_retries), {},
     "evacuation retries per victim"},
    {"evac_backoff_s", "", "X", SLACKVM_FIELD(config.faults.backoff_base), at_least(0),
     "base of the evacuation retry backoff (s)"},
    {"rebalance_s", "--rebalance", "X", SLACKVM_FIELD(config.rebalance_interval),
     at_least(0), "consolidation cadence (s); 0 = off"},
    {"rebalance_budget", "--rebalance-budget", "N", SLACKVM_FIELD(config.rebalance_budget),
     {}, "migrations planned per cluster and pass"},
    {"migration", "--migration", "engine|instant", SLACKVM_FIELD(config.migration.enabled),
     {}, "time-extended flights, or instant apply"},
    {"mig_bw_mibps", "--mig-bw", "MIBPS", SLACKVM_FIELD(config.migration.bandwidth_mibps),
     above(0), "pre-copy bandwidth of a flight"},
    {"mig_cap", "--mig-cap", "N",
     SLACKVM_FIELD(config.migration.max_concurrent_per_host), at_least(1),
     "concurrent flights per host, source or sink"},
    {"mig_in_flight", "--mig-in-flight", "N", SLACKVM_FIELD(config.migration.max_in_flight),
     at_least(1), "concurrent flights per cluster"},
    {"mig_timeout_s", "--mig-timeout-s", "X", SLACKVM_FIELD(config.migration.timeout),
     at_least(0), "per-flight deadline (s); 0 = none"},
    {"mig_retries", "--mig-retries", "N", SLACKVM_FIELD(config.migration.max_retries), {},
     "rollback retries per VM"},
    {"mig_backoff_s", "--mig-backoff-s", "X", SLACKVM_FIELD(config.migration.backoff_base),
     at_least(0), "base of the migration retry backoff (s)"},
    {"interference", "--interference", "on|off",
     SLACKVM_FIELD(config.interference.enabled), {},
     "heat EWMA + polluter pass; needs a rebalance cadence"},
    {"heat_interval_s", "--heat-interval-s", "X",
     SLACKVM_FIELD(config.interference.heat_interval), above(0),
     "seconds between heat EWMA refreshes"},
    {"heat_alpha", "--heat-alpha", "X", SLACKVM_FIELD(config.interference.heat_alpha),
     {0, 1, true, false}, "heat EWMA smoothing factor"},
    {"heat_bucket", "--heat-bucket", "X", SLACKVM_FIELD(config.interference.heat_bucket),
     at_least(1e-3), "heat quantization bucket width"},
    {"heat_weight", "--heat-weight", "X", SLACKVM_FIELD(config.interference.heat_weight),
     at_least(0), "scorer penalty per unit of quantized heat"},
    {"itf_threshold", "--itf-threshold", "X", SLACKVM_FIELD(config.interference.threshold),
     at_least(1), "contention inflation the polluter pass fires above"},
    {"itf_evictions", "--itf-evictions", "N",
     SLACKVM_FIELD(config.interference.evictions_per_pass), at_least(1),
     "polluter evictions per pass"},
};

#undef SLACKVM_FIELD

// The words of a `true|false` switch or a string knob's choices.
std::pair<std::string_view, std::string_view> split_words(std::string_view arg) {
  const std::size_t bar = arg.find('|');
  return {arg.substr(0, bar), arg.substr(bar + 1)};
}

bool in_range(double value, const KnobRange& range) {
  return (range.min_open ? value > range.min : value >= range.min) &&
         (range.max_open ? value < range.max : value <= range.max);
}

// The largest written value of an integer field of type T.
template <class T>
std::uint64_t max_written(double scale) {
  return static_cast<std::uint64_t>(std::numeric_limits<T>::max()) /
         static_cast<std::uint64_t>(scale);
}

template <class T>
std::string number_requirement(const KnobRange& range, double scale) {
  if constexpr (std::is_floating_point_v<T>) {
    if (range.min == -kInf && range.max == kInf) {
      return "must be a finite number";
    }
    if (range.max == kInf) {
      return std::string("must be a number ") + (range.min_open ? "> " : ">= ") +
             number_text(range.min);
    }
    return std::string("must be a number in ") + (range.min_open ? "(" : "[") +
           number_text(range.min) + ", " + number_text(range.max) +
           (range.max_open ? ")" : "]");
  } else {
    const std::uint64_t lo = range.min > 0 ? static_cast<std::uint64_t>(range.min) +
                                                 (range.min_open ? 1 : 0)
                                           : 0;
    const std::uint64_t hi = max_written<T>(scale);
    if (hi == std::numeric_limits<std::uint64_t>::max()) {
      return "must be an integer >= " + std::to_string(lo);
    }
    return "must be an integer in [" + std::to_string(lo) + ", " + std::to_string(hi) +
           "]";
  }
}

// The fault directive line form `<kind> host=H at=T [cluster=C]`: kinds
// indexed by FaultDirective::Kind, fields in write order.
constexpr std::array<std::string_view, 3> kDirectiveKinds{"fail", "drain", "repair"};

struct DirectiveField {
  std::string_view name;
  std::variant<sched::HostId FaultDirective::*, core::SimTime FaultDirective::*,
               std::size_t FaultDirective::*>
      member;
  bool required;
};

const DirectiveField kDirectiveFields[] = {
    {"host", &FaultDirective::host, true},
    {"at", &FaultDirective::at, true},
    {"cluster", &FaultDirective::cluster, false},
};

// Name of the knob whose field is `field` of `probe`: lets a cross-knob
// message name knobs without spelling a key or flag a second time.
std::string knob_name(Scenario& probe, const void* field, KnobName naming) {
  for (const Knob& knob : kKnobs) {
    const void* target =
        std::visit([&](auto get) -> const void* { return &get(probe); }, knob.field);
    if (target == field) {
      return std::string(naming == KnobName::kKey ? knob.key : knob.flag);
    }
  }
  SLACKVM_THROW("knob_name: no knob sets this field");
}

}  // namespace

bool Knob::parse(Scenario& scenario, std::string_view text) const {
  return std::visit(
      [&](auto get) {
        auto& target = get(scenario);
        using T = std::remove_reference_t<decltype(target)>;
        if constexpr (std::is_same_v<T, std::string>) {
          const auto [first, second] = split_words(arg);
          if (arg.find('|') != std::string_view::npos && text != first && text != second) {
            return false;
          }
          target = text;
        } else if constexpr (std::is_same_v<T, char>) {
          if (text.size() != 1 || !in_range(text[0], range)) {
            return false;
          }
          target = text[0];
        } else if constexpr (std::is_same_v<T, bool>) {
          const auto [yes, no] = split_words(arg);
          if (text != yes && text != no && text != "1" && text != "0") {
            return false;
          }
          target = text == yes || text == "1";
        } else if constexpr (std::is_floating_point_v<T>) {
          const std::optional<double> value = parse_number<double>(text);
          if (!value || !in_range(*value, range)) {
            return false;
          }
          target = *value * scale;
        } else {
          const std::optional<std::uint64_t> value = parse_number<std::uint64_t>(text);
          if (!value || !in_range(static_cast<double>(*value), range) ||
              *value > max_written<T>(scale)) {
            return false;
          }
          target = static_cast<T>(*value * static_cast<std::uint64_t>(scale));
        }
        return true;
      },
      field);
}

std::string Knob::format(const Scenario& scenario) const {
  return std::visit(
      [&](auto get) -> std::string {
        // The accessors take a mutable Scenario; this one only reads.
        const auto& value = get(const_cast<Scenario&>(scenario));
        using T = std::remove_cvref_t<decltype(value)>;
        if constexpr (std::is_same_v<T, std::string>) {
          return value;
        } else if constexpr (std::is_same_v<T, char>) {
          return std::string(1, value);
        } else if constexpr (std::is_same_v<T, bool>) {
          return std::string(value ? split_words(arg).first : split_words(arg).second);
        } else if constexpr (std::is_floating_point_v<T>) {
          return number_text(value / scale);
        } else {
          return number_text(value / static_cast<T>(scale));
        }
      },
      field);
}

std::string Knob::requirement() const {
  return std::visit(
      [&](auto get) -> std::string {
        using T = std::remove_reference_t<decltype(get(std::declval<Scenario&>()))>;
        if constexpr (std::is_same_v<T, std::string>) {
          return arg.find('|') != std::string_view::npos ? "must be " + std::string(arg)
                                                         : "must be one token";
        } else if constexpr (std::is_same_v<T, char>) {
          return "must be one letter " + std::string(1, static_cast<char>(range.min)) +
                 ".." + std::string(1, static_cast<char>(range.max));
        } else if constexpr (std::is_same_v<T, bool>) {
          return "must be " + std::string(arg) + " or 1|0";
        } else {
          return number_requirement<T>(range, scale);
        }
      },
      field);
}

std::span<const Knob> knobs() { return kKnobs; }

void check_knobs(const Scenario& scenario, KnobName naming) {
  const ExperimentConfig& config = scenario.config;
  if (config.interference.enabled && !(config.rebalance_interval > 0)) {
    Scenario probe;
    SLACKVM_THROW(knob_name(probe, &probe.config.interference.enabled, naming) +
                  " on needs " +
                  knob_name(probe, &probe.config.rebalance_interval, naming) + " > 0");
  }
}

Scenario parse_scenario(std::istream& input) {
  Scenario scenario;
  std::string line;
  std::size_t line_no = 0;
  // First-seen line per key: every key may appear at most once, so a stale
  // duplicate (the classic copy-paste edit that silently loses) is a parse
  // error, not a last-one-wins surprise. Directives are events and repeat.
  std::map<std::string_view, std::size_t> seen;
  while (std::getline(input, line)) {
    ++line_no;
    // Strip trailing comments.
    if (const auto hash = line.find('#'); hash != std::string::npos) {
      line.resize(hash);
    }
    std::istringstream in(line);
    std::string key;
    if (!(in >> key)) {
      continue;  // blank
    }
    const auto fail = [&](const std::string& message) {
      SLACKVM_THROW("scenario line " + std::to_string(line_no) + ": " + message);
    };
    std::string value;
    if (!(in >> value)) {
      fail("missing value for '" + key + "'");
    }

    if (const auto kind = std::ranges::find(kDirectiveKinds, key);
        kind != kDirectiveKinds.end()) {
      FaultDirective event;
      event.kind = static_cast<FaultDirective::Kind>(kind - kDirectiveKinds.begin());
      std::uint32_t given = 0;  // bit i: kDirectiveFields[i] was set
      // `value` holds the first field; the rest stream in.
      std::string token = value;
      do {
        const auto eq = token.find('=');
        if (eq == std::string::npos) {
          fail("directive fields are key=value, got '" + token + "'");
        }
        const std::string_view name = std::string_view(token).substr(0, eq);
        const std::string_view text = std::string_view(token).substr(eq + 1);
        const auto field =
            std::ranges::find(kDirectiveFields, name, &DirectiveField::name);
        if (field == std::end(kDirectiveFields)) {
          fail("unknown directive field '" + std::string(name) + "'");
        }
        std::visit(
            [&](auto member) {
              using T = std::remove_reference_t<decltype(event.*member)>;
              const std::optional<T> parsed = parse_number<T>(text);
              if (!parsed) {
                fail("'" + key + "' field " + std::string(name) + " " +
                     number_requirement<T>({}, 1) + ", got '" + std::string(text) + "'");
              }
              event.*member = *parsed;
            },
            field->member);
        given |= 1U << (field - std::begin(kDirectiveFields));
      } while (in >> token);
      for (std::size_t i = 0; i < std::size(kDirectiveFields); ++i) {
        if (kDirectiveFields[i].required && (given >> i & 1U) == 0) {
          fail("'" + key + "' needs " + std::string(kDirectiveFields[i].name) + "=");
        }
      }
      scenario.config.faults.directives.push_back(event);
      continue;
    }

    const auto knob = std::ranges::find(kKnobs, key, &Knob::key);
    if (knob == std::end(kKnobs)) {
      fail("unknown key '" + key + "'");
    }
    const auto [first, inserted] = seen.emplace(knob->key, line_no);
    if (!inserted) {
      fail("duplicate key '" + key + "' (first set on line " +
           std::to_string(first->second) + ")");
    }
    if (!knob->parse(scenario, value)) {
      fail(key + " " + knob->requirement() + ", got '" + value + "'");
    }
    // A knob takes exactly one value: leftover tokens are either a
    // forgotten '#' or a mangled line, so reject them with the position
    // instead of silently dropping them.
    std::string extra;
    if (in >> extra) {
      fail("trailing token '" + extra + "' after '" + key + " " + value + "'");
    }
  }
  check_knobs(scenario, KnobName::kKey);
  return scenario;
}

void write_scenario(const Scenario& scenario, std::ostream& output) {
  for (const Knob& knob : kKnobs) {
    if (const std::string value = knob.format(scenario); !value.empty()) {
      output << knob.key << ' ' << value << '\n';
    }
  }
  for (const FaultDirective& directive : scenario.config.faults.directives) {
    output << kDirectiveKinds[static_cast<std::size_t>(directive.kind)];
    for (const DirectiveField& field : kDirectiveFields) {
      output << ' ' << field.name << '='
             << std::visit([&](auto member) { return number_text(directive.*member); },
                           field.member);
    }
    output << '\n';
  }
}

}  // namespace slackvm::sim
