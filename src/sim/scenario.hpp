// Scenario files: declarative experiment configurations.
//
// A scenario is a small "key value" text file describing one
// baseline-vs-SlackVM comparison (provider, distribution, scale, knobs), so
// experiments can be versioned and shared instead of encoded in shell
// flags. Used by `slackvm run-scenario` and the shipped scenarios/ files.
//
// Every knob is declared once, as a row of the knob table in scenario.cpp:
// its scenario key, its `slackvm` flag (scenario-only knobs have none), the
// field it sets, the values it accepts, one help line and the parts of an
// experiment that read it. parse_scenario, write_scenario, the CLI's flag
// parser, its per-subcommand flag check and its usage text are all driven
// by that table; `slackvm` without arguments prints the generated list of
// flags and keys.
//
// Format: one `key value` pair per line; '#' starts a comment and blank
// lines are ignored. Every key may appear at most once (duplicates are
// parse errors) and takes exactly one value (trailing tokens are parse
// errors). Values are strict: an integer knob takes base-10 digits only (no
// sign, no prefix, nothing its field cannot hold), a real knob takes a
// finite decimal, the whole token must be consumed, and a switch takes its
// two words (on|off, engine|instant) or 1|0.
//
// Fault directives (sim/fault.hpp) are the one line form that may repeat:
//
//   fail   host=3 at=86400          # cluster=N optional (default 0);
//   repair host=3 at=90000          # explicit failures never auto-repair
//   drain  host=7 at=43200
#pragma once

#include <cstdint>
#include <iosfwd>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <variant>

#include "sim/experiment.hpp"

namespace slackvm::sim {

struct Scenario {
  std::string name = "unnamed";
  std::string provider = "ovhcloud";
  char distribution = 'F';
  ExperimentConfig config;

  /// The catalog the scenario refers to; throws on unknown providers.
  [[nodiscard]] const workload::Catalog& catalog() const;

  /// The level mix; throws on distributions outside A..O.
  [[nodiscard]] const workload::LevelMix& mix() const;

  /// Execute the scenario's comparison.
  [[nodiscard]] PackingComparison run() const;
};

/// The values a numeric knob accepts, in written units.
struct KnobRange {
  double min = -std::numeric_limits<double>::infinity();
  double max = std::numeric_limits<double>::infinity();
  bool min_open = false;  ///< min itself excluded: "> 0" rather than ">= 0"
  bool max_open = false;  ///< max itself excluded: "[0, 1)"
};

/// The parts of an experiment that read a knob, as bits of Knob::readers. A
/// front end that runs only some of them (`slackvm catalog` lists the
/// catalog and nothing else) refuses the flag of a knob none of them reads.
enum KnobReader : std::uint8_t {
  kReadByCatalog = 1 << 0,    ///< the flavor catalog
  kReadByMix = 1 << 1,        ///< the level mix of one generated workload
  kReadByGenerator = 1 << 2,  ///< the workload generator
  kReadByGrid = 1 << 3,       ///< the repetition grid of a comparison
  kReadByTrace = 1 << 4,      ///< a trace file, in place of the generator
  kReadByReplay = 1 << 5,     ///< the replay: fleet, faults and control plane
};

/// One knob: the single declaration the scenario grammar, write_scenario,
/// the `slackvm` flags and their usage text are generated from.
struct Knob {
  /// The field a knob sets, typed by what it holds.
  using Field = std::variant<std::string& (*)(Scenario&), char& (*)(Scenario&),
                             bool& (*)(Scenario&), std::uint32_t& (*)(Scenario&),
                             std::uint64_t& (*)(Scenario&), std::int64_t& (*)(Scenario&),
                             double& (*)(Scenario&)>;

  std::string_view key;   ///< scenario key
  std::string_view flag;  ///< `slackvm` flag; empty for scenario-only knobs
  /// Usage placeholder (N, X, FILE, ...). With a '|' it lists the accepted
  /// words instead: a switch's true|false spelling, or a string's choices.
  std::string_view arg;
  Field field;
  KnobRange range;        ///< numbers: accepted values; char: accepted letters
  std::string_view help;  ///< one usage line
  std::uint8_t readers = kReadByReplay;  ///< KnobReader bits
  double scale = 1;       ///< field units per written unit (days -> s, GiB -> MiB)

  /// Set the field from `text`; false, with the field untouched, on any
  /// value the knob does not accept.
  [[nodiscard]] bool parse(Scenario& scenario, std::string_view text) const;
  /// The field as parse() reads it back (doubles in their shortest
  /// round-trip form); empty for an empty string, which is not written.
  [[nodiscard]] std::string format(const Scenario& scenario) const;
  /// What parse() accepts, for error messages: "must be an integer >= 1".
  [[nodiscard]] std::string requirement() const;
};

/// The knob table, in write_scenario's order.
[[nodiscard]] std::span<const Knob> knobs();

/// The strict number parser behind every knob and directive field: base-10
/// digits only for an unsigned T (no sign, no prefix, no overflow of T), a
/// finite decimal for double; nullopt unless the whole token is consumed.
template <class T>
[[nodiscard]] std::optional<T> parse_number(std::string_view text);

/// Which name a message gives a knob.
enum class KnobName { kKey, kFlag };

/// The checks no single knob can make (the interference loop needs a
/// positive rebalance cadence). Both front ends run them once every knob is
/// set; throws core::SlackError naming the knobs involved.
void check_knobs(const Scenario& scenario, KnobName naming);

/// Parse a scenario file; throws core::SlackError with a line-numbered
/// message naming the key on malformed input or unknown keys.
[[nodiscard]] Scenario parse_scenario(std::istream& input);

/// Serialize every knob and directive; parse_scenario reads the text back to
/// the same fields, and writing that again gives the same text.
void write_scenario(const Scenario& scenario, std::ostream& output);

}  // namespace slackvm::sim
