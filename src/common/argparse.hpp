// Tiny command-line flag parser for the bench/example binaries.
// Supports --name=value, --name value, and boolean --flag forms.
// Every bench routes its flags through here — including the shared
// conventions: --seed picks the run's RNG seed, and --json=PATH emits
// the machine-readable artifact (write_json_artifact).
#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace clash {

class ArgParser {
 public:
  ArgParser(int argc, const char* const* argv);

  [[nodiscard]] bool has(const std::string& name) const;

  [[nodiscard]] std::string get(const std::string& name,
                                const std::string& fallback) const;
  [[nodiscard]] std::int64_t get_int(const std::string& name,
                                     std::int64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& name,
                                  double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& name, bool fallback) const;

  /// Arguments that were not --flags, in order.
  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

  /// Program name (argv[0]).
  [[nodiscard]] const std::string& program() const { return program_; }

  /// The command that reproduces a seeded run: the program name, then
  /// ` --name=value` for each flag that determines the run, in order.
  /// Self-gating benches end every FAIL line with "repro: <this>".
  [[nodiscard]] std::string repro(
      std::initializer_list<std::pair<const char*, std::string>> flags)
      const;

 private:
  std::string program_;
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

/// The bench JSON-artifact convention: when `--json=PATH` was passed,
/// write `json` there (single atomic fopen/fputs). Returns false — and
/// prints to stderr — only when the path was given but unwritable, so
/// callers can `return write_json_artifact(...) ? 0 : 1;`.
bool write_json_artifact(const ArgParser& args, const std::string& json);

}  // namespace clash
