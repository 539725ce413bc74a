// Minimal command-line flag parsing for the examples and bench binaries.
//
// Supports `--name value` and `--name=value` forms plus boolean switches.
// Unknown flags are an error so typos surface immediately.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "exec/context.hpp"

namespace domset::common {

class cli_parser {
 public:
  /// `description` is printed by `usage()`.
  explicit cli_parser(std::string description);

  /// Registers a flag with a default value (rendered in usage).
  void add_flag(const std::string& name, const std::string& default_value,
                const std::string& help);

  /// Registers a boolean switch (present => true).
  void add_switch(const std::string& name, const std::string& help);

  /// Makes parse() reject a non-integer or negative value for an
  /// already-registered flag (the validation --threads/--seed get from
  /// add_exec_flags, for binary-specific flags like --n).
  void require_nonnegative_int(const std::string& name);

  /// Parses argv.  Returns false (after printing usage) on error or --help.
  [[nodiscard]] bool parse(int argc, const char* const* argv);

  /// True iff the flag was explicitly supplied on the command line (vs
  /// falling back to its default).  Lets the driver forward only the
  /// params a user actually set.
  [[nodiscard]] bool is_set(const std::string& name) const;

  [[nodiscard]] std::string get_string(const std::string& name) const;
  [[nodiscard]] std::int64_t get_int(const std::string& name) const;
  [[nodiscard]] double get_double(const std::string& name) const;
  [[nodiscard]] bool get_bool(const std::string& name) const;

  /// Usage text listing all registered flags.
  [[nodiscard]] std::string usage(const std::string& program) const;

  /// Registers the standard execution flags every simulator-backed binary
  /// shares, in one call: `--seed` (default `default_seed`), `--threads`
  /// (1 = serial, 0 = one worker per hardware thread), `--drop`
  /// (message-loss probability in [0, 1]), `--faults` (a
  /// sim::parse_fault_plan schedule, `none` = reliable) and
  /// `--congest-bits` (0 = unchecked).  parse() validates each value
  /// with the usual usage-and-exit path; read the result back as an
  /// exec::context with exec().  This is the single CLI insertion point
  /// for engine knobs -- a new exec::context field gets its flag here
  /// once and appears in every binary.
  void add_exec_flags(std::uint64_t default_seed = 1);

  /// The parsed execution flags as an exec::context (pool left null; call
  /// exec::context::ensure_shared_pool() to share workers across runs).
  /// Requires a prior add_exec_flags().
  [[nodiscard]] exec::context exec() const;

 private:
  struct flag_spec {
    std::string default_value;
    std::string help;
    bool is_switch = false;
    /// parse() rejects a negative integer value (used by --threads so a
    /// typo takes the usual usage-and-exit path, not an exception).
    bool nonnegative_int = false;
    /// parse() rejects values outside [0, 1] (used by --drop).
    bool unit_interval = false;
    /// parse() rejects values sim::parse_fault_plan cannot parse (used by
    /// --faults; the parse error's message is surfaced in the usage text).
    bool fault_spec = false;
  };

  std::string description_;
  std::map<std::string, flag_spec> specs_;
  std::map<std::string, std::string> values_;
};

}  // namespace domset::common
