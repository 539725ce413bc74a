#include "common/cli.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <utility>

#include "sim/fault.hpp"

namespace domset::common {

cli_parser::cli_parser(std::string description)
    : description_(std::move(description)) {}

void cli_parser::add_flag(const std::string& name,
                          const std::string& default_value,
                          const std::string& help) {
  specs_[name] = flag_spec{default_value, help, false};
}

void cli_parser::add_switch(const std::string& name, const std::string& help) {
  specs_[name] = flag_spec{"false", help, true};
}

void cli_parser::require_nonnegative_int(const std::string& name) {
  const auto it = specs_.find(name);
  if (it == specs_.end())
    throw std::invalid_argument("unregistered flag: " + name);
  it->second.nonnegative_int = true;
}

bool cli_parser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(usage(argv[0]).c_str(), stdout);
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unexpected positional argument '%s'\n%s",
                   arg.c_str(), usage(argv[0]).c_str());
      return false;
    }
    std::string name = arg.substr(2);
    std::string value;
    bool has_value = false;
    if (const auto eq = name.find('='); eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
      has_value = true;
    }
    const auto it = specs_.find(name);
    if (it == specs_.end()) {
      std::fprintf(stderr, "unknown flag '--%s'\n%s", name.c_str(),
                   usage(argv[0]).c_str());
      return false;
    }
    if (it->second.is_switch) {
      values_[name] = has_value ? value : "true";
      continue;
    }
    if (!has_value) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "flag '--%s' expects a value\n%s", name.c_str(),
                     usage(argv[0]).c_str());
        return false;
      }
      value = argv[++i];
    }
    values_[name] = value;
  }
  for (const auto& [name, spec] : specs_) {
    if (spec.unit_interval) {
      const std::string value = get_string(name);
      char* end = nullptr;
      const double parsed = std::strtod(value.c_str(), &end);
      if (value.empty() || end != value.c_str() + value.size() ||
          !(parsed >= 0.0 && parsed <= 1.0)) {
        std::fprintf(stderr, "flag '--%s' must be a probability in [0, 1]\n%s",
                     name.c_str(), usage(argv[0]).c_str());
        return false;
      }
    }
    if (spec.fault_spec) {
      try {
        (void)sim::parse_fault_plan(get_string(name));
      } catch (const std::invalid_argument& err) {
        std::fprintf(stderr, "flag '--%s': %s\n%s", name.c_str(), err.what(),
                     usage(argv[0]).c_str());
        return false;
      }
    }
    if (!spec.nonnegative_int) continue;
    // Require a complete, in-range decimal integer: strtoll alone maps
    // typos like "eight" to 0 (for --threads: maximum parallelism) and
    // saturates overflow to LLONG_MAX instead of failing.
    const std::string value = get_string(name);
    char* end = nullptr;
    errno = 0;
    const long long parsed = std::strtoll(value.c_str(), &end, 10);
    if (value.empty() || end != value.c_str() + value.size() || parsed < 0 ||
        errno == ERANGE) {
      std::fprintf(stderr, "flag '--%s' must be a non-negative integer\n%s",
                   name.c_str(), usage(argv[0]).c_str());
      return false;
    }
  }
  return true;
}

bool cli_parser::is_set(const std::string& name) const {
  return values_.find(name) != values_.end();
}

std::string cli_parser::get_string(const std::string& name) const {
  if (const auto it = values_.find(name); it != values_.end())
    return it->second;
  if (const auto it = specs_.find(name); it != specs_.end())
    return it->second.default_value;
  throw std::invalid_argument("unregistered flag: " + name);
}

std::int64_t cli_parser::get_int(const std::string& name) const {
  return std::strtoll(get_string(name).c_str(), nullptr, 10);
}

double cli_parser::get_double(const std::string& name) const {
  return std::strtod(get_string(name).c_str(), nullptr);
}

bool cli_parser::get_bool(const std::string& name) const {
  const std::string v = get_string(name);
  return v == "true" || v == "1" || v == "yes";
}

void cli_parser::add_exec_flags(std::uint64_t default_seed) {
  add_flag("seed", std::to_string(default_seed), "random seed");
  specs_["seed"].nonnegative_int = true;
  add_flag("threads", "1",
           "simulator worker threads (1 = serial, 0 = one per hardware "
           "thread); results are identical for every value");
  specs_["threads"].nonnegative_int = true;
  add_flag("drop", "0",
           "message-loss probability in [0, 1] (robustness extension; "
           "0 = the paper's reliable model)");
  specs_["drop"].unit_interval = true;
  add_flag("faults", "none",
           "deterministic fault schedule, e.g. "
           "crash=7@10+link=0-3@4-9:flap=1/3+burst@5-6:p=0.5 "
           "(none = reliable; see docs/robustness.md for the grammar)");
  specs_["faults"].fault_spec = true;
  add_flag("congest-bits", "0",
           "flag messages wider than this many bits as CONGEST violations "
           "(0 = unchecked)");
  specs_["congest-bits"].nonnegative_int = true;
}

exec::context cli_parser::exec() const {
  exec::context ctx;
  const std::int64_t seed = get_int("seed");
  const std::int64_t threads = get_int("threads");
  const std::int64_t congest = get_int("congest-bits");
  // parse() already rejected negatives with usage text; these throws are
  // a backstop for callers that skipped parse().
  if (seed < 0 || threads < 0 || congest < 0)
    throw std::invalid_argument("exec flags must be non-negative");
  // The engine's limit field is 32-bit; a wider value would silently
  // truncate (possibly to 0 = unchecked), defeating the meter it enables.
  if (congest > 0xFFFFFFFFLL)
    throw std::invalid_argument("--congest-bits must fit in 32 bits");
  ctx.seed = static_cast<std::uint64_t>(seed);
  ctx.threads = static_cast<std::size_t>(threads);
  ctx.congest_bit_limit = static_cast<std::uint32_t>(congest);
  ctx.drop_probability = get_double("drop");
  sim::fault_plan plan = sim::parse_fault_plan(get_string("faults"));
  if (!plan.empty())
    ctx.faults = std::make_shared<const sim::fault_plan>(std::move(plan));
  return ctx;
}

std::string cli_parser::usage(const std::string& program) const {
  std::string out = description_ + "\n\nusage: " + program + " [flags]\n";
  for (const auto& [name, spec] : specs_) {
    out += "  --" + name;
    if (!spec.is_switch) out += " <value> (default: " + spec.default_value + ")";
    out += "\n      " + spec.help + "\n";
  }
  return out;
}

}  // namespace domset::common
