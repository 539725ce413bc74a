#include "api/solver.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <utility>

#include "core/repair.hpp"

namespace domset::api {

namespace {

[[noreturn]] void throw_malformed(std::string_view key, std::string_view value,
                                  const char* expected) {
  throw std::invalid_argument("param '" + std::string(key) + "': expected " +
                              expected + ", got '" + std::string(value) + "'");
}

}  // namespace

std::uint64_t param_map::get_uint(std::string_view key,
                                  std::uint64_t fallback) const {
  const auto it = entries().find(key);
  if (it == entries().end()) return fallback;
  const std::string& value = it->second;
  char* end = nullptr;
  errno = 0;
  const long long parsed = std::strtoll(value.c_str(), &end, 10);
  if (value.empty() || end != value.c_str() + value.size() || parsed < 0 ||
      errno == ERANGE)
    throw_malformed(key, value, "a non-negative integer");
  return static_cast<std::uint64_t>(parsed);
}

double param_map::get_double(std::string_view key, double fallback) const {
  const auto it = entries().find(key);
  if (it == entries().end()) return fallback;
  const std::string& value = it->second;
  char* end = nullptr;
  const double parsed = std::strtod(value.c_str(), &end);
  if (value.empty() || end != value.c_str() + value.size())
    throw_malformed(key, value, "a number");
  return parsed;
}

bool param_map::get_bool(std::string_view key, bool fallback) const {
  const auto it = entries().find(key);
  if (it == entries().end()) return fallback;
  const std::string& value = it->second;
  if (value == "true" || value == "1" || value == "yes") return true;
  if (value == "false" || value == "0" || value == "no") return false;
  throw_malformed(key, value, "a boolean (true/false)");
}

void param_map::require_known(std::span<const std::string_view> known) const {
  std::string unknown;
  for (const auto& [key, value] : values_) {
    bool ok = false;
    for (const std::string_view k : known) ok |= key == k;
    if (ok) continue;
    if (!unknown.empty()) unknown += ", ";
    unknown += '\'' + key + '\'';
  }
  if (unknown.empty()) return;
  std::string accepted;
  for (const std::string_view k : known) {
    if (!accepted.empty()) accepted += ", ";
    accepted += k;
  }
  if (accepted.empty()) accepted = "none";
  throw std::invalid_argument("unknown param(s) " + unknown +
                              "; this solver accepts: " + accepted);
}

solve_result solver::solve(const graph::graph& g, const exec::context& exec,
                           const param_map& params) const {
  // The self-healing params are cross-cutting: strip them before
  // require_known so every adapter accepts them without listing them.
  const core::repair_mode mode =
      core::parse_repair_mode(params.get_string("repair", "off"));
  param_map inner;
  for (const auto& [key, value] : params.entries())
    if (key != "repair" && key != "repair-radius") inner.set(key, value);

  if (mode == core::repair_mode::off) {
    if (params.contains("repair-radius"))
      throw std::invalid_argument(
          "param 'repair-radius': only applies with repair=radius");
    inner.require_known(param_keys());
    return solve_impl(g, exec, inner);
  }

  if (!integral_output())
    throw std::invalid_argument(
        "param 'repair': solver '" + std::string(name()) +
        "' is fractional-only; repair needs an integral dominating set");
  if (mode != core::repair_mode::radius && params.contains("repair-radius"))
    throw std::invalid_argument(
        "param 'repair-radius': only applies with repair=radius");
  const std::uint64_t radius = params.get_uint("repair-radius", 2);
  if (radius < 1 || radius > 0xFFFFFFFFULL)
    throw std::invalid_argument(
        "param 'repair-radius': must be an integer >= 1");

  inner.require_known(param_keys());
  solve_result out = solve_impl(g, exec, inner);

  core::repair_params rp;
  rp.mode = mode;
  rp.radius = static_cast<std::uint32_t>(radius);
  // Repair models recovery *after* the faults: the dirty subgraph is
  // re-solved on a clean copy of the context (same seed and threads,
  // no drops, no fault plan) so the patch itself cannot be damaged.
  exec::context clean = exec;
  clean.drop_probability = 0.0;
  clean.faults = nullptr;
  if (mode == core::repair_mode::radius) {
    rp.subsolver = [this, &clean, &inner](
                       const graph::graph& sub,
                       const std::vector<graph::node_id>&) {
      // `inner` carries no repair keys, so this nested solve() cannot
      // recurse into another repair pass.
      return this->solve(sub, clean, inner).in_set;
    };
  }

  core::repair_result repaired = core::repair(g, out.in_set, rp);
  out.in_set = std::move(repaired.in_set);
  out.size = static_cast<std::size_t>(
      std::count(out.in_set.begin(), out.in_set.end(), std::uint8_t{1}));
  out.objective = static_cast<double>(out.size);
  out.repair.attempted = true;
  out.repair.mode = std::string(core::to_string(mode));
  out.repair.radius = rp.mode == core::repair_mode::radius ? rp.radius : 0;
  out.repair.holes_before = repaired.holes_before;
  out.repair.holes_after = repaired.holes_after;
  out.repair.added = repaired.added;
  out.repair.touched_nodes = repaired.touched_nodes;
  return out;
}

}  // namespace domset::api
