/// \file result_json.hpp
/// \brief The stable machine-readable run record the `domset` driver
/// emits with `--json`.
///
/// Schema `domset-run/1` (validated in CI by
/// scripts/validate_result_json.py, uploaded next to the bench JSON
/// artifacts): one flat object per run carrying the solver name, the
/// graph provenance, the exec::context knobs, the echoed solver params,
/// the normalized result (size / objective / ratio bound / validity /
/// solution digest) and the full sim::run_metrics.  The digest is a
/// 64-bit FNV-1a over the solution bits, so two runs are bit-identical
/// iff their digests match -- the hook CI uses to assert agreement across
/// thread counts without shipping whole solutions.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "api/graphs.hpp"
#include "api/solver.hpp"
#include "exec/context.hpp"
#include "graph/graph.hpp"
#include "verify/coverage.hpp"

namespace domset::api {

/// Everything the JSON record carries about one run.
struct run_record {
  /// Registry name of the solver ("pipeline", "alg2", ...).
  std::string alg;
  /// Graph-family name ("gnp", ...) or "file" for loaded graphs.
  std::string graph_family;
  /// Graph shape as built.
  std::size_t nodes = 0;
  std::size_t edges = 0;
  std::uint32_t max_degree = 0;
  /// Load provenance for file-backed graphs (path, format, load time),
  /// serialized as the "graph.source" block; absent for generated
  /// families.
  std::optional<graph_source> source;
  /// The execution context the run used (pool is process-local state and
  /// is not recorded; threads are).
  exec::context exec;
  /// Echo of the algorithm-specific params actually supplied.
  param_map params;
  /// Normalized solver output.
  solve_result result;
  /// Whether verify::is_dominating_set accepted the integral output
  /// (reported true for fractional-only records, which have no set to
  /// check here; the LP invariants are asserted by the test suite).
  bool valid = false;
  /// Degradation report for faulty runs (absent on reliable runs): hole
  /// count, worst hole depth, per-fault attribution.  Serialized as the
  /// top-level "coverage" object.
  std::optional<verify::coverage_report> coverage;
  /// Wall-clock of the solve call, in milliseconds.
  double elapsed_ms = 0.0;
};

/// Minimal JSON string escaping, shared by every JSON surface of the
/// repo (run records, bench documents, the dyn replay emitter).
[[nodiscard]] std::string json_escape(std::string_view text);

/// Doubles formatted for JSON: %.17g (value-preserving), with the
/// inf/nan escape hatch rendered as null.
[[nodiscard]] std::string json_number(double value);

/// 64-bit FNV-1a over the solution bits (in_set bytes, then the IEEE-754
/// bit patterns of x).  Bit-identical runs <=> equal digests.
[[nodiscard]] std::uint64_t solution_digest(const solve_result& result);

/// The digest rendered the way every JSON surface spells it: 16 lowercase
/// hex characters.
[[nodiscard]] std::string digest_hex(const solve_result& result);

/// Serializes the record as one pretty-printed JSON object (schema
/// "domset-run/1", stable key order).
[[nodiscard]] std::string to_json(const run_record& record);

/// Appends the record object to `out` with every line prefixed by
/// `indent` and no trailing newline -- the shared body of to_json and of
/// the domset-bench/1 document, which embeds one record per sweep cell
/// (api/bench_runner.hpp).
void append_record_json(std::string& out, const run_record& record,
                        std::string_view indent);

}  // namespace domset::api
