/// \file bench_runner.hpp
/// \brief The registry-driven sweep runner behind `domset bench`: one
/// declarative cross product {solver x graph family x n x seed x threads},
/// one shared worker pool, one schema-checked JSON document.
///
/// Before this existed every sweep in the repo -- the CI bench smokes,
/// examples/parameter_sweep.cpp, ad-hoc comparison scripts -- re-implemented
/// its own nested loop, its own timing, and its own output format.  The
/// bench runner is the single substrate: callers fill a `bench_spec`,
/// `run_bench` executes every cell through `api::solver_registry` and
/// `api::make_graph` on one `sim::thread_pool` (created once via
/// `exec::context::ensure_shared_pool`), and `to_json` emits the stable
/// `domset-bench/1` document -- one embedded `domset-run/1` record per
/// cell plus median wall-time over repeat-interleaved timings (repeats
/// cycle through ALL cells before re-timing any one of them, so a slow
/// patch on a shared box taxes every cell equally instead of one).
///
/// Determinism is enforced, not assumed: a cell's solution digest must be
/// identical across repeats (same seed => same solution), and integral
/// outputs are verified dominating on the first repeat.  Either failure
/// throws -- a sweep that cannot reproduce itself is a bug, not a data
/// point.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "api/result_json.hpp"
#include "api/solver.hpp"
#include "exec/context.hpp"

namespace domset::api {

/// The declarative sweep: every list is one axis of the cross product.
/// Cells are enumerated in deterministic order -- graphs (family, n,
/// seed) outermost, then solver, threads, drop, faults -- so
/// two runs of the same spec produce cell-for-cell comparable documents
/// (the property the CI trend gate keys on).
struct bench_spec {
  /// Registry names to run (resolved up front; unknown names throw before
  /// any cell executes).
  std::vector<std::string> algs;

  /// Graph-family names for api::make_graph ("gnp", "file", ...).
  std::vector<std::string> graphs;

  /// Approximate node counts.  Values that build byte-identical graphs
  /// within one family ("file" ignores n; grid/tree round to the nearest
  /// feasible shape) are deduplicated rather than emitted as colliding
  /// cells.
  std::vector<std::size_t> ns = {1000};

  /// Engine seeds; each value is both the graph-generation seed and the
  /// run seed, so a cell is reproducible from its key alone.
  std::vector<std::uint64_t> seeds = {1};

  /// Worker counts to sweep (1 = serial, 0 = one per hardware thread).
  std::vector<std::size_t> threads = {1};

  /// Message drop probabilities to sweep.  Empty (the default) means one
  /// implicit value inherited from base_exec.drop_probability, so specs
  /// written before this axis existed keep their meaning.
  std::vector<double> drops;

  /// Fault-plan specs to sweep (sim::parse_fault_plan grammar; "none" is
  /// the reliable model).  Empty means one implicit value inherited from
  /// base_exec.faults.  Cells with an active plan or a positive drop are
  /// *degraded* cells: instead of failing verification they record a
  /// verify::coverage_report, while the repeat-digest determinism check
  /// still applies -- a faulty run must be exactly reproducible.
  std::vector<std::string> faults;

  /// Timed repetitions per cell (>= 1); the document reports the median.
  std::size_t repeats = 3;

  /// Algorithm params, shared across the sweep and filtered per solver to
  /// the keys it declares (a cross-algorithm sweep sets k=3 once;
  /// solvers without a k never see it).  A key no solver in the sweep
  /// accepts is a spec error.
  param_map solver_params;

  /// Graph params, filtered per family the same way ("path" reaches only
  /// the file family, "p" only gnp, ...).  A key no swept family accepts
  /// is a spec error.
  param_map graph_params;

  /// Template for the per-cell execution context: drop_probability and
  /// congest_bit_limit are taken from here; seed and threads are
  /// overridden per cell and the pool is the shared sweep pool (an
  /// injected pool is reused, otherwise ensure_shared_pool builds one
  /// sized for the largest thread count in the sweep).
  exec::context base_exec;

  /// Verify integral outputs with verify::is_dominating_set on the first
  /// repeat (on by default; a failed cell throws).
  bool verify_solutions = true;
};

/// One executed cell: the embedded run record (its elapsed_ms is the
/// median) plus the raw repeat timings.
struct bench_cell {
  /// Full domset-run/1 record of the cell (result from the first repeat;
  /// digests of later repeats are asserted identical).
  run_record record;

  /// Wall-clock of each repeat in repeat order, milliseconds.
  std::vector<double> times_ms;

  /// Median of times_ms (== record.elapsed_ms).
  double median_ms = 0.0;
};

/// The executed sweep (serialize with to_json below).
struct bench_document {
  std::size_t repeats = 0;
  std::vector<bench_cell> cells;
};

/// Executes the sweep.  Throws std::invalid_argument on an ill-formed
/// spec (empty axis, unknown solver/family/param) and std::runtime_error
/// when a cell fails verification or repeats diverge.
[[nodiscard]] bench_document run_bench(const bench_spec& spec);

/// Serializes the document as the stable `domset-bench/1` JSON (validated
/// by scripts/validate_result_json.py, gated by
/// scripts/check_bench_trend.py).
[[nodiscard]] std::string to_json(const bench_document& doc);

}  // namespace domset::api
