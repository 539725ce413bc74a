/// \file incremental.hpp
/// \brief Frontier-restricted incremental re-solve of a resident instance.
//
// The LOCAL-model reason this works: every registered solver computes
// each node's output from an O(k)-hop neighborhood, so after a batch of
// mutations the *correct* output can only differ inside a bounded ball
// around the touched nodes.  The engine keeps the last solution as the
// incumbent, and per epoch:
//
//   1. commits the pending batch (dyn::dynamic_graph, snapshot isolation),
//   2. grows the dirty ball: radius-r multi-source BFS around the touched
//      nodes, run by core::dirty_region over the committed overlay view
//      (no CSR materialization),
//   3. extracts the ball's induced subgraph, re-runs the incumbent
//      registry solver on it with this epoch's derived seed,
//   4. splices only *interior* decisions (depth < r) back; boundary-shell
//      nodes (depth == r) stay pinned to their current in/out status, so
//      the rest of the graph is untouched by construction,
//   5. re-checks coverage inside the ball -- the only place holes can
//      appear -- and patches any residue with the deterministic greedy
//      pass (core::greedy_patch),
//   6. falls back to a full re-solve when the ball exceeds
//      `full_fraction` of the graph (the escape hatch: a batch that
//      dirties half the graph deserves a fresh global run).
//
// Determinism: epoch e always solves under seed derive_seed(seed, e), and
// every stage above is a deterministic function of (graph, incumbent,
// batch) -- so replay digests are bit-identical across thread counts,
// inheriting the engine's own contract.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "api/registry.hpp"
#include "api/solver.hpp"
#include "dyn/dynamic_graph.hpp"
#include "dyn/mutation.hpp"
#include "exec/context.hpp"
#include "graph/graph.hpp"

namespace domset::dyn {

struct incremental_params {
  /// Registry name of the incumbent solver (must be integral-output).
  std::string solver = "pipeline";
  api::param_map solver_params;
  exec::context exec;
  /// Dirty-ball radius in hops (>= 1).  Exact LOCAL equivalence would
  /// need the solver's full round count; a truncated radius plus the
  /// pinned boundary and the coverage patch is the engineering
  /// compromise -- see docs/dynamic.md.
  std::uint32_t radius = 2;
  /// Full re-solve when ball size > full_fraction * nodes (0 forces a
  /// full re-solve every epoch; must be >= 0).
  double full_fraction = 0.25;
  /// Degree cap on the dirty-ball frontier (0 = off).  Nodes whose
  /// committed degree exceeds the cap enter the ball pinned to the
  /// boundary shell instead of fanning out -- hub-heavy graphs keep
  /// radius 2 at large batches instead of tripping the escape hatch.
  /// See core::dirty_region and docs/dynamic.md.
  std::uint32_t frontier_cap = 0;
};

/// What one epoch did (timings belong to the caller).
struct epoch_report {
  std::uint64_t epoch = 0;
  std::size_t mutations = 0;      ///< batch size committed
  std::size_t touched = 0;        ///< distinct nodes the batch touched
  std::size_t ball_nodes = 0;     ///< dirty-ball size (0 on empty batch)
  std::size_t capped_nodes = 0;   ///< frontier-cap pins (0 when cap off)
  std::size_t interior_nodes = 0; ///< re-decided nodes (depth < radius)
  bool full_resolve = false;      ///< escape hatch taken
  std::size_t holes_patched = 0;  ///< post-splice coverage holes fixed
  std::size_t changed = 0;        ///< membership churn vs previous epoch
  std::size_t size = 0;           ///< solution size after the epoch
  std::size_t nodes = 0;          ///< graph shape after the epoch
  std::size_t edges = 0;
  std::uint64_t digest = 0;       ///< FNV-1a over the solution bits
};

class incremental_engine {
 public:
  /// Solves `base` from scratch (epoch 0) and keeps it resident.  Throws
  /// std::invalid_argument for fractional-only solvers, radius 0 or a
  /// negative full_fraction.
  incremental_engine(graph::graph base, incremental_params params);

  /// The resident graph; accumulate a batch with `network().apply(m)`,
  /// then seal it with `commit_and_repair()`.
  [[nodiscard]] dynamic_graph& network() { return dg_; }
  [[nodiscard]] const dynamic_graph& network() const { return dg_; }

  /// Commits the pending batch as the next epoch and repairs the
  /// incumbent (dirty ball -> subsolve -> splice -> patch, or the full
  /// re-solve fallback).
  epoch_report commit_and_repair();

  /// Convenience: applies `batch` and commits it in one call.
  epoch_report step(std::span<const mutation> batch);

  [[nodiscard]] const std::vector<std::uint8_t>& solution() const {
    return in_set_;
  }
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::uint64_t digest() const;
  [[nodiscard]] std::uint64_t epoch() const { return dg_.epoch(); }
  /// Materialized committed snapshot (delegates to the dynamic graph).
  [[nodiscard]] graph::graph snapshot() { return dg_.snapshot(); }

  /// From-scratch re-solve of the current snapshot under this epoch's
  /// seed -- the comparison baseline.  Pure measurement: the incumbent
  /// solution is NOT replaced.
  [[nodiscard]] api::solve_result full_resolve();

 private:
  [[nodiscard]] api::solve_result run_solver(const graph::graph& g,
                                             std::uint64_t epoch_no) const;

  dynamic_graph dg_;
  incremental_params params_;
  const api::solver* solver_ = nullptr;
  std::vector<std::uint8_t> in_set_;
};

}  // namespace domset::dyn
