/// \file alg2.hpp
/// \brief Algorithm 2 of the paper (Theorem 4): distributed
/// k*(Delta+1)^(2/k)-approximation of the fractional dominating set LP in
/// exactly 2k^2 rounds, assuming every node knows the global maximum
/// degree Delta.  One kernel runs the paper's schedule, its weighted form
/// (Remark after Theorem 4) and the fresh-degree ablation.
//
// Faithful round schedule (2 rounds per inner iteration):
//   round A: apply line 12 of the previous iteration (color update from the
//            x-values received), then lines 6-8 (activity check and x
//            raise), then line 9 (broadcast color);
//   round B: line 10 (recompute dynamic degree from received colors), then
//            line 11 (broadcast x).
//
// Fidelity note: with this 2-round schedule -- the one the paper's round
// count 2k^2 implies -- the dynamic degree used in the line 6 activity
// check lags the true colors by exactly one inner iteration (the line 10
// snapshot cannot see grays caused by the very next line 12).  One can show
// the Lemma 2 and Lemma 3 invariants still hold exactly on the *true*
// state (colors only move white -> gray, so the stale count upper-bounds
// the true count); the Lemma 4 z-bound can exceed the paper's constant by
// a small factor.  Tests assert Lemmas 2/3 exactly and Lemma 4 with a 2x
// allowance; the Theorem 4 objective bound is asserted as stated.
//
// Fresh-degree ablation (alg2_variant::fresh_degrees): reordering the loop
// body to
//     9: send color;  10: refresh dyn degree;  6-8: test and raise x;
//     11: send x;     12: update color
// costs nothing -- still two rounds per inner iteration, still 2k^2 rounds
// total -- but the activity decision now sees every color update, and the
// Lemma 4 z-bound holds *exactly* (the tests assert it without slack).
// This quantifies a reproduction finding: the literal pseudo-code schedule
// pays a small constant factor in the dual accounting that a one-line
// reordering removes.  Bench A1 measures both.
//
// Weighted reconstruction (alg2_variant::cost): every node v_i has a cost
// c_i in [1, c_max].  Following the Remark, the dynamic degree is replaced
// by the cost-effectiveness  gamma~(v_i) := (c_max / c_i) * dyn_degree(v_i)
// and a node is active iff  gamma~(v_i) >= [c_max * (Delta+1)]^{ell/k}; the
// x-raise (line 7) is unchanged.  The claimed approximation ratio for the
// weighted LP (min c^T x) is  k * (Delta+1)^{1/k} * [c_max*(Delta+1)]^{1/k}.
// The Remark leaves the adapted lines to the reader ("change lines 6 and
// 10 in the appropriate way"); this is our best-faith reconstruction, and
// bench B-R2 measures the resulting ratio against the Remark's bound.
// Costs are real-valued, so that activity threshold is evaluated in
// floating point (with the shared tolerance) rather than with the exact
// integer comparison of the unit-cost test.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "core/lp_params.hpp"
#include "graph/graph.hpp"

namespace domset::core {

/// Which form of Algorithm 2 to run.  The default is the paper's
/// Algorithm 2 exactly as Theorem 4 states it.
struct alg2_variant {
  /// Node costs c_i >= 1, one per node, for the weighted LP min c^T x;
  /// c_max is taken as max(cost).  Empty means unit costs and the exact
  /// integer activity test.
  std::span<const double> cost;
  /// Run lines 6-8 after lines 9-10, so the activity test sees the fresh
  /// dynamic degree.
  bool fresh_degrees = false;
};

/// Snapshot of global state right after the round that ran lines 6-8 of
/// one inner iteration (round A, or round B with fresh degrees).
/// Consumed by the invariant monitors and the Figure 1 bench.
struct alg2_iteration_view {
  std::uint32_t ell = 0;  // outer index, k-1 .. 0
  std::uint32_t m = 0;    // inner index, k-1 .. 0
  /// Current x-values (including this iteration's raises).
  std::vector<double> x;
  /// True colors: gray[v] reflects every line-12 update so far.
  std::vector<std::uint8_t> gray;
  /// Dynamic degree variable each node used in this iteration's line 6
  /// (the line 10 snapshot of the previous iteration, or of this one with
  /// fresh degrees).
  std::vector<std::uint32_t> dyn_degree;
  /// Whether the node passed the line 6 test this iteration.
  std::vector<std::uint8_t> active;
};

using alg2_observer = std::function<void(const alg2_iteration_view&)>;

/// Runs Algorithm 2 on `g`.  If `observer` is non-null it is invoked once
/// per inner iteration (k^2 times).
/// \param g the network graph; its maximum degree is the Delta every node
///   is assumed to know.
/// \param params trade-off parameter k plus seed/robustness/execution
///   knobs.
/// \param variant node costs and line order (default: the paper's).
/// \param observer optional per-iteration state monitor (tests, benches).
/// \return the fractional solution x, its objective (sum x, or c^T x with
///   costs), run metrics and the ratio bound (Theorem 4, or the Remark's
///   with costs).
[[nodiscard]] lp_approx_result approximate_lp_known_delta(
    const graph::graph& g, const lp_approx_params& params,
    const alg2_variant& variant = {}, const alg2_observer* observer = nullptr);

/// The Theorem 4 guarantee k*(Delta+1)^{2/k}.
[[nodiscard]] double alg2_ratio_bound(std::uint32_t delta, std::uint32_t k);

/// The Remark's weighted guarantee k*(Delta+1)^{1/k}*[c_max*(Delta+1)]^{1/k}.
[[nodiscard]] double weighted_ratio_bound(std::uint32_t delta, std::uint32_t k,
                                          double c_max);

/// The Theorem 4 round count: exactly 2k^2.
[[nodiscard]] constexpr std::size_t alg2_round_count(std::uint32_t k) {
  return 2ULL * k * k;
}

}  // namespace domset::core
