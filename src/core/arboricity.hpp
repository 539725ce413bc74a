// Bounded-arboricity dominating set via a deterministic degree-threshold
// sweep, after Dory, Ghaffari and Ilchi, "Near-Optimal Distributed
// Dominating Set in Bounded Arboricity Graphs" (arXiv 2206.05174).
//
// The algorithm sweeps a threshold tau down from Delta + 1 by factors of
// (1 + epsilon); in each phase every node whose closed neighborhood still
// contains >= tau uncovered nodes joins the dominating set, and a final
// cleanup phase lets every still-uncovered node join itself.  Each phase
// is two simulator rounds of 1-bit messages (JOIN announcements, then
// COVERED transition announcements), so the whole run takes
// O(eps^-1 log Delta) rounds -- DGI's round complexity -- with no
// randomness at all: the output is a pure function of the graph.
//
// The sweep stops at tau = 2A + 2, where A is the graph's degeneracy
// (computed centrally, like Algorithm 2's known-Delta assumption; note
// arboricity <= A <= 2*arboricity - 1, so bounded arboricity is bounded
// degeneracy).  The reported `ratio_bound` is a per-instance certificate
// derived from the actual threshold schedule:
//
//   * invariant: after the phase with threshold tau, every node has
//     fewer than tau uncovered nodes left in its closed neighborhood
//     (anyone at tau or above just joined and zeroed its residual);
//   * hence the uncovered set U_i entering phase i satisfies
//     |U_i| <= tau_{i-1} |OPT| (each optimum node dominates < tau_{i-1}
//     of them), with tau_{-1} := Delta + 1;
//   * the phase-i joiners J_i each hold >= tau_i incidences into U_i.
//     An A-degenerate subgraph on s vertices has at most A*s edges, so
//     counting those incidences over G[J_i u U_i] gives
//     |J_i| (tau_i - 2A - 1) <= 2A |U_i|  (the -1 absorbs self-coverage);
//   * the cleanup joiners are exactly U_last, at most tau_last |OPT|.
//
// Summing: |DS| <= (sum_i 2A tau_{i-1} / (tau_i - 2A - 1) + tau_last)|OPT|
// -- every factor computable before the run, so the bound ships in the
// result and the differential harness can check it against exact optima.
// This self-contained certificate is O(eps^-1 A log Delta); DGI's sharper
// forest-decomposition analysis reaches O(A), which is why dense graphs
// (2A + 2 > Delta + 1 degenerates to "everyone joins") belong to the
// pipeline solver -- the `auto` meta-solver routes accordingly.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "exec/context.hpp"
#include "graph/graph.hpp"
#include "sim/metrics.hpp"

namespace domset::core {

struct arboricity_params {
  /// Threshold decay rate: tau <- floor(tau / (1 + epsilon)).  Smaller
  /// epsilon means more phases (more rounds) and a gentler sweep --
  /// typically a smaller set, though the per-phase union-bound
  /// *certificate* (ratio_bound) grows with the phase count.  Must be
  /// positive and finite; throws std::invalid_argument otherwise.
  double epsilon = 0.5;

  /// Execution knobs (threads, pool, faults); the algorithm is
  /// deterministic, so `seed` only matters under injected unreliability.
  exec::context exec;
};

struct arboricity_result {
  std::vector<std::uint8_t> in_set;
  std::size_t size = 0;
  /// Degeneracy A the sweep floor was computed from.
  std::uint32_t degeneracy = 0;
  /// Swept thresholds (cleanup excluded); 2 rounds each.
  std::size_t phases = 0;
  /// The per-instance certificate described above (>= 1; equals Delta + 1
  /// when no threshold cleared the sweep floor).
  double ratio_bound = 0.0;
  sim::run_metrics metrics;
};

/// The threshold schedule tau_0 = Delta + 1 > tau_1 > ... >= 2A + 2,
/// strictly decreasing by floor-division with (1 + epsilon).  Empty when
/// Delta + 1 < 2A + 2 (the cleanup-only regime).
[[nodiscard]] std::vector<std::uint32_t> threshold_schedule(
    std::uint32_t max_degree, std::uint32_t degeneracy, double epsilon);

/// The certificate sum_i 2A tau_{i-1} / (tau_i - 2A - 1) + tau_last for a
/// given schedule (tau_last = Delta + 1 for an empty schedule).
[[nodiscard]] double arboricity_ratio_bound(
    std::uint32_t max_degree, std::uint32_t degeneracy,
    std::span<const std::uint32_t> schedule);

[[nodiscard]] arboricity_result arboricity_mds(const graph::graph& g,
                                               const arboricity_params& params);

}  // namespace domset::core
