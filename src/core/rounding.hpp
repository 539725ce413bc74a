/// \file rounding.hpp
/// \brief Algorithm 1 of the paper (Theorem 3): distributed randomized
/// rounding of a feasible fractional dominating set into an integral one.
//
//   1: calculate delta^(2)_i                (2 communication rounds)
//   2: p_i := min{1, x_i * ln(delta^(2)_i + 1)}
//   3: x_DS,i := 1 with probability p_i else 0
//   4: send x_DS,i to all neighbors
//   5: if x_DS,j = 0 for all j in N_i then x_DS,i := 1
//
// Theorem 3: if the input is an alpha-approximation of LP_MDS, the output
// dominating set has expected size (1 + alpha*ln(Delta+1)) * |DS_OPT|.
//
// The Remark after Theorem 3 is also implemented: scaling by
// ln(d) - ln(ln(d)) instead of ln(d) yields expected size
// 2*alpha*(ln(Delta+1) - ln(ln(Delta+1))) * |DS_OPT|.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "exec/context.hpp"
#include "graph/graph.hpp"
#include "sim/metrics.hpp"

namespace domset::core {

enum class rounding_variant {
  /// p_i = min{1, x_i * ln(delta^(2)_i + 1)} -- the paper's Algorithm 1.
  plain,
  /// p_i = min{1, x_i * (ln(d) - ln(ln(d)))}, d = delta^(2)_i + 1 -- the
  /// Remark after Theorem 3.  For d = 1 the factor is defined as 0 (an
  /// isolated node relies on the line-6 fix-up, which always selects it).
  log_log,
};

struct rounding_params {
  rounding_variant variant = rounding_variant::plain;
  /// If true, members broadcast their final membership in one extra round
  /// so every node also knows its dominator (used by the clustering
  /// example).  The paper's algorithm does not need it.
  bool announce_final = false;
  /// Execution knobs (seed for the rounding coins, threads, pool, message
  /// loss) -- see exec::context.
  exec::context exec;
};

struct rounding_result {
  /// Indicator vector of the dominating set.
  std::vector<std::uint8_t> in_set;
  std::size_t size = 0;
  /// Nodes selected by the probabilistic step (line 3).
  std::size_t selected_randomly = 0;
  /// Nodes added by the deterministic fix-up (line 6).
  std::size_t selected_by_fixup = 0;
  sim::run_metrics metrics;
  /// For each node, a dominator in its closed neighborhood (self if member;
  /// only populated when announce_final is set, otherwise invalid_node).
  std::vector<graph::node_id> dominator;
};

/// Rounds the fractional solution `x` (one value per node, assumed primal
/// feasible) to a dominating set by running Algorithm 1 on the simulator.
/// \param g the network graph.
/// \param x fractional LP solution, size g.node_count().
/// \param params seed, variant and execution knobs.
/// \return the dominating set plus selection diagnostics and run metrics.
[[nodiscard]] rounding_result round_to_dominating_set(
    const graph::graph& g, std::span<const double> x,
    const rounding_params& params);

/// The Theorem 3 guarantee (1 + alpha*ln(Delta+1)).
[[nodiscard]] double rounding_ratio_bound(std::uint32_t delta, double alpha);

/// The Remark guarantee 2*alpha*(ln(Delta+1) - ln(ln(Delta+1))).
[[nodiscard]] double rounding_ratio_bound_log_log(std::uint32_t delta,
                                                  double alpha);

}  // namespace domset::core
