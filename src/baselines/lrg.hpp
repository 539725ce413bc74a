// Distributed Local Randomized Greedy (LRG) of Jia, Rajaraman and Suel,
// "An Efficient Distributed Algorithm for Constructing Small Dominating
// Sets" (PODC 2001) -- the prior state of the art the paper compares
// against: O(log Delta) expected approximation in O(log n log Delta)
// rounds with high probability.
//
// Faithful-in-spirit reconstruction (documented deviations in DESIGN.md):
// the algorithm proceeds in phases of six synchronous rounds:
//   1. span:      every node announces its span d(v) = |white nodes in N[v]|
//   2. max1:      1-hop maximum of spans
//   3. max2:      2-hop maximum; v is a *candidate* iff d(v) >= 1 and
//                 2*d(v) >= max span within distance 2 (JRS's "within a
//                 factor two of the local maximum" selection); candidates
//                 announce themselves
//   4. support:   every white node u announces s(u) = |candidates in N[u]|
//   5. join:      each candidate joins the dominating set with probability
//                 min(1, 1/median{ s(u) : white u in N[v] }) (JRS's
//                 median-based symmetry breaking); joiners announce
//   6. color:     nodes covered by a joiner turn gray and re-announce
//                 colors for the next phase's span computation.
// A node terminates once no white node remains within distance two of it.
#pragma once

#include <cstdint>
#include <vector>

#include "exec/context.hpp"
#include "graph/graph.hpp"
#include "sim/metrics.hpp"

namespace domset::baselines {

struct lrg_params {
  std::size_t max_rounds = 200'000;
  /// Execution knobs (seed for the join coins, threads, pool, message
  /// loss) -- see exec::context.
  exec::context exec;
};

struct lrg_result {
  std::vector<std::uint8_t> in_set;
  std::size_t size = 0;
  /// Completed 6-round phases.
  std::size_t phases = 0;
  sim::run_metrics metrics;
};

[[nodiscard]] lrg_result lrg_mds(const graph::graph& g,
                                 const lrg_params& params);

}  // namespace domset::baselines
