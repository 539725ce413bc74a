// Wu & Li's marking heuristic (DialM 1999) with Dai-Wu pruning rules 1-2
// -- the constant-round (connected) dominating set algorithm the paper
// cites as [22]: fast, but with no non-trivial approximation guarantee
// (its output can be Theta(n) on graphs with constant-size optima).
//
// Rounds:
//   0: every node announces its neighbor list (one message per entry --
//      the honest CONGEST cost of 2-hop topology collection);
//   1: marking (v is marked iff it has two non-adjacent neighbors);
//      marked bits are exchanged;
//   2: pruning: rule 1 (unmark v if a marked higher-id u has
//      N[v] subseteq N[u]) and rule 2 (unmark v if two adjacent marked
//      neighbors u,w with higher ids have N(v) subseteq N(u) cup N(w)),
//      evaluated against the initial marking; final dominator bits are
//      exchanged;
//   3: orphan detection: nodes with no dominator in N[v] announce
//      themselves (this fix-up covers the cases the marking misses, e.g.
//      complete graphs, and makes the output dominating on every graph);
//   4: each orphan with the highest id among the orphans of its closed
//      neighborhood joins.
#pragma once

#include <cstdint>
#include <vector>

#include "exec/context.hpp"
#include "graph/graph.hpp"
#include "sim/metrics.hpp"

namespace domset::baselines {

struct wu_li_params {
  /// Execution knobs (threads, pool; the algorithm itself is
  /// deterministic, so the seed only matters under message loss) -- see
  /// exec::context.
  exec::context exec;
};

struct wu_li_result {
  std::vector<std::uint8_t> in_set;
  std::size_t size = 0;
  /// Marked nodes before pruning (diagnostic).
  std::size_t marked_initially = 0;
  /// Nodes added by the orphan fix-up.
  std::size_t orphan_joins = 0;
  sim::run_metrics metrics;
};

[[nodiscard]] wu_li_result wu_li_mds(const graph::graph& g,
                                     const wu_li_params& params = {});

}  // namespace domset::baselines
