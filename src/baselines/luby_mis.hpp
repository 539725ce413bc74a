// Distributed maximal independent set (Luby 1986) as a dominating set
// baseline.
//
// A maximal independent set is always a dominating set (maximality: every
// node outside has a neighbor inside), and Luby's algorithm finds one in
// O(log n) rounds with high probability.  It is the classic "symmetry
// breaking first" alternative to the paper's "LP first, symmetry breaking
// last" approach (see the paper's conclusions) -- but its output can be
// Theta(n) times larger than optimal (e.g. the independent leaves of a
// star), which is exactly the non-guarantee the paper contrasts against.
//
// Round structure per phase (3 rounds):
//   1. every undecided node draws a random priority and announces it;
//   2. local minima join the MIS and announce;
//   3. neighbors of new MIS members retire and announce their retirement
//      (so remaining nodes can maintain their undecided-neighbor lists).
#pragma once

#include <cstdint>
#include <vector>

#include "exec/context.hpp"
#include "graph/graph.hpp"
#include "sim/metrics.hpp"

namespace domset::baselines {

struct luby_params {
  std::size_t max_rounds = 100'000;
  /// Execution knobs (seed for the priority draws, threads, pool) -- see
  /// exec::context.
  exec::context exec;
};

struct luby_result {
  std::vector<std::uint8_t> in_set;
  std::size_t size = 0;
  /// Completed 3-round phases.
  std::size_t phases = 0;
  sim::run_metrics metrics;
};

/// Runs Luby's MIS algorithm; the result is both independent and
/// dominating.
[[nodiscard]] luby_result luby_mis(const graph::graph& g,
                                   const luby_params& params);

}  // namespace domset::baselines
