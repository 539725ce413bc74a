// Structural graph properties used by the algorithms, the analysis bounds
// and the test oracles.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace domset::graph {

/// delta^(1)_i: for each node, the maximum degree over its closed
/// neighborhood (Sect. 3 of the paper; feeds the Lemma 1 dual bound).
[[nodiscard]] std::vector<std::uint32_t> max_degree_1hop(const graph& g);

/// delta^(2)_i: maximum degree over all nodes within distance <= 2
/// (computed as the 1-hop maximum of delta^(1); used by Algorithm 1).
[[nodiscard]] std::vector<std::uint32_t> max_degree_2hop(const graph& g);

/// Lemma 1 lower bound: sum_i 1/(delta^(1)_i + 1) <= |DS| for every
/// dominating set DS.  This is a certified bound (the y-assignment is
/// dual-feasible), so tests may assert |DS| >= this value.
[[nodiscard]] double dual_lower_bound(const graph& g);

/// Connected components: returns (component id per node, component count).
struct components_result {
  std::vector<std::uint32_t> component;
  std::size_t count = 0;
};
[[nodiscard]] components_result connected_components(const graph& g);

[[nodiscard]] bool is_connected(const graph& g);

/// BFS hop distances from `source`; unreachable nodes get
/// std::numeric_limits<uint32_t>::max().
[[nodiscard]] std::vector<std::uint32_t> bfs_distances(const graph& g,
                                                       node_id source);

/// Exact diameter via n BFS runs; returns 0 for n <= 1 and
/// uint32_t max if the graph is disconnected.
[[nodiscard]] std::uint32_t diameter(const graph& g);

/// Average degree 2m/n (0 for the empty graph).
[[nodiscard]] double average_degree(const graph& g);

/// Summary degree statistics of a graph, computed once and shared by
/// everything that reasons about degree skew -- the solver probe
/// (graph/probe.hpp) and the partitioner diagnostics -- instead of each
/// caller recomputing max/avg degree ad hoc.
struct degree_stats_result {
  /// Maximum degree Delta (0 for the empty graph).
  std::uint32_t max_degree = 0;
  /// Average degree 2m/n (0 for the empty graph).
  double avg_degree = 0.0;
  /// Skew ratio max_degree / avg_degree; defined as 1 when the average is
  /// 0 (empty or edgeless graphs are "perfectly balanced").  A star on n
  /// nodes scores ~n/2; regular graphs score exactly 1.
  double skew = 1.0;
};
[[nodiscard]] degree_stats_result degree_stats(const graph& g);

/// Degree histogram: hist[d] = number of nodes of degree d.
[[nodiscard]] std::vector<std::size_t> degree_histogram(const graph& g);

/// The subgraph induced by `keep` (nodes with keep[v] != 0), plus the
/// mapping from new ids to the original ids.
struct induced_subgraph_result {
  graph g;
  std::vector<node_id> original_id;  // new id -> old id
};
[[nodiscard]] induced_subgraph_result induced_subgraph(
    const graph& g, std::span<const std::uint8_t> keep);

/// The induced subgraph of the largest connected component (ties broken by
/// the smallest contained node id).
[[nodiscard]] induced_subgraph_result largest_component(const graph& g);

}  // namespace domset::graph
