// Ablation A1 -- schedule freshness in Algorithm 2.
//
// The paper's literal loop body tests activity (lines 6-8) *before* the
// color exchange (lines 9-10), so the dynamic degree lags one iteration.
// Reordering the exchange first makes the degree fresh at identical round
// cost.  This bench measures, for both schedules:
//   * the objective (fresh prunes spurious late activations),
//   * the worst observed Lemma 4 slack  max_i z_i / paper-bound,
// demonstrating that the literal schedule can exceed the paper constant
// while the reordered one never does.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "common/table.hpp"
#include "core/alg2.hpp"

namespace {

using namespace domset;

/// Runs one schedule and returns {objective, worst z/bound ratio}.
struct slack_result {
  double objective = 0.0;
  double worst_slack = 0.0;
};

slack_result measure(const graph::graph& g, std::uint32_t k,
                     const core::alg2_variant& variant) {
  const std::size_t n = g.node_count();
  const double dp1 = static_cast<double>(g.max_degree()) + 1.0;
  std::vector<double> z(n, 0.0);
  std::vector<double> prev_x(n, 0.0);
  slack_result out;
  core::alg2_observer obs = [&](const core::alg2_iteration_view& view) {
    if (view.m == k - 1) std::fill(z.begin(), z.end(), 0.0);
    for (graph::node_id j = 0; j < n; ++j) {
      const double inc = view.x[j] - prev_x[j];
      if (inc <= 1e-15) continue;
      std::vector<graph::node_id> whites;
      g.for_closed_neighborhood(j, [&](graph::node_id u) {
        if (!view.gray[u]) whites.push_back(u);
      });
      for (const graph::node_id u : whites)
        z[u] += inc / static_cast<double>(whites.size());
    }
    prev_x = view.x;
    if (view.m == 0) {
      const double bound = std::pow(
          dp1,
          -(static_cast<double>(view.ell) - 1.0) / static_cast<double>(k));
      for (graph::node_id v = 0; v < n; ++v)
        out.worst_slack = std::max(out.worst_slack, z[v] / bound);
    }
  };
  const auto res =
      core::approximate_lp_known_delta(g, {.k = k}, variant, &obs);
  out.objective = res.objective;
  return out;
}

}  // namespace

int main() {
  std::cout << "A1: literal vs reordered (fresh-degree) Algorithm 2\n";

  common::text_table table({"instance", "k", "literal sum(x)", "fresh sum(x)",
                            "literal max z/bound", "fresh max z/bound",
                            "rounds (both)"});
  for (const auto& instance : bench::standard_instances()) {
    for (std::uint32_t k : {2U, 3U, 4U}) {
      const auto literal = measure(instance.g, k, {});
      const auto fresh = measure(instance.g, k, {.fresh_degrees = true});
      table.add_row({instance.name, common::fmt_int(k),
                     common::fmt_double(literal.objective, 2),
                     common::fmt_double(fresh.objective, 2),
                     common::fmt_double(literal.worst_slack, 3),
                     common::fmt_double(fresh.worst_slack, 3),
                     common::fmt_int(static_cast<long long>(
                         core::alg2_round_count(k)))});
    }
  }
  bench::print_table(
      "Ablation: dynamic-degree freshness in Algorithm 2's schedule",
      "Shape to verify: fresh max z/bound <= 1 always (Lemma 4 exact); the "
      "literal schedule may exceed 1 (but <= 2 here); objectives are "
      "comparable and round counts identical.",
      table);
  return 0;
}
