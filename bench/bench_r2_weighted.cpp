// Experiment R2 -- the remark after Theorem 4: the weighted variant of
// Algorithm 2 approximates the weighted fractional dominating set within
// k * (Delta+1)^{1/k} * [c_max*(Delta+1)]^{1/k}.
#include <iostream>

#include "bench_common.hpp"
#include "baselines/greedy.hpp"
#include "common/table.hpp"
#include "core/alg2.hpp"
#include "graph/generators.hpp"
#include "lp/lp_mds.hpp"
#include "verify/verify.hpp"

int main() {
  using namespace domset;
  std::cout << "R2: weighted fractional dominating set variant\n";

  common::text_table table({"instance", "c_max", "wLP_OPT", "k", "c^T x",
                            "ratio", "bound", "feasible", "w-greedy"});
  common::rng cost_gen(8899);
  for (const auto& instance : bench::standard_instances()) {
    for (const double c_max : {2.0, 8.0}) {
      const auto costs =
          graph::uniform_costs(instance.g.node_count(), c_max, cost_gen);
      const auto wlp = lp::solve_weighted_lp_mds(instance.g, costs);
      if (!wlp.has_value()) return 1;
      const auto wgreedy = baselines::greedy_weighted_mds(instance.g, costs);
      for (std::uint32_t k : {2U, 4U}) {
        const auto res = core::approximate_lp_known_delta(
            instance.g, {.k = k}, {.cost = costs});
        const double ratio =
            wlp->value > 0 ? res.objective / wlp->value : 1.0;
        table.add_row(
            {instance.name, common::fmt_double(res.c_max, 1),
             common::fmt_double(wlp->value, 2), common::fmt_int(k),
             common::fmt_double(res.objective, 2),
             common::fmt_double(ratio, 3),
             common::fmt_double(res.ratio_bound, 1),
             lp::is_primal_feasible(instance.g, res.x) ? "yes" : "NO",
             common::fmt_double(
                 verify::set_cost(wgreedy.in_set, costs), 1)});
      }
    }
  }
  bench::print_table(
      "Remark after Theorem 4: weighted variant (costs uniform in [1, c_max])",
      "Shape to verify: ratio <= bound; the bound degrades by the extra "
      "[c_max(D+1)]^{1/k} factor; weighted greedy is the centralized "
      "quality reference.",
      table);
  return 0;
}
