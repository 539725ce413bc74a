// Battery-aware cluster heads: the weighted dominating set variant.
//
// In a sensor network, serving as cluster head drains the battery, so
// nodes with low charge should be picked reluctantly.  We model cost =
// c_max / battery_level and run the weighted Algorithm 2 variant (Remark
// after Theorem 4) followed by randomized rounding, then compare the total
// cost against the unweighted pipeline and the weighted greedy.
//
//   ./weighted_cover [--n 300] [--radius 0.1] [--cmax 6] [--k 3] [--seed 5]
#include <cstdio>
#include <memory>
#include <vector>

#include "baselines/greedy.hpp"
#include "common/cli.hpp"
#include "common/rng.hpp"
#include "core/pipeline.hpp"
#include "core/rounding.hpp"
#include "core/alg2.hpp"
#include "exec/context.hpp"
#include "graph/generators.hpp"
#include "verify/verify.hpp"

int main(int argc, char** argv) {
  using namespace domset;

  common::cli_parser cli("Battery-aware (weighted) cluster-head election");
  cli.add_flag("n", "300", "number of sensor nodes");
  cli.add_flag("radius", "0.1", "radio range");
  cli.add_flag("cmax", "6", "maximum cost ratio (full vs depleted battery)");
  cli.add_flag("k", "3", "trade-off parameter");
  cli.add_exec_flags(5);
  if (!cli.parse(argc, argv)) return 1;
  // One worker pool serves all three engine-driven stages below.
  exec::context exec = cli.exec();
  exec.ensure_shared_pool();
  common::rng gen(exec.seed);
  const auto geo = graph::random_geometric(
      static_cast<std::size_t>(cli.get_int("n")), cli.get_double("radius"),
      gen);
  const graph::graph& g = geo.g;

  // Node costs: inverse battery level, in [1, c_max].
  const auto costs =
      graph::uniform_costs(g.node_count(), cli.get_double("cmax"), gen);

  std::printf("network: %s, costs in [1, %.1f]\n", g.summary().c_str(),
              cli.get_double("cmax"));

  // Weighted fractional solution + rounding.
  core::lp_approx_params lp_params;
  lp_params.k = static_cast<std::uint32_t>(cli.get_int("k"));
  lp_params.exec = exec;
  const auto frac =
      core::approximate_lp_known_delta(g, lp_params, {.cost = costs});
  core::rounding_params r_params;
  r_params.exec = exec;
  const auto weighted_ds = core::round_to_dominating_set(g, frac.x, r_params);
  if (!verify::is_dominating_set(g, weighted_ds.in_set)) return 1;

  // Unweighted pipeline for comparison (ignores batteries).
  core::pipeline_params u_params;
  u_params.k = lp_params.k;
  u_params.exec = exec;
  const auto unweighted = core::compute_dominating_set(g, u_params);

  // Centralized weighted greedy as the quality reference.
  const auto wgreedy = baselines::greedy_weighted_mds(g, costs);

  const double w_cost = verify::set_cost(weighted_ds.in_set, costs);
  const double u_cost = verify::set_cost(unweighted.in_set, costs);
  const double g_cost = verify::set_cost(wgreedy.in_set, costs);

  std::printf("\n%-28s %8s %12s\n", "algorithm", "heads", "battery cost");
  std::printf("%-28s %8zu %12.1f\n", "weighted KW (distributed)",
              weighted_ds.size, w_cost);
  std::printf("%-28s %8zu %12.1f\n", "unweighted KW (distributed)",
              unweighted.size, u_cost);
  std::printf("%-28s %8zu %12.1f\n", "weighted greedy (central)",
              wgreedy.size, g_cost);
  std::printf("\nweighted LP objective %.1f; remark bound %.1f x wLP_OPT\n",
              frac.objective, frac.ratio_bound);
  std::printf("battery saving vs unweighted: %.1f%%\n",
              100.0 * (u_cost - w_cost) / u_cost);
  return 0;
}
