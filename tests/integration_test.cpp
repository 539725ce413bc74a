// Cross-module integration: chains that exercise the whole stack the way
// the benches and examples do, with every intermediate artifact verified.
#include <gtest/gtest.h>

#include "baselines/greedy.hpp"
#include "baselines/lrg.hpp"
#include "baselines/luby_mis.hpp"
#include "baselines/simple.hpp"
#include "baselines/wu_li.hpp"
#include "core/alg2.hpp"
#include "common/rng.hpp"
#include "core/cds.hpp"
#include "core/pipeline.hpp"
#include "exact/exact_mds.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/properties.hpp"
#include "lp/lp_mds.hpp"
#include "verify/verify.hpp"

#include <sstream>

namespace domset {
namespace {

TEST(Integration, FullStackOnUnitDisk) {
  // Generate -> largest component -> serialize/parse round trip ->
  // LP solve -> distributed LP approx -> rounding -> CDS -> verify all.
  common::rng gen(1601);
  const auto geo = graph::random_geometric(120, 0.16, gen);
  const auto comp = graph::largest_component(geo.g);
  const graph::graph& g = comp.g;
  ASSERT_TRUE(graph::is_connected(g));

  std::stringstream buffer;
  graph::write_edge_list(g, buffer);
  const graph::graph reparsed = graph::read_edge_list(buffer);
  ASSERT_EQ(reparsed.node_count(), g.node_count());
  ASSERT_EQ(reparsed.edge_count(), g.edge_count());

  const auto lp_opt = lp::solve_lp_mds(reparsed);
  ASSERT_TRUE(lp_opt.has_value());
  EXPECT_GE(lp_opt->value, graph::dual_lower_bound(reparsed) - 1e-9);

  core::pipeline_params params;
  params.k = 3;
  params.exec.seed = 9;
  const auto ds = core::compute_dominating_set(reparsed, params);
  EXPECT_TRUE(verify::is_dominating_set(reparsed, ds.in_set));
  EXPECT_GE(ds.fractional.objective, lp_opt->value - 1e-9);

  const auto cds = core::connect_dominating_set(reparsed, ds.in_set);
  EXPECT_TRUE(core::is_connected_within_components(reparsed, cds.in_set));
  EXPECT_TRUE(verify::is_dominating_set(reparsed, cds.in_set));
  EXPECT_LE(cds.size, 3 * ds.size);
}

TEST(Integration, EveryAlgorithmDominatesTheSameGraph) {
  common::rng gen(1602);
  const graph::graph g = graph::gnp_random(70, 0.08, gen);
  const auto opt = exact::solve_mds(g);
  ASSERT_TRUE(opt.has_value());
  const double lb = graph::dual_lower_bound(g);

  const auto check = [&](const std::vector<std::uint8_t>& in_set,
                         const char* name) {
    EXPECT_TRUE(verify::is_dominating_set(g, in_set)) << name;
    EXPECT_GE(static_cast<double>(verify::set_size(in_set)), lb - 1e-9)
        << name;
    EXPECT_GE(verify::set_size(in_set), opt->size) << name;
  };

  core::pipeline_params kw;
  kw.k = 2;
  kw.exec.seed = 4;
  check(core::compute_dominating_set(g, kw).in_set, "kw");
  check(baselines::greedy_mds(g).in_set, "greedy");
  baselines::lrg_params lrg;
  lrg.exec.seed = 4;
  check(baselines::lrg_mds(g, lrg).in_set, "lrg");
  check(baselines::wu_li_mds(g).in_set, "wu_li");
  baselines::luby_params luby;
  luby.exec.seed = 4;
  check(baselines::luby_mis(g, luby).in_set, "luby");
  check(baselines::trivial_all_nodes(g), "trivial");
  check(baselines::centralized_lp_rounding(g, 4).in_set, "central_lp");
}

TEST(Integration, FractionalObjectivesOrderConsistently) {
  // LP_OPT <= alg2, alg2_fresh, alg3 objectives <= their bounds * LP_OPT.
  common::rng gen(1603);
  const graph::graph g = graph::gnp_random(40, 0.15, gen);
  const auto lp_opt = lp::solve_lp_mds(g);
  ASSERT_TRUE(lp_opt.has_value());
  for (std::uint32_t k : {2U, 3U}) {
    const auto a2 = core::approximate_lp_known_delta(g, {.k = k});
    const auto a2f = core::approximate_lp_known_delta(
        g, {.k = k}, {.fresh_degrees = true});
    const auto a3 = core::approximate_lp(g, {.k = k});
    for (const auto* res : {&a2, &a2f, &a3}) {
      EXPECT_GE(res->objective, lp_opt->value - 1e-9);
      EXPECT_LE(res->objective, res->ratio_bound * lp_opt->value + 1e-6);
    }
  }
}

TEST(Integration, WeightedPipelineEndToEnd) {
  common::rng gen(1604);
  const graph::graph g = graph::random_geometric(60, 0.25, gen).g;
  const auto costs = graph::uniform_costs(g.node_count(), 5.0, gen);
  const auto frac =
      core::approximate_lp_known_delta(g, {.k = 3}, {.cost = costs});
  ASSERT_TRUE(lp::is_primal_feasible(g, frac.x));
  core::rounding_params r;
  r.exec.seed = 2;
  const auto ds = core::round_to_dominating_set(g, frac.x, r);
  EXPECT_TRUE(verify::is_dominating_set(g, ds.in_set));
  // Weighted greedy should not be beaten by orders of magnitude...
  const auto wg = baselines::greedy_weighted_mds(g, costs);
  EXPECT_LE(verify::set_cost(wg.in_set, costs),
            verify::set_cost(ds.in_set, costs) + 1e-9);
}

TEST(Integration, MetricsAreInternallyConsistent) {
  common::rng gen(1605);
  const graph::graph g = graph::gnp_random(50, 0.1, gen);
  const auto res = core::approximate_lp(g, {.k = 3});
  const auto& m = res.metrics;
  EXPECT_GT(m.messages_sent, 0U);
  EXPECT_GE(m.bits_sent, m.messages_sent);  // every message >= 1 bit
  EXPECT_LE(m.max_messages_per_node, m.messages_sent);
  EXPECT_EQ(m.messages_dropped, 0U);
  EXPECT_FALSE(m.congest_violation);
  EXPECT_FALSE(m.hit_round_limit);
}

TEST(Integration, LargeGraphSmokeTest) {
  // The whole pipeline at n = 5000 runs in well under a second per stage
  // and keeps its guarantees checkable via the dual bound.
  common::rng gen(1606);
  const graph::graph g = graph::barabasi_albert(5000, 3, gen);
  core::pipeline_params params;
  params.k = 2;
  const auto res = core::compute_dominating_set(g, params);
  EXPECT_TRUE(verify::is_dominating_set(g, res.in_set));
  EXPECT_EQ(res.total_rounds, core::alg3_round_count(2) + 4);
  EXPECT_GE(static_cast<double>(res.size),
            graph::dual_lower_bound(g) - 1e-9);
}

}  // namespace
}  // namespace domset
