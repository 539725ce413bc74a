#include "core/alg2.hpp"

#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "lp/lp_mds.hpp"

namespace domset::core {
namespace {

/// The weighted form of Algorithm 2 (Remark after Theorem 4).
lp_approx_result weighted_lp(const graph::graph& g,
                             std::span<const double> cost, std::uint32_t k) {
  return approximate_lp_known_delta(g, {.k = k}, {.cost = cost});
}

TEST(WeightedLp, UnitCostsMatchUnweightedBound) {
  common::rng gen(501);
  const graph::graph g = graph::gnp_random(25, 0.2, gen);
  const std::vector<double> ones(g.node_count(), 1.0);
  const auto res = weighted_lp(g, ones, 3);
  EXPECT_TRUE(lp::is_primal_feasible(g, res.x));
  // c_max = 1: bound reduces to k*(Delta+1)^{2/k}, the Theorem 4 bound.
  EXPECT_NEAR(res.ratio_bound,
              weighted_ratio_bound(g.max_degree(), 3, 1.0), 1e-12);
}

TEST(WeightedLp, FeasibleAcrossFamiliesAndCosts) {
  common::rng gen(502);
  const graph::graph graphs[] = {
      graph::star_graph(15), graph::cycle_graph(12),
      graph::grid_graph(4, 4), graph::gnp_random(30, 0.15, gen)};
  for (const auto& g : graphs) {
    const auto costs = graph::uniform_costs(g.node_count(), 5.0, gen);
    for (std::uint32_t k : {1U, 2U, 3U}) {
      const auto res = weighted_lp(g, costs, k);
      EXPECT_TRUE(lp::is_primal_feasible(g, res.x))
          << g.summary() << " k=" << k;
    }
  }
}

TEST(WeightedLp, ObjectiveWithinRemarkBound) {
  common::rng gen(503);
  for (int trial = 0; trial < 5; ++trial) {
    const graph::graph g = graph::gnp_random(22, 0.2, gen);
    const auto costs = graph::uniform_costs(g.node_count(), 4.0, gen);
    const auto lp_opt = lp::solve_weighted_lp_mds(g, costs);
    ASSERT_TRUE(lp_opt.has_value());
    for (std::uint32_t k : {2U, 3U}) {
      const auto res = weighted_lp(g, costs, k);
      EXPECT_LE(res.objective, res.ratio_bound * lp_opt->value + 1e-6)
          << g.summary() << " k=" << k << " trial=" << trial;
    }
  }
}

TEST(WeightedLp, RoundScheduleMatchesAlg2) {
  common::rng gen(504);
  const graph::graph g = graph::grid_graph(4, 4);
  const auto costs = graph::uniform_costs(g.node_count(), 3.0, gen);
  const auto res = weighted_lp(g, costs, 3);
  EXPECT_EQ(res.metrics.rounds, 18U);  // 2k^2
}

TEST(WeightedLp, ExpensiveHubGetsLessWeightThanCheapHub) {
  // Star with an expensive hub vs unit costs: the weighted objective of
  // the expensive-hub run should not charge the hub at full price when the
  // leaves can cover more cheaply per unit.
  const graph::graph g = graph::star_graph(20);
  std::vector<double> cheap(g.node_count(), 1.0);
  std::vector<double> pricey(g.node_count(), 1.0);
  pricey[0] = 10.0;
  const auto res_cheap = weighted_lp(g, cheap, 4);
  const auto res_pricey = weighted_lp(g, pricey, 4);
  EXPECT_TRUE(lp::is_primal_feasible(g, res_cheap.x));
  EXPECT_TRUE(lp::is_primal_feasible(g, res_pricey.x));
  // The hub's x-value should not increase when it becomes expensive.
  EXPECT_LE(res_pricey.x[0], res_cheap.x[0] + 1e-12);
}

TEST(WeightedLp, CmaxIsComputedFromInput) {
  const graph::graph g = graph::path_graph(5);
  const std::vector<double> costs{1.0, 2.0, 7.5, 1.0, 3.0};
  const auto res = weighted_lp(g, costs, 2);
  EXPECT_DOUBLE_EQ(res.c_max, 7.5);
  EXPECT_NEAR(res.ratio_bound, weighted_ratio_bound(2, 2, 7.5), 1e-12);
}

TEST(WeightedLp, InputValidation) {
  const graph::graph g = graph::path_graph(3);
  const std::vector<double> too_few{1.0, 1.0};
  const std::vector<double> below_one{1.0, 0.5, 1.0};
  const std::vector<double> ones{1.0, 1.0, 1.0};
  EXPECT_THROW((void)weighted_lp(g, too_few, 2), std::invalid_argument);
  EXPECT_THROW((void)weighted_lp(g, below_one, 2), std::invalid_argument);
  EXPECT_THROW((void)weighted_lp(g, ones, 0), std::invalid_argument);
}

TEST(WeightedLp, EmptyGraph) {
  const auto res = weighted_lp(graph::graph{}, {}, 2);
  EXPECT_TRUE(res.x.empty());
  EXPECT_EQ(res.objective, 0.0);
}

}  // namespace
}  // namespace domset::core
