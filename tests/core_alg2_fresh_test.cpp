#include "core/alg2.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.hpp"
#include "common/wide_uint.hpp"
#include "graph/generators.hpp"
#include "lp/lp_mds.hpp"

namespace domset::core {
namespace {

constexpr alg2_variant kFresh{.fresh_degrees = true};

std::vector<graph::graph> test_graphs() {
  common::rng gen(1301);
  std::vector<graph::graph> graphs;
  graphs.push_back(graph::star_graph(20));
  graphs.push_back(graph::cycle_graph(12));
  graphs.push_back(graph::grid_graph(4, 4));
  graphs.push_back(graph::complete_graph(8));
  graphs.push_back(graph::gnp_random(25, 0.2, gen));
  graphs.push_back(graph::barabasi_albert(25, 2, gen));
  return graphs;
}

TEST(Alg2Fresh, FeasibleWithSameRoundCount) {
  for (const auto& g : test_graphs()) {
    for (std::uint32_t k : {1U, 2U, 3U, 4U}) {
      const auto res = approximate_lp_known_delta(g, {.k = k}, kFresh);
      EXPECT_TRUE(lp::is_primal_feasible(g, res.x))
          << g.summary() << " k=" << k;
      // The reordering is free: still exactly 2k^2 rounds.
      EXPECT_EQ(res.metrics.rounds, alg2_round_count(k));
    }
  }
}

TEST(Alg2Fresh, ObjectiveWithinTheorem4Bound) {
  for (const auto& g : test_graphs()) {
    const auto lp_opt = lp::solve_lp_mds(g);
    ASSERT_TRUE(lp_opt.has_value());
    for (std::uint32_t k : {2U, 3U, 4U}) {
      const auto res = approximate_lp_known_delta(g, {.k = k}, kFresh);
      EXPECT_LE(res.objective, res.ratio_bound * lp_opt->value + 1e-6)
          << g.summary() << " k=" << k;
    }
  }
}

TEST(Alg2Fresh, ActivityUsesTrueDynamicDegree) {
  // The view's dyn_degree must equal the true white count of the closed
  // neighborhood -- the whole point of the reordering.
  for (const auto& g : test_graphs()) {
    const std::uint32_t k = 3;
    alg2_observer obs = [&](const alg2_iteration_view& view) {
      for (graph::node_id v = 0; v < g.node_count(); ++v) {
        std::uint32_t whites = 0;
        g.for_closed_neighborhood(v, [&](graph::node_id u) {
          if (!view.gray[u]) ++whites;
        });
        EXPECT_EQ(view.dyn_degree[v], whites)
            << g.summary() << " node " << v << " ell=" << view.ell
            << " m=" << view.m;
      }
    };
    (void)approximate_lp_known_delta(g, {.k = k}, kFresh, &obs);
  }
}

TEST(Alg2Fresh, Lemma4ZBoundHoldsExactlyNoSlack) {
  // With fresh degrees the paper's Lemma 4 arithmetic applies verbatim:
  // z_i <= 1/(Delta+1)^{(ell-1)/k} at the end of each outer iteration.
  for (const auto& g : test_graphs()) {
    const std::size_t n = g.node_count();
    const double dp1 = static_cast<double>(g.max_degree()) + 1.0;
    for (std::uint32_t k : {2U, 3U}) {
      std::vector<double> z(n, 0.0);
      std::vector<double> prev_x(n, 0.0);
      alg2_observer obs = [&](const alg2_iteration_view& view) {
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
          const double bound =
              std::pow(dp1, -(static_cast<double>(view.ell) - 1.0) /
                                static_cast<double>(k));
          for (graph::node_id v = 0; v < n; ++v)
            EXPECT_LE(z[v], bound + 1e-9)
                << g.summary() << " k=" << k << " ell=" << view.ell
                << " node=" << v;
        }
      };
      (void)approximate_lp_known_delta(g, {.k = k}, kFresh, &obs);
    }
  }
}

TEST(Alg2Fresh, Lemma2And3StillHold) {
  for (const auto& g : test_graphs()) {
    const std::uint64_t dp1 = g.max_degree() + 1;
    const std::uint32_t k = 3;
    alg2_observer obs = [&](const alg2_iteration_view& view) {
      for (graph::node_id v = 0; v < g.node_count(); ++v) {
        if (view.m == k - 1) {
          EXPECT_TRUE(
              common::compare_pow(view.dyn_degree[v], k, dp1, view.ell + 1) <=
              0)
              << g.summary();
        }
        if (!view.gray[v]) {
          std::uint32_t actives = 0;
          g.for_closed_neighborhood(v, [&](graph::node_id u) {
            if (view.active[u]) ++actives;
          });
          EXPECT_TRUE(common::compare_pow(actives, k, dp1, view.m + 1) <= 0)
              << g.summary();
        }
      }
    };
    (void)approximate_lp_known_delta(g, {.k = k}, kFresh, &obs);
  }
}

TEST(Alg2Fresh, ComparableObjectiveToLiteralSchedule) {
  // Freshness changes decisions, but both schedules satisfy the same
  // theorem; objectives should be close on typical inputs.
  common::rng gen(1302);
  const graph::graph g = graph::gnp_random(40, 0.15, gen);
  for (std::uint32_t k : {2U, 3U, 4U}) {
    const auto stale = approximate_lp_known_delta(g, {.k = k});
    const auto fresh = approximate_lp_known_delta(g, {.k = k}, kFresh);
    EXPECT_TRUE(lp::is_primal_feasible(g, fresh.x));
    // Fresh decisions can only deactivate nodes the stale schedule kept
    // active; the fresh objective should not be substantially larger.
    EXPECT_LE(fresh.objective, stale.objective * 1.5 + 1.0) << "k=" << k;
  }
}

TEST(Alg2Fresh, EmptyAndTrivialInputs) {
  const auto empty =
      approximate_lp_known_delta(graph::graph{}, {.k = 2}, kFresh);
  EXPECT_TRUE(empty.x.empty());
  const auto single =
      approximate_lp_known_delta(graph::empty_graph(1), {.k = 2}, kFresh);
  ASSERT_EQ(single.x.size(), 1U);
  EXPECT_DOUBLE_EQ(single.x[0], 1.0);
}

}  // namespace
}  // namespace domset::core
