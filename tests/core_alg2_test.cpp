#include "core/alg2.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <vector>

#include "common/rng.hpp"
#include "common/wide_uint.hpp"
#include "graph/generators.hpp"
#include "graph/properties.hpp"
#include "lp/lp_mds.hpp"

namespace domset::core {
namespace {

using common::compare_pow;

std::vector<graph::graph> test_graphs() {
  common::rng gen(101);
  std::vector<graph::graph> graphs;
  graphs.push_back(graph::star_graph(20));
  graphs.push_back(graph::cycle_graph(12));
  graphs.push_back(graph::path_graph(10));
  graphs.push_back(graph::grid_graph(4, 4));
  graphs.push_back(graph::complete_graph(8));
  graphs.push_back(graph::gnp_random(25, 0.2, gen));
  graphs.push_back(graph::barabasi_albert(25, 2, gen));
  graphs.push_back(graph::caterpillar(5, 3));
  return graphs;
}

/// True white count of v's closed neighborhood under `gray`.
std::uint32_t true_dyn_degree(const graph::graph& g, graph::node_id v,
                              const std::vector<std::uint8_t>& gray) {
  std::uint32_t whites = 0;
  g.for_closed_neighborhood(v, [&](graph::node_id u) {
    if (!gray[u]) ++whites;
  });
  return whites;
}

TEST(Alg2, ProducesFeasibleLpSolution) {
  for (const auto& g : test_graphs()) {
    for (std::uint32_t k : {1U, 2U, 3U, 4U}) {
      const auto res = approximate_lp_known_delta(g, {.k = k});
      EXPECT_TRUE(lp::is_primal_feasible(g, res.x))
          << g.summary() << " k=" << k;
    }
  }
}

TEST(Alg2, RoundCountIsExactly2KSquared) {
  for (const auto& g : test_graphs()) {
    for (std::uint32_t k : {1U, 2U, 3U, 5U}) {
      const auto res = approximate_lp_known_delta(g, {.k = k});
      EXPECT_EQ(res.metrics.rounds, alg2_round_count(k))
          << g.summary() << " k=" << k;
      EXPECT_FALSE(res.metrics.hit_round_limit);
    }
  }
}

TEST(Alg2, ObjectiveWithinTheorem4Bound) {
  for (const auto& g : test_graphs()) {
    const auto lp_opt = lp::solve_lp_mds(g);
    ASSERT_TRUE(lp_opt.has_value());
    for (std::uint32_t k : {1U, 2U, 3U, 4U}) {
      const auto res = approximate_lp_known_delta(g, {.k = k});
      EXPECT_LE(res.objective, res.ratio_bound * lp_opt->value + 1e-6)
          << g.summary() << " k=" << k;
      EXPECT_NEAR(res.ratio_bound, alg2_ratio_bound(g.max_degree(), k), 1e-12);
    }
  }
}

TEST(Alg2, Lemma2InvariantHoldsExactly) {
  // At the start of outer iteration ell, the *true* dynamic degree of every
  // node is at most (Delta+1)^{(ell+1)/k}:  count^k <= (Delta+1)^{ell+1}.
  for (const auto& g : test_graphs()) {
    const std::uint64_t dp1 = g.max_degree() + 1;
    for (std::uint32_t k : {2U, 3U, 4U}) {
      alg2_observer obs = [&](const alg2_iteration_view& view) {
        if (view.m != k - 1) return;  // only outer-iteration starts
        for (graph::node_id v = 0; v < g.node_count(); ++v) {
          const std::uint32_t count = true_dyn_degree(g, v, view.gray);
          EXPECT_TRUE(compare_pow(count, k, dp1, view.ell + 1) <= 0)
              << g.summary() << " k=" << k << " ell=" << view.ell
              << " node=" << v << " count=" << count;
        }
      };
      (void)approximate_lp_known_delta(g, {.k = k}, {}, &obs);
    }
  }
}

TEST(Alg2, Lemma3InvariantHoldsExactly) {
  // For every white node, the number of active nodes in its closed
  // neighborhood is at most (Delta+1)^{(m+1)/k}.
  for (const auto& g : test_graphs()) {
    const std::uint64_t dp1 = g.max_degree() + 1;
    for (std::uint32_t k : {2U, 3U, 4U}) {
      alg2_observer obs = [&](const alg2_iteration_view& view) {
        for (graph::node_id v = 0; v < g.node_count(); ++v) {
          if (view.gray[v]) continue;
          std::uint32_t actives = 0;
          g.for_closed_neighborhood(v, [&](graph::node_id u) {
            if (view.active[u]) ++actives;
          });
          EXPECT_TRUE(compare_pow(actives, k, dp1, view.m + 1) <= 0)
              << g.summary() << " k=" << k << " ell=" << view.ell
              << " m=" << view.m << " node=" << v << " a=" << actives;
        }
      };
      (void)approximate_lp_known_delta(g, {.k = k}, {}, &obs);
    }
  }
}

TEST(Alg2, Lemma4ZBoundWithScheduleSlack) {
  // z-accounting over true whites.  As documented in alg2.hpp, the 2-round
  // schedule makes the dynamic degree lag one iteration, so the paper's
  // per-outer-iteration z-bound 1/(Delta+1)^{(ell-1)/k} is asserted with a
  // 2x allowance.
  for (const auto& g : test_graphs()) {
    const std::size_t n = g.node_count();
    const double dp1 = static_cast<double>(g.max_degree()) + 1.0;
    for (std::uint32_t k : {2U, 3U}) {
      std::vector<double> z(n, 0.0);
      std::vector<double> prev_x(n, 0.0);
      alg2_observer obs = [&](const alg2_iteration_view& view) {
        if (view.m == k - 1) std::fill(z.begin(), z.end(), 0.0);  // line 3
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
        if (view.m == 0) {  // line 14: end of the outer iteration
          const double bound =
              2.0 * std::pow(dp1, -(static_cast<double>(view.ell) - 1.0) /
                                      static_cast<double>(k));
          for (graph::node_id v = 0; v < n; ++v)
            EXPECT_LE(z[v], bound + 1e-9)
                << g.summary() << " k=" << k << " ell=" << view.ell
                << " node=" << v;
        }
      };
      (void)approximate_lp_known_delta(g, {.k = k}, {}, &obs);
    }
  }
}

TEST(Alg2, SumOfZEqualsSumOfXIncreases) {
  // The z-device redistributes weight: within each outer iteration the
  // total z mass must equal the total x increase (when every increase has
  // a white recipient, which the final-iteration x:=1 raises may violate
  // for already-covered nodes -- those are tracked separately).
  common::rng gen(102);
  const graph::graph g = graph::gnp_random(30, 0.15, gen);
  const std::uint32_t k = 3;
  double total_z = 0.0;
  double total_x_increase = 0.0;
  double undistributed = 0.0;
  std::vector<double> prev_x(g.node_count(), 0.0);
  alg2_observer obs = [&](const alg2_iteration_view& view) {
    for (graph::node_id j = 0; j < g.node_count(); ++j) {
      const double inc = view.x[j] - prev_x[j];
      if (inc <= 1e-15) continue;
      total_x_increase += inc;
      bool has_white = false;
      g.for_closed_neighborhood(j, [&](graph::node_id u) {
        if (!view.gray[u]) has_white = true;
      });
      if (has_white)
        total_z += inc;
      else
        undistributed += inc;
    }
    prev_x = view.x;
  };
  const auto res = approximate_lp_known_delta(g, {.k = k}, {}, &obs);
  EXPECT_NEAR(total_z + undistributed, total_x_increase, 1e-9);
  EXPECT_NEAR(total_x_increase, res.objective, 1e-9);
}

TEST(Alg2, MessageSizesAreLogarithmic) {
  for (const auto& g : test_graphs()) {
    for (std::uint32_t k : {2U, 4U}) {
      const auto res = approximate_lp_known_delta(g, {.k = k});
      // Colors are 1 bit; x-exponents need ceil(log2(k+1)) bits.
      const std::uint32_t expected =
          std::max<std::uint32_t>(1, std::bit_width(k));
      EXPECT_LE(res.metrics.max_message_bits, expected) << g.summary();
    }
  }
}

TEST(Alg2, MessageCountPerNodeWithinPaperBound) {
  // Each node broadcasts twice per inner iteration: 2k^2 * degree.
  for (const auto& g : test_graphs()) {
    const std::uint32_t k = 3;
    const auto res = approximate_lp_known_delta(g, {.k = k});
    EXPECT_LE(res.metrics.max_messages_per_node,
              2ULL * k * k * g.max_degree())
        << g.summary();
  }
}

TEST(Alg2, DeterministicAcrossRuns) {
  common::rng gen(103);
  const graph::graph g = graph::gnp_random(40, 0.1, gen);
  const auto a = approximate_lp_known_delta(g, {.k = 3});
  const auto b = approximate_lp_known_delta(g, {.k = 3});
  ASSERT_EQ(a.x.size(), b.x.size());
  for (std::size_t i = 0; i < a.x.size(); ++i)
    EXPECT_DOUBLE_EQ(a.x[i], b.x[i]);
}

TEST(Alg2, KOneSelectsEverythingWithPositiveDegreeNeighborhood) {
  // k = 1 runs a single iteration (ell = m = 0): every node with a white
  // node in its closed neighborhood (initially: every node) sets x = 1.
  const graph::graph g = graph::cycle_graph(6);
  const auto res = approximate_lp_known_delta(g, {.k = 1});
  for (const double xi : res.x) EXPECT_DOUBLE_EQ(xi, 1.0);
  EXPECT_EQ(res.metrics.rounds, 2U);
}

TEST(Alg2, LargerKImprovesStarSolution) {
  // On a star, the LP optimum is 1 (hub).  k = 1 charges every node;
  // larger k should concentrate weight near the hub.
  const graph::graph g = graph::star_graph(30);
  const auto k1 = approximate_lp_known_delta(g, {.k = 1});
  const auto k4 = approximate_lp_known_delta(g, {.k = 4});
  EXPECT_LT(k4.objective, k1.objective);
}

TEST(Alg2, EmptyAndTrivialInputs) {
  const auto empty = approximate_lp_known_delta(graph::graph{}, {.k = 2});
  EXPECT_TRUE(empty.x.empty());
  EXPECT_EQ(empty.objective, 0.0);

  const auto single = approximate_lp_known_delta(graph::empty_graph(1), {.k = 2});
  ASSERT_EQ(single.x.size(), 1U);
  EXPECT_DOUBLE_EQ(single.x[0], 1.0);  // must dominate itself
}

TEST(Alg2, RejectsInvalidK) {
  EXPECT_THROW((void)approximate_lp_known_delta(graph::path_graph(3), {.k = 0}),
               std::invalid_argument);
}

TEST(Alg2, ViewSequenceCoversAllIterations) {
  const graph::graph g = graph::cycle_graph(9);
  const std::uint32_t k = 3;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> seen;
  alg2_observer obs = [&](const alg2_iteration_view& view) {
    seen.emplace_back(view.ell, view.m);
  };
  (void)approximate_lp_known_delta(g, {.k = k}, {}, &obs);
  ASSERT_EQ(seen.size(), static_cast<std::size_t>(k) * k);
  std::size_t idx = 0;
  for (std::uint32_t ell = k; ell-- > 0;)
    for (std::uint32_t m = k; m-- > 0;) {
      EXPECT_EQ(seen[idx].first, ell);
      EXPECT_EQ(seen[idx].second, m);
      ++idx;
    }
}

}  // namespace
}  // namespace domset::core
