// Numeric verification of the mathematical facts the paper's proofs rest
// on (Sect. 3), plus sanity properties of the bound formulas exposed by
// the library.  These document the analysis machinery and guard the bound
// helpers against regressions.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.hpp"
#include "core/alg2.hpp"
#include "core/alg3.hpp"
#include "core/rounding.hpp"

namespace domset {
namespace {

TEST(Fact1MeansInequality, HoldsOnRandomSets) {
  // prod(x) <= (sum(x)/|A|)^{|A|} for positive reals.
  common::rng gen(1501);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = 1 + gen.next_below(12);
    double log_prod = 0.0;
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double x = 0.01 + gen.next_double() * 10.0;
      log_prod += std::log(x);
      sum += x;
    }
    const double log_rhs =
        static_cast<double>(n) * std::log(sum / static_cast<double>(n));
    EXPECT_LE(log_prod, log_rhs + 1e-9) << "trial " << trial;
  }
}

TEST(Fact2ExponentialBound, HoldsOnGridOfInputs) {
  // (1 - x/n)^n <= e^{-x} for n >= x >= 1.
  for (double n = 1.0; n <= 64.0; n += 1.0) {
    for (double x = 1.0; x <= n; x += 0.5) {
      const double lhs = std::pow(1.0 - x / n, n);
      EXPECT_LE(lhs, std::exp(-x) + 1e-12) << "n=" << n << " x=" << x;
    }
  }
}

TEST(Theorem3Chain, QiBoundMatchesProofSteps) {
  // The proof of Theorem 3 bounds the probability that no neighbor of v_i
  // is selected by 1/(delta^(1)_i + 1) via Facts 1 and 2.  Reproduce the
  // chain numerically: for any feasible x over a neighborhood of size
  // d+1 with max-degree proxy D >= d, prod(1 - x_j ln(D+1)) <= 1/(D+1)
  // whenever all p_j < 1.
  common::rng gen(1502);
  for (int trial = 0; trial < 500; ++trial) {
    const std::size_t d_plus_1 = 2 + gen.next_below(20);
    const double big_d = static_cast<double>(d_plus_1);  // D+1 >= d+1
    // Random feasible x on the neighborhood: sum >= 1.
    std::vector<double> x(d_plus_1);
    double sum = 0.0;
    for (auto& xi : x) {
      xi = gen.next_double();
      sum += xi;
    }
    for (auto& xi : x) xi /= sum;  // sum exactly 1
    double log_q = 0.0;
    bool saturated = false;
    for (const double xi : x) {
      const double p = xi * std::log(big_d);
      if (p >= 1.0) {
        saturated = true;  // q_i = 0 in the proof
        break;
      }
      log_q += std::log(1.0 - p);
    }
    if (!saturated) {
      EXPECT_LE(log_q, -std::log(big_d) + 1e-9) << "trial " << trial;
    }
  }
}

TEST(BoundFormulas, Alg2BoundDecreasingThenFlat) {
  // k*(Delta+1)^{2/k}: decreasing in k until ~2*ln(Delta+1), then grows.
  const std::uint32_t delta = 100;
  const double at_min = 2.0 * std::log(101.0);
  double best = 1e300;
  std::uint32_t best_k = 0;
  for (std::uint32_t k = 1; k <= 30; ++k) {
    const double b = core::alg2_ratio_bound(delta, k);
    if (b < best) {
      best = b;
      best_k = k;
    }
  }
  EXPECT_NEAR(static_cast<double>(best_k), at_min, 2.0);
  // At the optimum the bound is ~ 2e ln(Delta+1) = O(log Delta).
  EXPECT_LE(best, 2.0 * std::exp(1.0) * std::log(101.0) + 1.0);
}

TEST(BoundFormulas, Alg3BoundDominatesAlg2Bound) {
  for (std::uint32_t delta : {1U, 5U, 50U, 500U}) {
    for (std::uint32_t k = 1; k <= 8; ++k) {
      EXPECT_GE(core::alg3_ratio_bound(delta, k),
                core::alg2_ratio_bound(delta, k));
    }
  }
}

TEST(BoundFormulas, WeightedReducesToUnweightedAtUnitCost) {
  for (std::uint32_t delta : {3U, 30U}) {
    for (std::uint32_t k = 1; k <= 6; ++k) {
      EXPECT_NEAR(core::weighted_ratio_bound(delta, k, 1.0),
                  core::alg2_ratio_bound(delta, k), 1e-9);
      // And degrades monotonically in c_max.
      EXPECT_GT(core::weighted_ratio_bound(delta, k, 4.0),
                core::weighted_ratio_bound(delta, k, 2.0));
    }
  }
}

TEST(BoundFormulas, RoundingBoundMonotoneInAlphaAndDelta) {
  EXPECT_GT(core::rounding_ratio_bound(10, 2.0),
            core::rounding_ratio_bound(10, 1.0));
  EXPECT_GT(core::rounding_ratio_bound(100, 1.0),
            core::rounding_ratio_bound(10, 1.0));
  EXPECT_NEAR(core::rounding_ratio_bound(0, 5.0), 1.0, 1e-12);  // ln 1 = 0
}

TEST(BoundFormulas, LogLogVsPlainCrossover) {
  // At alpha = 1:  2(ln d - ln ln d) < 1 + ln d  iff  ln d < 1 + 2 ln ln d.
  // That holds in a moderate-degree window (e.g. d = 20) and fails for
  // very large d where the factor 2 dominates -- the remark's variant is
  // a win for its *multiplicative* form, not uniformly in magnitude.
  EXPECT_LT(core::rounding_ratio_bound_log_log(19, 1.0),
            core::rounding_ratio_bound(19, 1.0));
  EXPECT_GT(core::rounding_ratio_bound_log_log(100000, 1.0),
            core::rounding_ratio_bound(100000, 1.0));
}

TEST(RoundFormulas, ExactCounts) {
  EXPECT_EQ(core::alg2_round_count(1), 2U);
  EXPECT_EQ(core::alg2_round_count(4), 32U);
  EXPECT_EQ(core::alg3_round_count(1), 8U);
  EXPECT_EQ(core::alg3_round_count(4), 74U);
  // O(k^2) with small constants, as Theorem 5 states.
  for (std::uint32_t k = 1; k <= 16; ++k)
    EXPECT_LE(core::alg3_round_count(k), 4U * k * k + 2U * k + 2U);
}

}  // namespace
}  // namespace domset
