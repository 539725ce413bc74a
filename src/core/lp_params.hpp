/// \file lp_params.hpp
/// \brief Shared parameter/result types of the fractional LP
/// approximation algorithms (Algorithm 2 and Algorithm 3).
#pragma once

#include <cstdint>
#include <vector>

#include "exec/context.hpp"
#include "sim/metrics.hpp"

namespace domset::core {

struct lp_approx_params {
  /// The paper's trade-off parameter k >= 1: quality k*(Delta+1)^{2/k} vs
  /// time Theta(k^2).
  std::uint32_t k = 2;

  /// Execution knobs (seed, threads, pool, message loss, CONGEST bit
  /// limit) -- see exec::context for the shared semantics.
  exec::context exec;
};

struct lp_approx_result {
  /// The fractional dominating set solution (one value per node).
  std::vector<double> x;

  /// Objective sum(x), or c^T x for weighted Algorithm 2.
  double objective = 0.0;

  /// Maximum degree Delta of the input graph (known a priori to Algorithm
  /// 2; measured here for both so callers can evaluate the bounds).
  std::uint32_t delta = 0;

  /// The k the run used.
  std::uint32_t k = 0;

  /// The largest node cost c_max (1 for unit costs).
  double c_max = 1.0;

  /// Simulator metrics (rounds, messages, bits).
  sim::run_metrics metrics;

  /// The paper's approximation-ratio guarantee for this run:
  /// k*(Delta+1)^{2/k} for Algorithm 2,
  /// k*(Delta+1)^{1/k}*[c_max*(Delta+1)]^{1/k} for weighted Algorithm 2,
  /// k*((Delta+1)^{1/k} + (Delta+1)^{2/k}) for Algorithm 3.
  double ratio_bound = 0.0;
};

}  // namespace domset::core
