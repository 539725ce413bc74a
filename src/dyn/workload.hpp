/// \file workload.hpp
/// \brief Seeded mutation-stream generator for dynamic-graph benchmarks.
//
// A pure function of its seed: the same (params, graph history) always
// yields the same mutation stream, independent of thread count, so
// replay benchmarks are deterministic end to end.
// Two endpoint-sampling modes:
//   * uniform -- endpoints uniform over the live node ids,
//   * hub     -- endpoints drawn by picking a random *adjacency slot* of
//                the committed snapshot, i.e. degree-proportional, which
//                concentrates churn on hubs the way real social/web
//                traffic does.
// Edge deletions sample a random committed adjacency slot and are
// validity-checked against the live (pending-inclusive) view; every
// sample retries a bounded number of times before giving up, so the
// generator fails loudly on saturated graphs instead of looping.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/rng.hpp"
#include "dyn/dynamic_graph.hpp"
#include "dyn/mutation.hpp"
#include "graph/graph.hpp"

namespace domset::dyn {

enum class workload_bias : std::uint8_t { uniform, hub };

[[nodiscard]] std::string_view to_string(workload_bias bias);
/// Parses "uniform" | "hub" (throws std::invalid_argument).
[[nodiscard]] workload_bias parse_workload_bias(std::string_view text);

struct workload_params {
  workload_bias bias = workload_bias::uniform;
  std::uint64_t seed = 1;
  /// Operation mix (normalized over their sum; all-zero throws).
  double p_add = 0.55;
  double p_del = 0.35;
  double p_addnode = 0.05;
  double p_delnode = 0.05;
};

/// Draws mutations valid against `g`'s live (pending-inclusive) view.
/// Call `next` once per mutation and apply it before drawing again.
class workload {
 public:
  explicit workload(const workload_params& params);

  /// Next valid mutation (throws std::runtime_error after too many
  /// rejected samples, e.g. deleting from an edgeless graph).  `base` is
  /// the CSR deletion slots and hub bias sample from -- pass
  /// `g.rebase_point()` (stale entries are re-checked against the live
  /// view and rejected).
  [[nodiscard]] mutation next(const dynamic_graph& g,
                              const graph::graph& base);

 private:
  [[nodiscard]] graph::node_id sample_endpoint(const dynamic_graph& g,
                                               const graph::graph& base);

  workload_params params_;
  double sum_ = 0.0;
  common::rng rng_;
};

}  // namespace domset::dyn
