#include "core/alg2.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/wide_uint.hpp"
#include "lp/lp_mds.hpp"
#include "sim/engine.hpp"

namespace domset::core {

namespace {

enum alg2_tag : std::uint16_t { tag_color = 1, tag_x = 2 };

/// x-values in Algorithm 2 are always of the form (Delta+1)^{-m/k} (or 0),
/// with or without costs, so nodes exchange the exponent m instead of a
/// floating point value: O(log k) bits.  Payload 0 encodes x = 0; payload
/// m+1 encodes exponent m.  Runs devirtualized, stored by value in a
/// typed_engine.
class alg2_program {
 public:
  /// `cost_scale` is c_max / c_i for the weighted test; 0 selects the
  /// exact unit-cost test.
  alg2_program(std::uint32_t k, std::uint32_t delta, bool fresh_degrees,
               double c_max, double cost_scale)
      : k_(k),
        delta_plus_1_(delta + 1),
        fresh_degrees_(fresh_degrees),
        c_max_(c_max),
        cost_scale_(cost_scale) {}

  void on_round(sim::round_context& ctx,
                std::span<const sim::message> inbox) {
    if (finished_) return;
    if (ctx.round() == 0) dyn_degree_ = ctx.degree() + 1;  // line 1

    const std::size_t iteration = ctx.round() / 2;
    // Only reachable when a crash window swallowed the finishing round:
    // the schedule is over, and the phase arithmetic below would
    // underflow, so a recovered node simply retires with its current x.
    if (iteration >= static_cast<std::size_t>(k_) * k_) {
      finished_ = true;
      return;
    }
    const bool phase_a = ctx.round() % 2 == 0;
    if (phase_a) {
      // Line 12 of the previous iteration: color update from x-messages.
      if (iteration > 0) apply_color_update(inbox);
      if (!fresh_degrees_) raise_x(iteration);  // lines 6-8
      // Line 9: broadcast color.
      ctx.broadcast(tag_color, gray_ ? 1 : 0, 1);
    } else {
      // Line 10: dynamic degree from the colors just received plus own
      // color (both reflect line 12 of the previous iteration).
      std::uint32_t whites = gray_ ? 0 : 1;
      for (const sim::message& msg : inbox)
        if (msg.tag == tag_color && msg.payload == 0) ++whites;
      dyn_degree_ = whites;
      if (fresh_degrees_) raise_x(iteration);  // lines 6-8, fresh degree
      // Line 11: broadcast x (exponent encoding).
      const std::uint64_t payload = has_x_ ? x_exponent_ + 1 : 0;
      ctx.broadcast(tag_x, payload, sim::bits_for_values(k_ + 1));
      if (iteration + 1 == static_cast<std::size_t>(k_) * k_) finished_ = true;
    }
  }

  [[nodiscard]] bool finished() const { return finished_; }

  [[nodiscard]] double x() const {
    return has_x_ ? decode_exponent(x_exponent_) : 0.0;
  }
  [[nodiscard]] bool gray() const { return gray_; }
  [[nodiscard]] std::uint32_t dyn_degree() const { return dyn_degree_; }
  [[nodiscard]] bool active() const { return active_; }

 private:
  [[nodiscard]] double decode_exponent(std::uint32_t m) const {
    return std::pow(static_cast<double>(delta_plus_1_),
                    -static_cast<double>(m) / static_cast<double>(k_));
  }

  /// Line 6: unit costs decide dyn_degree >= (Delta+1)^{ell/k} exactly as
  /// dyn_degree^k >= (Delta+1)^ell; costs decide the Remark's
  /// (c_max/c_i)*dyn >= [c_max*(Delta+1)]^{ell/k} in floating point.
  [[nodiscard]] bool passes_activity_test(std::uint32_t ell) const {
    if (cost_scale_ == 0.0)
      return common::geq_rational_power(dyn_degree_, delta_plus_1_, ell, k_);
    const double effectiveness =
        cost_scale_ * static_cast<double>(dyn_degree_);
    const double threshold =
        std::pow(c_max_ * static_cast<double>(delta_plus_1_),
                 static_cast<double>(ell) / static_cast<double>(k_));
    return effectiveness >= threshold - lp::feasibility_epsilon;
  }

  /// Lines 6-8: activity test, then x := max(x, (Delta+1)^{-m/k}).
  void raise_x(std::size_t iteration) {
    const std::uint32_t ell = k_ - 1 - static_cast<std::uint32_t>(iteration / k_);
    const std::uint32_t m = k_ - 1 - static_cast<std::uint32_t>(iteration % k_);
    active_ = passes_activity_test(ell);
    if (active_ && (!has_x_ || m < x_exponent_)) {
      has_x_ = true;
      x_exponent_ = m;
    }
  }

  void apply_color_update(std::span<const sim::message> inbox) {
    if (gray_) return;
    double sum = x();
    for (const sim::message& msg : inbox) {
      if (msg.tag != tag_x || msg.payload == 0) continue;
      sum += decode_exponent(static_cast<std::uint32_t>(msg.payload - 1));
    }
    if (sum >= 1.0 - lp::feasibility_epsilon) gray_ = true;
  }

  std::uint32_t k_;
  std::uint32_t delta_plus_1_;
  bool fresh_degrees_;
  double c_max_;
  double cost_scale_;

  std::uint32_t dyn_degree_ = 0;
  bool gray_ = false;
  bool active_ = false;
  bool has_x_ = false;
  std::uint32_t x_exponent_ = 0;
  bool finished_ = false;
};

}  // namespace

double alg2_ratio_bound(std::uint32_t delta, std::uint32_t k) {
  return static_cast<double>(k) *
         std::pow(static_cast<double>(delta) + 1.0, 2.0 / static_cast<double>(k));
}

double weighted_ratio_bound(std::uint32_t delta, std::uint32_t k,
                            double c_max) {
  const double d1 = static_cast<double>(delta) + 1.0;
  const double kk = static_cast<double>(k);
  return kk * std::pow(d1, 1.0 / kk) * std::pow(c_max * d1, 1.0 / kk);
}

lp_approx_result approximate_lp_known_delta(const graph::graph& g,
                                            const lp_approx_params& params,
                                            const alg2_variant& variant,
                                            const alg2_observer* observer) {
  if (params.k < 1)
    throw std::invalid_argument("approximate_lp_known_delta: k >= 1 required");
  const std::span<const double> cost = variant.cost;
  const bool weighted = !cost.empty();
  if (weighted && cost.size() != g.node_count())
    throw std::invalid_argument(
        "approximate_lp_known_delta: cost size mismatch");
  double c_max = 1.0;
  for (const double c : cost) {
    if (c < 1.0)
      throw std::invalid_argument(
          "approximate_lp_known_delta: costs must be >= 1 (normalize first)");
    c_max = std::max(c_max, c);
  }

  const std::size_t n = g.node_count();
  const std::uint32_t delta = g.max_degree();
  const std::uint32_t k = params.k;

  lp_approx_result result;
  result.delta = delta;
  result.k = k;
  result.c_max = c_max;
  result.ratio_bound = weighted ? weighted_ratio_bound(delta, k, c_max)
                                : alg2_ratio_bound(delta, k);
  if (n == 0) return result;

  sim::engine_config cfg = params.exec.engine_config();
  cfg.max_rounds = alg2_round_count(k) + 2;
  sim::typed_engine<alg2_program> engine(g, cfg);
  engine.load([&](graph::node_id v) {
    return alg2_program(k, delta, variant.fresh_degrees, c_max,
                        weighted ? c_max / cost[v] : 0.0);
  });

  if (observer != nullptr) {
    // Views snapshot after the round that ran lines 6-8: round A, or
    // round B with fresh degrees.
    const std::size_t view_phase = variant.fresh_degrees ? 1 : 0;
    engine.set_round_observer([&, k, view_phase](std::size_t round) {
      if (round % 2 != view_phase) return;
      const std::size_t iteration = round / 2;
      alg2_iteration_view view;
      view.ell = k - 1 - static_cast<std::uint32_t>(iteration / k);
      view.m = k - 1 - static_cast<std::uint32_t>(iteration % k);
      view.x.resize(n);
      view.gray.resize(n);
      view.dyn_degree.resize(n);
      view.active.resize(n);
      for (graph::node_id v = 0; v < n; ++v) {
        const auto& prog = engine.program(v);
        view.x[v] = prog.x();
        view.gray[v] = prog.gray() ? 1 : 0;
        view.dyn_degree[v] = prog.dyn_degree();
        view.active[v] = prog.active() ? 1 : 0;
      }
      (*observer)(view);
    });
  }

  result.metrics = engine.run();
  result.x.resize(n);
  for (graph::node_id v = 0; v < n; ++v)
    result.x[v] = engine.program(v).x();
  if (weighted) {
    for (graph::node_id v = 0; v < n; ++v)
      result.objective += result.x[v] * cost[v];
  } else {
    result.objective = lp::objective(result.x);
  }
  return result;
}

}  // namespace domset::core
