/// \file solvers.cpp
/// \brief Built-in solver adapters: every algorithm entry point of the
/// repo, registered by name.
///
/// Each adapter forwards to the algorithm-specific entry point with
/// params translated 1:1 and results copied field-for-field -- no
/// algorithmic logic lives here, so a registry-invoked run is bit-
/// identical to a direct call (tests/api_registry_test.cpp asserts set
/// digests and run metrics match exactly).  Registering a new solver is
/// one adapter class plus one `solver_registrar` line at the bottom.

#include <algorithm>
#include <array>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "api/registry.hpp"
#include "api/solver.hpp"
#include "baselines/greedy.hpp"
#include "baselines/lrg.hpp"
#include "baselines/luby_mis.hpp"
#include "baselines/wu_li.hpp"
#include "common/rng.hpp"
#include "core/alg2.hpp"
#include "core/alg3.hpp"
#include "core/arboricity.hpp"
#include "core/cds.hpp"
#include "core/pipeline.hpp"
#include "core/rounding.hpp"
#include "graph/generators.hpp"
#include "graph/probe.hpp"

namespace domset::api {

namespace {

/// Shared translation of the paper's k param (k >= 1; the specific entry
/// points re-validate, but failing here names the param).
std::uint32_t get_k(const param_map& params) {
  const std::uint64_t k = params.get_uint("k", 2);
  if (k < 1 || k > 0xFFFFFFFFULL)
    throw std::invalid_argument("param 'k': must be an integer >= 1");
  return static_cast<std::uint32_t>(k);
}

core::rounding_variant get_variant(const param_map& params) {
  const std::string v = params.get_string("variant", "plain");
  if (v == "plain") return core::rounding_variant::plain;
  if (v == "log_log") return core::rounding_variant::log_log;
  throw std::invalid_argument(
      "param 'variant': must be 'plain' or 'log_log', got '" + v + "'");
}

/// Folds the two pipeline stages into one metrics record (sums for the
/// totals, maxima for the per-message/per-node peaks, OR for the flags).
/// Deterministic, so the adapter test can reproduce it from a direct call.
sim::run_metrics merge_metrics(const sim::run_metrics& a,
                               const sim::run_metrics& b) {
  sim::run_metrics m;
  m.rounds = a.rounds + b.rounds;
  m.messages_sent = a.messages_sent + b.messages_sent;
  m.bits_sent = a.bits_sent + b.bits_sent;
  m.max_message_bits = std::max(a.max_message_bits, b.max_message_bits);
  m.max_messages_per_node =
      std::max(a.max_messages_per_node, b.max_messages_per_node);
  m.messages_dropped = a.messages_dropped + b.messages_dropped;
  m.messages_lost_to_faults =
      a.messages_lost_to_faults + b.messages_lost_to_faults;
  m.messages_duplicated = a.messages_duplicated + b.messages_duplicated;
  m.node_rounds_down = a.node_rounds_down + b.node_rounds_down;
  // A node crashed in either stage is one crashed node; the stages run the
  // same plan, so the max is the exact union count.
  m.nodes_crashed = std::max(a.nodes_crashed, b.nodes_crashed);
  m.congest_violation = a.congest_violation || b.congest_violation;
  m.hit_round_limit = a.hit_round_limit || b.hit_round_limit;
  return m;
}

// ------------------------------------------------------------- pipeline

class pipeline_solver final : public solver {
 public:
  std::string_view name() const noexcept override { return "pipeline"; }
  std::string_view description() const noexcept override {
    return "Theorem 6: Algorithm 3 (or 2 with known-delta) + randomized "
           "rounding; the paper's headline dominating set pipeline";
  }
  std::span<const std::string_view> param_keys() const noexcept override {
    static constexpr std::array<std::string_view, 4> keys = {
        "k", "known-delta", "variant", "announce-final"};
    return keys;
  }

 protected:
  solve_result solve_impl(const graph::graph& g, const exec::context& exec,
                          const param_map& params) const override {
    core::pipeline_params p;
    p.k = get_k(params);
    p.assume_known_delta = params.get_bool("known-delta", false);
    p.variant = get_variant(params);
    p.announce_final = params.get_bool("announce-final", false);
    p.exec = exec;
    core::pipeline_result res = core::compute_dominating_set(g, p);

    solve_result out;
    out.in_set = std::move(res.in_set);
    out.x = std::move(res.fractional.x);
    out.size = res.size;
    out.objective = static_cast<double>(res.size);
    out.ratio_bound = res.expected_ratio_bound;
    out.metrics =
        merge_metrics(res.fractional.metrics, res.rounding.metrics);
    return out;
  }
};

// ------------------------------------------------- fractional LP solvers

/// Copies a fractional LP record into the registry's result shape.
solve_result fractional_result(core::lp_approx_result res) {
  solve_result out;
  out.x = std::move(res.x);
  out.objective = res.objective;
  out.ratio_bound = res.ratio_bound;
  out.metrics = res.metrics;
  return out;
}

/// Builds the cost vector named by the `costs` param:
///   uniform       -- i.i.d. uniform in [1, cmax], drawn from rng(seed)
///                    (the battery model of examples/weighted_cover.cpp)
///   degree        -- cost(v) = 1 + deg(v), deterministic (hubs expensive)
///   file:<path>   -- whitespace-separated doubles, one per node
std::vector<double> make_cost_vector(const graph::graph& g,
                                     const param_map& params,
                                     std::uint64_t seed) {
  const std::string spec = params.get_string("costs", "uniform");
  if (spec == "uniform") {
    const double c_max = params.get_double("cmax", 4.0);
    if (!(c_max >= 1.0))
      throw std::invalid_argument("param 'cmax': must be >= 1");
    common::rng gen(seed);
    return graph::uniform_costs(g.node_count(), c_max, gen);
  }
  if (params.contains("cmax"))
    throw std::invalid_argument(
        "param 'cmax': only applies to costs=uniform, got costs='" + spec +
        "'");
  if (spec == "degree") {
    std::vector<double> cost(g.node_count());
    for (graph::node_id v = 0; v < g.node_count(); ++v)
      cost[v] = 1.0 + static_cast<double>(g.degree(v));
    return cost;
  }
  if (spec.rfind("file:", 0) == 0) {
    const std::string path = spec.substr(5);
    if (path.empty())
      throw std::invalid_argument(
          "param 'costs': the file scheme needs a path (costs=file:<path>)");
    std::ifstream in(path);
    if (!in)
      throw std::invalid_argument("param 'costs': cannot open '" + path +
                                  "'");
    std::vector<double> cost;
    cost.reserve(g.node_count());
    double value = 0.0;
    while (in >> value) {
      if (!(value >= 1.0))
        throw std::invalid_argument(
            "param 'costs': '" + path + "' entry " +
            std::to_string(cost.size()) + " is " + std::to_string(value) +
            "; costs must be >= 1 (normalize first)");
      cost.push_back(value);
    }
    if (!in.eof())
      throw std::invalid_argument("param 'costs': '" + path +
                                  "' has a non-numeric entry at index " +
                                  std::to_string(cost.size()));
    if (cost.size() != g.node_count())
      throw std::invalid_argument(
          "param 'costs': '" + path + "' holds " +
          std::to_string(cost.size()) + " values for a graph of " +
          std::to_string(g.node_count()) + " nodes");
    return cost;
  }
  throw std::invalid_argument(
      "param 'costs': must be 'uniform', 'degree' or 'file:<path>', got '" +
      spec + "'");
}

constexpr std::array<std::string_view, 1> k_keys = {"k"};
constexpr std::array<std::string_view, 3> weighted_keys = {"k", "costs",
                                                           "cmax"};

/// One registry name of the Algorithm 2 kernel (core/alg2.hpp).
struct alg2_preset {
  std::string_view name;
  std::string_view description;
  std::span<const std::string_view> param_keys;
  /// Node costs come from the `costs` param (the Remark's weighted LP).
  bool weighted;
  bool fresh_degrees;
};

constexpr std::array<alg2_preset, 3> alg2_presets = {{
    {"alg2",
     "Theorem 4: fractional LP k*(Delta+1)^(2/k)-approximation in "
     "2k^2 rounds (every node knows the global Delta)",
     k_keys, false, false},
    {"alg2_fresh",
     "Algorithm 2 ablation with fresh dynamic degrees: same rounds, "
     "exact Lemma 4 accounting (reproduction finding)",
     k_keys, false, true},
    {"weighted",
     "Remark after Theorem 4: weighted fractional LP (min c^T x) via "
     "cost-effectiveness thresholds; costs from --costs",
     weighted_keys, true, false},
}};

class alg2_solver final : public solver {
 public:
  explicit alg2_solver(const alg2_preset& preset) : preset_(preset) {}

  std::string_view name() const noexcept override { return preset_.name; }
  std::string_view description() const noexcept override {
    return preset_.description;
  }
  std::span<const std::string_view> param_keys() const noexcept override {
    return preset_.param_keys;
  }
  bool integral_output() const noexcept override { return false; }

 protected:
  solve_result solve_impl(const graph::graph& g, const exec::context& exec,
                          const param_map& params) const override {
    core::lp_approx_params p;
    p.k = get_k(params);
    p.exec = exec;
    const std::vector<double> cost =
        preset_.weighted ? make_cost_vector(g, params, exec.seed)
                         : std::vector<double>{};
    return fractional_result(core::approximate_lp_known_delta(
        g, p, {.cost = cost, .fresh_degrees = preset_.fresh_degrees}));
  }

 private:
  const alg2_preset& preset_;
};

class alg3_solver final : public solver {
 public:
  std::string_view name() const noexcept override { return "alg3"; }
  std::string_view description() const noexcept override {
    return "Theorem 5: uniform fractional LP approximation, no global "
           "knowledge, 4k^2 + O(k) rounds";
  }
  std::span<const std::string_view> param_keys() const noexcept override {
    return k_keys;
  }
  bool integral_output() const noexcept override { return false; }

 protected:
  solve_result solve_impl(const graph::graph& g, const exec::context& exec,
                          const param_map& params) const override {
    core::lp_approx_params p;
    p.k = get_k(params);
    p.exec = exec;
    return fractional_result(core::approximate_lp(g, p));
  }
};

// ------------------------------------------------------------- rounding

class rounding_solver final : public solver {
 public:
  std::string_view name() const noexcept override { return "rounding"; }
  std::string_view description() const noexcept override {
    return "Theorem 3: randomized rounding of the uniform feasible LP "
           "point x = 1/(min_degree+1) (standalone Algorithm 1 demo)";
  }
  std::span<const std::string_view> param_keys() const noexcept override {
    static constexpr std::array<std::string_view, 2> keys = {"variant",
                                                             "announce-final"};
    return keys;
  }

  /// The trivially feasible uniform point the standalone solver rounds:
  /// for every node v, sum over N[v] of 1/(d_min+1) = (deg(v)+1)/(d_min+1)
  /// >= 1.  (Algorithm 1 accepts any feasible x; callers with a better
  /// fractional solution use core::round_to_dominating_set directly or
  /// the pipeline solver.)
  [[nodiscard]] static std::vector<double> uniform_feasible_x(
      const graph::graph& g) {
    std::uint32_t d_min = ~std::uint32_t{0};
    for (graph::node_id v = 0; v < g.node_count(); ++v)
      d_min = std::min(d_min, g.degree(v));
    if (g.node_count() == 0) d_min = 0;
    return std::vector<double>(g.node_count(),
                               1.0 / (static_cast<double>(d_min) + 1.0));
  }

 protected:
  solve_result solve_impl(const graph::graph& g, const exec::context& exec,
                          const param_map& params) const override {
    core::rounding_params p;
    p.variant = get_variant(params);
    p.announce_final = params.get_bool("announce-final", false);
    p.exec = exec;
    const std::vector<double> x = uniform_feasible_x(g);
    core::rounding_result res = core::round_to_dominating_set(g, x, p);

    solve_result out;
    out.in_set = std::move(res.in_set);
    out.x = x;
    out.size = res.size;
    out.objective = static_cast<double>(res.size);
    out.metrics = res.metrics;
    return out;
  }
};

// ------------------------------------------------------------------ cds

class cds_solver final : public solver {
 public:
  std::string_view name() const noexcept override { return "cds"; }
  std::string_view description() const noexcept override {
    return "connected dominating set: any integral base solver (base=<name>) "
           "+ the centralized 3x connector post-pass (core/cds)";
  }
  std::span<const std::string_view> param_keys() const noexcept override {
    // `base` plus the union of the integral base solvers' params; every
    // key except `base` is forwarded verbatim, and the base solver's own
    // require_known rejects what it does not accept.
    static constexpr std::array<std::string_view, 6> keys = {
        "base", "k", "variant", "known-delta", "announce-final", "max-rounds"};
    return keys;
  }

 protected:
  solve_result solve_impl(const graph::graph& g, const exec::context& exec,
                          const param_map& params) const override {
    const std::string base_name = params.get_string("base", "pipeline");
    if (base_name == "cds")
      throw std::invalid_argument(
          "param 'base': cds cannot stack on itself");
    // Unknown names throw here, listing the registry vocabulary; an
    // unusable (fractional-only) base is rejected BEFORE its run is paid
    // for -- on a large sweep cell that run can be minutes.
    const solver& base = solver_registry::instance().find(base_name);
    if (!base.integral_output())
      throw std::invalid_argument(
          "param 'base': solver '" + base_name +
          "' is fractional-only; cds needs an integral dominating set "
          "(try pipeline, greedy, lrg, luby, wu_li or rounding)");

    param_map base_params;
    for (const auto& [key, value] : params.entries())
      if (key != "base") base_params.set(key, value);
    solve_result out = base.solve(g, exec, base_params);

    core::cds_result connected = core::connect_dominating_set(g, out.in_set);
    out.in_set = std::move(connected.in_set);
    out.size = connected.size;
    out.objective = static_cast<double>(connected.size);
    // |CDS| <= 3|DS| and |MDS_OPT| <= |MCDS_OPT|, so tripling the base
    // guarantee is a valid bound against the connected optimum.
    out.ratio_bound = out.ratio_bound > 0.0 ? 3.0 * out.ratio_bound : 0.0;
    // metrics stay the base run's: the connector pass is the centralized
    // sink-side computation, not message rounds.
    return out;
  }
};

// ----------------------------------------------------------- arboricity

class arboricity_solver final : public solver {
 public:
  std::string_view name() const noexcept override { return "arboricity"; }
  std::string_view description() const noexcept override {
    return "Dory-Ghaffari-Ilchi-style degree-threshold sweep for bounded-"
           "arboricity graphs (arXiv 2206.05174): deterministic, "
           "O(eps^-1 log Delta) rounds, per-instance certified ratio bound";
  }
  std::span<const std::string_view> param_keys() const noexcept override {
    static constexpr std::array<std::string_view, 1> keys = {"epsilon"};
    return keys;
  }

 protected:
  solve_result solve_impl(const graph::graph& g, const exec::context& exec,
                          const param_map& params) const override {
    core::arboricity_params p;
    p.epsilon = params.get_double("epsilon", 0.5);
    p.exec = exec;
    core::arboricity_result res = core::arboricity_mds(g, p);

    solve_result out;
    out.in_set = std::move(res.in_set);
    out.size = res.size;
    out.objective = static_cast<double>(res.size);
    out.ratio_bound = res.ratio_bound;
    out.metrics = res.metrics;
    return out;
  }
};

// ----------------------------------------------------------------- auto

class auto_solver final : public solver {
 public:
  std::string_view name() const noexcept override { return "auto"; }
  std::string_view description() const noexcept override {
    return "portfolio meta-solver: probes degeneracy / triangle density / "
           "degree skew (graph/probe) and dispatches to the best-fitting "
           "registry solver; the choice rides in result.selection";
  }
  std::span<const std::string_view> param_keys() const noexcept override {
    // Union of the dispatch candidates' params; each candidate receives
    // only the subset it declares, so a k set for the pipeline branch is
    // not an error when the probe routes to arboricity.
    static constexpr std::array<std::string_view, 5> keys = {
        "k", "epsilon", "variant", "known-delta", "announce-final"};
    return keys;
  }

  /// The selection rule, exposed for the property harness.  The threshold
  /// sweep (core/arboricity.hpp) runs phases only while tau >= 2A + 2, so
  /// its quality hinges on how far Delta + 1 clears that floor: with a
  /// comfortable span (skewed ba / power-law graphs, stars, sparse gnp)
  /// the sweep's greedy-like phases beat the LP pipeline outright, while
  /// near or below the floor (bounded-degree grids, paths, regular and
  /// dense graphs) it degenerates toward everyone-joins cleanup.  The 1.5
  /// cut-off demands roughly two sweep phases at the default epsilon --
  /// measured across the bench families, that is exactly where the winner
  /// flips (docs/architecture.md has the table).
  [[nodiscard]] static std::string_view choose(
      const graph::probe_result& probe) {
    const double span = static_cast<double>(probe.degrees.max_degree) + 1.0;
    const double sweep_floor = 2.0 * probe.degeneracy + 2.0;
    return span >= 1.5 * sweep_floor ? "arboricity" : "pipeline";
  }

 protected:
  solve_result solve_impl(const graph::graph& g, const exec::context& exec,
                          const param_map& params) const override {
    graph::probe_params pp;
    pp.threads = exec.threads;
    pp.pool = exec.pool;
    const graph::probe_result probe = graph::probe(g, pp);
    const std::string_view choice = choose(probe);

    const solver& base = solver_registry::instance().find(choice);
    const auto keys = base.param_keys();
    param_map base_params;
    for (const auto& [key, value] : params.entries())
      if (std::find(keys.begin(), keys.end(), key) != keys.end())
        base_params.set(key, value);
    // Full solve(), not solve_impl: the dispatch must be bit-identical to
    // running the chosen solver directly (asserted by the harness).
    solve_result out = base.solve(g, exec, base_params);

    out.selection.attempted = true;
    out.selection.selected_solver = std::string(choice);
    out.selection.degeneracy = probe.degeneracy;
    out.selection.arboricity_lower = probe.arboricity_lower;
    out.selection.triangle_density = probe.triangle_density;
    out.selection.degree_skew = probe.degrees.skew;
    out.selection.avg_degree = probe.degrees.avg_degree;
    return out;
  }
};

// ------------------------------------------------------------ baselines

class lrg_solver final : public solver {
 public:
  std::string_view name() const noexcept override { return "lrg"; }
  std::string_view description() const noexcept override {
    return "Jia-Rajaraman-Suel Local Randomized Greedy (PODC 2001): "
           "O(log Delta) approximation in O(log n log Delta) rounds";
  }
  std::span<const std::string_view> param_keys() const noexcept override {
    static constexpr std::array<std::string_view, 1> keys = {"max-rounds"};
    return keys;
  }

 protected:
  solve_result solve_impl(const graph::graph& g, const exec::context& exec,
                          const param_map& params) const override {
    baselines::lrg_params p;
    p.max_rounds = params.get_uint("max-rounds", p.max_rounds);
    p.exec = exec;
    baselines::lrg_result res = baselines::lrg_mds(g, p);

    solve_result out;
    out.in_set = std::move(res.in_set);
    out.size = res.size;
    out.objective = static_cast<double>(res.size);
    out.metrics = res.metrics;
    return out;
  }
};

class luby_solver final : public solver {
 public:
  std::string_view name() const noexcept override { return "luby"; }
  std::string_view description() const noexcept override {
    return "Luby's maximal independent set (1986) as a dominating set: "
           "O(log n) rounds, no approximation guarantee";
  }
  std::span<const std::string_view> param_keys() const noexcept override {
    static constexpr std::array<std::string_view, 1> keys = {"max-rounds"};
    return keys;
  }

 protected:
  solve_result solve_impl(const graph::graph& g, const exec::context& exec,
                          const param_map& params) const override {
    baselines::luby_params p;
    p.max_rounds = params.get_uint("max-rounds", p.max_rounds);
    p.exec = exec;
    baselines::luby_result res = baselines::luby_mis(g, p);

    solve_result out;
    out.in_set = std::move(res.in_set);
    out.size = res.size;
    out.objective = static_cast<double>(res.size);
    out.metrics = res.metrics;
    return out;
  }
};

class wu_li_solver final : public solver {
 public:
  std::string_view name() const noexcept override { return "wu_li"; }
  std::string_view description() const noexcept override {
    return "Wu-Li marking + Dai-Wu pruning (DialM 1999): constant rounds, "
           "no non-trivial guarantee";
  }

 protected:
  solve_result solve_impl(const graph::graph& g, const exec::context& exec,
                          const param_map&) const override {
    baselines::wu_li_params p;
    p.exec = exec;
    baselines::wu_li_result res = baselines::wu_li_mds(g, p);

    solve_result out;
    out.in_set = std::move(res.in_set);
    out.size = res.size;
    out.objective = static_cast<double>(res.size);
    out.metrics = res.metrics;
    return out;
  }
};

class greedy_solver final : public solver {
 public:
  std::string_view name() const noexcept override { return "greedy"; }
  std::string_view description() const noexcept override {
    return "centralized sequential greedy (quality yardstick; H_(Delta+1) "
           "guarantee, not a distributed algorithm -- metrics are zero)";
  }

 protected:
  solve_result solve_impl(const graph::graph& g, const exec::context&,
                          const param_map&) const override {
    baselines::greedy_result res = baselines::greedy_mds(g);

    solve_result out;
    out.in_set = std::move(res.in_set);
    out.size = res.size;
    out.objective = static_cast<double>(res.size);
    out.ratio_bound = baselines::greedy_ratio_bound(g.max_degree());
    return out;
  }
};

// -------------------------------------------------------- registrations

template <typename Solver>
std::unique_ptr<solver> make_solver() {
  return std::make_unique<Solver>();
}

template <std::size_t Preset>
std::unique_ptr<solver> make_alg2_solver() {
  return std::make_unique<alg2_solver>(alg2_presets[Preset]);
}

const solver_registrar reg_pipeline{&make_solver<pipeline_solver>};
const solver_registrar reg_arboricity{&make_solver<arboricity_solver>};
const solver_registrar reg_auto{&make_solver<auto_solver>};
const solver_registrar reg_cds{&make_solver<cds_solver>};
const solver_registrar reg_alg2{&make_alg2_solver<0>};
const solver_registrar reg_alg2_fresh{&make_alg2_solver<1>};
const solver_registrar reg_weighted{&make_alg2_solver<2>};
const solver_registrar reg_alg3{&make_solver<alg3_solver>};
const solver_registrar reg_rounding{&make_solver<rounding_solver>};
const solver_registrar reg_lrg{&make_solver<lrg_solver>};
const solver_registrar reg_luby{&make_solver<luby_solver>};
const solver_registrar reg_wu_li{&make_solver<wu_li_solver>};
const solver_registrar reg_greedy{&make_solver<greedy_solver>};

}  // namespace

namespace detail {
void link_builtin_solvers() {}
}  // namespace detail

}  // namespace domset::api
