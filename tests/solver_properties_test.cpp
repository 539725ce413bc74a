// Registry-generic property harness (ISSUE 8): every registered integral
// solver -- enrolled automatically via solver::integral_output(), so a
// newly registered solver joins every sweep with zero test edits -- runs
// over every harness graph family (tests/support/families.hpp: gnp, ba,
// star, grid, tree, and a .dcsr-file-loaded ba) and must uphold the
// properties no dominating-set solver may violate:
//
//   * validity: the output dominates the graph;
//   * determinism: digest + run metrics are bit-identical across
//     {1, 2, 4, 8} threads (docs/threading.md contract);
//   * soundness: size >= OPT (exact branch-and-bound) and size >= the
//     LP dual lower bound; solvers carrying a *worst-case* certificate
//     (arboricity's per-instance bound, greedy's H(Delta + 1)) must also
//     come in under ratio_bound * OPT -- expectation-only bounds
//     (pipeline, lrg, ...) are checked for sanity (>= 1), not enforced
//     per instance;
//   * metamorphic: relabeling nodes or adding one edge never breaks
//     validity, and the ID-oblivious arboricity solver must commute with
//     relabeling exactly;
//   * fault/repair: with crash faults injected, repair=radius and
//     repair=greedy both restore a verified dominating set.
//
// The `auto` meta-solver gets two extra contracts: bit-identity with its
// selected base solver, and a recorded selection block.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "api/registry.hpp"
#include "api/result_json.hpp"
#include "api/solver.hpp"
#include "exact/exact_mds.hpp"
#include "exec/context.hpp"
#include "graph/properties.hpp"
#include "sim/fault.hpp"
#include "support/families.hpp"
#include "verify/verify.hpp"

namespace domset {
namespace {

using testsupport::family_names;
using testsupport::integral_solver_names;
using testsupport::make_family;

constexpr std::uint64_t kSeed = 7;

api::solve_result run_solver(const std::string& name, const graph::graph& g,
                             const exec::context& exec,
                             const api::param_map& params = {}) {
  return api::solver_registry::instance().find(name).solve(g, exec, params);
}

void expect_metrics_equal(const sim::run_metrics& a,
                          const sim::run_metrics& b) {
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.messages_sent, b.messages_sent);
  EXPECT_EQ(a.bits_sent, b.bits_sent);
  EXPECT_EQ(a.max_message_bits, b.max_message_bits);
  EXPECT_EQ(a.max_messages_per_node, b.max_messages_per_node);
  EXPECT_EQ(a.messages_dropped, b.messages_dropped);
  EXPECT_EQ(a.messages_lost_to_faults, b.messages_lost_to_faults);
  EXPECT_EQ(a.messages_duplicated, b.messages_duplicated);
  EXPECT_EQ(a.node_rounds_down, b.node_rounds_down);
  EXPECT_EQ(a.nodes_crashed, b.nodes_crashed);
  EXPECT_EQ(a.congest_violation, b.congest_violation);
  EXPECT_EQ(a.hit_round_limit, b.hit_round_limit);
}

/// Solvers whose ratio_bound is a worst-case (per-instance or
/// adversarial) certificate rather than an in-expectation guarantee.
bool has_hard_certificate(const std::string& solver) {
  return solver == "arboricity" || solver == "greedy";
}

class SolverProperties
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>> {
 protected:
  [[nodiscard]] const std::string& solver() const {
    return std::get<0>(GetParam());
  }
  [[nodiscard]] const std::string& family() const {
    return std::get<1>(GetParam());
  }
};

TEST_P(SolverProperties, ValidAndDeterministicAcrossDeliveryAndThreads) {
  const graph::graph g = make_family(family(), 90, kSeed);

  exec::context reference_exec;
  reference_exec.seed = kSeed;
  reference_exec.threads = 1;
  const api::solve_result reference = run_solver(solver(), g, reference_exec);

  ASSERT_EQ(reference.in_set.size(), g.node_count());
  EXPECT_TRUE(verify::is_dominating_set(g, reference.in_set))
      << solver() << " on " << family() << ": "
      << verify::undominated_nodes(g, reference.in_set).size()
      << " undominated nodes";
  EXPECT_EQ(reference.size, verify::set_size(reference.in_set));
  const std::uint64_t reference_digest = api::solution_digest(reference);

  for (const std::size_t threads : {2UL, 4UL, 8UL}) {
    exec::context exec = reference_exec;
    exec.threads = threads;
    const api::solve_result probe = run_solver(solver(), g, exec);
    EXPECT_EQ(api::solution_digest(probe), reference_digest)
        << solver() << " on " << family() << " diverged at " << threads
        << " threads";
    expect_metrics_equal(probe.metrics, reference.metrics);
  }
}

TEST_P(SolverProperties, SizeSoundAgainstExactOptimum) {
  const graph::graph g = make_family(family(), 36, kSeed);

  exec::context exec;
  exec.seed = kSeed;
  const api::solve_result result = run_solver(solver(), g, exec);
  ASSERT_TRUE(verify::is_dominating_set(g, result.in_set));

  const auto exact = exact::solve_mds(g);
  ASSERT_TRUE(exact.has_value()) << "exact solver blew its node budget";
  EXPECT_GE(result.size, exact->size)
      << solver() << " on " << family() << " undercut the optimum";
  EXPECT_GE(static_cast<double>(result.size) + 1e-9,
            graph::dual_lower_bound(g));

  if (result.ratio_bound > 0.0) {
    EXPECT_GE(result.ratio_bound, 1.0);
    if (has_hard_certificate(solver())) {
      EXPECT_LE(static_cast<double>(result.size),
                result.ratio_bound * static_cast<double>(exact->size) + 1e-6)
          << solver() << " on " << family()
          << " violated its own certificate: size " << result.size
          << ", bound " << result.ratio_bound << ", OPT " << exact->size;
    }
  }
}

TEST_P(SolverProperties, MetamorphicRelabelPreservesValidity) {
  const graph::graph g = make_family(family(), 60, kSeed);
  const auto pi = testsupport::random_permutation(g.node_count(), kSeed + 1);
  const graph::graph h = testsupport::relabel(g, pi);

  exec::context exec;
  exec.seed = kSeed;
  const api::solve_result base = run_solver(solver(), g, exec);
  const api::solve_result relabeled = run_solver(solver(), h, exec);

  EXPECT_TRUE(verify::is_dominating_set(g, base.in_set));
  EXPECT_TRUE(verify::is_dominating_set(h, relabeled.in_set));

  // The arboricity sweep never reads node ids (thresholds and counters
  // only), so it must commute with relabeling node for node.  Randomized
  // and id-tie-breaking solvers are exempt: their output may legitimately
  // change under a renaming.
  if (solver() == "arboricity") {
    EXPECT_EQ(base.size, relabeled.size);
    for (graph::node_id v = 0; v < g.node_count(); ++v) {
      EXPECT_EQ(relabeled.in_set[pi[v]], base.in_set[v])
          << "node " << v << " (renamed " << pi[v] << ")";
    }
  }
}

TEST_P(SolverProperties, MetamorphicEdgeAddPreservesValidity) {
  const graph::graph g = make_family(family(), 60, kSeed);
  const graph::graph h = testsupport::with_extra_edge(g, kSeed + 2);

  exec::context exec;
  exec.seed = kSeed;
  const api::solve_result result = run_solver(solver(), h, exec);
  EXPECT_TRUE(verify::is_dominating_set(h, result.in_set))
      << solver() << " on " << family() << " broke after one edge insert";
}

TEST_P(SolverProperties, CrashFaultsPlusRepairRestoreValidity) {
  const graph::graph g = make_family(family(), 60, kSeed);

  exec::context exec;
  exec.seed = kSeed;
  exec.faults = std::make_shared<const sim::fault_plan>(
      sim::parse_fault_plan("crash=5@1+crash=11@2"));

  for (const char* mode : {"radius", "greedy"}) {
    api::param_map params;
    params.set("repair", mode);
    const api::solve_result result = run_solver(solver(), g, exec, params);
    EXPECT_TRUE(verify::is_dominating_set(g, result.in_set))
        << solver() << " on " << family() << " with repair=" << mode;
    EXPECT_TRUE(result.repair.attempted);
    EXPECT_EQ(result.repair.mode, mode);
    EXPECT_EQ(result.repair.holes_after, 0U);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, SolverProperties,
    ::testing::Combine(::testing::ValuesIn(integral_solver_names()),
                       ::testing::ValuesIn(family_names())),
    [](const ::testing::TestParamInfo<SolverProperties::ParamType>& info) {
      return std::get<0>(info.param) + "_" + std::get<1>(info.param);
    });

// ------------------------------------------------------------- auto solver

class AutoSolverContract : public ::testing::TestWithParam<std::string> {};

/// `auto` must be a pure dispatcher: bit-identical output, metrics and
/// ratio to the solver it says it selected, with the probe evidence
/// recorded alongside.
TEST_P(AutoSolverContract, BitIdenticalWithSelectedSolver) {
  const graph::graph g = make_family(GetParam(), 120, kSeed);

  exec::context exec;
  exec.seed = kSeed;
  const api::solve_result via_auto = run_solver("auto", g, exec);

  ASSERT_TRUE(via_auto.selection.attempted);
  ASSERT_FALSE(via_auto.selection.selected_solver.empty());
  EXPECT_NE(via_auto.selection.selected_solver, "auto");
  EXPECT_GT(via_auto.selection.avg_degree, 0.0);
  EXPECT_GE(via_auto.selection.arboricity_lower, 0.5);

  const api::solve_result direct =
      run_solver(via_auto.selection.selected_solver, g, exec);
  EXPECT_EQ(api::solution_digest(via_auto), api::solution_digest(direct));
  EXPECT_EQ(via_auto.size, direct.size);
  EXPECT_DOUBLE_EQ(via_auto.ratio_bound, direct.ratio_bound);
  expect_metrics_equal(via_auto.metrics, direct.metrics);
  EXPECT_FALSE(direct.selection.attempted);
}

INSTANTIATE_TEST_SUITE_P(Families, AutoSolverContract,
                         ::testing::ValuesIn(family_names()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

/// The portfolio pays off where it should: on the power-law ba family the
/// probe steers `auto` to the arboricity sweep and the result beats the
/// pipeline outright; on the bounded-degree grid it keeps the pipeline
/// and never loses to the sweep.  (The full-size comparison lives in the
/// portfolio bench row; this pins the selection rule's sign at test
/// scale.)
TEST(SolverPortfolio, AutoMatchesTheWinningSpecialist) {
  exec::context exec;
  exec.seed = 1;

  const graph::graph ba = make_family("ba", 2000, 1);
  const api::solve_result ba_auto = run_solver("auto", ba, exec);
  const api::solve_result ba_pipeline = run_solver("pipeline", ba, exec);
  const api::solve_result ba_arb = run_solver("arboricity", ba, exec);
  EXPECT_EQ(ba_auto.selection.selected_solver, "arboricity");
  EXPECT_EQ(ba_auto.size, ba_arb.size);
  EXPECT_LT(ba_auto.size, ba_pipeline.size);
  EXPECT_LE(ba_auto.size, std::min(ba_pipeline.size, ba_arb.size));

  const graph::graph grid = make_family("grid", 900, 1);
  const api::solve_result grid_auto = run_solver("auto", grid, exec);
  const api::solve_result grid_pipeline = run_solver("pipeline", grid, exec);
  const api::solve_result grid_arb = run_solver("arboricity", grid, exec);
  EXPECT_EQ(grid_auto.selection.selected_solver, "pipeline");
  EXPECT_EQ(grid_auto.size, grid_pipeline.size);
  EXPECT_LE(grid_auto.size, std::min(grid_pipeline.size, grid_arb.size));
}

/// Every harness family enrolls every integral solver: the sweep above is
/// only meaningful if the enrollment list actually covers the registry.
TEST(SolverPortfolio, HarnessEnrollsEveryIntegralSolver) {
  const auto enrolled = integral_solver_names();
  std::size_t integral = 0;
  for (const api::solver* s : api::solver_registry::instance().list())
    if (s->integral_output()) ++integral;
  EXPECT_EQ(enrolled.size(), integral);
  EXPECT_GE(enrolled.size(), 9U);
  for (const char* required : {"pipeline", "arboricity", "auto", "greedy",
                               "lrg", "cds"}) {
    EXPECT_NE(std::find(enrolled.begin(), enrolled.end(), required),
              enrolled.end())
        << required << " missing from the harness enrollment";
  }
}

}  // namespace
}  // namespace domset
