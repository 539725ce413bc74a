// The bench-runner contract (ISSUE 5): the declarative sweep enumerates
// the full cross product in deterministic order, shares one worker pool,
// reports a median over repeat-interleaved timings, embeds one valid
// domset-run/1 record per cell, and fails loudly on ill-formed specs --
// it is the single substrate the CI trend gate, the driver's `bench`
// subcommand and examples/parameter_sweep.cpp all run on.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>
#include <string>

#include "api/bench_runner.hpp"
#include "api/graphs.hpp"
#include "api/registry.hpp"
#include "api/result_json.hpp"
#include "baselines/greedy.hpp"
#include "core/cds.hpp"
#include "verify/verify.hpp"

namespace domset {
namespace {

api::bench_spec small_spec() {
  api::bench_spec spec;
  spec.algs = {"greedy", "lrg"};
  spec.graphs = {"star", "gnp"};
  spec.ns = {60};
  spec.seeds = {1, 2};
  spec.threads = {1, 2, 4};
  spec.repeats = 2;
  return spec;
}

TEST(BenchRunner, EnumeratesTheFullCrossProduct) {
  const api::bench_document doc = api::run_bench(small_spec());
  // graphs(2) x n(1) x seeds(2) x algs(2) x threads(3).
  EXPECT_EQ(doc.cells.size(), 24U);
  EXPECT_EQ(doc.repeats, 2U);
  for (const api::bench_cell& cell : doc.cells) {
    EXPECT_EQ(cell.times_ms.size(), 2U);
    EXPECT_GE(cell.median_ms, 0.0);
    EXPECT_DOUBLE_EQ(cell.record.elapsed_ms, cell.median_ms);
    EXPECT_TRUE(cell.record.valid);
    EXPECT_TRUE(cell.record.result.integral());
  }
  // Deterministic order: graph axes outermost, then alg, threads.
  EXPECT_EQ(doc.cells[0].record.graph_family, "star");
  EXPECT_EQ(doc.cells[0].record.alg, "greedy");
  EXPECT_EQ(doc.cells[0].record.exec.threads, 1U);
  EXPECT_EQ(doc.cells[1].record.exec.threads, 2U);
  EXPECT_EQ(doc.cells[2].record.exec.threads, 4U);
  EXPECT_EQ(doc.cells[3].record.alg, "lrg");
  EXPECT_EQ(doc.cells[12].record.graph_family, "gnp");
}

TEST(BenchRunner, CellsMatchDirectRegistryRuns) {
  api::bench_spec spec;
  spec.algs = {"greedy"};
  spec.graphs = {"gnp"};
  spec.ns = {80};
  spec.seeds = {7};
  spec.repeats = 1;
  const api::bench_document doc = api::run_bench(spec);
  ASSERT_EQ(doc.cells.size(), 1U);

  const graph::graph g = api::make_graph("gnp", 80, 7);
  exec::context exec;
  exec.seed = 7;
  const api::solve_result direct =
      api::solver_registry::instance().find("greedy").solve(g, exec);
  EXPECT_EQ(api::solution_digest(doc.cells[0].record.result),
            api::solution_digest(direct));
  EXPECT_EQ(doc.cells[0].record.nodes, g.node_count());
  EXPECT_EQ(doc.cells[0].record.edges, g.edge_count());
}

TEST(BenchRunner, SolverParamsAreFilteredPerSolver) {
  // k reaches pipeline but not greedy; the sweep must not reject it and
  // must echo it only on the pipeline cells.
  api::bench_spec spec;
  spec.algs = {"pipeline", "greedy"};
  spec.graphs = {"star"};
  spec.ns = {40};
  spec.repeats = 1;
  spec.solver_params.set("k", "3");
  const api::bench_document doc = api::run_bench(spec);
  ASSERT_EQ(doc.cells.size(), 2U);
  for (const api::bench_cell& cell : doc.cells) {
    if (cell.record.alg == "pipeline")
      EXPECT_TRUE(cell.record.params.contains("k"));
    else
      EXPECT_TRUE(cell.record.params.empty());
  }
}

TEST(BenchRunner, DeduplicatesSizesThatBuildTheSameGraph) {
  // grid rounds n to side^2: 100 and 110 both build the 10x10 grid.  A
  // naive cross product would emit two byte-identical cells colliding on
  // the document key (family, nodes, seed); the runner drops the
  // duplicate instead.
  api::bench_spec spec;
  spec.algs = {"greedy"};
  spec.graphs = {"grid"};
  spec.ns = {100, 110, 144};
  spec.repeats = 1;
  const api::bench_document doc = api::run_bench(spec);
  ASSERT_EQ(doc.cells.size(), 2U);
  EXPECT_EQ(doc.cells[0].record.nodes, 100U);
  EXPECT_EQ(doc.cells[1].record.nodes, 144U);
}

TEST(BenchRunner, RejectsIllFormedSpecs) {
  {
    api::bench_spec spec = small_spec();
    spec.algs.clear();
    EXPECT_THROW((void)api::run_bench(spec), std::invalid_argument);
  }
  {
    api::bench_spec spec = small_spec();
    spec.repeats = 0;
    EXPECT_THROW((void)api::run_bench(spec), std::invalid_argument);
  }
  {
    api::bench_spec spec = small_spec();
    spec.algs = {"does_not_exist"};
    EXPECT_THROW((void)api::run_bench(spec), std::invalid_argument);
  }
  {
    api::bench_spec spec = small_spec();
    spec.graphs = {"not_a_family"};
    EXPECT_THROW((void)api::run_bench(spec), std::invalid_argument);
  }
  {
    // A solver param nothing in the sweep accepts is a spec error, not a
    // silent no-op.
    api::bench_spec spec = small_spec();
    spec.algs = {"greedy"};
    spec.solver_params.set("k", "3");
    EXPECT_THROW((void)api::run_bench(spec), std::invalid_argument);
  }
  {
    // Same contract for graph params ('p' belongs to gnp, not star).
    api::bench_spec spec = small_spec();
    spec.graphs = {"star"};
    spec.graph_params.set("p", "0.5");
    EXPECT_THROW((void)api::run_bench(spec), std::invalid_argument);
  }
}

TEST(BenchRunner, SharesOnePoolAcrossParallelCells) {
  api::bench_spec spec;
  spec.algs = {"lrg"};
  spec.graphs = {"gnp"};
  spec.ns = {60};
  spec.threads = {1, 2, 4};
  spec.repeats = 1;
  // An injected pool must be reused rather than replaced.
  spec.base_exec.threads = 4;
  spec.base_exec.ensure_shared_pool();
  const auto pool = spec.base_exec.pool;
  ASSERT_NE(pool, nullptr);
  const api::bench_document doc = api::run_bench(spec);
  EXPECT_EQ(doc.cells.size(), 3U);
  // Serial and parallel cells agree bit-for-bit (pool/threads are
  // wall-clock knobs).
  const std::uint64_t digest =
      api::solution_digest(doc.cells[0].record.result);
  for (const api::bench_cell& cell : doc.cells)
    EXPECT_EQ(api::solution_digest(cell.record.result), digest);
}

TEST(BenchRunner, WeightedAndCdsSweepThroughTheRunner) {
  api::bench_spec spec;
  spec.algs = {"weighted", "cds"};
  spec.graphs = {"gnp"};
  spec.ns = {60};
  spec.seeds = {3};
  spec.repeats = 2;
  // k reaches weighted AND flows through cds into its pipeline base; costs
  // reaches only weighted.  (A base that rejects k, e.g. base=greedy,
  // would fail the sweep loudly -- covered in api_registry_test.)
  spec.solver_params.set("k", "2");
  spec.solver_params.set("costs", "degree");
  spec.solver_params.set("base", "pipeline");
  const api::bench_document doc = api::run_bench(spec);
  ASSERT_EQ(doc.cells.size(), 2U);
  EXPECT_FALSE(doc.cells[0].record.result.integral());  // weighted: LP only
  EXPECT_TRUE(doc.cells[1].record.result.integral());   // cds: a real set
  const graph::graph g = api::make_graph("gnp", 60, 3);
  EXPECT_TRUE(core::is_connected_within_components(
      g, doc.cells[1].record.result.in_set));
}

TEST(BenchRunner, DropAndFaultAxesExpandTheGrid) {
  api::bench_spec spec;
  spec.algs = {"wu_li"};
  spec.graphs = {"gnp"};
  spec.ns = {40};
  spec.seeds = {1};
  spec.repeats = 1;
  spec.drops = {0.0, 0.2};
  spec.faults = {"none", "crash=1@0-1"};
  const api::bench_document doc = api::run_bench(spec);
  ASSERT_EQ(doc.cells.size(), 4U);
  // Axis order: drop outer, faults innermost.
  EXPECT_DOUBLE_EQ(doc.cells[0].record.exec.drop_probability, 0.0);
  EXPECT_EQ(doc.cells[0].record.exec.faults, nullptr);
  EXPECT_FALSE(doc.cells[0].record.exec.faulty());
  ASSERT_NE(doc.cells[1].record.exec.faults, nullptr);
  EXPECT_EQ(doc.cells[1].record.exec.faults->spec, "crash=1@0-1");
  EXPECT_DOUBLE_EQ(doc.cells[2].record.exec.drop_probability, 0.2);
  EXPECT_EQ(doc.cells[2].record.exec.faults, nullptr);
  EXPECT_TRUE(doc.cells[2].record.exec.faulty());  // drop alone degrades
  EXPECT_DOUBLE_EQ(doc.cells[3].record.exec.drop_probability, 0.2);
  ASSERT_NE(doc.cells[3].record.exec.faults, nullptr);
  // The faulty cells actually lost something to the crash.
  EXPECT_GT(doc.cells[1].record.result.metrics.nodes_crashed, 0U);
}

TEST(BenchRunner, DegradedCellsRecordCoverageInsteadOfFailing) {
  // A crash cluster that swallows node 55's whole closed neighborhood on
  // the 10x10 grid: the cell's solution cannot dominate, and the runner
  // must record a degradation report instead of throwing -- with the
  // digest still bit-identical across thread counts.
  api::bench_spec spec;
  spec.algs = {"pipeline"};
  spec.graphs = {"grid"};
  spec.ns = {100};
  spec.seeds = {2};
  spec.repeats = 1;
  spec.threads = {1, 2, 4, 8};
  spec.solver_params.set("k", "2");
  spec.faults = {"crash=55@0+crash=45@0+crash=54@0+crash=56@0+crash=65@0"};
  const api::bench_document doc = api::run_bench(spec);
  ASSERT_EQ(doc.cells.size(), 4U);
  const std::uint64_t digest = api::solution_digest(doc.cells[0].record.result);
  for (const api::bench_cell& cell : doc.cells) {
    EXPECT_FALSE(cell.record.valid);
    ASSERT_TRUE(cell.record.coverage.has_value());
    EXPECT_FALSE(cell.record.coverage->fully_covered());
    EXPECT_GE(cell.record.coverage->holes(), 1U);
    EXPECT_FALSE(cell.record.coverage->attribution.empty());
    EXPECT_EQ(api::solution_digest(cell.record.result), digest);
  }
  const std::string json = api::to_json(doc);
  EXPECT_NE(json.find("\"faults\": \"crash=55@0"), std::string::npos);
  EXPECT_NE(json.find("\"coverage\""), std::string::npos);
}

TEST(BenchRunner, RejectsBadDropAndFaultAxes) {
  {
    api::bench_spec spec = small_spec();
    spec.drops = {1.0};  // certain loss can never terminate convergecasts
    EXPECT_THROW((void)api::run_bench(spec), std::invalid_argument);
  }
  {
    api::bench_spec spec = small_spec();
    spec.drops = {-0.1};
    EXPECT_THROW((void)api::run_bench(spec), std::invalid_argument);
  }
  {
    api::bench_spec spec = small_spec();
    spec.faults = {"not-a-fault"};
    EXPECT_THROW((void)api::run_bench(spec), std::invalid_argument);
  }
}

TEST(BenchRunner, JsonDocumentCarriesTheSchemaAndCells) {
  api::bench_spec spec;
  spec.algs = {"greedy"};
  spec.graphs = {"star"};
  spec.ns = {30};
  spec.repeats = 2;
  const api::bench_document doc = api::run_bench(spec);
  const std::string json = api::to_json(doc);
  EXPECT_NE(json.find("\"schema\": \"domset-bench/1\""), std::string::npos);
  EXPECT_NE(json.find("\"schema\": \"domset-run/1\""), std::string::npos);
  EXPECT_NE(json.find("\"repeats\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"cell_count\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"median_ms\""), std::string::npos);
  EXPECT_NE(json.find("\"digest\": \"" +
                          api::digest_hex(doc.cells[0].record.result) + "\""),
            std::string::npos);
  // Braces balance (cheap structural sanity; the python validator does
  // the real schema check in CI).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

}  // namespace
}  // namespace domset
