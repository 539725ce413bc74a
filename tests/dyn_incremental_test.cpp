// The incremental engine's contract: every epoch's spliced solution
// dominates the materialized snapshot, its size stays within the
// incumbent's quality envelope of a from-scratch re-solve, replay digests
// are bit-identical across {1, 2, 4, 8} threads, and the
// escape hatch / parameter errors behave as documented.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "dyn/dynamic_graph.hpp"
#include "dyn/incremental.hpp"
#include "dyn/mutation.hpp"
#include "dyn/workload.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "verify/verify.hpp"

namespace domset {
namespace {

using dyn::incremental_engine;
using dyn::incremental_params;
using dyn::mutation;

graph::graph test_graph(std::size_t n, std::uint64_t seed) {
  common::rng gen(seed);
  return graph::barabasi_albert(n, 3, gen);
}

incremental_params base_params() {
  incremental_params params;
  params.solver = "pipeline";
  return params;
}

TEST(DynIncremental, EveryEpochStaysValidAndNearFromScratchQuality) {
  incremental_params params = base_params();
  params.exec.seed = 5;
  incremental_engine engine(test_graph(400, 5), params);

  dyn::workload_params wp;
  wp.seed = 5;
  dyn::workload gen(wp);
  for (int epoch = 1; epoch <= 8; ++epoch) {
    for (int i = 0; i < 12; ++i)
      engine.network().apply(
          gen.next(engine.network(), engine.network().rebase_point()));
    const dyn::epoch_report rep = engine.commit_and_repair();
    EXPECT_EQ(rep.epoch, static_cast<std::uint64_t>(epoch));

    const graph::graph g = engine.snapshot();
    EXPECT_TRUE(verify::is_dominating_set(g, engine.solution()))
        << "epoch " << epoch;
    EXPECT_EQ(rep.size, engine.size());
    EXPECT_EQ(rep.nodes, g.node_count());

    // Quality: the spliced incumbent must stay within the solver's own
    // approximation envelope of a from-scratch run on the same snapshot
    // (full.size >= OPT, so ratio_bound * full.size bounds any solution
    // the solver itself could certify).
    const api::solve_result full = engine.full_resolve();
    const double bound = full.ratio_bound > 0.0 ? full.ratio_bound : 3.0;
    EXPECT_LE(static_cast<double>(rep.size),
              bound * static_cast<double>(full.size))
        << "epoch " << epoch;
  }
}

TEST(DynIncremental, ReplayDigestsAreBitIdenticalAcrossExecKnobs) {
  // The determinism contract of the whole subsystem: per-epoch digests
  // are a pure function of (graph, params, seed), never of thread count.
  const graph::graph base = test_graph(300, 9);
  std::vector<std::vector<std::uint64_t>> histories;
  for (const std::size_t threads : {1UL, 2UL, 4UL, 8UL}) {
    incremental_params params = base_params();
    params.exec.seed = 7;
    params.exec.threads = threads;
    incremental_engine engine(base, params);

    dyn::workload_params wp;
    wp.seed = 7;
    wp.bias = dyn::workload_bias::hub;
    dyn::workload gen(wp);
    std::vector<std::uint64_t> digests{engine.digest()};
    for (int epoch = 0; epoch < 5; ++epoch) {
      for (int i = 0; i < 8; ++i)
        engine.network().apply(
            gen.next(engine.network(), engine.network().rebase_point()));
      digests.push_back(engine.commit_and_repair().digest);
    }
    histories.push_back(std::move(digests));
  }
  for (std::size_t i = 1; i < histories.size(); ++i)
    EXPECT_EQ(histories[i], histories[0]) << "thread configuration " << i;
}

TEST(DynIncremental, FrontierCapKeepsHubBallsSmallAndValid) {
  // Hub-biased mutations on a BA graph: uncapped radius-2 balls swallow
  // a hub's whole neighborhood; with the cap the same epochs stay
  // incremental with strictly smaller balls, pin counts reported, and
  // every epoch still verified dominating.
  const graph::graph base = test_graph(400, 13);
  const auto run = [&](std::uint32_t cap) {
    incremental_params params = base_params();
    params.exec.seed = 13;
    params.frontier_cap = cap;
    incremental_engine engine(base, params);
    dyn::workload_params wp;
    wp.seed = 13;
    wp.bias = dyn::workload_bias::hub;
    dyn::workload gen(wp);
    std::size_t ball_total = 0, capped_total = 0;
    for (int epoch = 0; epoch < 6; ++epoch) {
      for (int i = 0; i < 10; ++i)
        engine.network().apply(
            gen.next(engine.network(), engine.network().rebase_point()));
      const dyn::epoch_report rep = engine.commit_and_repair();
      ball_total += rep.ball_nodes;
      capped_total += rep.capped_nodes;
      EXPECT_TRUE(
          verify::is_dominating_set(engine.snapshot(), engine.solution()))
          << "cap " << cap << " epoch " << epoch;
    }
    return std::pair{ball_total, capped_total};
  };

  const auto [uncapped_ball, uncapped_pins] = run(0);
  const auto [capped_ball, capped_pins] = run(8);
  EXPECT_EQ(uncapped_pins, 0U);
  EXPECT_GT(capped_pins, 0U);
  EXPECT_LT(capped_ball, uncapped_ball);
}

TEST(DynIncremental, FrontierCapDigestsStayDeterministicAcrossExecKnobs) {
  // The cap changes which nodes re-decide, so digests differ from the
  // uncapped run -- but they must still be a pure function of (graph,
  // params, seed), identical across thread counts.
  const graph::graph base = test_graph(300, 9);
  std::vector<std::vector<std::uint64_t>> histories;
  for (const std::size_t threads : {1UL, 2UL, 4UL, 8UL}) {
    incremental_params params = base_params();
    params.exec.seed = 7;
    params.exec.threads = threads;
    params.frontier_cap = 12;
    incremental_engine engine(base, params);
    dyn::workload_params wp;
    wp.seed = 7;
    wp.bias = dyn::workload_bias::hub;
    dyn::workload gen(wp);
    std::vector<std::uint64_t> digests{engine.digest()};
    for (int epoch = 0; epoch < 4; ++epoch) {
      for (int i = 0; i < 8; ++i)
        engine.network().apply(
            gen.next(engine.network(), engine.network().rebase_point()));
      digests.push_back(engine.commit_and_repair().digest);
    }
    histories.push_back(std::move(digests));
  }
  for (std::size_t i = 1; i < histories.size(); ++i)
    EXPECT_EQ(histories[i], histories[0]) << "thread configuration " << i;
}

TEST(DynIncremental, FullFractionZeroForcesTheEscapeHatch) {
  incremental_params params = base_params();
  params.full_fraction = 0.0;
  incremental_engine engine(test_graph(120, 3), params);
  const std::vector<mutation> batch = dyn::parse_mutation_list("del=0-1");
  const dyn::epoch_report rep = engine.step(batch);
  EXPECT_TRUE(rep.full_resolve);
  EXPECT_GT(rep.ball_nodes, 0U);  // the ball was measured, then rejected
  EXPECT_EQ(rep.interior_nodes, 0U);
  EXPECT_TRUE(
      verify::is_dominating_set(engine.snapshot(), engine.solution()));
}

TEST(DynIncremental, EmptyBatchChangesNothing) {
  incremental_params params = base_params();
  incremental_engine engine(test_graph(120, 3), params);
  const std::uint64_t before = engine.digest();
  const dyn::epoch_report rep = engine.commit_and_repair();
  EXPECT_EQ(rep.mutations, 0U);
  EXPECT_EQ(rep.ball_nodes, 0U);
  EXPECT_FALSE(rep.full_resolve);
  EXPECT_EQ(rep.changed, 0U);
  EXPECT_EQ(rep.digest, before);
}

TEST(DynIncremental, GrowthReachesNewNodes) {
  // addnode + attachment edges must extend the incumbent and keep it
  // dominating (new nodes start out of the set; the ball covers them).
  incremental_params params = base_params();
  incremental_engine engine(test_graph(100, 11), params);
  const std::size_t n0 = engine.network().node_count();
  std::vector<mutation> batch;
  batch.push_back({dyn::mutation_kind::add_node,
                   static_cast<graph::node_id>(n0),
                   static_cast<graph::node_id>(n0)});
  batch.push_back({dyn::mutation_kind::add_edge, 0,
                   static_cast<graph::node_id>(n0)});
  (void)engine.step(batch);
  EXPECT_EQ(engine.network().node_count(), n0 + 1);
  EXPECT_EQ(engine.solution().size(), n0 + 1);
  EXPECT_TRUE(
      verify::is_dominating_set(engine.snapshot(), engine.solution()));
}

TEST(DynIncremental, ParameterErrorPaths) {
  const graph::graph g = test_graph(50, 1);
  incremental_params params = base_params();
  params.radius = 0;
  EXPECT_THROW(incremental_engine(g, params), std::invalid_argument);
  params = base_params();
  params.full_fraction = -0.5;
  EXPECT_THROW(incremental_engine(g, params), std::invalid_argument);
  params = base_params();
  params.solver = "alg2";  // fractional-only: nothing to splice
  EXPECT_THROW(incremental_engine(g, params), std::invalid_argument);
}

}  // namespace
}  // namespace domset
