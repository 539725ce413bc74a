// Robustness extension: the paper assumes reliable links; these tests
// document how the algorithms degrade under i.i.d. message loss.
//
// Key structural property: in Algorithms 2/3, losing messages can only
// keep nodes *white* longer (coverage sums under-count), and every white
// node still self-assigns x = 1 in the final iteration -- so the
// fractional output stays primal feasible under arbitrary loss.  Likewise
// Algorithm 1's fix-up self-selects any node that did not hear a
// dominator, so the rounded set stays dominating.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <utility>

#include "baselines/lrg.hpp"
#include "common/rng.hpp"
#include "core/alg2.hpp"
#include "core/alg3.hpp"
#include "core/pipeline.hpp"
#include "graph/generators.hpp"
#include "lp/lp_mds.hpp"
#include "sim/fault.hpp"
#include "verify/verify.hpp"

namespace domset {
namespace {

TEST(FailureInjection, Alg2StaysFeasibleUnderLoss) {
  common::rng gen(901);
  const graph::graph g = graph::gnp_random(40, 0.15, gen);
  for (const double drop : {0.05, 0.2, 0.5, 0.9}) {
    core::lp_approx_params params;
    params.k = 3;
    params.exec.seed = 77;
    params.exec.drop_probability = drop;
    const auto res = core::approximate_lp_known_delta(g, params);
    EXPECT_TRUE(lp::is_primal_feasible(g, res.x)) << "drop=" << drop;
    EXPECT_GT(res.metrics.messages_dropped, 0U);
    // Rounds are schedule-driven, never extended by loss.
    EXPECT_EQ(res.metrics.rounds, core::alg2_round_count(3));
  }
}

TEST(FailureInjection, Alg3StaysFeasibleUnderLoss) {
  common::rng gen(902);
  const graph::graph g = graph::gnp_random(40, 0.15, gen);
  for (const double drop : {0.05, 0.2, 0.5, 0.9}) {
    core::lp_approx_params params;
    params.k = 2;
    params.exec.seed = 78;
    params.exec.drop_probability = drop;
    const auto res = core::approximate_lp(g, params);
    EXPECT_TRUE(lp::is_primal_feasible(g, res.x)) << "drop=" << drop;
    EXPECT_EQ(res.metrics.rounds, core::alg3_round_count(2));
  }
}

TEST(FailureInjection, LossInflatesObjectiveGracefully) {
  // Dropped coverage reports keep nodes white, so more nodes raise x; the
  // objective should grow monotonically-ish with the drop rate but stay
  // bounded by n (every x <= 1).
  common::rng gen(903);
  const graph::graph g = graph::gnp_random(60, 0.1, gen);
  core::lp_approx_params clean;
  clean.k = 3;
  const double base = core::approximate_lp(g, clean).objective;
  core::lp_approx_params lossy = clean;
  lossy.exec.drop_probability = 0.8;
  lossy.exec.seed = 5;
  const double degraded = core::approximate_lp(g, lossy).objective;
  EXPECT_GE(degraded, base - 1e-9);
  EXPECT_LE(degraded, static_cast<double>(g.node_count()) + 1e-9);
}

TEST(FailureInjection, PipelineStillDominatesUnderLoss) {
  common::rng gen(904);
  const graph::graph g = graph::gnp_random(50, 0.12, gen);
  for (const double drop : {0.1, 0.3, 0.6}) {
    core::pipeline_params params;
    params.k = 2;
    params.exec.seed = 40;
    params.exec.drop_probability = drop;
    const auto res = core::compute_dominating_set(g, params);
    EXPECT_TRUE(verify::is_dominating_set(g, res.in_set)) << "drop=" << drop;
  }
}

TEST(FailureInjection, LossOnlyGrowsTheRoundedSet) {
  // With the same seeds, loss can only move nodes into the set (missed
  // announcements trigger the fix-up), never out of it... on average.
  common::rng gen(905);
  const graph::graph g = graph::gnp_random(50, 0.12, gen);
  std::size_t clean_total = 0;
  std::size_t lossy_total = 0;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    core::pipeline_params params;
    params.k = 2;
    params.exec.seed = seed;
    clean_total += core::compute_dominating_set(g, params).size;
    params.exec.drop_probability = 0.5;
    lossy_total += core::compute_dominating_set(g, params).size;
  }
  // Averaged over seeds; a small slack absorbs coin-flip noise (loss also
  // shrinks the delta^(2) estimates, which lowers selection probabilities).
  EXPECT_GE(lossy_total + 5, clean_total);
}

TEST(FailureInjection, FaultPlanBitIdenticalAcrossThreads) {
  // The acceptance criterion of the fault plane: a run with every fault
  // kind scheduled at once -- crash-stop, crash-recover, a flapping link,
  // a loss burst stacked on base drop, duplication -- produces the same
  // set, the same objective, and the same fault counters for every
  // thread count.
  common::rng gen(907);
  const graph::graph g = graph::gnp_random(60, 0.1, gen);
  auto plan = std::make_shared<const sim::fault_plan>(sim::parse_fault_plan(
      "crash=3@2+crash=8@1-4+link=0-1@0-9:flap=1/2+burst@2-4:p=0.3+"
      "dup@1-6:p=0.25"));
  core::pipeline_params params;
  params.k = 2;
  params.exec.seed = 19;
  params.exec.drop_probability = 0.1;
  params.exec.faults = plan;
  const auto serial = core::compute_dominating_set(g, params);
  // Exact fault bookkeeping on the reference run: both scheduled crashes
  // fired in both engine runs (the plan's rounds are run-relative, so the
  // rounding stage replays the schedule) and each fault meter is active.
  for (const sim::run_metrics* m :
       {&serial.fractional.metrics, &serial.rounding.metrics}) {
    EXPECT_EQ(m->nodes_crashed, 2U);
    EXPECT_GT(m->node_rounds_down, 0U);
    EXPECT_GT(m->messages_lost_to_faults, 0U);
    EXPECT_GT(m->messages_duplicated, 0U);
    EXPECT_GT(m->messages_dropped, 0U);
  }
  for (const std::size_t threads : std::array<std::size_t, 4>{1, 2, 4, 8}) {
    params.exec.threads = threads;
    const auto run = core::compute_dominating_set(g, params);
    EXPECT_EQ(run.in_set, serial.in_set) << "threads=" << threads;
    EXPECT_EQ(run.size, serial.size);
    EXPECT_EQ(run.total_rounds, serial.total_rounds);
    EXPECT_EQ(run.total_messages, serial.total_messages);
    const auto pairs = {
        std::make_pair(&run.fractional.metrics, &serial.fractional.metrics),
        std::make_pair(&run.rounding.metrics, &serial.rounding.metrics)};
    for (const auto& [a, b] : pairs) {
      EXPECT_EQ(a->messages_dropped, b->messages_dropped);
      EXPECT_EQ(a->messages_lost_to_faults, b->messages_lost_to_faults);
      EXPECT_EQ(a->messages_duplicated, b->messages_duplicated);
      EXPECT_EQ(a->node_rounds_down, b->node_rounds_down);
      EXPECT_EQ(a->nodes_crashed, b->nodes_crashed);
    }
  }
}

TEST(FailureInjection, CrashClusterLeavesHolesAlg1CannotFix) {
  // "Join if in doubt" heals every loss-shaped failure, so a guaranteed
  // hole needs a crashed node whose whole closed neighborhood crashed
  // with it: nobody inside the hole can self-select.  A 5-node plus-sign
  // cluster on the grid does exactly that.
  const graph::graph g = graph::grid_graph(10, 10);
  auto plan = std::make_shared<const sim::fault_plan>(sim::parse_fault_plan(
      "crash=55@0+crash=45@0+crash=54@0+crash=56@0+crash=65@0"));
  core::pipeline_params params;
  params.k = 2;
  params.exec.seed = 2;
  params.exec.faults = plan;
  const auto res = core::compute_dominating_set(g, params);
  EXPECT_FALSE(verify::is_dominating_set(g, res.in_set));
  const auto holes = verify::undominated_nodes(g, res.in_set);
  ASSERT_FALSE(holes.empty());
  // The damage is confined to the crashed cluster.
  for (const graph::node_id v : holes) {
    const bool in_cluster =
        v == 55 || v == 45 || v == 54 || v == 56 || v == 65;
    EXPECT_TRUE(in_cluster) << "hole outside the crash cluster: " << v;
  }
}

TEST(FailureInjection, LrgTerminatesAndDominatesUnderModerateLoss) {
  common::rng gen(906);
  const graph::graph g = graph::gnp_random(40, 0.15, gen);
  baselines::lrg_params params;
  params.exec.seed = 3;
  params.exec.drop_probability = 0.1;
  const auto res = baselines::lrg_mds(g, params);
  EXPECT_FALSE(res.metrics.hit_round_limit);
  EXPECT_TRUE(verify::is_dominating_set(g, res.in_set));
}

}  // namespace
}  // namespace domset
