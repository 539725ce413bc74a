// The flat-mailbox engine promises bit-identical output for every thread
// count: node randomness, drop decisions, slot addressing, and metric
// folds are all derived per node, never from execution order.  These
// tests pin that promise on the public algorithm APIs (Alg2 end to end)
// and on a chaos program fuzzing the raw engine across {1, 2, 4, 8}
// workers.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/alg2.hpp"
#include "core/alg3.hpp"
#include "graph/generators.hpp"
#include "sim/engine.hpp"
#include "sim/fault.hpp"

namespace domset {
namespace {

using graph::node_id;

constexpr std::array<std::size_t, 4> thread_counts = {1, 2, 4, 8};

void expect_same_metrics(const sim::run_metrics& a, const sim::run_metrics& b,
                         std::size_t threads) {
  EXPECT_EQ(a.rounds, b.rounds) << "threads=" << threads;
  EXPECT_EQ(a.messages_sent, b.messages_sent) << "threads=" << threads;
  EXPECT_EQ(a.bits_sent, b.bits_sent) << "threads=" << threads;
  EXPECT_EQ(a.max_message_bits, b.max_message_bits) << "threads=" << threads;
  EXPECT_EQ(a.max_messages_per_node, b.max_messages_per_node)
      << "threads=" << threads;
  EXPECT_EQ(a.messages_dropped, b.messages_dropped) << "threads=" << threads;
  EXPECT_EQ(a.messages_lost_to_faults, b.messages_lost_to_faults)
      << "threads=" << threads;
  EXPECT_EQ(a.messages_duplicated, b.messages_duplicated)
      << "threads=" << threads;
  EXPECT_EQ(a.node_rounds_down, b.node_rounds_down) << "threads=" << threads;
  EXPECT_EQ(a.nodes_crashed, b.nodes_crashed) << "threads=" << threads;
  EXPECT_EQ(a.congest_violation, b.congest_violation) << "threads=" << threads;
  EXPECT_EQ(a.hit_round_limit, b.hit_round_limit) << "threads=" << threads;
}

TEST(ParallelDeterminism, Alg2IdenticalAcrossThreadCounts) {
  common::rng gen(4711);
  const graph::graph graphs[] = {graph::gnp_random(300, 0.03, gen),
                                 graph::barabasi_albert(200, 3, gen),
                                 graph::star_graph(64)};
  for (const auto& g : graphs) {
    core::lp_approx_params params;
    params.k = 3;
    params.exec.seed = 9;
    const auto serial = core::approximate_lp_known_delta(g, params);
    for (const std::size_t t : thread_counts) {
      params.exec.threads = t;
      const auto run = core::approximate_lp_known_delta(g, params);
      // Bitwise-equal x vectors: the doubles decode from the same integer
      // exponents, so exact comparison is the correct assertion.
      ASSERT_EQ(run.x.size(), serial.x.size());
      for (std::size_t v = 0; v < run.x.size(); ++v)
        EXPECT_EQ(run.x[v], serial.x[v]) << "threads=" << t << " v=" << v;
      EXPECT_EQ(run.objective, serial.objective) << "threads=" << t;
      expect_same_metrics(run.metrics, serial.metrics, t);
    }
  }
}

TEST(ParallelDeterminism, Alg3IdenticalUnderMessageLoss) {
  common::rng gen(4712);
  const graph::graph g = graph::gnp_random(250, 0.04, gen);
  core::lp_approx_params params;
  params.k = 2;
  params.exec.seed = 31;
  params.exec.drop_probability = 0.3;  // drop streams are per sender: order-free
  const auto serial = core::approximate_lp(g, params);
  for (const std::size_t t : thread_counts) {
    params.exec.threads = t;
    const auto run = core::approximate_lp(g, params);
    for (std::size_t v = 0; v < run.x.size(); ++v)
      EXPECT_EQ(run.x[v], serial.x[v]) << "threads=" << t << " v=" << v;
    expect_same_metrics(run.metrics, serial.metrics, t);
  }
}

/// Chaos program for the raw engine: random sends, broadcasts, and
/// per-edge message bursts (to exercise the overflow path), with a
/// digest of everything received.
class chaos_program {
 public:
  explicit chaos_program(std::size_t lifetime) : lifetime_(lifetime) {}

  void on_round(sim::round_context& ctx, std::span<const sim::message> inbox) {
    for (const sim::message& msg : inbox)
      digest_ = digest_ * 1099511628211ULL ^
                (msg.payload + msg.from + msg.tag + msg.bits);
    received_ += inbox.size();
    if (ctx.round() >= lifetime_) {
      done_ = true;
      return;
    }
    auto& gen = ctx.random();
    for (const node_id u : ctx.neighbors()) {
      if (gen.next_bernoulli(0.5))
        ctx.send(u, static_cast<std::uint16_t>(gen.next_below(8)), gen(),
                 static_cast<std::uint32_t>(1 + gen.next_below(16)));
      // Occasional second message down the same edge: overflow path.
      if (gen.next_bernoulli(0.1)) ctx.send(u, 9, gen(), 4);
    }
    if (!ctx.neighbors().empty() && gen.next_bernoulli(0.3))
      ctx.broadcast(7, gen(), 4);
  }

  [[nodiscard]] bool finished() const { return done_; }
  [[nodiscard]] std::uint64_t digest() const { return digest_; }
  [[nodiscard]] std::uint64_t received() const { return received_; }

 private:
  std::size_t lifetime_;
  bool done_ = false;
  std::uint64_t digest_ = 14695981039346656037ULL;
  std::uint64_t received_ = 0;
};

struct chaos_outcome {
  sim::run_metrics metrics;
  std::vector<std::uint64_t> digests;
  std::vector<std::uint64_t> received;
};

chaos_outcome run_chaos(const graph::graph& g, std::uint64_t seed, double drop,
                        std::size_t threads,
                        const std::string& faults = "none") {
  sim::engine_config cfg;
  cfg.seed = seed;
  cfg.drop_probability = drop;
  cfg.max_rounds = 100;
  cfg.threads = threads;
  sim::fault_plan plan = sim::parse_fault_plan(faults);
  if (!plan.empty())
    cfg.faults = std::make_shared<const sim::fault_plan>(std::move(plan));
  sim::typed_engine<chaos_program> eng(g, cfg);
  common::rng lifetimes(seed ^ 0x5eedULL);
  eng.load([&](node_id) {
    return chaos_program(3 + lifetimes.next_below(12));
  });
  chaos_outcome out;
  out.metrics = eng.run();
  for (node_id v = 0; v < g.node_count(); ++v) {
    const auto& prog = eng.program(v);
    out.digests.push_back(prog.digest());
    out.received.push_back(prog.received());
  }
  return out;
}

TEST(ParallelDeterminism, ChaosFuzzAcrossThreadCounts) {
  common::rng gen(4713);
  const graph::graph graphs[] = {graph::gnp_random(120, 0.08, gen),
                                 graph::grid_graph(12, 12),
                                 graph::complete_graph(24)};
  for (const auto& g : graphs) {
    for (const double drop : {0.0, 0.25}) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        const auto serial = run_chaos(g, seed, drop, 1);
        for (const std::size_t t : thread_counts) {
          const auto run = run_chaos(g, seed, drop, t);
          EXPECT_EQ(run.digests, serial.digests)
              << g.summary() << " threads=" << t << " drop=" << drop;
          EXPECT_EQ(run.received, serial.received)
              << g.summary() << " threads=" << t;
          expect_same_metrics(run.metrics, serial.metrics, t);
        }
      }
    }
  }
}

TEST(ParallelDeterminism, ChaosFuzzOnHubTopologies) {
  // The thread grid on degree-skewed topologies, where every worker
  // scatters into the same hub rows: a hub-dominated star, a
  // bounded-degree grid for contrast and a heavy-tailed power-law graph.
  // The chaos program mixes targeted sends, broadcasts, and same-edge
  // bursts, so the lane, demotion, and overflow paths all run.
  common::rng gen(4715);
  const graph::graph graphs[] = {graph::star_graph(96),
                                 graph::grid_graph(10, 10),
                                 graph::barabasi_albert(150, 3, gen)};
  for (const auto& g : graphs) {
    for (const double drop : {0.0, 0.25}) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        const auto serial = run_chaos(g, seed, drop, 1);
        for (const std::size_t t : thread_counts) {
          const auto run = run_chaos(g, seed, drop, t);
          EXPECT_EQ(run.digests, serial.digests)
              << g.summary() << " threads=" << t << " drop=" << drop;
          EXPECT_EQ(run.received, serial.received)
              << g.summary() << " threads=" << t;
          expect_same_metrics(run.metrics, serial.metrics, t);
        }
      }
    }
  }
}

TEST(ParallelDeterminism, ChaosFuzzWithFaultPlan) {
  // The fault plane's decisions are pure functions of (plan, sender, edge
  // position, round) plus per-sender streams, so chaos runs stay
  // bit-identical across the whole grid even with every fault kind active
  // at once, stacked on base message loss.
  common::rng gen(4716);
  const graph::graph graphs[] = {graph::star_graph(96),
                                 graph::grid_graph(10, 10),
                                 graph::gnp_random(120, 0.08, gen)};
  const std::string plan =
      "crash=5@4+crash=2@2-6+link=0-1@1-8:flap=2/3+burst@3-5:p=0.35+"
      "dup@2-9:p=0.2";
  for (const auto& g : graphs) {
    for (const double drop : {0.0, 0.25}) {
      const auto serial = run_chaos(g, 11, drop, 1, plan);
      EXPECT_EQ(serial.metrics.nodes_crashed, 2U) << g.summary();
      EXPECT_GT(serial.metrics.node_rounds_down, 0U) << g.summary();
      for (const std::size_t t : thread_counts) {
        const auto run = run_chaos(g, 11, drop, t, plan);
        EXPECT_EQ(run.digests, serial.digests)
            << g.summary() << " threads=" << t << " drop=" << drop;
        EXPECT_EQ(run.received, serial.received)
            << g.summary() << " threads=" << t;
        expect_same_metrics(run.metrics, serial.metrics, t);
      }
    }
  }
}

TEST(ParallelDeterminism, AutoThreadCountAlsoIdentical) {
  common::rng gen(4714);
  const graph::graph g = graph::gnp_random(150, 0.06, gen);
  const auto serial = run_chaos(g, 7, 0.0, 1);
  const auto autod = run_chaos(g, 7, 0.0, 0);  // 0 = hardware concurrency
  EXPECT_EQ(autod.digests, serial.digests);
  expect_same_metrics(autod.metrics, serial.metrics, 0);
}

}  // namespace
}  // namespace domset
