// Randomized stress of the engine's core invariants: arbitrary node
// programs sending arbitrary (valid) messages must never break message
// conservation, inbox ordering, metric accounting, or determinism.
#include <gtest/gtest.h>

#include <iterator>
#include <vector>

#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "sim/engine.hpp"

namespace domset::sim {
namespace {

using graph::node_id;

/// Sends a random subset of neighbors random payloads each round for a
/// random lifetime; records everything received.
class chaos_program {
 public:
  explicit chaos_program(std::size_t lifetime) : lifetime_(lifetime) {}

  void on_round(round_context& ctx, std::span<const message> inbox) {
    received_ += inbox.size();
    for (std::size_t i = 1; i < inbox.size(); ++i)
      ordered_ &= inbox[i - 1].from <= inbox[i].from;
    if (ctx.round() >= lifetime_) {
      done_ = true;
      return;
    }
    auto& gen = ctx.random();
    for (const node_id u : ctx.neighbors()) {
      if (gen.next_bernoulli(0.4)) {
        const auto bits = static_cast<std::uint32_t>(1 + gen.next_below(16));
        ctx.send(u, static_cast<std::uint16_t>(gen.next_below(8)), gen(),
                 bits);
        ++sent_;
      }
    }
    if (!ctx.neighbors().empty() && gen.next_bernoulli(0.2)) {
      ctx.broadcast(7, gen(), 4);
      sent_ += ctx.neighbors().size();
    }
  }

  [[nodiscard]] bool finished() const { return done_; }
  [[nodiscard]] std::uint64_t sent() const { return sent_; }
  [[nodiscard]] std::uint64_t received() const { return received_; }
  [[nodiscard]] bool ordered() const { return ordered_; }

 private:
  std::size_t lifetime_;
  bool done_ = false;
  bool ordered_ = true;
  std::uint64_t sent_ = 0;
  std::uint64_t received_ = 0;
};

struct fuzz_outcome {
  run_metrics metrics;
  std::uint64_t declared_sent = 0;
  std::uint64_t delivered = 0;
  bool all_ordered = true;
};

fuzz_outcome run_fuzz(const graph::graph& g, std::uint64_t seed, double drop,
                      std::size_t threads = 1) {
  engine_config cfg;
  cfg.seed = seed;
  cfg.drop_probability = drop;
  cfg.max_rounds = 200;
  cfg.threads = threads;
  typed_engine<chaos_program> eng(g, cfg);
  common::rng lifetimes(seed ^ 0x5eedULL);
  eng.load([&](node_id) {
    return chaos_program(3 + lifetimes.next_below(20));
  });
  fuzz_outcome out;
  out.metrics = eng.run();
  for (node_id v = 0; v < g.node_count(); ++v) {
    const auto& prog = eng.program(v);
    out.declared_sent += prog.sent();
    out.delivered += prog.received();
    out.all_ordered &= prog.ordered();
  }
  return out;
}

TEST(SimFuzz, ConservationAndOrderingAcrossTopologies) {
  common::rng gen(1801);
  const graph::graph graphs[] = {
      graph::complete_graph(12),     graph::cycle_graph(20),
      graph::star_graph(15),         graph::gnp_random(40, 0.1, gen),
      graph::grid_graph(5, 5),       graph::barabasi_albert(30, 2, gen)};
  // The invariants must hold for every worker count, and the pooled runs
  // give the sanitizer jobs real multi-threaded traffic to chew on.  The
  // seeds cycle through the thread counts; the exhaustive grid lives in
  // FullDeterminism below.
  const std::size_t thread_counts[] = {1, 2, 4, 8};
  for (const auto& g : graphs) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      const std::size_t t = thread_counts[seed % std::size(thread_counts)];
      const auto out = run_fuzz(g, seed, 0.0, t);
      EXPECT_EQ(out.metrics.messages_sent, out.declared_sent) << g.summary();
      // Reliable network: everything sent before termination is delivered
      // except messages sent in the final round (engine stops once all
      // programs finish, so last-round sends can be in flight).
      EXPECT_LE(out.delivered, out.metrics.messages_sent) << g.summary();
      EXPECT_GE(out.delivered + 2 * g.edge_count() + g.node_count(),
                out.metrics.messages_sent)
          << g.summary();
      EXPECT_TRUE(out.all_ordered) << g.summary();
      EXPECT_FALSE(out.metrics.hit_round_limit) << g.summary();
      EXPECT_EQ(out.metrics.messages_dropped, 0U);
    }
  }
}

TEST(SimFuzz, LossyConservation) {
  common::rng gen(1802);
  const graph::graph g = graph::gnp_random(30, 0.2, gen);
  for (const double drop : {0.1, 0.5, 0.9}) {
    const auto out = run_fuzz(g, 77, drop, /*threads=*/2);
    EXPECT_EQ(out.metrics.messages_sent, out.declared_sent);
    EXPECT_LE(out.delivered,
              out.metrics.messages_sent - out.metrics.messages_dropped);
    EXPECT_GT(out.metrics.messages_dropped, 0U) << drop;
  }
}

TEST(SimFuzz, BitAccountingIsExact) {
  // All chaos messages declare 1..16 bits (direct) or 4 (broadcast), so
  // totals must lie within [1, 16] x messages.
  common::rng gen(1803);
  const graph::graph g = graph::gnp_random(25, 0.25, gen);
  const auto out = run_fuzz(g, 5, 0.0);
  EXPECT_GE(out.metrics.bits_sent, out.metrics.messages_sent);
  EXPECT_LE(out.metrics.bits_sent, 16 * out.metrics.messages_sent);
  EXPECT_LE(out.metrics.max_message_bits, 16U);
}

TEST(SimFuzz, FullDeterminism) {
  // Every thread count must reproduce the serial run exactly -- threading
  // is a wall-clock knob only.
  common::rng gen(1804);
  const graph::graph graphs[] = {graph::gnp_random(35, 0.15, gen),
                                 graph::star_graph(80)};
  for (const auto& g : graphs) {
    for (const double drop : {0.0, 0.3}) {
      const auto a = run_fuzz(g, 99, drop, /*threads=*/1);
      for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                        std::size_t{4}, std::size_t{8}}) {
        const auto b = run_fuzz(g, 99, drop, threads);
        EXPECT_EQ(a.metrics.messages_sent, b.metrics.messages_sent)
            << g.summary() << " t=" << threads;
        EXPECT_EQ(a.metrics.bits_sent, b.metrics.bits_sent);
        EXPECT_EQ(a.metrics.rounds, b.metrics.rounds);
        EXPECT_EQ(a.metrics.messages_dropped, b.metrics.messages_dropped);
        EXPECT_EQ(a.delivered, b.delivered);
        EXPECT_TRUE(b.all_ordered) << g.summary() << " t=" << threads;
      }
    }
  }
}

}  // namespace
}  // namespace domset::sim
