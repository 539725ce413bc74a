#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "graph/generators.hpp"

namespace domset::sim {
namespace {

using graph::node_id;

/// Broadcasts its id once in round 0, records everything it ever receives,
/// and finishes after `lifetime` rounds.
class echo_program {
 public:
  explicit echo_program(std::size_t lifetime) : lifetime_(lifetime) {}

  void on_round(round_context& ctx, std::span<const message> inbox) {
    for (const message& msg : inbox) received_.push_back(msg);
    if (ctx.round() == 0) ctx.broadcast(7, ctx.id(), 16);
    if (ctx.round() + 1 >= lifetime_) done_ = true;
  }

  [[nodiscard]] bool finished() const { return done_; }
  [[nodiscard]] const std::vector<message>& received() const {
    return received_;
  }

 private:
  std::size_t lifetime_;
  bool done_ = false;
  std::vector<message> received_;
};

/// Sends one direct message to a fixed target in round 0.
class direct_sender {
 public:
  direct_sender(node_id target, bool misbehave)
      : target_(target), misbehave_(misbehave) {}

  void on_round(round_context& ctx, std::span<const message>) {
    if (ctx.round() == 0 && (misbehave_ || ctx.id() == 0))
      ctx.send(target_, 1, 99, 8);
    done_ = true;
  }
  [[nodiscard]] bool finished() const { return done_; }

 private:
  node_id target_;
  bool misbehave_;
  bool done_ = false;
};

TEST(Engine, MessagesArriveNextRound) {
  const graph::graph g = graph::path_graph(3);
  typed_engine<echo_program> eng(g, {});
  eng.load([](node_id) { return echo_program(3); });
  const run_metrics metrics = eng.run();

  // Node 1 hears both ends; ends hear node 1.
  const auto& mid = eng.program(1).received();
  ASSERT_EQ(mid.size(), 2U);
  EXPECT_EQ(mid[0].from, 0U);
  EXPECT_EQ(mid[1].from, 2U);
  EXPECT_EQ(mid[0].payload, 0U);
  EXPECT_EQ(mid[1].payload, 2U);
  const auto& left = eng.program(0).received();
  ASSERT_EQ(left.size(), 1U);
  EXPECT_EQ(left[0].from, 1U);
  EXPECT_EQ(metrics.rounds, 3U);
  EXPECT_FALSE(metrics.hit_round_limit);
}

TEST(Engine, InboxSortedBySender) {
  const graph::graph g = graph::star_graph(6);
  typed_engine<echo_program> eng(g, {});
  eng.load([](node_id) { return echo_program(2); });
  (void)eng.run();
  const auto& hub = eng.program(0).received();
  ASSERT_EQ(hub.size(), 5U);
  for (std::size_t i = 0; i + 1 < hub.size(); ++i)
    EXPECT_LT(hub[i].from, hub[i + 1].from);
}

TEST(Engine, MetricsCountBroadcastPerNeighbor) {
  const graph::graph g = graph::complete_graph(4);
  typed_engine<echo_program> eng(g, {});
  eng.load([](node_id) { return echo_program(2); });
  const run_metrics metrics = eng.run();
  // 4 nodes broadcast to 3 neighbors each.
  EXPECT_EQ(metrics.messages_sent, 12U);
  EXPECT_EQ(metrics.bits_sent, 12U * 16U);
  EXPECT_EQ(metrics.max_message_bits, 16U);
  EXPECT_EQ(metrics.max_messages_per_node, 3U);
}

TEST(Engine, SendToNonNeighborThrows) {
  const graph::graph g = graph::path_graph(3);  // 0-1-2: 0 and 2 not adjacent
  typed_engine<direct_sender> eng(g, {});
  eng.load([](node_id) { return direct_sender(2, true); });
  EXPECT_THROW((void)eng.run(), std::logic_error);
}

TEST(Engine, DirectSendReachesTarget) {
  const graph::graph g = graph::path_graph(2);
  typed_engine<direct_sender> eng(g, {});
  eng.load([](node_id) { return direct_sender(1, false); });
  (void)eng.run();  // node 0 sends to neighbor 1; must not throw
}

TEST(Engine, RoundLimitFlagged) {
  /// A program that never finishes.
  class immortal {
   public:
    void on_round(round_context&, std::span<const message>) {}
    [[nodiscard]] bool finished() const { return false; }
  };
  const graph::graph g = graph::path_graph(2);
  engine_config cfg;
  cfg.max_rounds = 10;
  typed_engine<immortal> eng(g, cfg);
  eng.load([](node_id) { return immortal(); });
  const run_metrics metrics = eng.run();
  EXPECT_TRUE(metrics.hit_round_limit);
  EXPECT_EQ(metrics.rounds, 10U);
}

TEST(Engine, ZeroRoundsWhenAllStartFinished) {
  class instant {
   public:
    void on_round(round_context&, std::span<const message>) {}
    [[nodiscard]] bool finished() const { return true; }
  };
  const graph::graph g = graph::path_graph(2);
  typed_engine<instant> eng(g, {});
  eng.load([](node_id) { return instant(); });
  const run_metrics metrics = eng.run();
  EXPECT_EQ(metrics.rounds, 0U);
  EXPECT_FALSE(metrics.hit_round_limit);
}

TEST(Engine, CongestViolationDetected) {
  const graph::graph g = graph::path_graph(2);
  engine_config cfg;
  cfg.congest_bit_limit = 8;
  typed_engine<echo_program> eng(g, cfg);
  eng.load([](node_id) { return echo_program(2); });
  const run_metrics metrics = eng.run();  // echo sends 16-bit messages
  EXPECT_TRUE(metrics.congest_violation);
}

TEST(Engine, CongestWithinLimitClean) {
  const graph::graph g = graph::path_graph(2);
  engine_config cfg;
  cfg.congest_bit_limit = 16;
  typed_engine<echo_program> eng(g, cfg);
  eng.load([](node_id) { return echo_program(2); });
  EXPECT_FALSE(eng.run().congest_violation);
}

TEST(Engine, DropAdversaryRemovesMessages) {
  const graph::graph g = graph::complete_graph(20);
  engine_config cfg;
  cfg.seed = 5;
  cfg.drop_probability = 0.5;
  typed_engine<echo_program> eng(g, cfg);
  eng.load([](node_id) { return echo_program(2); });
  const run_metrics metrics = eng.run();
  EXPECT_EQ(metrics.messages_sent, 380U);  // sends are counted pre-drop
  EXPECT_GT(metrics.messages_dropped, 100U);
  EXPECT_LT(metrics.messages_dropped, 280U);
  std::size_t received_total = 0;
  for (node_id v = 0; v < 20; ++v)
    received_total += eng.program(v).received().size();
  EXPECT_EQ(received_total, metrics.messages_sent - metrics.messages_dropped);
}

TEST(Engine, DroppedMessagesDoNotInflatePerNodeSendCount) {
  // Regression: the seed engine bumped per_node_sent_ before the drop
  // roll, so a lossy adversary inflated max_messages_per_node.  Drops are
  // now accounted separately: with every message dropped, the per-node
  // delivery maximum must be zero while messages_sent still records the
  // offered load.
  const graph::graph g = graph::complete_graph(20);
  engine_config cfg;
  cfg.seed = 5;
  cfg.drop_probability = 1.0;
  typed_engine<echo_program> eng(g, cfg);
  eng.load([](node_id) { return echo_program(2); });
  const run_metrics metrics = eng.run();
  EXPECT_EQ(metrics.messages_sent, 380U);
  EXPECT_EQ(metrics.messages_dropped, 380U);
  EXPECT_EQ(metrics.max_messages_per_node, 0U);
  for (node_id v = 0; v < 20; ++v)
    EXPECT_TRUE(eng.program(v).received().empty());
}

TEST(Engine, MultipleMessagesPerEdgeStayInSendOrder) {
  // Overflow path: three messages down one edge in one round must arrive
  // contiguously, sorted by sender, in send order.
  class burst {
   public:
    void on_round(round_context& ctx, std::span<const message> inbox) {
      for (const message& msg : inbox) received_.push_back(msg);
      if (ctx.round() == 0 && ctx.id() != 1) {
        for (std::uint64_t i = 0; i < 3; ++i) ctx.send(1, 4, 10 * ctx.id() + i, 8);
      }
      if (ctx.round() >= 1) done_ = true;
    }
    [[nodiscard]] bool finished() const { return done_; }
    std::vector<message> received_;

   private:
    bool done_ = false;
  };
  // Path 0-1-2: node 1 receives two three-message bursts.
  const graph::graph g = graph::path_graph(3);
  typed_engine<burst> eng(g, {});
  eng.load([](node_id) { return burst(); });
  (void)eng.run();
  const auto& mid = eng.program(1).received_;
  ASSERT_EQ(mid.size(), 6U);
  const std::uint64_t expected[] = {0, 1, 2, 20, 21, 22};
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(mid[i].payload, expected[i]);
    EXPECT_EQ(mid[i].from, i < 3 ? 0U : 2U);
  }
}

TEST(Engine, HubBurstsKeepPerSenderOrderAndStaySubcubic) {
  // Star hub sending several messages down every edge exercises the
  // overflow grouping (entries are binary-searched per receiver, not
  // rescanned): each leaf must see the hub's burst contiguously in send
  // order, and the hub must see every leaf's burst sorted by sender.
  constexpr std::uint64_t burst = 3;
  class burster {
   public:
    void on_round(round_context& ctx, std::span<const message> inbox) {
      for (const message& msg : inbox) received_.push_back(msg);
      if (ctx.round() == 0)
        for (std::uint64_t i = 0; i < burst; ++i)
          ctx.broadcast(2, 100 * ctx.id() + i, 8);
      if (ctx.round() >= 1) done_ = true;
    }
    [[nodiscard]] bool finished() const { return done_; }
    std::vector<message> received_;

   private:
    bool done_ = false;
  };
  const graph::graph g = graph::star_graph(40);  // hub 0, leaves 1..39
  typed_engine<burster> eng(g, {});
  eng.load([](node_id) { return burster(); });
  (void)eng.run();

  const auto& hub = eng.program(0).received_;
  ASSERT_EQ(hub.size(), 39U * burst);
  for (std::size_t i = 0; i < hub.size(); ++i) {
    const node_id sender = static_cast<node_id>(1 + i / burst);
    EXPECT_EQ(hub[i].from, sender);
    EXPECT_EQ(hub[i].payload, 100ULL * sender + i % burst);
  }
  for (node_id leaf = 1; leaf < 40; ++leaf) {
    const auto& rec = eng.program(leaf).received_;
    ASSERT_EQ(rec.size(), burst);
    for (std::uint64_t i = 0; i < burst; ++i) {
      EXPECT_EQ(rec[i].from, 0U);
      EXPECT_EQ(rec[i].payload, i);
    }
  }
}

TEST(Engine, DeterministicPerSeed) {
  const graph::graph g = graph::complete_graph(10);
  const auto run_once = [&](std::uint64_t seed) {
    engine_config cfg;
    cfg.seed = seed;
    cfg.drop_probability = 0.3;
    typed_engine<echo_program> eng(g, cfg);
    eng.load([](node_id) { return echo_program(2); });
    return eng.run().messages_dropped;
  };
  EXPECT_EQ(run_once(11), run_once(11));
  EXPECT_NE(run_once(11), run_once(12));  // overwhelmingly likely
}

TEST(Engine, RoundObserverFiresEachRound) {
  const graph::graph g = graph::path_graph(3);
  typed_engine<echo_program> eng(g, {});
  eng.load([](node_id) { return echo_program(4); });
  std::vector<std::size_t> observed;
  eng.set_round_observer([&](std::size_t r) { observed.push_back(r); });
  (void)eng.run();
  ASSERT_EQ(observed.size(), 4U);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(observed[i], i);
}

TEST(Engine, LoadTwiceThrows) {
  const graph::graph g = graph::path_graph(2);
  typed_engine<echo_program> eng(g, {});
  const auto factory = [](node_id) { return echo_program(1); };
  eng.load(factory);
  EXPECT_THROW(eng.load(factory), std::logic_error);
}

TEST(Engine, RunWithoutLoadThrows) {
  const graph::graph g = graph::path_graph(2);
  typed_engine<echo_program> eng(g, {});
  EXPECT_THROW((void)eng.run(), std::logic_error);
}

TEST(Engine, NodeRandomStreamsDiffer) {
  class roller {
   public:
    void on_round(round_context& ctx, std::span<const message>) {
      value_ = ctx.random()();
      done_ = true;
    }
    [[nodiscard]] bool finished() const { return done_; }
    std::uint64_t value_ = 0;

   private:
    bool done_ = false;
  };
  const graph::graph g = graph::empty_graph(8);
  typed_engine<roller> eng(g, {});
  eng.load([](node_id) { return roller(); });
  (void)eng.run();
  for (node_id a = 0; a < 8; ++a)
    for (node_id b = a + 1; b < 8; ++b)
      EXPECT_NE(eng.program(a).value_, eng.program(b).value_);
}

TEST(BitsForValues, Widths) {
  EXPECT_EQ(bits_for_values(1), 1U);
  EXPECT_EQ(bits_for_values(2), 1U);
  EXPECT_EQ(bits_for_values(3), 2U);
  EXPECT_EQ(bits_for_values(4), 2U);
  EXPECT_EQ(bits_for_values(5), 3U);
  EXPECT_EQ(bits_for_values(256), 8U);
  EXPECT_EQ(bits_for_values(257), 9U);
}

}  // namespace
}  // namespace domset::sim
