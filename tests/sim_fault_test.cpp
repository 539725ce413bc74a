// The deterministic fault plane: grammar round-trips, compile-time
// validation, and the exact engine semantics of every fault kind --
// crash-stop, crash-recover, link cuts (plain and flapping), bursts and
// duplication -- pinned with a fully deterministic flood program whose
// delivery counts can be derived by hand on a 3-node path.
//
// Path topology (0 - 1 - 2), flood lifetime R = 4: every node sends one
// 8-bit message to each neighbor in rounds 0..3 and finishes at round 4,
// so the reliable baseline executes 5 rounds, sends 16 messages (4 per
// round: ends send 1, the middle sends 2), and delivers
// received = {4, 8, 4}.  Every fault scenario below perturbs exactly one
// mechanism and asserts the exact counter deltas that follow.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "sim/engine.hpp"
#include "sim/fault.hpp"

namespace domset {
namespace {

using graph::node_id;
using sim::fault_plan;
using sim::fault_window;
using sim::parse_fault_plan;

// ------------------------------------------------------------- grammar

TEST(FaultGrammar, EmptyAndNone) {
  for (const char* spec : {"", "none"}) {
    const fault_plan plan = parse_fault_plan(spec);
    EXPECT_TRUE(plan.empty());
    EXPECT_EQ(plan.spec, "none");
    EXPECT_EQ(to_string(plan), "none");
  }
}

TEST(FaultGrammar, CrashSingleRoundMeansForever) {
  const fault_plan plan = parse_fault_plan("crash=7@10");
  ASSERT_EQ(plan.node_faults.size(), 1U);
  EXPECT_EQ(plan.node_faults[0].node, 7U);
  EXPECT_EQ(plan.node_faults[0].window.first, 10U);
  EXPECT_TRUE(plan.node_faults[0].window.open_ended());
  EXPECT_TRUE(plan.node_faults[0].crash_stop());
  EXPECT_EQ(plan.spec, "crash=7@10");
  // The explicit open form canonicalizes to the same rendering.
  EXPECT_EQ(parse_fault_plan("crash=7@10-").spec, "crash=7@10");
}

TEST(FaultGrammar, CrashRecoverWindow) {
  const fault_plan plan = parse_fault_plan("crash=3@2-5");
  ASSERT_EQ(plan.node_faults.size(), 1U);
  EXPECT_FALSE(plan.node_faults[0].crash_stop());
  EXPECT_EQ(plan.node_faults[0].window, (fault_window{2, 5}));
  EXPECT_EQ(plan.spec, "crash=3@2-5");
}

TEST(FaultGrammar, LinkSingleRoundMeansThatRoundOnly) {
  const fault_plan plan = parse_fault_plan("link=2-5@4");
  ASSERT_EQ(plan.link_faults.size(), 1U);
  EXPECT_EQ(plan.link_faults[0].u, 2U);
  EXPECT_EQ(plan.link_faults[0].v, 5U);
  EXPECT_EQ(plan.link_faults[0].window, (fault_window{4, 4}));
  EXPECT_EQ(plan.spec, "link=2-5@4");
}

TEST(FaultGrammar, LinkFlapPhase) {
  const fault_plan plan = parse_fault_plan("link=0-3@4-9:flap=1/3");
  ASSERT_EQ(plan.link_faults.size(), 1U);
  const sim::link_fault& f = plan.link_faults[0];
  EXPECT_EQ(f.flap_down, 1U);
  EXPECT_EQ(f.flap_period, 3U);
  // Down for the first flap_down rounds of each cycle, phase-aligned to
  // the window start: 4, 7 down; 5, 6, 8, 9 up; outside the window up.
  EXPECT_TRUE(f.down_at(4));
  EXPECT_FALSE(f.down_at(5));
  EXPECT_FALSE(f.down_at(6));
  EXPECT_TRUE(f.down_at(7));
  EXPECT_FALSE(f.down_at(9));
  EXPECT_FALSE(f.down_at(3));
  EXPECT_FALSE(f.down_at(10));
  EXPECT_EQ(plan.spec, "link=0-3@4-9:flap=1/3");
}

TEST(FaultGrammar, BurstAndDupProbabilities) {
  const fault_plan plan = parse_fault_plan("burst@5-6:p=0.5+dup@0-:p=0.25");
  ASSERT_EQ(plan.bursts.size(), 1U);
  EXPECT_EQ(plan.bursts[0].window, (fault_window{5, 6}));
  EXPECT_DOUBLE_EQ(plan.bursts[0].probability, 0.5);
  ASSERT_EQ(plan.dups.size(), 1U);
  EXPECT_TRUE(plan.dups[0].window.open_ended());
  EXPECT_DOUBLE_EQ(plan.dups[0].probability, 0.25);
  EXPECT_EQ(plan.spec, "burst@5-6:p=0.5+dup@0-:p=0.25");
  // p omitted = certain.
  EXPECT_DOUBLE_EQ(parse_fault_plan("burst@3").bursts[0].probability, 1.0);
}

TEST(FaultGrammar, CompositePlanRoundTrips) {
  const char* spec =
      "crash=7@10+crash=2@1-3+link=0-3@4-9:flap=1/3+burst@5-6:p=0.5+dup@2";
  const fault_plan plan = parse_fault_plan(spec);
  EXPECT_EQ(plan.spec, spec);
  const fault_plan again = parse_fault_plan(plan.spec);
  EXPECT_EQ(again.node_faults, plan.node_faults);
  EXPECT_EQ(again.link_faults, plan.link_faults);
  EXPECT_EQ(again.bursts, plan.bursts);
  EXPECT_EQ(again.dups, plan.dups);
}

TEST(FaultGrammar, MalformedSpecsThrow) {
  for (const char* bad :
       {"bogus", "crash=", "crash=1", "crash=x@3", "crash=1@5-3",
        "link=0-0@1", "link=1@2", "link=0-1@2:flap=4/3", "link=0-1@2:flap=1/0",
        "burst@", "burst@1:p=1.5", "dup@1:p=-0.1", "crash=1@2+",
        "crash=1@2,crash=2@3"}) {
    EXPECT_THROW((void)parse_fault_plan(bad), std::invalid_argument) << bad;
  }
}

TEST(FaultCompile, OutOfRangeNodeThrows) {
  const graph::graph g = graph::path_graph(3);
  EXPECT_THROW(sim::compiled_faults(g, parse_fault_plan("crash=3@0")),
               std::invalid_argument);
  EXPECT_THROW(sim::compiled_faults(g, parse_fault_plan("link=0-9@0")),
               std::invalid_argument);
}

// ------------------------------------------------------ engine semantics

/// Deterministic flood: one message per neighbor per round for `lifetime`
/// rounds, then finish.  No RNG, so every delivery count is derivable.
class flood_program {
 public:
  explicit flood_program(std::size_t lifetime) : lifetime_(lifetime) {}

  void on_round(sim::round_context& ctx, std::span<const sim::message> inbox) {
    received_ += inbox.size();
    for (const sim::message& msg : inbox)
      digest_ = digest_ * 1099511628211ULL ^ (msg.payload + msg.from);
    if (ctx.round() >= lifetime_) {
      done_ = true;
      return;
    }
    for (const node_id u : ctx.neighbors())
      ctx.send(u, 1, 1000 * ctx.id() + ctx.round(), 8);
  }

  [[nodiscard]] bool finished() const { return done_; }
  [[nodiscard]] std::uint64_t received() const { return received_; }
  [[nodiscard]] std::uint64_t digest() const { return digest_; }

 private:
  std::size_t lifetime_;
  bool done_ = false;
  std::uint64_t received_ = 0;
  std::uint64_t digest_ = 14695981039346656037ULL;
};

struct flood_outcome {
  sim::run_metrics metrics;
  std::vector<std::uint64_t> received;
  std::vector<std::uint64_t> digests;
};

flood_outcome run_flood(const graph::graph& g, const std::string& faults,
                        std::size_t lifetime = 4, std::size_t threads = 1) {
  sim::engine_config cfg;
  cfg.seed = 99;
  cfg.max_rounds = 50;
  cfg.threads = threads;
  fault_plan plan = parse_fault_plan(faults);
  if (!plan.empty())
    cfg.faults = std::make_shared<const fault_plan>(std::move(plan));
  sim::typed_engine<flood_program> eng(g, cfg);
  eng.load([&](node_id) { return flood_program(lifetime); });
  flood_outcome out;
  out.metrics = eng.run();
  for (node_id v = 0; v < g.node_count(); ++v) {
    const auto& prog = eng.program(v);
    out.received.push_back(prog.received());
    out.digests.push_back(prog.digest());
  }
  return out;
}

TEST(FaultSemantics, ReliableBaseline) {
  const auto out = run_flood(graph::path_graph(3), "none");
  EXPECT_EQ(out.metrics.rounds, 5U);
  EXPECT_EQ(out.metrics.messages_sent, 16U);
  EXPECT_EQ(out.metrics.messages_dropped, 0U);
  EXPECT_EQ(out.metrics.messages_lost_to_faults, 0U);
  EXPECT_EQ(out.metrics.messages_duplicated, 0U);
  EXPECT_EQ(out.metrics.node_rounds_down, 0U);
  EXPECT_EQ(out.metrics.nodes_crashed, 0U);
  EXPECT_EQ(out.received, (std::vector<std::uint64_t>{4, 8, 4}));
}

TEST(FaultSemantics, CrashStopExactCounters) {
  // Node 1 crashes at round 2 and never recovers: it sent only in rounds
  // 0-1 (4 messages instead of 8), its inboxes for rounds 2-4 (2 messages
  // each, sent by the live ends in rounds 1-3) are discarded, and the run
  // still terminates in the baseline 5 rounds because a crash-stop node
  // counts as finished.
  const auto out = run_flood(graph::path_graph(3), "crash=1@2");
  EXPECT_EQ(out.metrics.rounds, 5U);
  EXPECT_EQ(out.metrics.messages_sent, 12U);
  EXPECT_EQ(out.metrics.messages_lost_to_faults, 6U);
  EXPECT_EQ(out.metrics.messages_dropped, 0U);
  EXPECT_EQ(out.metrics.node_rounds_down, 3U);  // rounds 2, 3, 4
  EXPECT_EQ(out.metrics.nodes_crashed, 1U);
  // Ends hear node 1's rounds 0-1 sends; node 1 heard only its round-1
  // inbox before going dark.
  EXPECT_EQ(out.received, (std::vector<std::uint64_t>{2, 2, 2}));
}

TEST(FaultSemantics, CrashRecoverResumesSending) {
  // Node 1 is dark for rounds 1-2 only: its inboxes for those rounds (2
  // messages each) are lost and it skips those sends, but it resumes in
  // round 3 and finishes normally.
  const auto out = run_flood(graph::path_graph(3), "crash=1@1-2");
  EXPECT_EQ(out.metrics.rounds, 5U);
  EXPECT_EQ(out.metrics.messages_sent, 12U);  // node 1 sends rounds 0, 3
  EXPECT_EQ(out.metrics.messages_lost_to_faults, 4U);
  EXPECT_EQ(out.metrics.node_rounds_down, 2U);
  EXPECT_EQ(out.metrics.nodes_crashed, 1U);
  // Ends hear rounds 0 and 3; node 1 hears rounds 3-4 inboxes (sent in
  // rounds 2-3).
  EXPECT_EQ(out.received, (std::vector<std::uint64_t>{2, 4, 2}));
}

TEST(FaultSemantics, LinkCutLosesBothDirections) {
  // The 0-1 link is cut in rounds 1-2: the two messages crossing it each
  // of those rounds vanish at the sender.  Senders still paid the
  // transmission (messages_sent is unchanged).
  const auto out = run_flood(graph::path_graph(3), "link=0-1@1-2");
  EXPECT_EQ(out.metrics.messages_sent, 16U);
  EXPECT_EQ(out.metrics.messages_lost_to_faults, 4U);
  EXPECT_EQ(out.metrics.node_rounds_down, 0U);
  EXPECT_EQ(out.metrics.nodes_crashed, 0U);
  EXPECT_EQ(out.received, (std::vector<std::uint64_t>{2, 6, 4}));
}

TEST(FaultSemantics, FlappingLinkDownPhases) {
  // Window 0-3 with flap=1/2: down in rounds 0 and 2, up in 1 and 3 --
  // exactly half the crossings are lost.
  const auto out = run_flood(graph::path_graph(3), "link=0-1@0-3:flap=1/2");
  EXPECT_EQ(out.metrics.messages_lost_to_faults, 4U);
  EXPECT_EQ(out.received, (std::vector<std::uint64_t>{2, 6, 4}));
}

TEST(FaultSemantics, NonAdjacentLinkFaultIsNoOp) {
  // 0 and 2 are not adjacent on the path; the fault compiles to nothing
  // and the run is bit-identical to the reliable baseline.
  const auto base = run_flood(graph::path_graph(3), "none");
  const auto out = run_flood(graph::path_graph(3), "link=0-2@0-");
  EXPECT_EQ(out.metrics.messages_lost_to_faults, 0U);
  EXPECT_EQ(out.received, base.received);
  EXPECT_EQ(out.digests, base.digests);
}

TEST(FaultSemantics, CertainBurstDropsEveryMessageInWindow) {
  // burst@1-2 with the default p=1 removes all 8 messages sent in rounds
  // 1-2, accounted as drops (the loss-adversary meter), not fault losses.
  const auto out = run_flood(graph::path_graph(3), "burst@1-2");
  EXPECT_EQ(out.metrics.messages_sent, 16U);
  EXPECT_EQ(out.metrics.messages_dropped, 8U);
  EXPECT_EQ(out.metrics.messages_lost_to_faults, 0U);
  EXPECT_EQ(out.received, (std::vector<std::uint64_t>{2, 4, 2}));
}

TEST(FaultSemantics, CertainDupDoublesEveryDelivery) {
  // dup@0- with p=1 delivers one adversarial copy per message: received
  // counts double, messages_sent does not (the duplicate is the
  // network's doing, not the sender's).
  const auto out = run_flood(graph::path_graph(3), "dup@0-");
  EXPECT_EQ(out.metrics.messages_sent, 16U);
  EXPECT_EQ(out.metrics.messages_duplicated, 16U);
  EXPECT_EQ(out.metrics.messages_dropped, 0U);
  EXPECT_EQ(out.received, (std::vector<std::uint64_t>{8, 16, 8}));
}

TEST(FaultSemantics, BurstComposesWithBaseDrop) {
  // With base drop 0.5 and a certain burst, everything in the window is
  // gone; outside the window the base drop still applies.  Exact counts
  // are seed-dependent, but the partition identity holds: delivered +
  // dropped = sent, and nothing is double-counted as a fault loss.
  sim::engine_config cfg;
  cfg.seed = 5;
  cfg.max_rounds = 50;
  cfg.drop_probability = 0.5;
  cfg.faults = std::make_shared<const fault_plan>(parse_fault_plan("burst@1"));
  const graph::graph g = graph::complete_graph(6);
  sim::typed_engine<flood_program> eng(g, cfg);
  eng.load([](node_id) { return flood_program(4); });
  const sim::run_metrics m = eng.run();
  std::uint64_t delivered = 0;
  for (node_id v = 0; v < g.node_count(); ++v)
    delivered += eng.program(v).received();
  EXPECT_EQ(delivered + m.messages_dropped, m.messages_sent);
  EXPECT_EQ(m.messages_lost_to_faults, 0U);
  // Round 1's 30 messages are certainly gone, so drops exceed them.
  EXPECT_GE(m.messages_dropped, 30U);
}

TEST(FaultSemantics, FaultyRunsBitIdenticalAcrossGrid) {
  // The full determinism contract under one plan exercising every fault
  // kind at once: same digests, same received counts, same counters for
  // {1, 2, 4, 8} workers.
  common::rng gen(321);
  const graph::graph graphs[] = {graph::gnp_random(80, 0.08, gen),
                                 graph::star_graph(40),
                                 graph::grid_graph(8, 8)};
  const std::string plan =
      "crash=3@2+crash=5@1-3+link=0-1@1-6:flap=2/3+burst@2-4:p=0.4+"
      "dup@1-5:p=0.3";
  for (const auto& g : graphs) {
    const auto serial = run_flood(g, plan, 8, 1);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                      std::size_t{4}, std::size_t{8}}) {
      const auto run = run_flood(g, plan, 8, threads);
      EXPECT_EQ(run.digests, serial.digests)
          << g.summary() << " threads=" << threads;
      EXPECT_EQ(run.received, serial.received);
      EXPECT_EQ(run.metrics.messages_sent, serial.metrics.messages_sent);
      EXPECT_EQ(run.metrics.messages_dropped, serial.metrics.messages_dropped);
      EXPECT_EQ(run.metrics.messages_lost_to_faults,
                serial.metrics.messages_lost_to_faults);
      EXPECT_EQ(run.metrics.messages_duplicated,
                serial.metrics.messages_duplicated);
      EXPECT_EQ(run.metrics.node_rounds_down, serial.metrics.node_rounds_down);
      EXPECT_EQ(run.metrics.nodes_crashed, serial.metrics.nodes_crashed);
    }
  }
}

}  // namespace
}  // namespace domset
