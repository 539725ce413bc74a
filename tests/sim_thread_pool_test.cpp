// Lifecycle coverage for the persistent worker pool and its engine
// integration: one pool reused across many dispatches and across
// consecutive engine runs, oversubscription (more workers than nodes),
// and hardware-concurrency autodetect must all produce output
// bit-identical to serial execution.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/alg2.hpp"
#include "core/pipeline.hpp"
#include "graph/generators.hpp"
#include "sim/engine.hpp"
#include "sim/thread_pool.hpp"

namespace domset {
namespace {

using graph::node_id;

TEST(ThreadPool, RunsEveryWorkerExactlyOnce) {
  sim::thread_pool pool(4);
  EXPECT_EQ(pool.size(), 4U);
  std::vector<std::atomic<int>> hits(4);
  pool.run(4, [&](std::size_t w) { hits[w].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, CallerParticipatesAsWorkerZero) {
  sim::thread_pool pool(3);
  std::thread::id worker0;
  pool.run(3, [&](std::size_t w) {
    if (w == 0) worker0 = std::this_thread::get_id();
  });
  EXPECT_EQ(worker0, std::this_thread::get_id());
}

TEST(ThreadPool, ReusableAcrossManyDispatches) {
  // The whole point of the pool: one creation, thousands of barrier
  // crossings.  Each dispatch must see every active worker exactly once.
  sim::thread_pool pool(4);
  std::vector<std::atomic<std::uint64_t>> sums(4);
  constexpr std::size_t rounds = 2000;
  for (std::size_t r = 0; r < rounds; ++r)
    pool.run(4, [&](std::size_t w) { sums[w].fetch_add(r); });
  const std::uint64_t expected = rounds * (rounds - 1) / 2;
  for (const auto& s : sums) EXPECT_EQ(s.load(), expected);
}

TEST(ThreadPool, PartialDispatchUsesPrefixOfWorkers) {
  sim::thread_pool pool(8);
  std::vector<std::atomic<int>> hits(8);
  pool.run(3, [&](std::size_t w) { hits[w].fetch_add(1); });
  for (std::size_t w = 0; w < 8; ++w) EXPECT_EQ(hits[w].load(), w < 3 ? 1 : 0);
}

TEST(ThreadPool, OversizedWorkerRequestIsClamped) {
  sim::thread_pool pool(2);
  std::vector<std::atomic<int>> hits(2);
  pool.run(64, [&](std::size_t w) { hits.at(w).fetch_add(1); });
  EXPECT_EQ(hits[0].load(), 1);
  EXPECT_EQ(hits[1].load(), 1);
}

TEST(ThreadPool, RunChunkedCoversWholeRangeEvenOversubscribed) {
  // Chunking must clamp to the pool size first: partitioning [0, n) by an
  // unclamped worker count would leave trailing ranges undispatched.
  sim::thread_pool pool(2);
  std::vector<std::atomic<int>> visits(100);
  pool.run_chunked(100, 64, [&](std::size_t, std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) visits[i].fetch_add(1);
  });
  for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(ThreadPool, PathologicalWorkerCountClampedToCeiling) {
  // A pool-size request far past any hardware must clamp instead of
  // attempting that many OS threads and aborting mid-spawn.
  sim::thread_pool pool(1 << 20);
  EXPECT_EQ(pool.size(), sim::thread_pool::max_workers);
}

TEST(ThreadPool, ZeroMeansHardwareConcurrency) {
  sim::thread_pool pool(0);
  EXPECT_EQ(pool.size(), sim::thread_pool::hardware_workers());
  std::atomic<int> ran{0};
  pool.run(pool.size(), [&](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), static_cast<int>(pool.size()));
}

TEST(ThreadPool, ExceptionPropagatesAndPoolSurvives) {
  sim::thread_pool pool(4);
  EXPECT_THROW(pool.run(4,
                        [](std::size_t w) {
                          if (w == 2) throw std::runtime_error("boom");
                        }),
               std::runtime_error);
  // The barrier still drained cleanly: the pool keeps working and the
  // stored exception does not leak into later dispatches.
  std::vector<std::atomic<int>> hits(4);
  pool.run(4, [&](std::size_t w) { hits[w].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SerialPoolRunsInline) {
  sim::thread_pool pool(1);
  EXPECT_EQ(pool.size(), 1U);
  int runs = 0;
  pool.run(1, [&](std::size_t w) {
    EXPECT_EQ(w, 0U);
    ++runs;
  });
  EXPECT_EQ(runs, 1);
}

// ---------------------------------------------------------- engine reuse

/// Counts messages seen; broadcast-heavy so the parallel retirement phase
/// (broadcast-lane clearing) runs every round.
class echo_program {
 public:
  void on_round(sim::round_context& ctx, std::span<const sim::message> inbox) {
    digest_ = digest_ * 31 + inbox.size();
    if (ctx.round() >= 6) {
      done_ = true;
      return;
    }
    ctx.broadcast(1, digest_, 8);
  }
  [[nodiscard]] bool finished() const { return done_; }
  [[nodiscard]] std::uint64_t digest() const { return digest_; }

 private:
  bool done_ = false;
  std::uint64_t digest_ = 7;
};

std::vector<std::uint64_t> run_echo(const graph::graph& g,
                                    sim::engine_config cfg) {
  sim::typed_engine<echo_program> eng(g, cfg);
  eng.load([](node_id) { return echo_program(); });
  eng.run();
  std::vector<std::uint64_t> digests;
  for (node_id v = 0; v < g.node_count(); ++v)
    digests.push_back(eng.program(v).digest());
  return digests;
}

TEST(ThreadPoolEngine, InjectedPoolReusedAcrossConsecutiveRuns) {
  common::rng gen(91);
  const graph::graph g1 = graph::gnp_random(200, 0.05, gen);
  const graph::graph g2 = graph::grid_graph(14, 14);

  const auto serial1 = run_echo(g1, {});
  const auto serial2 = run_echo(g2, {});

  const auto pool = std::make_shared<sim::thread_pool>(4);
  sim::engine_config cfg;
  cfg.threads = 4;
  cfg.pool = pool;
  // Same pool, back-to-back runs on different graphs, repeated: nothing
  // may bleed from one run into the next.
  for (int rep = 0; rep < 3; ++rep) {
    EXPECT_EQ(run_echo(g1, cfg), serial1) << "rep=" << rep;
    EXPECT_EQ(run_echo(g2, cfg), serial2) << "rep=" << rep;
  }
}

TEST(ThreadPoolEngine, InjectedPoolSharedAcrossPipelineStages) {
  common::rng gen(92);
  const graph::graph g = graph::gnp_random(250, 0.04, gen);
  core::pipeline_params params;
  params.k = 2;
  params.exec.seed = 5;
  const auto serial = core::compute_dominating_set(g, params);

  params.exec.threads = 4;
  params.exec.pool = std::make_shared<sim::thread_pool>(4);
  const auto pooled = core::compute_dominating_set(g, params);
  EXPECT_EQ(pooled.in_set, serial.in_set);
  EXPECT_EQ(pooled.total_rounds, serial.total_rounds);
  EXPECT_EQ(pooled.total_messages, serial.total_messages);
}

TEST(ThreadPoolEngine, OversubscriptionMatchesSerial) {
  // More workers than nodes: the engine must clamp to n and still agree
  // with the serial run bit for bit.
  const graph::graph g = graph::cycle_graph(5);
  const auto serial = run_echo(g, {});

  sim::engine_config cfg;
  cfg.threads = 16;
  EXPECT_EQ(run_echo(g, cfg), serial);

  cfg.pool = std::make_shared<sim::thread_pool>(16);
  EXPECT_EQ(run_echo(g, cfg), serial);
}

TEST(ThreadPoolEngine, AutodetectMatchesSerial) {
  common::rng gen(93);
  const graph::graph g = graph::gnp_random(150, 0.06, gen);
  const auto serial = run_echo(g, {});

  sim::engine_config cfg;
  cfg.threads = 0;  // one worker per hardware thread
  EXPECT_EQ(run_echo(g, cfg), serial);

  // threads = 0 with an injected pool means "the whole pool".
  cfg.pool = std::make_shared<sim::thread_pool>(3);
  EXPECT_EQ(run_echo(g, cfg), serial);
}

TEST(ThreadPoolEngine, Alg2OnInjectedPoolMatchesSerial) {
  common::rng gen(94);
  const graph::graph g = graph::barabasi_albert(180, 3, gen);
  core::lp_approx_params params;
  params.k = 3;
  params.exec.seed = 17;
  const auto serial = core::approximate_lp_known_delta(g, params);

  const auto pool = std::make_shared<sim::thread_pool>(8);
  params.exec.threads = 8;
  params.exec.pool = pool;
  for (int rep = 0; rep < 2; ++rep) {
    const auto run = core::approximate_lp_known_delta(g, params);
    ASSERT_EQ(run.x.size(), serial.x.size());
    for (std::size_t v = 0; v < run.x.size(); ++v)
      EXPECT_EQ(run.x[v], serial.x[v]) << "rep=" << rep << " v=" << v;
    EXPECT_EQ(run.metrics.messages_sent, serial.metrics.messages_sent);
  }
}

}  // namespace
}  // namespace domset
