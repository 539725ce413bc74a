// The epoch store's reader/writer contract: pins never observe a torn or
// reclaimed epoch under concurrent publishes, pinned epochs survive
// arbitrary overlay rebases, and retired slots are reclaimed only after
// their pin count drains.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <latch>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "dyn/dynamic_graph.hpp"
#include "dyn/mutation.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "serve/epoch_store.hpp"

namespace domset {
namespace {

using serve::epoch_state;
using serve::epoch_store;
using serve::pinned_epoch;

std::uint64_t expected_digest(std::uint64_t epoch) {
  // Any injective-enough stamp works; readers check digest against epoch.
  return epoch * 0x9e3779b97f4a7c15ull + 1;
}

epoch_state make_state(std::uint64_t epoch) {
  epoch_state state;
  state.epoch = epoch;
  state.digest = expected_digest(epoch);
  state.size = static_cast<std::size_t>(epoch % 7);
  state.solution.assign(state.size, 1);
  return state;
}

TEST(ServeEpochStore, EmptyBeforeFirstPublishThenServesCurrent) {
  epoch_store store(4);
  EXPECT_FALSE(static_cast<bool>(store.pin()));
  EXPECT_EQ(store.resident(), 0u);

  store.publish(make_state(0));
  const pinned_epoch pin = store.pin();
  ASSERT_TRUE(static_cast<bool>(pin));
  EXPECT_EQ(pin->epoch, 0u);
  EXPECT_EQ(pin->digest, expected_digest(0));
  EXPECT_EQ(store.published(), 1u);
}

TEST(ServeEpochStore, ReclaimWaitsForPinsToDrain) {
  epoch_store store(4);
  store.publish(make_state(0));
  pinned_epoch old = store.pin();
  ASSERT_TRUE(static_cast<bool>(old));

  store.publish(make_state(1));
  // Epoch 0 is retired but pinned: both states stay resident and no
  // amount of reclaiming may free the pinned one.
  EXPECT_EQ(store.resident(), 2u);
  EXPECT_EQ(store.reclaim(), 0u);
  EXPECT_EQ(old->epoch, 0u);
  EXPECT_EQ(old->digest, expected_digest(0));

  old.release();
  EXPECT_EQ(store.reclaim(), 1u);
  EXPECT_EQ(store.resident(), 1u);
  EXPECT_EQ(store.reclaimed(), 1u);
  EXPECT_EQ(store.pin()->epoch, 1u);
}

TEST(ServeEpochStore, PublishReclaimsDrainedSlotsItself) {
  epoch_store store(2);
  // With a 2-slot wheel and no pins, every publish must reclaim the
  // previous epoch -- otherwise the third publish would spin forever.
  for (std::uint64_t e = 0; e < 16; ++e) store.publish(make_state(e));
  EXPECT_EQ(store.pin()->epoch, 15u);
  // Reclamation runs at the *top* of publish, so the epoch the last
  // publish retired is still resident until the next reclaim.
  EXPECT_EQ(store.resident(), 2u);
  EXPECT_EQ(store.published(), 16u);
  EXPECT_EQ(store.reclaimed(), 14u);
  EXPECT_EQ(store.reclaim(), 1u);
  EXPECT_EQ(store.resident(), 1u);
}

TEST(ServeEpochStore, PinnedSnapshotSurvivesOverlayRebase) {
  // A pinned epoch is immutable: six later commits, each rebasing the
  // overlay, leave its shape, solution and digest as published.
  common::rng gen(11);
  dyn::dynamic_graph dg(graph::barabasi_albert(200, 3, gen));
  const auto state_of = [&dg](std::uint64_t epoch) {
    epoch_state state;
    state.epoch = epoch;
    state.nodes = dg.node_count();
    state.edges = dg.edge_count();
    state.solution.assign(dg.node_count(), 0);
    state.solution[epoch] = 1;
    state.size = 1;
    state.digest = expected_digest(epoch);
    return state;
  };

  epoch_store store(8);
  store.publish(state_of(0));
  const pinned_epoch pin = store.pin();
  const std::size_t nodes_before = dg.node_count();
  const std::size_t edges_before = dg.edge_count();
  const std::vector<std::uint8_t> solution_before = pin->solution;

  for (std::uint64_t e = 1; e <= 6; ++e) {
    const auto fresh = static_cast<graph::node_id>(dg.live_node_count());
    dg.apply({dyn::mutation_kind::add_node, fresh, fresh});
    dg.apply({dyn::mutation_kind::add_edge, 0, fresh});
    (void)dg.commit();
    (void)dg.snapshot();  // rebases the overlay
    store.publish(state_of(e));
  }

  EXPECT_EQ(pin->epoch, 0u);
  EXPECT_EQ(pin->nodes, nodes_before);
  EXPECT_EQ(pin->edges, edges_before);
  EXPECT_EQ(pin->solution, solution_before);
  EXPECT_EQ(pin->size, 1u);
  EXPECT_EQ(pin->digest, expected_digest(0));
  const pinned_epoch current = store.pin();
  EXPECT_EQ(current->epoch, 6u);
  EXPECT_EQ(current->nodes, nodes_before + 6);
  EXPECT_EQ(current->edges, edges_before + 6);
}

TEST(ServeEpochStore, ConcurrentPinsNeverObserveTornOrReclaimedEpochs) {
  epoch_store store(8);
  store.publish(make_state(0));

  constexpr std::uint64_t kEpochs = 400;
  constexpr std::size_t kReaders = 4;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> torn{0};
  std::atomic<std::uint64_t> observations{0};
  // Publishing starts only once every reader has pinned, so the writer
  // cannot finish all epochs before a reader is ever scheduled.
  std::latch all_pinned(kReaders);

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (std::size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      bool counted = false;
      while (!stop.load()) {
        const pinned_epoch pin = store.pin();
        if (!pin) continue;
        // A torn epoch would pair one epoch's number with another's
        // payload; a reclaimed one would crash / read freed memory
        // (which TSan/ASan CI builds of this test would flag).
        if (pin->digest != expected_digest(pin->epoch) ||
            pin->solution.size() != pin->size)
          torn.fetch_add(1);
        observations.fetch_add(1);
        if (!counted) {
          all_pinned.count_down();
          counted = true;
        }
      }
    });
  }

  all_pinned.wait();
  for (std::uint64_t e = 1; e <= kEpochs; ++e) {
    store.publish(make_state(e));
    if (e % 16 == 0) std::this_thread::yield();
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(torn.load(), 0u);
  EXPECT_GT(observations.load(), 0u);
  EXPECT_EQ(store.published(), kEpochs + 1);
  EXPECT_EQ(store.pin()->epoch, kEpochs);
  // Quiesced: everything but the current epoch must now reclaim.
  store.reclaim();
  EXPECT_EQ(store.resident(), 1u);
}

}  // namespace
}  // namespace domset
