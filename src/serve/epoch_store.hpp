/// \file epoch_store.hpp
/// \brief Lock-free reader epoch pinning over immutable epoch states.
//
// The serving layer's reader/writer contract: publishes of a new
// immutable `epoch_state` per commit are serialized by the caller (one at
// a time, from any thread), while many reader threads answer queries
// from *some* recent epoch without ever taking a lock.  The store
// is a fixed wheel of slots; each slot carries a state pointer, an atomic
// pin count and an atomic retired flag.
//
// Reader protocol (`pin()`):
//   1. load the current slot index,
//   2. increment the slot's pin count,
//   3. re-check the retired flag -- if the slot was retired in the
//      meantime, undo the pin and retry with the fresh index; otherwise
//      the pin now protects the slot's state until released.
//
// Writer protocol (`publish()`):
//   1. place the new state in a free slot and clear its retired flag,
//   2. switch the current index to it,
//   3. set the *previous* slot's retired flag,
//   4. reclaim: any retired slot whose pin count has drained to zero
//      frees its state (`reclaim()`, also run at the top of the next
//      publish).
//
// Why a pinned reader can never observe a freed state (all operations
// seq_cst): the reader's pin increment precedes its retired load; the
// writer's retired store precedes its pin load.  If the writer's pin
// load returned 0 (reclaim allowed), the reader's increment follows it
// in the total order, so the reader's retired load follows the writer's
// retired store and observes true -- the reader backs off without
// touching the state.  Conversely a reader that saw retired == false is
// ordered before the writer's pin load, which then returns >= 1 and
// blocks reclamation.  A slot reclaimed and re-used between the
// reader's index load and its pin lands the reader on a *newer* epoch,
// which is consistent (never torn) and acceptable for "answer from a
// recent epoch" semantics.
//
// Epoch states hold no graph: the solution, its size and digest, and the
// graph's shape (all a query reads) are copies, so a pinned epoch stays
// valid while the overlay rebases arbitrarily far ahead.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

namespace domset::serve {

/// One published epoch: immutable after publish, shared by every reader
/// pinned to it.
struct epoch_state {
  std::uint64_t epoch = 0;
  std::size_t nodes = 0;  ///< committed graph shape
  std::size_t edges = 0;
  /// Dominating-set indicator over the committed graph (verified before
  /// publish; see serve::server).
  std::vector<std::uint8_t> solution;
  std::size_t size = 0;      ///< popcount of `solution`
  std::uint64_t digest = 0;  ///< FNV-1a over the solution bits
};

class epoch_store;

/// RAII pin on one epoch.  Releasing (destruction / move-from) drops the
/// slot's pin count; the store may reclaim the slot once it is retired
/// *and* drained.  Must not outlive the store.
class pinned_epoch {
 public:
  pinned_epoch() = default;
  pinned_epoch(const pinned_epoch&) = delete;
  pinned_epoch& operator=(const pinned_epoch&) = delete;
  pinned_epoch(pinned_epoch&& other) noexcept : slot_(other.slot_) {
    other.slot_ = nullptr;
  }
  pinned_epoch& operator=(pinned_epoch&& other) noexcept {
    if (this != &other) {
      release();
      slot_ = other.slot_;
      other.slot_ = nullptr;
    }
    return *this;
  }
  ~pinned_epoch() { release(); }

  /// False only before the store's first publish.
  [[nodiscard]] explicit operator bool() const noexcept {
    return slot_ != nullptr;
  }
  [[nodiscard]] const epoch_state& operator*() const noexcept;
  [[nodiscard]] const epoch_state* operator->() const noexcept;

  void release() noexcept;

 private:
  friend class epoch_store;
  struct slot;
  explicit pinned_epoch(slot* s) noexcept : slot_(s) {}
  slot* slot_ = nullptr;
};

/// The slot wheel.  Calls to `publish`/`reclaim` must be serialized
/// (never two at once; any thread may make them); `pin` is safe from any
/// thread, concurrently with them, and never blocks.
class epoch_store {
 public:
  /// `slot_count` bounds how many epochs can be resident at once
  /// (current + retired-but-pinned).  Publishing with every slot still
  /// pinned spin-waits for a drain -- size the wheel for the longest
  /// reader you expect (queries here are single-request, so the default
  /// is generous).
  explicit epoch_store(std::size_t slot_count = 64);

  /// Publishes `state` as the new current epoch and reclaims drained
  /// retired slots.  Serialized with other publish/reclaim calls.
  void publish(epoch_state state);

  /// Pins the current epoch (lock-free, any thread).  Empty before the
  /// first publish.
  [[nodiscard]] pinned_epoch pin();

  /// Frees every retired slot whose pin count has drained.  Returns the
  /// number of slots freed.  Serialized with other publish/reclaim
  /// calls (publish calls it; tests call it directly to observe
  /// reclamation timing).
  std::size_t reclaim();

  /// Slots currently holding a state (the current epoch plus any
  /// retired-but-undrained ones).  Inherently racy against concurrent
  /// publishes -- call serialized with them or quiesced.
  [[nodiscard]] std::size_t resident() const;

  [[nodiscard]] std::uint64_t published() const {
    return published_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t reclaimed() const {
    return reclaimed_.load(std::memory_order_relaxed);
  }

 private:
  static constexpr std::size_t npos = std::numeric_limits<std::size_t>::max();

  std::unique_ptr<pinned_epoch::slot[]> slots_;
  std::size_t slot_count_;
  std::atomic<std::size_t> current_{npos};
  std::size_t cursor_ = 0;  ///< publish's free-slot scan position
  std::atomic<std::uint64_t> published_{0};
  std::atomic<std::uint64_t> reclaimed_{0};
};

/// Definition here so epoch_store can hold an array of slots by value.
struct pinned_epoch::slot {
  std::shared_ptr<const epoch_state> state;
  std::atomic<std::uint64_t> pins{0};
  std::atomic<bool> retired{true};
};

inline const epoch_state& pinned_epoch::operator*() const noexcept {
  return *slot_->state;
}
inline const epoch_state* pinned_epoch::operator->() const noexcept {
  return slot_->state.get();
}

inline void pinned_epoch::release() noexcept {
  if (slot_ != nullptr) {
    slot_->pins.fetch_sub(1);
    slot_ = nullptr;
  }
}

}  // namespace domset::serve
