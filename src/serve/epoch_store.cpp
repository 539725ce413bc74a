#include "serve/epoch_store.hpp"

#include <thread>
#include <utility>

namespace domset::serve {

epoch_store::epoch_store(std::size_t slot_count)
    : slots_(new pinned_epoch::slot[slot_count < 2 ? 2 : slot_count]),
      slot_count_(slot_count < 2 ? 2 : slot_count) {}

std::size_t epoch_store::reclaim() {
  std::size_t freed = 0;
  for (std::size_t i = 0; i < slot_count_; ++i) {
    pinned_epoch::slot& s = slots_[i];
    if (s.state != nullptr && s.retired.load() && s.pins.load() == 0) {
      s.state.reset();
      ++freed;
    }
  }
  reclaimed_.fetch_add(freed, std::memory_order_relaxed);
  return freed;
}

void epoch_store::publish(epoch_state state) {
  reclaim();
  // Find a free slot, round-robin from the cursor.  Every slot occupied
  // means every past epoch is still pinned -- backpressure the commit
  // (commits stall, queries keep flowing) until one drains.
  std::size_t idx = npos;
  for (;;) {
    for (std::size_t probe = 0; probe < slot_count_; ++probe) {
      const std::size_t i = (cursor_ + probe) % slot_count_;
      if (slots_[i].state == nullptr) {
        idx = i;
        break;
      }
    }
    if (idx != npos) break;
    std::this_thread::yield();
    reclaim();
  }
  cursor_ = (idx + 1) % slot_count_;

  pinned_epoch::slot& s = slots_[idx];
  s.state = std::make_shared<const epoch_state>(std::move(state));
  s.retired.store(false);

  const std::size_t prev = current_.exchange(idx);
  if (prev != npos) slots_[prev].retired.store(true);
  published_.fetch_add(1, std::memory_order_relaxed);
}

pinned_epoch epoch_store::pin() {
  for (;;) {
    const std::size_t idx = current_.load();
    if (idx == npos) return pinned_epoch{};
    pinned_epoch::slot& s = slots_[idx];
    s.pins.fetch_add(1);
    if (!s.retired.load()) return pinned_epoch(&s);
    // Retired (and possibly reclaimed) between our index load and the
    // pin: undo and retry against the fresh current index.
    s.pins.fetch_sub(1);
  }
}

std::size_t epoch_store::resident() const {
  std::size_t count = 0;
  for (std::size_t i = 0; i < slot_count_; ++i)
    count += slots_[i].state != nullptr;
  return count;
}

}  // namespace domset::serve
