#include "sim/engine.hpp"

namespace domset::sim::detail {

namespace {

/// Salt decorrelating the per-sender drop streams from the node streams.
constexpr std::uint64_t drop_stream_salt = 0xAD5E'05A1'DEAD'BEEFULL;

/// Salt for the per-sender duplication streams (distinct from both the
/// node and drop salts, so enabling duplication never perturbs either).
constexpr std::uint64_t dup_stream_salt = 0xD0B1'E5A1'0B5E'55EDULL;

}  // namespace

mailbox_state::mailbox_state(const graph::graph& g, engine_config cfg)
    : graph_(&g), config_(cfg) {
  const std::size_t n = g.node_count();
  const std::size_t directed_edges = 2 * g.edge_count();

  if (cfg.faults && !cfg.faults->empty())
    faults_ = compiled_faults(g, *cfg.faults);

  node_rngs_.reserve(n);
  for (graph::node_id v = 0; v < n; ++v) node_rngs_.emplace_back(cfg.seed, v);
  if (cfg.drop_probability > 0.0 || faults_.any_burst()) {
    const std::uint64_t drop_seed =
        common::derive_seed(cfg.seed, drop_stream_salt);
    drop_rngs_.reserve(n);
    for (graph::node_id v = 0; v < n; ++v) drop_rngs_.emplace_back(drop_seed, v);
  }
  if (faults_.any_dup()) {
    const std::uint64_t dup_seed =
        common::derive_seed(cfg.seed, dup_stream_salt);
    dup_rngs_.reserve(n);
    for (graph::node_id v = 0; v < n; ++v) dup_rngs_.emplace_back(dup_seed, v);
  }

  // Mirror index: visiting receivers v in ascending order visits, for each
  // sender u, u's neighbors in ascending order too (rows are sorted) -- so
  // a per-sender cursor walks u's row exactly once.  O(n + m) total.
  mirror_.resize(directed_edges);
  std::vector<std::size_t> cursor(n, 0);
  for (graph::node_id v = 0; v < n; ++v) {
    const std::size_t lo = g.edge_begin(v);
    const auto nbrs = g.neighbors(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const graph::node_id u = nbrs[i];
      mirror_[g.edge_begin(u) + cursor[u]++] = lo + i;
    }
  }

  // Slots value-initialize to from == invalid_node, so every mailbox
  // starts empty.
  for (mail_buffer& buf : buffers_) {
    buf.slots.resize(directed_edges);
    buf.bcast.resize(n);
    buf.overflow.resize(n);
  }
  scratch_.resize(n);
  last_slotted_round_.assign(n, 0);

  attempted_.assign(n, 0);
  delivered_.assign(n, 0);
  dropped_.assign(n, 0);
  bits_.assign(n, 0);
  max_bits_.assign(n, 0);
  congested_.assign(n, 0);
  fault_lost_.assign(n, 0);
  duplicated_.assign(n, 0);
  down_rounds_.assign(n, 0);
}

void mailbox_state::finish_round(thread_pool* pool, std::size_t workers,
                                 std::span<const std::size_t> bounds) {
  // Group the round's overflow entries by receiver (stably, so send order
  // within a receiver survives): collect_inbox then reads each receiver's
  // entries as one binary-searchable run instead of rescanning a sender's
  // whole list per receiver -- that rescan made a degree-d multi-message
  // round Theta(d^3) where the seed engine was O(d^2 log d).
  mail_buffer& filled = buffers_[out_buf_];
  mail_buffer& drained = buffers_[1 - out_buf_];
  const bool sort_overflow =
      filled.any_overflow.load(std::memory_order_relaxed);
  const bool clear_overflow =
      drained.any_overflow.load(std::memory_order_relaxed);
  const bool clear_bcast = drained.any_bcast.load(std::memory_order_relaxed);

  if (sort_overflow || clear_overflow || clear_bcast) {
    // All three passes are indexed by sender, so one partition of the
    // sender range [0, n) covers them race-free; the pool barrier orders
    // these writes before the next compute phase reads them.
    const std::size_t n = drained.bcast.size();
    const auto retire_range = [&](std::size_t lo, std::size_t hi) {
      if (sort_overflow) {
        for (std::size_t v = lo; v < hi; ++v) {
          auto& list = filled.overflow[v];
          if (list.empty()) continue;
          std::stable_sort(list.begin(), list.end(),
                           [](const mail_buffer::routed_message& a,
                              const mail_buffer::routed_message& b) {
                             return a.to < b.to;
                           });
        }
      }
      if (clear_overflow) {
        for (std::size_t v = lo; v < hi; ++v) drained.overflow[v].clear();
      }
      if (clear_bcast) {
        for (std::size_t v = lo; v < hi; ++v)
          drained.bcast[v].from = graph::invalid_node;
      }
    };
    // A barrier crossing costs more than ~n single-word stores in the
    // small-graph regime, so only fan out when there is real per-sender
    // work (overflow sorting) or enough trivial work to amortize it.
    // The fan-out reuses the run's degree-weighted partition: overflow
    // lists and lanes are per sender, and a hub's overflow is as
    // degree-proportional as its compute work.
    constexpr std::size_t parallel_retire_threshold = 1 << 15;
    if (pool != nullptr && workers > 1 && bounds.size() == workers + 1 &&
        (sort_overflow || n >= parallel_retire_threshold)) {
      pool->run(workers, [&](std::size_t w) {
        retire_range(bounds[w], bounds[w + 1]);
      });
    } else {
      retire_range(0, n);
    }
    if (clear_overflow)
      drained.any_overflow.store(false, std::memory_order_relaxed);
    if (clear_bcast) drained.any_bcast.store(false, std::memory_order_relaxed);
  }
  out_buf_ = 1 - out_buf_;
}

void mailbox_state::aggregate(run_metrics& metrics) const {
  metrics.messages_sent = 0;
  metrics.bits_sent = 0;
  metrics.max_message_bits = 0;
  metrics.max_messages_per_node = 0;
  metrics.messages_dropped = 0;
  metrics.messages_lost_to_faults = 0;
  metrics.messages_duplicated = 0;
  metrics.node_rounds_down = 0;
  metrics.nodes_crashed = 0;
  metrics.congest_violation = false;
  const std::size_t n = attempted_.size();
  for (std::size_t v = 0; v < n; ++v) {
    metrics.messages_sent += attempted_[v];
    metrics.bits_sent += bits_[v];
    metrics.max_message_bits =
        std::max(metrics.max_message_bits, max_bits_[v]);
    metrics.max_messages_per_node =
        std::max(metrics.max_messages_per_node, delivered_[v]);
    metrics.messages_dropped += dropped_[v];
    metrics.messages_lost_to_faults += fault_lost_[v];
    metrics.messages_duplicated += duplicated_[v];
    metrics.node_rounds_down += down_rounds_[v];
    metrics.nodes_crashed += down_rounds_[v] > 0 ? 1 : 0;
    metrics.congest_violation |= congested_[v] != 0;
  }
}

}  // namespace domset::sim::detail
