/// \file engine.hpp
/// \brief Synchronous round-based message-passing engine over flat CSR
/// mailboxes.
//
// This is the paper's communication model, executed faithfully:
//   * computation proceeds in global lockstep rounds;
//   * in each round every node may send messages to its neighbors;
//   * messages sent in round r are delivered at the start of round r+1;
//   * nodes have no identifiers beyond what the algorithm uses and no
//     shared memory -- all coordination flows through messages.
//
// Mailbox layout.  The network graph is CSR; its adjacency array defines a
// stable indexing of the 2m directed edges.  Every directed edge (u -> v)
// owns one preallocated message slot, addressed by the *receiver-side* CSR
// position of u in v's neighbor row.  Because neighbor rows are sorted,
// the slots of receiver v form one contiguous, sorted-by-sender range of
// the flat slot array:
//   * delivery is a buffer swap -- no per-message heap traffic, no
//     per-round stable_sort (the CSR ordering IS the sort);
//   * broadcast walks the sender's row and writes through a precomputed
//     mirror index (sender-side position -> receiver-side slot), paying no
//     adjacency check; send() still validates adjacency via binary search.
// A program that sends more than one message to the same neighbor in one
// round (e.g. topology collection) spills into a per-sender overflow list;
// receivers splice overflow entries after the inline slot, preserving
// per-sender send order.  The overflow path is the exception, not the rule.
//
// Broadcast lane.  A broadcast is one message replicated degree times, and
// the paper's algorithms broadcast every round.  A sender whose round is
// broadcast-only therefore publishes a single entry in a per-sender
// broadcast lane (one sequential store) instead of degree scattered slot
// writes; receivers gather neighbors' lane entries from an n-sized,
// cache-friendly array.  Lane and slots stay mutually exclusive per sender
// per round: mixing in targeted sends, repeat broadcasts, or lossy-run
// per-edge drop rolls demotes the lane entry into the per-edge slots, so
// per-receiver send order is always exact.
//
// Parallelism and determinism.  The compute phase and the post-barrier
// delivery work (overflow sorting, lane/overflow retirement) may be
// partitioned across engine_config::threads workers, dispatched on a
// persistent sense-reversing-barrier pool (sim/thread_pool.hpp) that is
// created once per run -- or injected through engine_config::pool and
// shared across runs -- never spawned per round.  Worker ranges are
// degree-weighted (sim/partition.hpp, one partition per run shared by
// both phases), so a hub node costs its worker the same edge budget as a
// million leaves cost theirs.  The schedule is race-free by construction,
// with no locks or atomics on the data path:
//   * node v's program, RNG streams, metric counters, and inbox scratch
//     are touched only by the worker that owns v;
//   * sender u writes only the slots mirror[p] for p in u's own row, and
//     distinct directed edges map to distinct slots;
//   * inboxes live in the opposite buffer of outboxes (double buffering),
//     so no slot is read and written in the same phase.
// Node randomness, message-drop decisions, and all metric counters are
// derived per node from the global seed, so a run is bit-reproducible for
// every thread count: serial and parallel executions produce identical
// message sequences, program states, and metrics.
//
// Fault plane.  An engine_config may carry a sim::fault_plan (fault.hpp):
// crash windows make the compute phase skip a node (its inbox is drained
// and discarded by its owner worker, so buffer hygiene is untouched),
// link cuts filter individual deposits at the sender, bursts fold into
// the per-sender drop rolls, and duplication re-deposits a copy through
// the overflow path.  Every fault decision is a pure function of (plan,
// sender, edge position, round) plus the per-sender drop/dup streams --
// never of thread count -- so faulty runs keep the bit-reproducibility
// contract above.
//
// Programs.  typed_engine<Program> stores the per-node programs
// contiguously by value and dispatches on_round statically (no vtable,
// no per-program allocation).
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"
#include "graph/graph.hpp"
#include "sim/engine_config.hpp"
#include "sim/fault.hpp"
#include "sim/message.hpp"
#include "sim/metrics.hpp"
#include "sim/partition.hpp"
#include "sim/thread_pool.hpp"

namespace domset::sim {

namespace detail {

/// One half of the double-buffered mailbox: inline slots (one per directed
/// edge, receiver-side CSR indexed) and the per-sender overflow lists for
/// >1 message per edge per round.  A slot is empty iff its sender field is
/// invalid_node -- deposits always carry a real sender id, so occupancy
/// needs no side array and each message touches exactly one slot.
struct mail_buffer {
  struct routed_message {
    graph::node_id to = graph::invalid_node;
    message msg;
  };

  /// One message slot per directed edge at the receiver-side CSR position.
  std::vector<message> slots;
  /// Broadcast lane: one entry per sender holding the message it broadcast
  /// this round (sentinel from == invalid_node when unused).  A broadcast
  /// is one message replicated degree times, so in the common case it
  /// costs one sequential store here instead of degree scattered slot
  /// writes; receivers gather it from this n-sized (cache-friendly) array.
  std::vector<message> bcast;
  std::vector<std::vector<routed_message>> overflow;  // per sender
  /// Set (monotonically, relaxed) when any sender overflowed this round;
  /// gates the slow gather path so the common case stays branch-cheap.
  std::atomic<bool> any_overflow{false};
  /// Set (monotonically, relaxed) when any sender used the broadcast lane.
  std::atomic<bool> any_bcast{false};
};

/// All engine state that is independent of the program type, reached by
/// node programs through round_context.
class mailbox_state {
 public:
  mailbox_state(const graph::graph& g, engine_config cfg);

  mailbox_state(const mailbox_state&) = delete;
  mailbox_state& operator=(const mailbox_state&) = delete;

  [[nodiscard]] const graph::graph& network() const noexcept { return *graph_; }
  [[nodiscard]] common::rng& node_rng(graph::node_id v) noexcept {
    return node_rngs_[v];
  }

  /// Places an already-accounted message into out-buffer slot `q`
  /// (receiver-side CSR position of the edge from -> to).  The innermost
  /// write of the hot path: one slot store in the common case.
  void place(mail_buffer& out, std::size_t q, graph::node_id to,
             const message& msg) {
    if (out.slots[q].from == graph::invalid_node) {
      out.slots[q] = msg;
    } else {
      out.overflow[msg.from].push_back({to, msg});
      out.any_overflow.store(true, std::memory_order_relaxed);
    }
  }

  /// Routes one message down row position `i` of `from` into the
  /// receiver-side mirror slot.
  void deposit(mail_buffer& out, graph::node_id from, std::size_t i,
               graph::node_id to, const message& msg) {
    place(out, mirror_[graph_->edge_begin(from) + i], to, msg);
  }

  /// Receiver-visible copy of a declared width (metrics keep the full
  /// value; the message field saturates -- see message.hpp).
  [[nodiscard]] static std::uint16_t wire_bits(std::uint32_t bits) noexcept {
    return static_cast<std::uint16_t>(std::min<std::uint32_t>(bits, 0xFFFF));
  }

  /// Folds one send of `count` equal-width messages into the per-sender
  /// counters; returns true if the per-message path (drop rolls, link
  /// filters, duplication) must run.  The decision depends only on the
  /// config, the fault plan, the sender and the round, so it is identical
  /// at every thread count.
  bool account(graph::node_id from, std::uint64_t count, std::uint32_t bits,
               std::size_t round) {
    attempted_[from] += count;
    bits_[from] += bits * count;
    if (bits > max_bits_[from]) max_bits_[from] = bits;
    if (config_.congest_bit_limit != 0 && bits > config_.congest_bit_limit)
      congested_[from] = 1;
    if (config_.drop_probability > 0.0 ||
        (faults_.any() && faults_.sender_path(from, round)))
      return true;
    delivered_[from] += count;
    return false;
  }

  /// The round's message-loss probability: the base drop_probability
  /// combined with any active burst window (independent losses compose).
  [[nodiscard]] double effective_drop(std::size_t round) const {
    double p = config_.drop_probability;
    if (faults_.any_burst()) {
      const double b = faults_.burst_probability(round);
      if (b > 0.0) p = 1.0 - (1.0 - p) * (1.0 - b);
    }
    return p;
  }

  /// Per-message slow path shared by send() and broadcast(): link-cut
  /// filter (no RNG consumed), drop roll on the per-sender drop stream,
  /// deposit, then a duplication roll on the per-sender dup stream (the
  /// copy re-deposits down the same edge via the overflow machinery).
  void deliver_one(mail_buffer& out, graph::node_id from, std::size_t i,
                   graph::node_id to, const message& msg, std::size_t round,
                   double eff_drop, double dup_p) {
    if (faults_.link_down(graph_->edge_begin(from) + i, round)) {
      fault_lost_[from] += 1;
      return;
    }
    if (eff_drop > 0.0 && drop_rngs_[from].next_bernoulli(eff_drop)) {
      dropped_[from] += 1;
      return;
    }
    delivered_[from] += 1;
    deposit(out, from, i, to, msg);
    if (dup_p > 0.0 && dup_rngs_[from].next_bernoulli(dup_p)) {
      duplicated_[from] += 1;
      deposit(out, from, i, to, msg);
    }
  }

  /// True iff node v is dark (crashed) at `round`.
  [[nodiscard]] bool node_down(graph::node_id v, std::size_t round) const {
    return faults_.node_down(v, round);
  }

  /// True iff node v crashed at or before `round` and never recovers.
  [[nodiscard]] bool node_crash_stopped(graph::node_id v,
                                        std::size_t round) const {
    return faults_.permanently_down(v, round);
  }

  /// Stands in for on_round when v is dark: drains and discards v's inbox
  /// (the radio is off; losses are counted) while keeping the buffer
  /// hygiene collect/release normally provides.  Only v's owner worker
  /// may call this -- same ownership rule as collect_inbox.
  void skip_down_node(graph::node_id v) {
    const std::span<const message> inbox = collect_inbox(v);
    fault_lost_[v] += inbox.size();
    down_rounds_[v] += 1;
    release_inbox(v, inbox);
  }

  /// Replays an earlier broadcast-lane entry of `from` into its per-edge
  /// slots.  Needed when the sender later mixes in targeted sends or
  /// further broadcasts, so per-receiver send order stays exact.  Callers
  /// must stamp last_slotted_round_ first, so later broadcasts this round
  /// keep using the per-edge path (lane vs. slots stays exclusive).
  void demote_broadcast(graph::node_id from) {
    mail_buffer& out = buffers_[out_buf_];
    message& pending = out.bcast[from];
    if (pending.from == graph::invalid_node) return;
    const auto nbrs = graph_->neighbors(from);
    for (std::size_t i = 0; i < nbrs.size(); ++i)
      deposit(out, from, i, nbrs[i], pending);
    pending.from = graph::invalid_node;
  }

  /// Sends one message to every neighbor of `from` -- no adjacency check,
  /// metrics folded once for the whole broadcast.  Fast path: a sender
  /// whose round is broadcast-only (the paper's algorithms, every round)
  /// publishes one broadcast-lane entry.  Mixed rounds, lossy runs, and
  /// rounds where a fault touches this sender (per-edge link filters,
  /// drop rolls, duplication) walk the sender's CSR row through the
  /// mirror index into the per-edge slots.
  void broadcast(graph::node_id from, std::uint16_t tag, std::uint64_t payload,
                 std::uint32_t bits, std::size_t round) {
    const auto nbrs = graph_->neighbors(from);
    if (nbrs.empty()) return;
    mail_buffer& out = buffers_[out_buf_];
    const message msg{payload, from, wire_bits(bits), tag};
    if (!account(from, nbrs.size(), bits, round)) {
      if (last_slotted_round_[from] != round + 1 &&
          out.bcast[from].from == graph::invalid_node) {
        out.bcast[from] = msg;
        out.any_bcast.store(true, std::memory_order_relaxed);
        return;
      }
      last_slotted_round_[from] = round + 1;
      demote_broadcast(from);  // repeat broadcast this round
      for (std::size_t i = 0; i < nbrs.size(); ++i)
        deposit(out, from, i, nbrs[i], msg);
      return;
    }
    last_slotted_round_[from] = round + 1;
    demote_broadcast(from);
    const double eff_drop = effective_drop(round);
    const double dup_p =
        faults_.any_dup() ? faults_.dup_probability(round) : 0.0;
    for (std::size_t i = 0; i < nbrs.size(); ++i)
      deliver_one(out, from, i, nbrs[i], msg, round, eff_drop, dup_p);
  }

  /// Sends one message to the adjacent node `to` (throws std::logic_error
  /// otherwise -- a node cannot talk past its radio range).
  void send(graph::node_id from, graph::node_id to, std::uint16_t tag,
            std::uint64_t payload, std::uint32_t bits, std::size_t round) {
    const auto nbrs = graph_->neighbors(from);
    const auto it = std::lower_bound(nbrs.begin(), nbrs.end(), to);
    if (it == nbrs.end() || *it != to)
      throw std::logic_error("round_context::send: destination not adjacent");
    last_slotted_round_[from] = round + 1;
    demote_broadcast(from);  // keep send order exact across the mix
    const auto i = static_cast<std::size_t>(it - nbrs.begin());
    const message msg{payload, from, wire_bits(bits), tag};
    if (account(from, 1, bits, round)) {
      deliver_one(buffers_[out_buf_], from, i, to, msg, round,
                  effective_drop(round),
                  faults_.any_dup() ? faults_.dup_probability(round) : 0.0);
      return;
    }
    deposit(buffers_[out_buf_], from, i, to, msg);
  }

  /// Drains node v's inbox from the in-buffer and returns it as one
  /// contiguous span sorted by sender, for delivery in the current round.
  /// The fast path compacts in place inside v's own slot range (clearing
  /// the consumed slots so the in-buffer can serve as next round's
  /// out-buffer); the overflow path gathers into v's scratch vector.  Only
  /// v's owner worker may call this.
  [[nodiscard]] std::span<const message> collect_inbox(graph::node_id v) {
    mail_buffer& in = buffers_[1 - out_buf_];
    const std::size_t lo = graph_->edge_begin(v);
    const std::size_t hi = graph_->edge_end(v);
    // Per sender, a round's messages live either in one broadcast-lane
    // entry or in the per-edge slot (+ overflow) chain, never both
    // (demote_broadcast enforces exclusivity), so merging in in-row order
    // yields the sorted-by-sender inbox directly.
    if (!in.any_overflow.load(std::memory_order_relaxed)) {
      std::size_t w = lo;
      if (!in.any_bcast.load(std::memory_order_relaxed)) {
        for (std::size_t q = lo; q < hi; ++q) {
          if (in.slots[q].from == graph::invalid_node) continue;
          if (w != q) {
            in.slots[w] = in.slots[q];
            in.slots[q].from = graph::invalid_node;
          }
          ++w;
        }
      } else {
        // Every q emits at most one message, so the write cursor never
        // overtakes the read cursor and v's own row doubles as the
        // contiguous inbox arena.
        const auto nbrs = graph_->neighbors(v);
        for (std::size_t q = lo; q < hi; ++q) {
          if (in.slots[q].from != graph::invalid_node) {
            if (w != q) {
              in.slots[w] = in.slots[q];
              in.slots[q].from = graph::invalid_node;
            }
            ++w;
          } else {
            const message& b = in.bcast[nbrs[q - lo]];
            if (b.from != graph::invalid_node) in.slots[w++] = b;
          }
        }
      }
      // The compacted prefix [lo, w) stays live until release_inbox(v).
      return {in.slots.data() + lo, w - lo};
    }
    // Overflow round: gather per-sender chains (inline slot, then
    // overflow entries, else broadcast lane) into v's scratch vector --
    // still sorted by sender, send order kept within a sender.  Each
    // sender's overflow list was stable-sorted by receiver at the
    // finish_round barrier, so this receiver's entries are one
    // binary-searchable run (a full scan per receiver would make
    // high-degree multi-message rounds cubic in the degree).
    const auto nbrs = graph_->neighbors(v);
    auto& dst = scratch_[v];
    dst.clear();
    for (std::size_t q = lo; q < hi; ++q) {
      if (in.slots[q].from != graph::invalid_node) {
        dst.push_back(in.slots[q]);
        in.slots[q].from = graph::invalid_node;
        const auto& list = in.overflow[nbrs[q - lo]];
        auto it = std::lower_bound(
            list.begin(), list.end(), v,
            [](const mail_buffer::routed_message& entry, graph::node_id to) {
              return entry.to < to;
            });
        for (; it != list.end() && it->to == v; ++it) dst.push_back(it->msg);
      } else {
        const message& b = in.bcast[nbrs[q - lo]];
        if (b.from != graph::invalid_node) dst.push_back(b);
      }
    }
    return {dst.data(), dst.size()};
  }

  /// Marks v's consumed inbox slots empty again so the in-buffer can serve
  /// as next round's out-buffer.  Must be called after on_round(v) by v's
  /// owner worker (v still owns its in-row for the whole compute phase).
  /// No-op when the inbox was gathered into scratch (the overflow path).
  void release_inbox(graph::node_id v, std::span<const message> inbox) {
    mail_buffer& in = buffers_[1 - out_buf_];
    const std::size_t lo = graph_->edge_begin(v);
    if (inbox.data() != in.slots.data() + lo) return;
    for (std::size_t q = lo; q < lo + inbox.size(); ++q)
      in.slots[q].from = graph::invalid_node;
  }

  /// Post-compute barrier work: retire the drained in-buffer (slot states
  /// were already cleared by collect_inbox; overflow lists are cleared here
  /// if any were used) and swap it in as next round's out-buffer.  The
  /// per-sender passes (overflow sort, lane/overflow retirement) partition
  /// across `workers` pool workers when a pool is supplied, along the run's
  /// degree-weighted `bounds` (size workers + 1; may be empty when serial);
  /// every pass touches only sender-indexed state, so disjoint sender
  /// ranges are race-free.
  void finish_round(thread_pool* pool, std::size_t workers,
                    std::span<const std::size_t> bounds);

  /// Folds the per-node counters into the global metrics (message/bit
  /// totals, maxima, drop counts, congestion flag).  Deterministic fixed
  /// fold order, so serial and parallel runs agree bit for bit.
  void aggregate(run_metrics& metrics) const;

 private:
  const graph::graph* graph_;
  engine_config config_;

  /// mirror_[p] for sender-side CSR position p of edge (u -> v) is the
  /// receiver-side position of u in v's row: the flat slot address.
  std::vector<std::size_t> mirror_;
  mail_buffer buffers_[2];
  int out_buf_ = 0;

  /// The run's fault plan compiled against the graph (empty = reliable).
  compiled_faults faults_;

  std::vector<common::rng> node_rngs_;
  /// Populated iff drop_probability > 0 or the plan has burst windows.
  std::vector<common::rng> drop_rngs_;
  /// Populated iff the plan has duplication windows (own salt, so dup
  /// rolls never perturb the drop stream).
  std::vector<common::rng> dup_rngs_;
  std::vector<std::vector<message>> scratch_;  // per-receiver overflow gather
  /// round + 1 of each sender's most recent per-edge slot use (targeted
  /// send, demotion, or repeat broadcast); gates the broadcast fast path
  /// so lane vs. slots stays exclusive and send order survives mixed
  /// rounds.
  std::vector<std::size_t> last_slotted_round_;

  // Per-node metric counters, indexed by sender.  attempted_ counts every
  // send (the paper's message accounting); delivered_ excludes drops and
  // feeds max_messages_per_node.
  std::vector<std::uint64_t> attempted_;
  std::vector<std::uint64_t> delivered_;
  std::vector<std::uint64_t> dropped_;
  std::vector<std::uint64_t> bits_;
  std::vector<std::uint32_t> max_bits_;
  std::vector<std::uint8_t> congested_;
  // Fault-plane counters.  fault_lost_[x] mixes x's sender-side link
  // losses and x's receiver-side dark-round inbox discards; both are
  // written inside x's own compute slot, so the single array stays
  // race-free under the ownership schedule.
  std::vector<std::uint64_t> fault_lost_;
  std::vector<std::uint64_t> duplicated_;
  std::vector<std::uint64_t> down_rounds_;
};

}  // namespace detail

/// Per-round API surface a node program sees.  A context is only valid for
/// the duration of the on_round call it is passed to.
class round_context {
 public:
  /// This node's identifier.
  [[nodiscard]] graph::node_id id() const noexcept { return id_; }

  /// Current round number (0-based).
  [[nodiscard]] std::size_t round() const noexcept { return round_; }

  /// This node's degree in the network graph.
  [[nodiscard]] std::uint32_t degree() const noexcept {
    return state_->network().degree(id_);
  }

  /// Sorted ids of this node's neighbors.
  [[nodiscard]] std::span<const graph::node_id> neighbors() const noexcept {
    return state_->network().neighbors(id_);
  }

  /// This node's private random stream (deterministic per global seed).
  [[nodiscard]] common::rng& random() noexcept {
    return state_->node_rng(id_);
  }

  /// Sends one message to neighbor `to` (must be adjacent; violations throw
  /// std::logic_error).
  void send(graph::node_id to, std::uint16_t tag, std::uint64_t payload,
            std::uint32_t bits) {
    state_->send(id_, to, tag, payload, bits, round_);
  }

  /// Sends the same message to every neighbor (counts degree() messages,
  /// matching the paper's message accounting).
  void broadcast(std::uint16_t tag, std::uint64_t payload,
                 std::uint32_t bits) {
    state_->broadcast(id_, tag, payload, bits, round_);
  }

 private:
  template <typename Program>
  friend class typed_engine;

  round_context(detail::mailbox_state& state, graph::node_id id,
                std::size_t round) noexcept
      : state_(&state), id_(id), round_(round) {}

  detail::mailbox_state* state_;
  graph::node_id id_;
  std::size_t round_;
};

/// Owns one `Program` value per node (contiguous, no vtable dispatch) and
/// drives rounds to completion.  `Program` must provide
///   * `void on_round(round_context&, std::span<const message> inbox)`,
///     invoked once per round with the messages addressed to this node
///     that were sent in the previous round (sorted by sender id; multiple
///     messages from one sender stay in send order; round 0 has an empty
///     inbox);
///   * `bool finished() const`, true once this node's part of the
///     algorithm has terminated.  It must be monotone: the engine counts
///     finish transitions instead of rescanning all nodes.  A finished
///     node keeps receiving on_round calls until the global run ends (real
///     devices stay powered on), so post-completion calls must be no-ops.
template <typename Program>
class typed_engine {
 public:
  typed_engine(const graph::graph& g, engine_config cfg)
      : state_(g, cfg),
        max_rounds_(cfg.max_rounds),
        threads_(cfg.threads),
        shared_pool_(std::move(cfg.pool)) {}

  /// Instantiates one program per node via `factory(v) -> Program`.  Must
  /// be called exactly once before run().
  template <typename Factory>
  void load(Factory&& factory) {
    if (loaded_) throw std::logic_error("engine::load called twice");
    const std::size_t n = state_.network().node_count();
    programs_.reserve(n);
    for (graph::node_id v = 0; v < n; ++v) programs_.push_back(factory(v));
    finished_flag_.assign(n, 0);
    for (graph::node_id v = 0; v < n; ++v) {
      if (std::as_const(programs_[v]).finished()) {
        finished_flag_[v] = 1;
        ++finished_count_;
      }
    }
    loaded_ = true;
  }

  /// Observer invoked after every completed round (post-delivery); used by
  /// invariant monitors in the tests.
  void set_round_observer(std::function<void(std::size_t round)> observer) {
    round_observer_ = std::move(observer);
  }

  /// Executes rounds until every program reports finished() or the round
  /// limit is hit.  Returns the metrics of the run.
  run_metrics run() {
    if (!loaded_) throw std::logic_error("engine::run: load() programs first");
    const std::size_t n = programs_.size();
    // Worker-count decision, hoisted to run start (it used to be re-derived
    // every round): resolve the threads knob against the injected pool and
    // n once, then hold it fixed for the whole run.
    const std::size_t workers = resolve_workers(n);
    thread_pool* pool = nullptr;
    std::unique_ptr<thread_pool> owned;
    if (workers > 1) {
      if (shared_pool_) {
        pool = shared_pool_.get();
      } else {
        owned = std::make_unique<thread_pool>(workers);
        pool = owned.get();
      }
    }
    finished_scratch_.assign(workers, 0);
    // One degree-weighted partition per run, shared by the compute and
    // delivery phases: chunk w owns nodes [bounds[w], bounds[w+1]), sized
    // so every chunk carries about the same number of incident edges (a
    // count-balanced split would hand the hub's worker the whole round on
    // skewed graphs).  Pure function of graph x workers, so determinism
    // is untouched.
    partition_bounds_.clear();
    if (workers > 1) partition_bounds_ = degree_weighted_ranges(state_.network(), workers);
    bool completed = finished_count_ == n;
    for (std::size_t round = 0; !completed && round < max_rounds_; ++round) {
      // The worker count was decided once above and must stay within the
      // pool for the whole run -- every per-worker structure (scratch
      // tallies, chunk partitions) was sized against it.
      assert(!pool || workers <= pool->size());
      finished_count_ += compute_phase(round, pool, workers);
      state_.finish_round(pool, workers, partition_bounds_);
      metrics_.rounds = round + 1;
      if (round_observer_) round_observer_(round);
      completed = finished_count_ == n;
    }
    metrics_.hit_round_limit = !completed;
    state_.aggregate(metrics_);
    return metrics_;
  }

  /// Access to a node's program (valid after load()).
  [[nodiscard]] Program& program(graph::node_id v) { return programs_[v]; }
  [[nodiscard]] const Program& program(graph::node_id v) const {
    return programs_[v];
  }

  [[nodiscard]] const graph::graph& network() const noexcept {
    return state_.network();
  }

  /// Metrics of the run.  `rounds` and the limit flag are live during the
  /// run; the message/bit counters are folded from the per-node tallies
  /// when run() returns (folding them every round would put an O(n) pass
  /// back into the loop the flat layout just removed).
  [[nodiscard]] const run_metrics& metrics() const noexcept { return metrics_; }

 private:
  /// Runs on_round for nodes [lo, hi); returns how many finished this
  /// round.  Touches only state owned by those nodes, so disjoint ranges
  /// are safe to run concurrently.
  std::size_t compute_range(std::size_t round, graph::node_id lo,
                            graph::node_id hi) {
    std::size_t newly_finished = 0;
    for (graph::node_id v = lo; v < hi; ++v) {
      if (state_.node_down(v, round)) {
        // Dark node: no on_round, no sends, no RNG draws; the inbox is
        // discarded (and counted) by skip_down_node.  A crash-*stop* node
        // will never compute again, so it is treated as finished at its
        // crash round -- its silence, not its cooperation, is what the
        // surviving nodes observe.  Crash-recover nodes resume later and
        // finish (or hit the round limit) on their own.
        state_.skip_down_node(v);
        if (!finished_flag_[v] && state_.node_crash_stopped(v, round)) {
          finished_flag_[v] = 1;
          ++newly_finished;
        }
        continue;
      }
      const std::span<const message> inbox = state_.collect_inbox(v);
      round_context ctx(state_, v, round);
      programs_[v].on_round(ctx, inbox);
      state_.release_inbox(v, inbox);
      if (!finished_flag_[v] && std::as_const(programs_[v]).finished()) {
        finished_flag_[v] = 1;
        ++newly_finished;
      }
    }
    return newly_finished;
  }

  /// The run's effective worker count, decided once per run (see run()):
  /// the `threads` knob (0 = the whole injected pool, else one per
  /// hardware thread), bounded by the injected pool's size, the pool-size
  /// ceiling, and the node count.
  [[nodiscard]] std::size_t resolve_workers(std::size_t n) const {
    const thread_pool* pool = shared_pool_.get();
    std::size_t requested = threads_;
    if (requested == 0)
      requested = pool ? pool->size() : thread_pool::hardware_workers();
    if (pool) requested = std::min(requested, pool->size());
    // Mirror the pool constructor's ceiling so a run-private pool ends up
    // exactly this big (the round loop asserts on that).
    requested = std::min(requested, thread_pool::max_workers);
    return std::min(requested, std::max<std::size_t>(n, 1));
  }

  /// Dispatches the round's compute phase on the pool (allocation-free:
  /// the per-worker finished tallies live in a run-scoped scratch array,
  /// the node ranges in the run's degree-weighted partition) and returns
  /// how many programs finished this round.
  std::size_t compute_phase(std::size_t round, thread_pool* pool,
                            std::size_t workers) {
    const std::size_t n = programs_.size();
    if (pool == nullptr || workers <= 1)
      return compute_range(round, 0, static_cast<graph::node_id>(n));

    pool->run(workers, [&](std::size_t w) {
      finished_scratch_[w] = compute_range(
          round, static_cast<graph::node_id>(partition_bounds_[w]),
          static_cast<graph::node_id>(partition_bounds_[w + 1]));
    });
    std::size_t total = 0;
    for (std::size_t w = 0; w < workers; ++w) total += finished_scratch_[w];
    return total;
  }

  detail::mailbox_state state_;
  std::size_t max_rounds_;
  std::size_t threads_;
  std::shared_ptr<thread_pool> shared_pool_;
  std::vector<std::size_t> finished_scratch_;  // per-worker finish tallies
  /// Degree-weighted node ranges of the run (workers + 1 bounds; empty
  /// when serial), shared by compute and delivery dispatch.
  std::vector<std::size_t> partition_bounds_;
  std::vector<Program> programs_;
  std::vector<std::uint8_t> finished_flag_;
  std::size_t finished_count_ = 0;
  bool loaded_ = false;
  run_metrics metrics_;
  std::function<void(std::size_t)> round_observer_;
};

}  // namespace domset::sim
