/// \file fault.hpp
/// \brief Deterministic fault-injection plane for the round engine.
//
// The paper's model is reliable; real networks crash, flap, and burst.
// A `fault_plan` is a *schedule* of adversarial events -- crash-stop and
// crash-recover node failures, per-link outages with optional flapping,
// burst message loss, and message duplication -- applied by the engine in
// its send/delivery phases.  Every decision the plane makes is a pure
// function of (plan, sender, CSR edge position, round) plus per-sender RNG
// streams, so a faulty run stays bit-identical across thread counts: the
// same determinism contract the lossless engine already carries
// (tests/sim_parallel_determinism_test.cpp).
//
// Fault semantics, in engine terms:
//   * node down at round r: skipped by the compute phase (no on_round, no
//     sends, no RNG draws) and its round-r inbox is discarded (counted in
//     run_metrics::messages_lost_to_faults).  A crash-*stop* node (open
//     window) is treated as finished at its crash round so the run can
//     still terminate; a crash-*recover* node resumes on_round when its
//     window closes.  Messages already in flight when a node crashes are
//     delivered to its (live) neighbors -- the radio died, not the ether.
//   * link down at round r: messages sent across it in round r vanish at
//     the sender (both directions), counted in messages_lost_to_faults.
//     No RNG is consumed, so loss on one link never perturbs drop rolls
//     elsewhere.  A link fault naming a non-adjacent pair is a documented
//     no-op: fault specs are swept across graph families that need not all
//     contain the edge.
//   * burst at round r: extra i.i.d. message loss with probability p,
//     combined with the base drop_probability as 1-(1-base)*(1-p), rolled
//     on the per-sender drop streams and counted in messages_dropped.
//   * dup at round r: each delivered message is duplicated with
//     probability p (an extra copy of the same message down the same edge,
//     via the engine's overflow path), rolled on dedicated per-sender dup
//     streams and counted in messages_duplicated.
//
// The textual grammar (see parse_fault_plan) is `+`-separated so a whole
// plan fits in one shell-friendly token and can ride a comma-separated
// bench axis: `crash=7@10+link=0-3@4-9:flap=1/3+burst@5-6:p=0.5`.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "graph/graph.hpp"

namespace domset::sim {

/// An inclusive round interval [first, last]; last == forever leaves the
/// window open (crash-stop, permanent link cuts).
struct fault_window {
  static constexpr std::size_t forever = ~std::size_t{0};

  std::size_t first = 0;
  std::size_t last = forever;

  [[nodiscard]] bool contains(std::size_t round) const noexcept {
    return round >= first && round <= last;
  }
  [[nodiscard]] bool open_ended() const noexcept { return last == forever; }

  friend bool operator==(const fault_window&, const fault_window&) = default;
};

/// Node failure: crash-stop when the window is open-ended, crash-recover
/// otherwise (the node is dark for the window and resumes after it).
struct node_fault {
  graph::node_id node = 0;
  fault_window window;

  [[nodiscard]] bool crash_stop() const noexcept {
    return window.open_ended();
  }
  friend bool operator==(const node_fault&, const node_fault&) = default;
};

/// Link outage between adjacent nodes u and v (both directions).  With
/// flap_period > 0 the link is down only for the first flap_down rounds of
/// every flap_period-round cycle, phase-aligned to window.first.
struct link_fault {
  graph::node_id u = 0;
  graph::node_id v = 0;
  fault_window window;
  std::uint32_t flap_down = 0;    ///< down rounds per cycle (0 = whole window)
  std::uint32_t flap_period = 0;  ///< cycle length (0 = no flapping)

  [[nodiscard]] bool down_at(std::size_t round) const noexcept {
    if (!window.contains(round)) return false;
    if (flap_period == 0) return true;
    return (round - window.first) % flap_period < flap_down;
  }
  friend bool operator==(const link_fault&, const link_fault&) = default;
};

/// Network-wide extra message loss inside the window.
struct burst_fault {
  fault_window window;
  double probability = 1.0;

  friend bool operator==(const burst_fault&, const burst_fault&) = default;
};

/// Network-wide message duplication inside the window.
struct dup_fault {
  fault_window window;
  double probability = 1.0;

  friend bool operator==(const dup_fault&, const dup_fault&) = default;
};

/// A full fault schedule.  Carried on exec::context / sim::engine_config
/// as a shared_ptr<const fault_plan>; null or empty means the reliable
/// model.  `spec` echoes the textual form the plan was parsed from (kept
/// canonical by parse_fault_plan) so results can be keyed by it.
struct fault_plan {
  std::vector<node_fault> node_faults;
  std::vector<link_fault> link_faults;
  std::vector<burst_fault> bursts;
  std::vector<dup_fault> dups;
  std::string spec;

  [[nodiscard]] bool empty() const noexcept {
    return node_faults.empty() && link_faults.empty() && bursts.empty() &&
           dups.empty();
  }
};

/// Parses the fault grammar:
///   spec  := "none" | "" | atom ("+" atom)*
///   atom  := "crash=" node "@" window
///          | "link=" node "-" node "@" window [":flap=" down "/" period]
///          | "burst@" window [":p=" prob]
///          | "dup@" window [":p=" prob]
///   window:= round | round "-" | round "-" round      (inclusive; "r-" = forever)
/// For `crash` a single round means crash-stop (down forever from there);
/// for the other atoms it means that one round only.  Throws
/// std::invalid_argument on malformed input.  The returned plan's `spec`
/// is the canonical re-rendering (to_string round-trips).
[[nodiscard]] fault_plan parse_fault_plan(std::string_view spec);

/// Canonical textual forms of single faults and whole plans (an empty plan
/// renders as "none").  parse_fault_plan(to_string(p)) reproduces p.
[[nodiscard]] std::string to_string(const node_fault& f);
[[nodiscard]] std::string to_string(const link_fault& f);
[[nodiscard]] std::string to_string(const burst_fault& f);
[[nodiscard]] std::string to_string(const dup_fault& f);
[[nodiscard]] std::string to_string(const fault_plan& plan);

/// A fault plan compiled against one graph: link faults resolved to CSR
/// edge positions, per-node/per-sender gates precomputed, so the engine's
/// hot paths pay one flag load when a node or sender is fault-free.
/// Throws std::invalid_argument when a fault names a node outside the
/// graph; non-adjacent link faults are dropped (see fault.hpp preamble).
class compiled_faults {
 public:
  compiled_faults() = default;
  compiled_faults(const graph::graph& g, const fault_plan& plan);

  /// True when any fault was compiled (drives engine bookkeeping setup).
  [[nodiscard]] bool any() const noexcept { return any_; }
  [[nodiscard]] bool any_burst() const noexcept { return !bursts_.empty(); }
  [[nodiscard]] bool any_dup() const noexcept { return !dups_.empty(); }

  /// True iff node v is dark at `round`.
  [[nodiscard]] bool node_down(graph::node_id v, std::size_t round) const {
    if (node_flag_.empty() || !node_flag_[v]) return false;
    for (const node_fault& f : nodes_)
      if (f.node == v && f.window.contains(round)) return true;
    return false;
  }

  /// True iff node v is dark at `round` and never recovers (crash-stop).
  [[nodiscard]] bool permanently_down(graph::node_id v,
                                      std::size_t round) const {
    if (node_flag_.empty() || !node_flag_[v]) return false;
    for (const node_fault& f : nodes_)
      if (f.node == v && f.crash_stop() && f.window.contains(round))
        return true;
    return false;
  }

  /// True iff sends from u at `round` need the per-message path: a link
  /// fault touches one of u's edges, or a burst/dup window is active.
  [[nodiscard]] bool sender_path(graph::node_id u, std::size_t round) const {
    if (!sender_flag_.empty() && sender_flag_[u]) return true;
    return burst_probability(round) > 0.0 || dup_probability(round) > 0.0;
  }

  /// True iff the directed edge at sender-side CSR position `pos` is cut
  /// at `round`.
  [[nodiscard]] bool link_down(std::size_t pos, std::size_t round) const {
    if (links_.empty()) return false;
    // links_ is sorted by position; entries per position are few.
    std::size_t lo = 0, hi = links_.size();
    while (lo < hi) {
      const std::size_t mid = (lo + hi) / 2;
      if (links_[mid].pos < pos)
        lo = mid + 1;
      else
        hi = mid;
    }
    for (; lo < links_.size() && links_[lo].pos == pos; ++lo)
      if (links_[lo].fault.down_at(round)) return true;
    return false;
  }

  /// Combined probability that an active burst removes a message at
  /// `round` (independent bursts compose as 1 - prod(1 - p)).
  [[nodiscard]] double burst_probability(std::size_t round) const {
    double keep = 1.0;
    for (const burst_fault& f : bursts_)
      if (f.window.contains(round)) keep *= 1.0 - f.probability;
    return 1.0 - keep;
  }

  /// Combined duplication probability at `round`.
  [[nodiscard]] double dup_probability(std::size_t round) const {
    double keep = 1.0;
    for (const dup_fault& f : dups_)
      if (f.window.contains(round)) keep *= 1.0 - f.probability;
    return 1.0 - keep;
  }

 private:
  struct link_entry {
    std::size_t pos = 0;  ///< sender-side CSR position of the cut edge
    link_fault fault;
  };

  bool any_ = false;
  std::vector<node_fault> nodes_;
  std::vector<link_entry> links_;  // sorted by pos, both directions compiled
  std::vector<burst_fault> bursts_;
  std::vector<dup_fault> dups_;
  std::vector<std::uint8_t> node_flag_;    // node has any node_fault
  std::vector<std::uint8_t> sender_flag_;  // node touches any link_fault
};

}  // namespace domset::sim
