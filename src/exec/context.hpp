/// \file context.hpp
/// \brief The shared execution context every algorithm entry point embeds.
///
/// Before this header existed, every params struct (`lp_approx_params`,
/// `rounding_params`, `pipeline_params`, the baselines) re-declared the
/// same execution knobs -- seed, threads, pool, message loss --
/// with the same copy-pasted documentation, so each new engine feature
/// cost an eight-file plumbing sweep.  `exec::context` is the single
/// definition: algorithms embed it by composition (`params.exec`),
/// `common::cli_parser::add_exec_flags()` parses it from argv in one call,
/// and `context::engine_config()` hands it to the simulator.  A future
/// engine knob is added here once and becomes available everywhere.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "sim/engine_config.hpp"
#include "sim/fault.hpp"
#include "sim/thread_pool.hpp"

namespace domset::exec {

/// Execution knobs shared by every simulator-backed algorithm.
///
/// Only `seed` and `drop_probability` can influence a run's *output*
/// (and `seed` only matters to the randomized algorithms or when message
/// loss is injected); `threads` and `pool` are purely wall-clock knobs --
/// results and metrics are bit-identical for every setting, a contract
/// enforced by tests/sim_parallel_determinism_test.cpp and documented in
/// docs/threading.md.
struct context {
  /// Global engine seed; node v's private stream is derived from it.
  /// Algorithms 2 and 3 are deterministic, so for them the seed only
  /// matters when message loss is injected.
  std::uint64_t seed = 1;

  /// Message-loss probability (robustness extension; 0 = the paper's
  /// reliable model).
  double drop_probability = 0.0;

  /// Scheduled fault plan (crash/link/burst/dup events; see
  /// sim/fault.hpp).  Null or empty = no injected faults.  Like
  /// drop_probability, faults influence a run's *output* but never its
  /// determinism: the same plan plus the same seed reproduces the run bit
  /// for bit at every thread count.
  std::shared_ptr<const sim::fault_plan> faults;

  /// If nonzero, the engine flags any message whose declared width
  /// exceeds this many bits (run_metrics::congest_violation) -- used to
  /// assert the paper's O(log Delta) message-size claim mechanically.
  std::uint32_t congest_bit_limit = 0;

  /// Simulator worker threads (1 = serial, 0 = one per hardware thread).
  std::size_t threads = 1;

  /// Optional shared worker pool (see sim::engine_config::pool).  Lets
  /// consecutive runs -- pipeline stages, parameter sweeps, epochs of a
  /// dynamic network -- reuse one set of threads instead of building a
  /// pool per run.  A pool carries no algorithm state, so sharing cannot
  /// perturb results.
  std::shared_ptr<sim::thread_pool> pool;

  /// Lowers the context into a simulator configuration.  Callers set the
  /// algorithm-specific fields (max_rounds) on the returned value.
  [[nodiscard]] sim::engine_config engine_config() const {
    sim::engine_config cfg;
    cfg.seed = seed;
    cfg.drop_probability = drop_probability;
    cfg.faults = faults;
    cfg.congest_bit_limit = congest_bit_limit;
    cfg.threads = threads;
    cfg.pool = pool;
    return cfg;
  }

  /// True when this context injects any unreliability (message loss or a
  /// non-empty fault plan); callers use it to decide whether a run may
  /// legitimately produce a degraded solution.
  [[nodiscard]] bool faulty() const {
    return drop_probability > 0.0 || (faults && !faults->empty());
  }

  /// Returns a copy whose `seed` is replaced (pipelines derive
  /// independent streams per stage without mutating the caller's context).
  [[nodiscard]] context with_seed(std::uint64_t s) const {
    context c = *this;
    c.seed = s;
    return c;
  }

  /// Returns a copy carrying `p` as the shared worker pool.
  [[nodiscard]] context with_pool(std::shared_ptr<sim::thread_pool> p) const {
    context c = *this;
    c.pool = std::move(p);
    return c;
  }

  /// Ensures a shared pool exists when the context requests parallelism:
  /// if `pool` is null and `threads != 1`, builds one sized by `threads`.
  /// Call once before a batch of runs (sweeps, pipelines, epochs) so they
  /// all dispatch on the same workers.  No-op for serial contexts.
  void ensure_shared_pool() {
    if (!pool) pool = sim::thread_pool::make_shared_if_parallel(threads);
  }
};

}  // namespace domset::exec
