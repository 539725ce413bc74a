/// \file engine_config.hpp
/// \brief Configuration of one engine run, split from engine.hpp so that
/// exec::context (and through it every params header) can lower into a
/// sim::engine_config without dragging the full typed_engine template
/// machinery into each translation unit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

namespace domset::sim {

class thread_pool;
struct fault_plan;

struct engine_config {
  /// Global seed; node v's stream is derive_seed(seed, v).
  std::uint64_t seed = 1;

  /// Hard stop: runs longer than this flag hit_round_limit.
  std::size_t max_rounds = 1'000'000;

  /// Message loss probability (adversarial extension; the paper's model is
  /// reliable, so this defaults to 0).  Drop decisions are drawn from a
  /// per-sender stream so they are independent of execution order.
  double drop_probability = 0.0;

  /// If nonzero, any message with declared bits above this limit sets
  /// run_metrics::congest_violation.
  std::uint32_t congest_bit_limit = 0;

  /// Scheduled fault plan (sim/fault.hpp): crash windows, link cuts,
  /// bursts, duplication.  Null or empty = the reliable model.  Fault
  /// decisions derive from the plan and per-sender streams only, so runs
  /// stay bit-identical across thread counts.
  std::shared_ptr<const fault_plan> faults;

  /// Worker threads for the parallel phases.  1 = serial; 0 = one per
  /// hardware thread (or the whole injected pool).  Results are
  /// bit-identical for every value.
  std::size_t threads = 1;

  /// Optional externally owned worker pool, shared across runs and
  /// engines.  When set, parallel phases dispatch on it instead of a
  /// run-private pool; `threads` still bounds how many of its workers a
  /// run uses (0 = all of them).  A pool carries no algorithm state, so
  /// sharing cannot perturb results.
  std::shared_ptr<thread_pool> pool;
};

}  // namespace domset::sim
