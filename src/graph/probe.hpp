// Cheap structural probes for solver selection: degeneracy (core peel),
// arboricity bounds derived from it, and a seeded triangle sample.
//
// The `auto` meta-solver (src/api/solvers.cpp) dispatches on these values,
// so every probe here is (a) O(n + m) or cheaper -- probing must cost a
// negligible fraction of any solve it steers -- and (b) bit-identical
// across thread counts: selection feeds the determinism contract, so a
// probe that flickered with --threads would make `auto` runs
// irreproducible.  Arboricity bracketing uses the classical facts
// arboricity <= degeneracy <= 2*arboricity - 1 [Nash-Williams 1964;
// Matula-Beck 1983]; the bounded-arboricity solver the values steer toward
// is Dory-Ghaffari-Ilchi (arXiv 2206.05174).
#pragma once

#include <cstdint>
#include <memory>

#include "graph/graph.hpp"
#include "graph/properties.hpp"

namespace domset::sim {
class thread_pool;
}  // namespace domset::sim

namespace domset::graph {

struct probe_params {
  /// Wedge samples for the triangle-density estimate (0 = skip sampling).
  std::size_t triangle_samples = 2048;

  /// Seed of the sample streams.  Deliberately NOT tied to the run seed:
  /// selection must depend on the graph alone, so the same graph probes
  /// identically under every exec::context.
  std::uint64_t sample_seed = 0x70726F6265ULL;

  /// Worker threads for the sampling pass (1 = serial, 0 = hardware).
  /// Every sample draws from its own derived rng stream, so the estimate
  /// is bit-identical for every worker count.
  std::size_t threads = 1;

  /// Optional shared pool (see exec::context::pool); built on demand when
  /// null and threads != 1.
  std::shared_ptr<sim::thread_pool> pool;
};

struct probe_result {
  /// Degeneracy (maximum core number): the largest k such that some
  /// subgraph has minimum degree k.  Exact, via the O(n + m) bucket peel.
  std::uint32_t degeneracy = 0;

  /// (degeneracy + 1) / 2 <= arboricity: lower bracket of the forest
  /// count [Matula-Beck].
  double arboricity_lower = 0.0;

  /// arboricity <= degeneracy: upper bracket [Nash-Williams].
  std::uint32_t arboricity_upper = 0;

  /// Wedges actually sampled (a drawn center of degree < 2 spans no wedge
  /// and is not counted).
  std::size_t wedges_sampled = 0;

  /// Sampled wedges whose endpoints are adjacent.
  std::size_t triangles_closed = 0;

  /// triangles_closed / wedges_sampled (0 when nothing was sampled): a
  /// global-clustering estimate, 1.0 on cliques, 0.0 on triangle-free
  /// graphs.
  double triangle_density = 0.0;

  /// Max/avg degree and skew (graph::degree_stats).
  degree_stats_result degrees;
};

/// Exact degeneracy via the Batagelj-Zaversnik bucket peel, O(n + m),
/// serial and deterministic.
[[nodiscard]] std::uint32_t degeneracy(const graph& g);

/// Runs every probe; see the individual field comments.
[[nodiscard]] probe_result probe(const graph& g,
                                 const probe_params& params = {});

}  // namespace domset::graph
