// Experiment F1 -- reproduces Figure 1 of the paper.
//
// The figure illustrates the inner-loop cascade for k = 4: nodes with
// a(v) >= (Delta+1)^{3/4} active neighbors are covered first, then those
// with a(v) >= (Delta+1)^{2/4}, and so on, which is exactly the Lemma 3
// invariant.  We run Algorithm 2 with k = 4, record max_v a(v) at every
// inner iteration, and print it against the invariant bound
// (Delta+1)^{(m+1)/k}.  The "shape" to verify: within every outer
// iteration the measured maximum steps down with m and never exceeds the
// bound.
#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "common/table.hpp"
#include "core/alg2.hpp"

namespace {

using namespace domset;

void run_cascade(const bench::named_graph& instance, std::uint32_t k) {
  const graph::graph& g = instance.g;
  const double dp1 = static_cast<double>(g.max_degree()) + 1.0;

  common::text_table table(
      {"ell", "m", "max a(v) white", "bound (D+1)^{(m+1)/k}", "covered %"});
  core::alg2_observer obs = [&](const core::alg2_iteration_view& view) {
    std::uint32_t max_a = 0;
    std::size_t gray_count = 0;
    for (graph::node_id v = 0; v < g.node_count(); ++v) {
      if (view.gray[v]) {
        ++gray_count;
        continue;
      }
      std::uint32_t a = 0;
      g.for_closed_neighborhood(v, [&](graph::node_id u) {
        if (view.active[u]) ++a;
      });
      max_a = std::max(max_a, a);
    }
    const double bound = std::pow(
        dp1, (static_cast<double>(view.m) + 1.0) / static_cast<double>(k));
    table.add_row({common::fmt_int(view.ell), common::fmt_int(view.m),
                   common::fmt_int(max_a), common::fmt_double(bound, 2),
                   common::fmt_double(100.0 * static_cast<double>(gray_count) /
                                          static_cast<double>(g.node_count()),
                                      1)});
  };
  (void)core::approximate_lp_known_delta(g, {.k = k}, {}, &obs);

  bench::print_table(
      "Figure 1 cascade: " + instance.name + " (" + g.summary() +
          "), k=" + std::to_string(k),
      "Lemma 3 invariant: the white-node maximum of a(v) stays at or below "
      "the bound and cascades down within each outer iteration.",
      table);
}

}  // namespace

int main() {
  std::cout << "F1: active-neighbor cascade (Figure 1 of the paper)\n";
  common::rng gen(77);
  const bench::named_graph dense{"gnp_120_.12",
                                 graph::gnp_random(120, 0.12, gen)};
  run_cascade(dense, 4);

  const bench::named_graph star{"star_81", graph::star_graph(81)};
  run_cascade(star, 4);
  return 0;
}
