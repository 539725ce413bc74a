// Parameter sweep: the k trade-off on a workload of your choice.
// Reproduces the paper's central tension -- approximation quality vs
// round count -- interactively.
//
//   ./parameter_sweep [--family udg|gnp|grid|ba|star] [--n 400]
//                     [--kmax 8] [--seeds 20] [--seed 3]
#include <cmath>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>

#include "api/bench_runner.hpp"
#include "api/graphs.hpp"
#include "common/cli.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "core/pipeline.hpp"
#include "graph/properties.hpp"
#include "verify/verify.hpp"

int main(int argc, char** argv) {
  using namespace domset;

  common::cli_parser cli("Sweep the k parameter: quality vs rounds");
  cli.add_flag("family", "udg", "graph family: udg|gnp|grid|ba|star");
  cli.add_flag("n", "400", "approximate node count");
  cli.add_flag("kmax", "8", "largest k to try");
  cli.add_flag("seeds", "20", "seeds to average the randomized rounding over");
  cli.add_exec_flags(3);
  if (!cli.parse(argc, argv)) return 1;
  // All sweep runs share one worker pool (created only when parallelism
  // is requested).
  exec::context exec = cli.exec();
  exec.ensure_shared_pool();

  const std::string family = cli.get_string("family");
  const auto n = static_cast<std::size_t>(cli.get_int("n"));
  // The same named-family builder the `domset` driver uses, so this graph
  // is identical to the one the bench sweep below constructs from
  // (family, n, seed).
  const graph::graph g = api::make_graph(family, n, exec.seed);
  const double lb = graph::dual_lower_bound(g);
  std::printf("graph: %s, certified dual lower bound %.1f\n",
              g.summary().c_str(), lb);

  common::text_table table({"k", "rounds", "msgs/node", "E[|DS|]",
                            "ratio vs LB", "Thm6 bound"});
  const auto kmax = static_cast<std::uint32_t>(cli.get_int("kmax"));
  const auto seeds = static_cast<std::uint64_t>(cli.get_int("seeds"));
  for (std::uint32_t k = 1; k <= kmax; ++k) {
    common::running_stats sizes;
    std::size_t rounds = 0;
    std::uint64_t msgs = 0;
    double bound = 0.0;
    for (std::uint64_t s = 0; s < seeds; ++s) {
      core::pipeline_params params;
      params.k = k;
      params.exec = exec.with_seed(s + 1);
      const auto res = core::compute_dominating_set(g, params);
      if (!verify::is_dominating_set(g, res.in_set)) return 1;
      sizes.add(static_cast<double>(res.size));
      rounds = res.total_rounds;
      msgs = std::max(msgs, res.fractional.metrics.max_messages_per_node);
      bound = res.expected_ratio_bound;
    }
    table.add_row({common::fmt_int(k),
                   common::fmt_int(static_cast<long long>(rounds)),
                   common::fmt_int(static_cast<long long>(msgs)),
                   common::fmt_double(sizes.mean(), 1),
                   common::fmt_double(sizes.mean() / lb, 2),
                   common::fmt_double(bound, 1)});
  }
  table.print(std::cout);
  std::puts("\nRead the table bottom-up to choose k: the smallest k whose "
            "quality you can accept costs the fewest rounds.");

  // Second axis of the scenario space: sweep *across algorithms* -- no
  // hand-rolled loop, the same api::run_bench substrate `domset bench`
  // and the CI trend gate execute (same graph as above, same shared
  // pool, k filtered to the solvers that accept it).
  api::bench_spec spec;
  spec.algs = {"alg2", "alg3", "pipeline", "lrg", "luby", "wu_li"};
  spec.graphs = {family};
  spec.ns = {n};
  spec.seeds = {exec.seed};
  spec.threads = {exec.threads};
  spec.repeats = 1;
  spec.solver_params.set("k", "3");
  spec.base_exec = exec;
  const api::bench_document doc = api::run_bench(spec);

  common::text_table algs({"algorithm", "rounds", "msgs total", "objective",
                           "ratio vs LB"});
  for (const api::bench_cell& cell : doc.cells) {
    const api::solve_result& res = cell.record.result;
    algs.add_row(
        {cell.record.alg + (res.integral() ? "" : " (LP)"),
         common::fmt_int(static_cast<long long>(res.metrics.rounds)),
         common::fmt_int(static_cast<long long>(res.metrics.messages_sent)),
         common::fmt_double(res.objective, 1),
         common::fmt_double(res.objective / lb, 2)});
  }
  std::puts("");
  algs.print(std::cout);
  std::puts("\nOne harness, many algorithms: every solver above ran through "
            "the bench runner (api/bench_runner.hpp) on the same exec "
            "context and worker pool -- the path `domset bench` and the CI "
            "trend gate exercise.");
  return 0;
}
