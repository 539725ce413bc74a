#include "api/bench_runner.hpp"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <stdexcept>
#include <utility>

#include "api/graphs.hpp"
#include "api/registry.hpp"
#include "common/stats.hpp"
#include "graph/graph.hpp"
#include "sim/fault.hpp"
#include "sim/thread_pool.hpp"
#include "verify/coverage.hpp"
#include "verify/verify.hpp"

namespace domset::api {

namespace {

/// The subset of `all` whose keys appear in `accepted`; consumed keys are
/// recorded so the spec can reject a param no cell ever used (a typo'd
/// key silently dropped everywhere is the bug require_known exists to
/// prevent -- the sweep keeps that guarantee in aggregate).
param_map filter_params(const param_map& all,
                        std::span<const std::string_view> accepted,
                        std::set<std::string>& consumed) {
  param_map out;
  for (const auto& [key, value] : all.entries()) {
    if (std::find(accepted.begin(), accepted.end(), key) != accepted.end()) {
      out.set(key, value);
      consumed.insert(key);
    }
  }
  return out;
}

void require_all_consumed(const param_map& all,
                          const std::set<std::string>& consumed,
                          const char* which) {
  for (const auto& [key, value] : all.entries()) {
    if (consumed.find(key) == consumed.end())
      throw std::invalid_argument(std::string("bench spec: ") + which +
                                  " param '" + key +
                                  "' is accepted by nothing in the sweep");
  }
}

void require_axis(bool ok, const char* what) {
  if (!ok)
    throw std::invalid_argument(std::string("bench spec: ") + what);
}

std::string fmt_drop(double drop) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%g", drop);
  return buf;
}

std::string faults_spec(const run_record& r) {
  return r.exec.faults ? sim::to_string(*r.exec.faults) : std::string("none");
}

std::string cell_label(const run_record& r) {
  std::string label =
      r.alg + "/" + r.graph_family + "/n=" + std::to_string(r.nodes) +
      "/seed=" + std::to_string(r.exec.seed) +
      "/threads=" + std::to_string(r.exec.threads);
  // The degradation axes only appear when active so labels (and the error
  // messages built from them) keep their pre-fault shape on clean sweeps.
  if (r.exec.drop_probability > 0.0)
    label += "/drop=" + fmt_drop(r.exec.drop_probability);
  if (r.exec.faults && !r.exec.faults->empty())
    label += "/faults=" + faults_spec(r);
  return label;
}

}  // namespace

bench_document run_bench(const bench_spec& spec) {
  require_axis(!spec.algs.empty(), "no solvers (--alg)");
  require_axis(!spec.graphs.empty(), "no graph families (--graph)");
  require_axis(!spec.ns.empty(), "no sizes (--n)");
  require_axis(!spec.seeds.empty(), "no seeds (--seeds)");
  require_axis(!spec.threads.empty(), "no thread counts (--threads)");
  require_axis(spec.repeats >= 1, "repeats must be >= 1");

  // The degradation axes: empty means one implicit value from base_exec,
  // so pre-fault specs keep their meaning.  Fault specs parse up front --
  // a typo fails before any cell has run.
  std::vector<double> drops = spec.drops;
  if (drops.empty()) drops.push_back(spec.base_exec.drop_probability);
  for (const double drop : drops)
    require_axis(drop >= 0.0 && drop < 1.0, "drop must be in [0, 1)");
  struct fault_axis {
    std::shared_ptr<const sim::fault_plan> plan;  // null = reliable
  };
  std::vector<fault_axis> fault_axes;
  if (spec.faults.empty()) {
    fault_axes.push_back({spec.base_exec.faults});
  } else {
    for (const std::string& text : spec.faults) {
      sim::fault_plan plan = sim::parse_fault_plan(text);
      fault_axes.push_back(
          {plan.empty() ? nullptr
                        : std::make_shared<const sim::fault_plan>(
                              std::move(plan))});
    }
  }

  // Resolve every axis value up front so a typo fails before minutes of
  // cells have run.
  std::vector<const solver*> solvers;
  solvers.reserve(spec.algs.size());
  for (const std::string& name : spec.algs)
    solvers.push_back(&solver_registry::instance().find(name));
  std::set<std::string> graph_keys_consumed;
  std::vector<const graph_family*> families;
  families.reserve(spec.graphs.size());
  for (const std::string& name : spec.graphs) {
    const graph_family* family = find_graph_family(name);
    if (family == nullptr) {
      (void)make_graph(name, 1, 1);  // throws the teaching unknown-family error
      throw std::invalid_argument("graph family '" + name +
                                  "' is missing from graph_families()");
    }
    families.push_back(family);
  }

  // One worker pool serves the whole sweep: sized for the largest thread
  // count requested (0 = one per hardware thread dominates), bounded per
  // cell by that cell's threads value (see sim::engine_config::pool).
  exec::context pool_exec = spec.base_exec;
  const bool any_hardware =
      std::find(spec.threads.begin(), spec.threads.end(), 0U) !=
      spec.threads.end();
  pool_exec.threads =
      any_hardware ? 0
                   : *std::max_element(spec.threads.begin(), spec.threads.end());
  pool_exec.ensure_shared_pool();

  // Build every swept graph once; cells reference them by index.  The
  // graph axes are outermost in cell order, so memory peaks at the sum of
  // the swept graphs -- bench-sized by construction.
  struct graph_instance {
    const graph_family* family;
    std::size_t n;
    std::uint64_t seed;
    graph::graph g;
    std::optional<graph_source> source;  // set for file-loaded graphs
  };
  std::vector<graph_instance> instances;
  std::set<std::string> solver_keys_consumed;
  for (const graph_family* family : families) {
    const param_map params =
        filter_params(spec.graph_params, family->keys, graph_keys_consumed);
    for (const std::size_t n : spec.ns)
      for (const std::uint64_t seed : spec.seeds) {
        graph_source source;
        graph::graph g = make_graph(family->name, n, seed, params, &source);
        // Families whose size is derived (file ignores n entirely; grid/
        // tree round to the nearest feasible shape) can map distinct
        // requested n to the same built graph.  Such cells would be
        // byte-identical AND collide on the document's (family, nodes,
        // seed) key, so exact duplicates are dropped here rather than
        // emitted for the validator to reject.
        bool duplicate = false;
        for (const graph_instance& seen : instances)
          duplicate |= seen.family == family && seen.seed == seed &&
                       seen.g.node_count() == g.node_count() &&
                       seen.g.edge_count() == g.edge_count();
        if (!duplicate) {
          std::optional<graph_source> provenance;
          if (!source.path.empty()) provenance = std::move(source);
          instances.push_back(
              {family, n, seed, std::move(g), std::move(provenance)});
        }
      }
  }
  require_all_consumed(spec.graph_params, graph_keys_consumed, "graph");

  // Materialize the cell grid with its per-cell contexts and filtered
  // params; the timing loop below only runs solve().
  struct pending_cell {
    const graph::graph* g;
    const solver* s;
    param_map params;
    exec::context exec;
  };
  std::vector<pending_cell> pending;
  bench_document doc;
  doc.repeats = spec.repeats;
  for (const graph_instance& instance : instances) {
    for (const solver* s : solvers) {
      const param_map params = filter_params(
          spec.solver_params, s->param_keys(), solver_keys_consumed);
      for (const std::size_t threads : spec.threads) {
        for (const double drop : drops) {
          for (const fault_axis& fa : fault_axes) {
            exec::context exec = spec.base_exec;
            exec.seed = instance.seed;
            exec.threads = threads;
            exec.drop_probability = drop;
            exec.faults = fa.plan;
            exec.pool = pool_exec.pool;
            pending.push_back({&instance.g, s, params, exec});

            bench_cell cell;
            cell.record.alg = std::string(s->name());
            cell.record.graph_family = std::string(instance.family->name);
            cell.record.nodes = instance.g.node_count();
            cell.record.edges = instance.g.edge_count();
            cell.record.max_degree = instance.g.max_degree();
            cell.record.source = instance.source;
            cell.record.exec = exec;
            cell.record.exec.pool = nullptr;  // process-local, not recorded
            cell.record.params = params;
            doc.cells.push_back(std::move(cell));
          }
        }
      }
    }
  }
  require_all_consumed(spec.solver_params, solver_keys_consumed, "solver");

  // Repeat-interleaved timing: every repeat visits all cells before any
  // cell is timed again, so slow patches on a shared box spread across
  // the whole grid instead of biasing one cell's median.
  std::vector<std::uint64_t> digests(pending.size(), 0);
  for (std::size_t rep = 0; rep < spec.repeats; ++rep) {
    for (std::size_t i = 0; i < pending.size(); ++i) {
      pending_cell& cell = pending[i];
      bench_cell& out = doc.cells[i];
      const auto start = std::chrono::steady_clock::now();
      solve_result result = cell.s->solve(*cell.g, cell.exec, cell.params);
      out.times_ms.push_back(std::chrono::duration<double, std::milli>(
                                 std::chrono::steady_clock::now() - start)
                                 .count());
      const std::uint64_t digest = solution_digest(result);
      if (rep == 0) {
        digests[i] = digest;
        const bool degraded = cell.exec.faulty();
        out.record.valid =
            result.integral() && spec.verify_solutions
                ? verify::is_dominating_set(*cell.g, result.in_set)
                : true;
        // Degraded cells trade the binary verdict for the quantitative
        // report: how many holes, how deep, which fault.  Reliable cells
        // keep the hard throw -- an invalid set without faults is a bug.
        if (degraded && result.integral() && spec.verify_solutions)
          out.record.coverage = verify::coverage(*cell.g, result.in_set,
                                                 cell.exec.faults.get());
        out.record.result = std::move(result);
        if (!out.record.valid && !degraded)
          throw std::runtime_error("bench cell " + cell_label(out.record) +
                                   ": output is not a dominating set");
      } else if (digest != digests[i]) {
        throw std::runtime_error(
            "bench cell " + cell_label(out.record) +
            ": repeat " + std::to_string(rep) +
            " produced a different solution digest -- same seed must mean "
            "same solution (determinism regression)");
      }
    }
  }

  for (bench_cell& cell : doc.cells) {
    cell.median_ms = common::median(cell.times_ms);
    cell.record.elapsed_ms = cell.median_ms;
  }
  return doc;
}

std::string to_json(const bench_document& doc) {
  std::string out;
  out.reserve(2048 * (doc.cells.size() + 1));
  char buf[128];
  const auto num = [&buf](auto value) -> std::string {
    std::snprintf(buf, sizeof buf, "%" PRIu64,
                  static_cast<std::uint64_t>(value));
    return buf;
  };
  const auto flt = [&buf](double value) -> std::string {
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
  };

  out += "{\n  \"schema\": \"domset-bench/1\",\n";
  out += "  \"repeats\": " + num(doc.repeats) + ",\n";
  out += "  \"cell_count\": " + num(doc.cells.size()) + ",\n";
  out += "  \"cells\": [";
  bool first_cell = true;
  for (const bench_cell& cell : doc.cells) {
    out += first_cell ? "\n" : ",\n";
    first_cell = false;
    const run_record& r = cell.record;
    out += "    {\n";
    out += "      \"alg\": \"" + r.alg + "\",\n";
    out += "      \"graph\": \"" + r.graph_family + "\",\n";
    out += "      \"n\": " + num(r.nodes) + ",\n";
    out += "      \"seed\": " + num(r.exec.seed) + ",\n";
    out += "      \"threads\": " + num(r.exec.threads) + ",\n";
    out += "      \"drop\": " + flt(r.exec.drop_probability) + ",\n";
    out += "      \"faults\": \"" + faults_spec(r) + "\",\n";
    out += "      \"median_ms\": " + flt(cell.median_ms) + ",\n";
    out += "      \"times_ms\": [";
    for (std::size_t i = 0; i < cell.times_ms.size(); ++i) {
      if (i != 0) out += ", ";
      out += flt(cell.times_ms[i]);
    }
    out += "],\n";
    out += "      \"rounds\": " + num(r.result.metrics.rounds) + ",\n";
    out += "      \"digest\": \"" + digest_hex(r.result) + "\",\n";
    out += "      \"run\": ";
    append_record_json(out, r, "      ");
    out += "\n    }";
  }
  out += first_cell ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

}  // namespace domset::api
