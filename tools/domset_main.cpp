/// \file domset_main.cpp
/// \brief The `domset` driver binary: run any registered dominating-set
/// solver on any named graph family from one command line.
///
///   domset list
///       enumerate registered solvers and graph families
///   domset run --alg pipeline --graph gnp --n 100000 --k 3 --json
///       build the graph, run the solver under the shared exec flags
///       (--seed --threads --drop --congest-bits), verify the
///       output, and print a human summary or the stable domset-run/1
///       JSON record (see api/result_json.hpp)
///   domset bench --alg pipeline,greedy --graph gnp,star --n 5000
///                --seeds 1,2 --threads 1,2 --json
///       declarative sweep over the comma-listed axes through the bench
///       runner (api/bench_runner.hpp): every cell on one shared worker
///       pool, repeat-interleaved timings, one domset-bench/1 document
///   domset replay --graph ba --n 100000 --mutations gen --batch 32 --json
///       solve once, keep the instance resident, and stream mutation
///       epochs through the frontier-restricted incremental engine
///       (src/dyn): dirty-ball re-solve + splice per epoch, sampled
///       full-re-solve comparisons, one domset-dynamic/1 document
///   domset serve --socket /tmp/domset.sock --graph ba --n 100000
///       keep the solved instance resident behind an AF_UNIX line
///       protocol: mutations admitted into the incremental engine,
///       lock-free epoch-pinned queries (src/serve, docs/serve.md)
///   domset load --socket /tmp/domset.sock --graph ba --n 100000
///               --clients 8 --json
///       closed-loop load generator against a running server: seeded
///       mutator + concurrent query clients, p50/p99 latency under
///       repair, one domset-serve/1 document
///   domset gen --graph ba --n 100000 --seed 1 --out graph.txt
///       write a generated family as a text edge list (CI fixtures,
///       reproducible by seed)
///   domset convert --in graph.txt --out graph.dcsr [--compress] [--verify]
///       convert between the text edge-list format and the binary .dcsr
///       container (graph/csr_file.hpp); --verify round-trips the output
///       and asserts digest equality
///
/// Exit status: 0 on success (integral outputs additionally verified
/// dominating), 1 on an invalid solution, 2 on usage errors.  With
/// `--allow-partial`, a run degraded by --faults/--drop exits 0 and the
/// record carries a quantitative coverage report instead.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/bench_runner.hpp"
#include "api/graphs.hpp"
#include "api/registry.hpp"
#include "api/result_json.hpp"
#include "api/solver.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "dyn/mutation.hpp"
#include "dyn/replay.hpp"
#include "dyn/workload.hpp"
#include "exec/context.hpp"
#include "graph/csr_file.hpp"
#include "graph/io.hpp"
#include "serve/load.hpp"
#include "serve/server.hpp"
#include "verify/verify.hpp"

namespace {

using namespace domset;

int cmd_list() {
  std::printf("registered solvers (domset run --alg <name>):\n");
  for (const api::solver* s : api::solver_registry::instance().list()) {
    std::printf("  %-12s %s\n", std::string(s->name()).c_str(),
                std::string(s->description()).c_str());
    std::string keys;
    for (const std::string_view k : s->param_keys()) {
      if (!keys.empty()) keys += ", ";
      keys += "--";
      keys += k;
    }
    if (!keys.empty()) std::printf("  %-12s   params: %s\n", "", keys.c_str());
  }
  std::printf("\ngraph families (domset run --graph <name>):\n");
  for (const api::graph_family& f : api::graph_families()) {
    std::printf("  %-12s %s\n", std::string(f.name).c_str(),
                std::string(f.description).c_str());
    if (!f.params.empty())
      std::printf("  %-12s   params: %s\n", "", std::string(f.params).c_str());
  }
  return 0;
}

/// One param flag shared by `run` and `bench`: a single table row drives
/// both CLI registration and forwarding into the param_map, so the two
/// can never fall out of sync (a registered-but-unforwarded flag would
/// be a silent no-op -- the exact bug class require_known exists for).
struct param_flag {
  const char* name;
  const char* default_value;  // ignored for switches
  const char* help;
  bool is_switch = false;
  bool nonnegative_int = false;
};

/// Algorithm params, forwarded into the solver param_map only when
/// explicitly set.
constexpr param_flag solver_param_flags[] = {
    {"k", "2", "paper trade-off parameter (LP/pipeline solvers)"},
    {"variant", "plain",
     "rounding variant: plain | log_log (rounding/pipeline)"},
    {"known-delta", "", "pipeline: use Algorithm 2 (global Delta known)",
     true},
    {"announce-final", "",
     "rounding/pipeline: members announce final membership", true},
    {"max-rounds", "0", "round cap override (lrg/luby)", false, true},
    {"epsilon", "0.5",
     "arboricity/auto: threshold decay rate (tau <- tau/(1+epsilon))"},
    {"costs", "uniform",
     "weighted: cost vector -- uniform | degree | file:<path>"},
    {"cmax", "4", "weighted: cost ceiling for costs=uniform"},
    {"base", "pipeline",
     "cds: integral base solver to connect (base=<name>)"},
    {"repair", "off",
     "self-healing pass on any integral solver: off | radius (re-run the "
     "solver on the dirty subgraph) | greedy (local patch)"},
    {"repair-radius", "2",
     "repair=radius: dirty-region radius in hops around each hole", false,
     true},
};

/// Graph-family params.
constexpr param_flag graph_param_flags[] = {
    {"p", "0", "gnp: edge probability (default 8/n)"},
    {"radius", "0", "udg: radio range (default 1.6/sqrt(n))"},
    {"m", "3", "ba: attachments per node", false, true},
    {"d", "4", "regular: node degree", false, true},
    {"arity", "3", "tree: children per node", false, true},
    {"path", "", "file: graph file to load (--graph file)"},
    {"format", "auto",
     "file: how to read --path -- auto | text | binary (auto sniffs the "
     ".dcsr magic)"},
    {"parse-threads", "1",
     "file: text parser worker count (0 = one per hardware thread)", false,
     true},
};

template <std::size_t N>
void add_param_flags(common::cli_parser& cli, const param_flag (&flags)[N]) {
  for (const param_flag& flag : flags) {
    if (flag.is_switch) {
      cli.add_switch(flag.name, flag.help);
    } else {
      cli.add_flag(flag.name, flag.default_value, flag.help);
      if (flag.nonnegative_int) cli.require_nonnegative_int(flag.name);
    }
  }
}

/// Copies the flags the user explicitly set into a param_map (switches
/// arrive as "true").
template <std::size_t N>
void forward_set_flags(const common::cli_parser& cli,
                       const param_flag (&flags)[N], api::param_map& out) {
  for (const param_flag& flag : flags)
    if (cli.is_set(flag.name)) out.set(flag.name, cli.get_string(flag.name));
}

int write_output(const std::string& text, const std::string& out_path) {
  if (out_path.empty()) {
    std::fputs(text.c_str(), stdout);
    return 0;
  }
  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "domset: cannot write '%s'\n", out_path.c_str());
    return 2;
  }
  std::fputs(text.c_str(), f);
  std::fclose(f);
  return 0;
}

int cmd_run(int argc, const char* const* argv) {
  common::cli_parser cli(
      "Run a registered dominating-set solver on a generated graph");
  cli.add_flag("alg", "pipeline",
               "solver name (see `domset list` for the registry)");
  cli.add_flag("graph", "gnp", "graph family (see `domset list`)");
  cli.add_flag("n", "1000", "approximate node count");
  cli.require_nonnegative_int("n");
  cli.add_exec_flags();
  add_param_flags(cli, solver_param_flags);
  add_param_flags(cli, graph_param_flags);
  // Output.
  cli.add_switch("json", "emit the domset-run/1 JSON record");
  cli.add_flag("out", "", "write the record to this file instead of stdout");
  cli.add_switch("allow-partial",
                 "faulty runs (--faults/--drop) whose output degraded exit 0 "
                 "with a machine-readable coverage report instead of failing");
  if (!cli.parse(argc, argv)) return 2;

  const exec::context exec = cli.exec();
  const std::string alg = cli.get_string("alg");
  const std::string family = cli.get_string("graph");
  const auto n = static_cast<std::size_t>(cli.get_int("n"));

  api::param_map solver_params;
  forward_set_flags(cli, solver_param_flags, solver_params);
  api::param_map graph_params;
  forward_set_flags(cli, graph_param_flags, graph_params);

  api::graph_source source;
  const graph::graph g =
      api::make_graph(family, n, exec.seed, graph_params, &source);
  const api::solver& solver = api::solver_registry::instance().find(alg);

  const auto start = std::chrono::steady_clock::now();
  api::run_record record;
  record.result = solver.solve(g, exec, solver_params);
  record.elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
  record.alg = alg;
  record.graph_family = family;
  record.nodes = g.node_count();
  record.edges = g.edge_count();
  record.max_degree = g.max_degree();
  if (!source.path.empty()) record.source = source;
  record.exec = exec;
  record.params = solver_params;
  record.valid = record.result.integral()
                     ? verify::is_dominating_set(g, record.result.in_set)
                     : true;
  if (exec.faulty() && record.result.integral())
    record.coverage =
        verify::coverage(g, record.result.in_set, exec.faults.get());

  if (cli.get_bool("json") || cli.is_set("out")) {
    const int status = write_output(api::to_json(record), cli.get_string("out"));
    if (status != 0) return status;
  } else {
    std::printf("graph   : %s (%s)\n", g.summary().c_str(), family.c_str());
    if (record.source.has_value())
      std::printf("loaded  : %s (%s, %.1f ms)\n", record.source->path.c_str(),
                  record.source->format.c_str(), record.source->load_ms);
    std::printf("solver  : %s\n", alg.c_str());
    if (record.result.integral())
      std::printf("|DS|    : %zu (valid: %s)\n", record.result.size,
                  record.valid ? "yes" : "NO");
    std::printf("objective: %.3f", record.result.objective);
    if (record.result.ratio_bound > 0.0)
      std::printf("  (guarantee %.2f x OPT)", record.result.ratio_bound);
    std::printf("\nrounds  : %zu, messages %llu, max %u-bit\n",
                record.result.metrics.rounds,
                static_cast<unsigned long long>(
                    record.result.metrics.messages_sent),
                record.result.metrics.max_message_bits);
    if (exec.faulty()) {
      const sim::run_metrics& m = record.result.metrics;
      std::printf("faults  : dropped %llu, lost-to-faults %llu, duplicated "
                  "%llu, node-rounds down %llu, crashed %llu\n",
                  static_cast<unsigned long long>(m.messages_dropped),
                  static_cast<unsigned long long>(m.messages_lost_to_faults),
                  static_cast<unsigned long long>(m.messages_duplicated),
                  static_cast<unsigned long long>(m.node_rounds_down),
                  static_cast<unsigned long long>(m.nodes_crashed));
    }
    if (record.coverage.has_value())
      std::printf("coverage: %zu/%zu holes (%.4f covered, worst hole %zu "
                  "hops from a dominator)\n",
                  record.coverage->holes(), record.coverage->nodes,
                  record.coverage->covered_fraction,
                  record.coverage->max_hole_radius);
    if (record.result.repair.attempted)
      std::printf("repair  : %s healed %zu hole(s), added %zu node(s), "
                  "touched %zu\n",
                  record.result.repair.mode.c_str(),
                  record.result.repair.holes_before,
                  record.result.repair.added,
                  record.result.repair.touched_nodes);
    std::printf("elapsed : %.1f ms\n", record.elapsed_ms);
  }
  // --allow-partial only forgives fault-induced degradation; an invalid
  // set on a reliable run is a bug and still fails.
  if (!record.valid && cli.get_bool("allow-partial") && exec.faulty())
    return 0;
  return record.valid ? 0 : 1;
}

/// Splits a comma-separated flag value ("gnp,star" -> {"gnp", "star"}).
/// Empty items (a trailing or doubled comma) are rejected -- a sweep axis
/// with a silent hole would skew the cross product.
std::vector<std::string> split_list(const std::string& value,
                                    const char* flag) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= value.size()) {
    const std::size_t comma = value.find(',', start);
    const std::string item =
        value.substr(start, comma == std::string::npos ? std::string::npos
                                                       : comma - start);
    if (item.empty())
      throw std::invalid_argument(std::string("flag '--") + flag +
                                  "': empty item in list '" + value + "'");
    out.push_back(item);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

std::uint64_t parse_uint(const std::string& value, const char* flag) {
  std::size_t used = 0;
  std::uint64_t parsed = 0;
  try {
    parsed = std::stoull(value, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used != value.size() || value.empty() || value[0] == '-')
    throw std::invalid_argument(std::string("flag '--") + flag +
                                "': '" + value +
                                "' is not a non-negative integer");
  return parsed;
}

int cmd_bench(int argc, const char* const* argv) {
  common::cli_parser cli(
      "Sweep registered solvers over graph families (one shared worker "
      "pool, repeat-interleaved timings, domset-bench/1 output)");
  cli.add_flag("alg", "pipeline", "comma list of solver names");
  cli.add_flag("graph", "gnp", "comma list of graph families");
  cli.add_flag("n", "1000", "comma list of approximate node counts");
  cli.add_flag("seeds", "1", "comma list of seeds (graph + run seed)");
  cli.add_flag("threads", "1",
               "comma list of worker counts (0 = one per hardware thread)");
  cli.add_flag("repeats", "3", "timed repetitions per cell (median reported)");
  cli.require_nonnegative_int("repeats");
  cli.add_flag("drop", "0",
               "comma list of message-loss probabilities in [0, 1)");
  cli.add_flag("faults", "none",
               "comma list of fault schedules (atoms within one schedule "
               "join with '+', e.g. crash=7@10+burst@5-6:p=0.5)");
  cli.add_flag("congest-bits", "0",
               "flag messages wider than this many bits (0 = unchecked)");
  cli.require_nonnegative_int("congest-bits");
  add_param_flags(cli, solver_param_flags);
  add_param_flags(cli, graph_param_flags);
  cli.add_switch("json",
                 "emit the domset-bench/1 JSON document instead of the "
                 "summary table");
  cli.add_flag("out", "",
               "write the JSON document to this file instead of stdout");
  if (!cli.parse(argc, argv)) return 2;

  api::bench_spec spec;
  spec.algs = split_list(cli.get_string("alg"), "alg");
  spec.graphs = split_list(cli.get_string("graph"), "graph");
  spec.ns.clear();
  for (const std::string& item : split_list(cli.get_string("n"), "n"))
    spec.ns.push_back(static_cast<std::size_t>(parse_uint(item, "n")));
  spec.seeds.clear();
  for (const std::string& item : split_list(cli.get_string("seeds"), "seeds"))
    spec.seeds.push_back(parse_uint(item, "seeds"));
  spec.threads.clear();
  for (const std::string& item :
       split_list(cli.get_string("threads"), "threads"))
    spec.threads.push_back(
        static_cast<std::size_t>(parse_uint(item, "threads")));
  spec.repeats = static_cast<std::size_t>(cli.get_int("repeats"));
  for (const std::string& item : split_list(cli.get_string("drop"), "drop")) {
    char* end = nullptr;
    const double parsed = std::strtod(item.c_str(), &end);
    if (item.empty() || end != item.c_str() + item.size() ||
        !(parsed >= 0.0 && parsed < 1.0))
      throw std::invalid_argument(
          "flag '--drop': '" + item + "' is not a probability in [0, 1)");
    spec.drops.push_back(parsed);
  }
  spec.faults = split_list(cli.get_string("faults"), "faults");
  spec.base_exec.congest_bit_limit =
      static_cast<std::uint32_t>(cli.get_int("congest-bits"));
  forward_set_flags(cli, solver_param_flags, spec.solver_params);
  forward_set_flags(cli, graph_param_flags, spec.graph_params);

  const api::bench_document doc = api::run_bench(spec);
  if (cli.get_bool("json") || cli.is_set("out")) {
    const int status = write_output(api::to_json(doc), cli.get_string("out"));
    if (status != 0) return status;
    if (!cli.get_string("out").empty())
      std::fprintf(stderr, "domset bench: %zu cells x %zu repeats -> %s\n",
                   doc.cells.size(), doc.repeats,
                   cli.get_string("out").c_str());
    return 0;
  }
  common::text_table table({"alg", "graph", "n", "seed", "threads", "drop",
                            "faults", "median ms", "rounds", "dropped",
                            "digest"});
  for (const api::bench_cell& cell : doc.cells) {
    const api::run_record& r = cell.record;
    table.add_row(
        {r.alg, r.graph_family, common::fmt_int(static_cast<long long>(r.nodes)),
         common::fmt_int(static_cast<long long>(r.exec.seed)),
         common::fmt_int(static_cast<long long>(r.exec.threads)),
         common::fmt_double(r.exec.drop_probability, 2),
         r.exec.faults ? sim::to_string(*r.exec.faults) : "none",
         common::fmt_double(cell.median_ms, 2),
         common::fmt_int(static_cast<long long>(r.result.metrics.rounds)),
         common::fmt_int(
             static_cast<long long>(r.result.metrics.messages_dropped)),
         api::digest_hex(r.result)});
  }
  table.print(std::cout);
  std::printf("\n%zu cells x %zu repeats (medians over interleaved repeats; "
              "--json/--out for the domset-bench/1 document)\n",
              doc.cells.size(), doc.repeats);
  return 0;
}

/// `domset replay`: hold a solved instance resident and drive a mutation
/// stream through the frontier-restricted incremental engine (src/dyn),
/// one epoch per --batch mutations, emitting the domset-dynamic/1
/// document with per-epoch digests and repair-vs-full timings.
int cmd_replay(int argc, const char* const* argv) {
  common::cli_parser cli(
      "Replay a mutation stream against a resident solved instance with "
      "frontier-restricted incremental re-solve");
  cli.add_flag("alg", "pipeline",
               "incumbent solver (must produce an integral set)");
  cli.add_flag("graph", "gnp", "graph family (see `domset list`)");
  cli.add_flag("n", "1000", "approximate node count");
  cli.require_nonnegative_int("n");
  cli.add_exec_flags();
  add_param_flags(cli, solver_param_flags);
  add_param_flags(cli, graph_param_flags);
  cli.add_flag("mutations", "gen",
               "mutation source: gen (seeded dyn::workload stream) or a "
               "mutation-log file path (one atom per line, '#' comments)");
  cli.add_flag("bias", "uniform",
               "generator endpoint bias: uniform | hub (degree-biased)");
  cli.add_flag("batch", "32", "mutations per epoch");
  cli.require_nonnegative_int("batch");
  cli.add_flag("epochs", "64",
               "epoch count for generated streams (file streams run "
               "ceil(lines / batch))");
  cli.require_nonnegative_int("epochs");
  cli.add_flag("ball-radius", "2",
               "dirty-ball radius in hops around the touched nodes (>= 1)");
  cli.require_nonnegative_int("ball-radius");
  cli.add_flag("full-fraction", "0.25",
               "fall back to a full re-solve when the dirty ball exceeds "
               "this fraction of the graph (0 = always full)");
  cli.add_flag("frontier-cap", "0",
               "pin nodes with degree above this cap to the dirty-ball "
               "boundary instead of expanding them (0 = off; keeps "
               "radius 2 usable on hub-heavy graphs)");
  cli.require_nonnegative_int("frontier-cap");
  cli.add_flag("sample-full", "8",
               "every k-th epoch also times a from-scratch re-solve for "
               "the comparison columns (0 = never)");
  cli.require_nonnegative_int("sample-full");
  cli.add_switch("json", "emit the domset-dynamic/1 JSON document");
  cli.add_flag("out", "", "write the document to this file instead of stdout");
  if (!cli.parse(argc, argv)) return 2;

  dyn::replay_spec spec;
  spec.inc.solver = cli.get_string("alg");
  spec.inc.exec = cli.exec();
  forward_set_flags(cli, solver_param_flags, spec.inc.solver_params);
  if (spec.inc.solver_params.contains("repair") ||
      spec.inc.solver_params.contains("repair-radius")) {
    std::fprintf(stderr,
                 "domset replay: --repair/--repair-radius do not compose "
                 "here -- the replay engine is the repair pass\n");
    return 2;
  }
  spec.inc.radius = static_cast<std::uint32_t>(cli.get_int("ball-radius"));
  spec.inc.full_fraction = cli.get_double("full-fraction");
  spec.inc.frontier_cap =
      static_cast<std::uint32_t>(cli.get_int("frontier-cap"));
  spec.batch = static_cast<std::size_t>(cli.get_int("batch"));
  spec.epochs = static_cast<std::size_t>(cli.get_int("epochs"));
  spec.sample_full = static_cast<std::size_t>(cli.get_int("sample-full"));

  const std::string mutations = cli.get_string("mutations");
  if (mutations == "gen") {
    spec.gen.bias = dyn::parse_workload_bias(cli.get_string("bias"));
    spec.gen.seed = spec.inc.exec.seed;
    spec.mutations_label = "gen:" + cli.get_string("bias");
  } else {
    spec.log = dyn::load_mutation_log(mutations);
    spec.mutations_label = "file:" + mutations;
  }

  api::param_map graph_params;
  forward_set_flags(cli, graph_param_flags, graph_params);
  const std::string family = cli.get_string("graph");
  const graph::graph g =
      api::make_graph(family, static_cast<std::size_t>(cli.get_int("n")),
                      spec.inc.exec.seed, graph_params);

  const dyn::replay_result result = dyn::run_replay(g, family, spec);

  if (cli.get_bool("json") || cli.is_set("out")) {
    const int status =
        write_output(dyn::to_json(result), cli.get_string("out"));
    if (status != 0) return status;
    if (!cli.get_string("out").empty())
      std::fprintf(stderr, "domset replay: %zu epochs -> %s\n",
                   result.summary.epochs, cli.get_string("out").c_str());
    return 0;
  }

  common::text_table table({"epoch", "muts", "touched", "ball", "mode",
                            "holes", "size", "repair ms", "full ms"});
  for (const dyn::replay_epoch& ep : result.epochs) {
    table.add_row(
        {common::fmt_int(static_cast<long long>(ep.report.epoch)),
         common::fmt_int(static_cast<long long>(ep.report.mutations)),
         common::fmt_int(static_cast<long long>(ep.report.touched)),
         common::fmt_int(static_cast<long long>(ep.report.ball_nodes)),
         ep.report.full_resolve ? "full" : "inc",
         common::fmt_int(static_cast<long long>(ep.report.holes_patched)),
         common::fmt_int(static_cast<long long>(ep.report.size)),
         common::fmt_double(ep.repair_ms, 2),
         ep.sampled ? common::fmt_double(ep.full_resolve_ms, 2) : "-"});
  }
  table.print(std::cout);
  std::printf(
      "\n%zu epochs (%zu full re-solves), size %zu -> %zu, digest %s\n",
      result.summary.epochs, result.summary.full_resolves,
      result.summary.initial_size, result.summary.final_size,
      result.summary.final_digest.c_str());
  std::printf(
      "repair p50 %.2f ms, p99 %.2f ms; sampled full re-solve p50 %.2f ms "
      "(speedup %.1fx); every epoch verified dominating\n",
      result.summary.median_repair_ms, result.summary.p99_repair_ms,
      result.summary.median_full_resolve_ms, result.summary.speedup);
  return 0;
}

/// `domset serve`: keep a solved instance resident behind an AF_UNIX
/// line-protocol socket -- mutations are admitted into the incremental
/// engine's pending batch, explicit `commit` requests seal epochs (and
/// shutdown seals the last), and queries answer lock-free from pinned
/// epochs.  See docs/serve.md for the protocol and the
/// reader/writer contract.
int cmd_serve(int argc, const char* const* argv) {
  common::cli_parser cli(
      "Serve a resident solved instance over an AF_UNIX line protocol "
      "(lock-free epoch-pinned queries, serialized commits)");
  cli.add_flag("socket", "", "AF_UNIX socket path to bind (required)");
  cli.add_flag("alg", "pipeline",
               "incumbent solver (must produce an integral set)");
  cli.add_flag("graph", "gnp", "graph family (see `domset list`)");
  cli.add_flag("n", "1000", "approximate node count");
  cli.require_nonnegative_int("n");
  cli.add_exec_flags();
  add_param_flags(cli, solver_param_flags);
  add_param_flags(cli, graph_param_flags);
  cli.add_flag("ball-radius", "2",
               "dirty-ball radius in hops around the touched nodes (>= 1)");
  cli.require_nonnegative_int("ball-radius");
  cli.add_flag("full-fraction", "0.25",
               "fall back to a full re-solve when the dirty ball exceeds "
               "this fraction of the graph (0 = always full)");
  cli.add_flag("frontier-cap", "0",
               "pin nodes with degree above this cap to the dirty-ball "
               "boundary instead of expanding them (0 = off)");
  cli.require_nonnegative_int("frontier-cap");
  if (!cli.parse(argc, argv)) return 2;
  if (cli.get_string("socket").empty()) {
    std::fprintf(stderr, "domset serve: --socket is required\n");
    return 2;
  }

  serve::server_params params;
  params.socket_path = cli.get_string("socket");
  params.inc.solver = cli.get_string("alg");
  params.inc.exec = cli.exec();
  forward_set_flags(cli, solver_param_flags, params.inc.solver_params);
  if (params.inc.solver_params.contains("repair") ||
      params.inc.solver_params.contains("repair-radius")) {
    std::fprintf(stderr,
                 "domset serve: --repair/--repair-radius do not compose "
                 "here -- the serve engine is the repair pass\n");
    return 2;
  }
  params.inc.radius = static_cast<std::uint32_t>(cli.get_int("ball-radius"));
  params.inc.full_fraction = cli.get_double("full-fraction");
  params.inc.frontier_cap =
      static_cast<std::uint32_t>(cli.get_int("frontier-cap"));

  api::param_map graph_params;
  forward_set_flags(cli, graph_param_flags, graph_params);
  graph::graph g =
      api::make_graph(cli.get_string("graph"),
                      static_cast<std::size_t>(cli.get_int("n")),
                      params.inc.exec.seed, graph_params);

  serve::server srv(std::move(g), params);
  srv.run();
  const serve::server_stats stats = srv.stats();
  std::fprintf(stderr,
               "domset serve: %llu connections, %llu requests, %llu "
               "mutations, %llu commits, %llu epochs published (%llu "
               "reclaimed)\n",
               static_cast<unsigned long long>(stats.connections),
               static_cast<unsigned long long>(stats.requests),
               static_cast<unsigned long long>(stats.mutations_admitted),
               static_cast<unsigned long long>(stats.commits),
               static_cast<unsigned long long>(stats.epochs_published),
               static_cast<unsigned long long>(stats.epochs_reclaimed));
  return 0;
}

/// `domset load`: closed-loop load generator against a running `domset
/// serve` -- one mutator client (seeded workload mirror, explicit commit
/// every --batch) plus --clients concurrent query clients, reporting
/// query p50/p99 overall and during commit windows as one domset-serve/1
/// document.  The graph flags must repeat the server's so the mutator's
/// mirror matches.
int cmd_load(int argc, const char* const* argv) {
  common::cli_parser cli(
      "Drive a running `domset serve` with a seeded concurrent client mix "
      "and measure query latency under repair (domset-serve/1 output)");
  cli.add_flag("socket", "",
               "AF_UNIX socket path of the running server (required)");
  cli.add_flag("alg", "pipeline",
               "the server's incumbent solver, echoed into the record");
  cli.add_flag("graph", "gnp",
               "graph family -- must match the server's flags");
  cli.add_flag("n", "1000", "approximate node count (must match the server)");
  cli.require_nonnegative_int("n");
  cli.add_flag("seed", "1",
               "graph + workload seed (graph part must match the server)");
  cli.require_nonnegative_int("seed");
  add_param_flags(cli, graph_param_flags);
  cli.add_flag("clients", "8", "concurrent query clients");
  cli.require_nonnegative_int("clients");
  cli.add_flag("queries", "200", "queries per client");
  cli.require_nonnegative_int("queries");
  cli.add_flag("mutations", "256", "total mutations the mutator streams");
  cli.require_nonnegative_int("mutations");
  cli.add_flag("batch", "32", "explicit `commit` every this many mutations");
  cli.require_nonnegative_int("batch");
  cli.add_flag("bias", "uniform",
               "generator endpoint bias: uniform | hub (degree-biased)");
  cli.add_flag("log-out", "",
               "write the admitted mutation stream to this file (replayable "
               "offline: domset replay --mutations <file> --batch <batch>)");
  cli.add_switch("shutdown", "send `shutdown` after the run (CI teardown)");
  cli.add_switch("json", "emit the domset-serve/1 JSON document");
  cli.add_flag("out", "", "write the document to this file instead of stdout");
  if (!cli.parse(argc, argv)) return 2;
  if (cli.get_string("socket").empty()) {
    std::fprintf(stderr, "domset load: --socket is required\n");
    return 2;
  }

  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  serve::load_params params;
  params.socket_path = cli.get_string("socket");
  params.clients = static_cast<std::size_t>(cli.get_int("clients"));
  params.queries_per_client =
      static_cast<std::size_t>(cli.get_int("queries"));
  params.mutations = static_cast<std::size_t>(cli.get_int("mutations"));
  params.batch = static_cast<std::size_t>(cli.get_int("batch"));
  params.gen.bias = dyn::parse_workload_bias(cli.get_string("bias"));
  params.gen.seed = seed;
  params.query_seed = seed;
  params.shutdown_server = cli.get_bool("shutdown");

  api::param_map graph_params;
  forward_set_flags(cli, graph_param_flags, graph_params);
  const std::string family = cli.get_string("graph");
  const graph::graph mirror_base =
      api::make_graph(family, static_cast<std::size_t>(cli.get_int("n")),
                      seed, graph_params);

  const serve::load_report report = serve::run_load(mirror_base, params);

  const std::string log_path = cli.get_string("log-out");
  if (!log_path.empty()) {
    std::ofstream log(log_path, std::ios::trunc);
    if (!log) {
      std::fprintf(stderr, "domset load: cannot write '%s'\n",
                   log_path.c_str());
      return 2;
    }
    log << "# admitted mutation stream (domset load --seed " << seed
        << " --bias " << cli.get_string("bias") << " --batch "
        << params.batch << ")\n";
    for (const std::string& atom : report.admitted) log << atom << '\n';
    log.flush();
    if (!log) {
      std::fprintf(stderr, "domset load: write to '%s' failed\n",
                   log_path.c_str());
      return 2;
    }
  }

  if (cli.get_bool("json") || cli.is_set("out")) {
    serve::load_document doc;
    doc.alg = cli.get_string("alg");
    doc.params = graph_params;
    doc.exec.seed = seed;
    doc.graph_family = family;
    doc.nodes = mirror_base.node_count();
    doc.edges = mirror_base.edge_count();
    doc.max_degree = mirror_base.max_degree();
    doc.socket = params.socket_path;
    doc.bias = cli.get_string("bias");
    doc.clients = params.clients;
    doc.queries_per_client = params.queries_per_client;
    doc.mutations = params.mutations;
    doc.batch = params.batch;
    doc.report = report;
    const int status =
        write_output(serve::to_json(doc), cli.get_string("out"));
    if (status != 0) return status;
    if (!cli.get_string("out").empty())
      std::fprintf(stderr, "domset load: %zu queries over %zu clients -> %s\n",
                   report.query.count, report.clients,
                   cli.get_string("out").c_str());
  } else {
    std::printf("clients : %zu (+1 mutator), %zu queries total\n",
                report.clients, report.query.count);
    std::printf("ops     : mutate %zu, commit %zu, member %zu, stats %zu, "
                "digest %zu, set %zu\n",
                report.mutations_sent, report.commits, report.member_ops,
                report.stats_ops, report.digest_ops, report.set_ops);
    std::printf("query   : p50 %.3f ms, p99 %.3f ms\n", report.query.p50_ms,
                report.query.p99_ms);
    std::printf("under repair: %zu queries, p50 %.3f ms, p99 %.3f ms\n",
                report.query_during_repair.count,
                report.query_during_repair.p50_ms,
                report.query_during_repair.p99_ms);
    std::printf("commit  : p50 %.3f ms, p99 %.3f ms\n", report.commit.p50_ms,
                report.commit.p99_ms);
    std::printf("final   : epoch %llu, size %zu, digest %s\n",
                static_cast<unsigned long long>(report.final_epoch),
                report.final_size, report.final_digest.c_str());
    std::printf("epoch digest conflicts: %zu\n",
                report.epoch_digest_conflicts);
  }
  // An epoch observed with two digests breaks the immutable-epoch
  // contract -- fail the run so CI catches it.
  return report.epoch_digest_conflicts == 0 ? 0 : 1;
}

/// `domset gen`: write a generated graph family as a text edge list --
/// the reproducible-fixture producer the real-graph CI job feeds into
/// `domset convert`.
int cmd_gen(int argc, const char* const* argv) {
  common::cli_parser cli(
      "Write a generated graph family as a text edge list");
  cli.add_flag("graph", "gnp", "graph family (see `domset list`)");
  cli.add_flag("n", "1000", "approximate node count");
  cli.require_nonnegative_int("n");
  cli.add_flag("seed", "1", "generator seed");
  cli.require_nonnegative_int("seed");
  add_param_flags(cli, graph_param_flags);
  cli.add_flag("out", "", "output path (required)");
  if (!cli.parse(argc, argv)) return 2;
  const std::string out_path = cli.get_string("out");
  if (out_path.empty()) {
    std::fprintf(stderr, "domset gen: --out is required\n");
    return 2;
  }

  api::param_map graph_params;
  forward_set_flags(cli, graph_param_flags, graph_params);
  const std::string family = cli.get_string("graph");
  const graph::graph g =
      api::make_graph(family, static_cast<std::size_t>(cli.get_int("n")),
                      static_cast<std::uint64_t>(cli.get_int("seed")),
                      graph_params);

  std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "domset gen: cannot write '%s'\n", out_path.c_str());
    return 2;
  }
  graph::write_edge_list(g, out);
  out.flush();
  if (!out) {
    std::fprintf(stderr, "domset gen: write to '%s' failed\n",
                 out_path.c_str());
    return 2;
  }
  std::fprintf(stderr, "domset gen: %s (%s) -> %s, digest %s\n",
               g.summary().c_str(), family.c_str(), out_path.c_str(),
               graph::graph_digest_hex(g).c_str());
  return 0;
}

/// `domset convert`: text edge list <-> binary .dcsr container.  The
/// input format is sniffed (a .dcsr input re-encodes, e.g. to toggle
/// compression); `--verify` reloads the output and asserts the
/// format-independent graph digest survived the round trip.
int cmd_convert(int argc, const char* const* argv) {
  common::cli_parser cli(
      "Convert a graph file between the text edge-list format and the "
      "binary .dcsr container");
  cli.add_flag("in", "", "input graph file, text or .dcsr (required)");
  cli.add_flag("out", "", "output path (required)");
  cli.add_switch("compress",
                 "write the varint-delta compressed adjacency encoding");
  cli.add_switch("text", "write a text edge list instead of .dcsr");
  cli.add_switch("verify",
                 "reload the output and assert the graph digest matches");
  cli.add_flag("parse-threads", "0",
               "text parser worker count (0 = one per hardware thread)");
  cli.require_nonnegative_int("parse-threads");
  if (!cli.parse(argc, argv)) return 2;
  const std::string in_path = cli.get_string("in");
  const std::string out_path = cli.get_string("out");
  if (in_path.empty() || out_path.empty()) {
    std::fprintf(stderr, "domset convert: --in and --out are required\n");
    return 2;
  }
  if (cli.get_bool("text") && cli.get_bool("compress")) {
    std::fprintf(stderr,
                 "domset convert: --text and --compress are exclusive "
                 "(compression is a .dcsr encoding)\n");
    return 2;
  }
  const graph::parse_options parse_opts{
      .threads = static_cast<std::size_t>(cli.get_int("parse-threads"))};

  const bool in_binary = graph::is_csr_file(in_path);
  const graph::graph g = in_binary
                             ? graph::load_csr(in_path)
                             : graph::read_edge_list_file(in_path, parse_opts);
  const std::string digest = graph::graph_digest_hex(g);
  std::fprintf(stderr, "domset convert: read %s (%s), digest %s\n",
               in_path.c_str(), in_binary ? "binary" : "text", digest.c_str());

  std::string wrote;
  if (cli.get_bool("text")) {
    std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "domset convert: cannot write '%s'\n",
                   out_path.c_str());
      return 2;
    }
    graph::write_edge_list(g, out);
    out.flush();
    if (!out) {
      std::fprintf(stderr, "domset convert: write to '%s' failed\n",
                   out_path.c_str());
      return 2;
    }
    wrote = "text";
  } else {
    const graph::csr_file_info info =
        graph::write_csr(g, out_path, cli.get_bool("compress"));
    wrote = info.compressed ? "compressed" : "binary";
    std::fprintf(stderr,
                 "domset convert: wrote %s (%s, %llu bytes, n=%llu m=%llu)\n",
                 out_path.c_str(), wrote.c_str(),
                 static_cast<unsigned long long>(info.bytes),
                 static_cast<unsigned long long>(info.nodes),
                 static_cast<unsigned long long>(info.edges));
  }

  if (cli.get_bool("verify")) {
    const graph::graph back =
        cli.get_bool("text") ? graph::read_edge_list_file(out_path, parse_opts)
                             : graph::load_csr(out_path);
    const std::string back_digest = graph::graph_digest_hex(back);
    if (back_digest != digest) {
      std::fprintf(stderr,
                   "domset convert: round-trip digest mismatch: wrote %s, "
                   "reloaded %s\n",
                   digest.c_str(), back_digest.c_str());
      return 1;
    }
    std::fprintf(stderr, "domset convert: verify ok (%s round-trip)\n",
                 wrote.c_str());
  }
  // The one stdout line: machine-readable for CI digest-agreement checks.
  std::printf("digest %s\n", digest.c_str());
  return 0;
}

void print_usage() {
  std::fputs(
      "usage: domset <command> [flags]\n"
      "  list   enumerate registered solvers and graph families\n"
      "  run    run a solver: domset run --alg pipeline --graph gnp "
      "--n 1000 --k 3 [--json]\n"
      "  bench  sweep solvers x graphs x seeds x threads x drop x faults:\n"
      "         domset bench --alg pipeline,greedy --graph gnp,star "
      "--n 5000 --repeats 3 --out bench.json\n"
      "  replay stream mutations through the incremental engine: domset "
      "replay --graph ba --n 100000 --mutations gen --batch 32 --json\n"
      "  serve  keep a solved instance resident behind an AF_UNIX socket: "
      "domset serve --socket /tmp/domset.sock --graph ba --n 100000\n"
      "  load   drive a running server with a seeded client mix: domset "
      "load --socket /tmp/domset.sock --graph ba --n 100000 --clients 8 "
      "--json\n"
      "  gen    write a generated family as a text edge list: domset gen "
      "--graph ba --n 100000 --out g.txt\n"
      "  convert  text edge list <-> binary .dcsr: domset convert --in "
      "g.txt --out g.dcsr [--compress] [--verify]\n"
      "run `domset <command> --help` for the full flag lists\n",
      stderr);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    print_usage();
    return 2;
  }
  const char* command = argv[1];
  try {
    if (std::strcmp(command, "list") == 0) return cmd_list();
    if (std::strcmp(command, "run") == 0)
      return cmd_run(argc - 1, argv + 1);
    if (std::strcmp(command, "bench") == 0)
      return cmd_bench(argc - 1, argv + 1);
    if (std::strcmp(command, "replay") == 0)
      return cmd_replay(argc - 1, argv + 1);
    if (std::strcmp(command, "serve") == 0)
      return cmd_serve(argc - 1, argv + 1);
    if (std::strcmp(command, "load") == 0)
      return cmd_load(argc - 1, argv + 1);
    if (std::strcmp(command, "gen") == 0) return cmd_gen(argc - 1, argv + 1);
    if (std::strcmp(command, "convert") == 0)
      return cmd_convert(argc - 1, argv + 1);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "domset: %s\n", e.what());
    return 2;
  }
  std::fprintf(stderr, "domset: unknown command '%s'\n", command);
  print_usage();
  return 2;
}
