#include "dyn/replay.hpp"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "api/result_json.hpp"
#include "common/stats.hpp"
#include "verify/verify.hpp"

namespace domset::dyn {

namespace {

using clock_type = std::chrono::steady_clock;

double ms_since(clock_type::time_point start) {
  return std::chrono::duration<double, std::milli>(clock_type::now() - start)
      .count();
}

std::string hex64(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, value);
  return buf;
}

}  // namespace

replay_result run_replay(const graph::graph& g, std::string_view graph_family,
                         const replay_spec& spec) {
  if (spec.batch == 0)
    throw std::invalid_argument("replay: batch must be > 0");

  replay_result out;
  out.alg = spec.inc.solver;
  out.params = spec.inc.solver_params;
  out.exec = spec.inc.exec;
  out.graph_family = std::string(graph_family);
  out.nodes = g.node_count();
  out.edges = g.edge_count();
  out.max_degree = g.max_degree();
  out.mutations_label = spec.mutations_label.empty()
                            ? (spec.log.empty()
                                   ? "gen:" + std::string(to_string(spec.gen.bias))
                                   : "file")
                            : spec.mutations_label;
  out.batch = spec.batch;
  out.radius = spec.inc.radius;
  out.full_fraction = spec.inc.full_fraction;
  out.frontier_cap = spec.inc.frontier_cap;
  out.sample_full = spec.sample_full;

  incremental_params ip = spec.inc;
  ip.exec.ensure_shared_pool();

  const clock_type::time_point t_init = clock_type::now();
  incremental_engine engine(g, ip);
  out.summary.initial_solve_ms = ms_since(t_init);
  out.summary.initial_size = engine.size();

  const bool from_file = !spec.log.empty();
  const std::size_t total_epochs =
      from_file ? (spec.log.size() + spec.batch - 1) / spec.batch
                : spec.epochs;
  workload gen(spec.gen);

  std::vector<double> repair_times, full_times;
  for (std::size_t e = 1; e <= total_epochs; ++e) {
    replay_epoch ep;
    const clock_type::time_point t_apply = clock_type::now();
    try {
      if (from_file) {
        const std::size_t lo = (e - 1) * spec.batch;
        const std::size_t hi = std::min(spec.log.size(), lo + spec.batch);
        for (std::size_t i = lo; i < hi; ++i)
          engine.network().apply(spec.log[i]);
      } else {
        for (std::size_t i = 0; i < spec.batch; ++i)
          engine.network().apply(
              gen.next(engine.network(), engine.network().rebase_point()));
      }
    } catch (const std::invalid_argument& err) {
      throw std::invalid_argument("replay epoch " + std::to_string(e) + ": " +
                                  err.what());
    }
    ep.apply_ms = ms_since(t_apply);

    const clock_type::time_point t_repair = clock_type::now();
    ep.report = engine.commit_and_repair();
    ep.repair_ms = ms_since(t_repair);
    repair_times.push_back(ep.repair_ms);
    if (ep.report.full_resolve) ++out.summary.full_resolves;

    if (spec.sample_full > 0 && e % spec.sample_full == 0) {
      const clock_type::time_point t_full = clock_type::now();
      const api::solve_result full = engine.full_resolve();
      ep.full_resolve_ms = ms_since(t_full);
      ep.full_size = full.size;
      ep.sampled = true;
      full_times.push_back(ep.full_resolve_ms);
    }

    // Validity is the contract the splice argument promises; check it
    // against the real materialized graph every epoch and fail loudly.
    const clock_type::time_point t_verify = clock_type::now();
    const graph::graph current = engine.snapshot();
    ep.valid = verify::is_dominating_set(current, engine.solution());
    ep.verify_ms = ms_since(t_verify);
    if (!ep.valid)
      throw std::runtime_error(
          "replay epoch " + std::to_string(e) +
          ": spliced solution failed dominating-set verification");
    out.epochs.push_back(std::move(ep));
  }

  out.summary.epochs = out.epochs.size();
  out.summary.final_size = engine.size();
  out.summary.final_digest = hex64(engine.digest());
  if (!repair_times.empty()) {
    out.summary.median_repair_ms = common::median(repair_times);
    out.summary.p99_repair_ms = common::percentile(repair_times, 99.0);
  }
  if (!full_times.empty()) {
    out.summary.median_full_resolve_ms = common::median(full_times);
    if (out.summary.median_repair_ms > 0.0)
      out.summary.speedup =
          out.summary.median_full_resolve_ms / out.summary.median_repair_ms;
  }
  return out;
}

std::string to_json(const replay_result& result) {
  using api::json_escape;
  using api::json_number;
  std::string out;
  out += "{\n";
  out += "  \"schema\": \"domset-dynamic/1\",\n";
  out += "  \"alg\": \"" + json_escape(result.alg) + "\",\n";
  out += "  \"graph\": {\n";
  out += "    \"family\": \"" + json_escape(result.graph_family) + "\",\n";
  out += "    \"nodes\": " + std::to_string(result.nodes) + ",\n";
  out += "    \"edges\": " + std::to_string(result.edges) + ",\n";
  out += "    \"max_degree\": " + std::to_string(result.max_degree) + "\n";
  out += "  },\n";
  out += "  \"exec\": {\n";
  out += "    \"seed\": " + std::to_string(result.exec.seed) + ",\n";
  out += "    \"threads\": " + std::to_string(result.exec.threads) + "\n";
  out += "  },\n";
  out += "  \"params\": {";
  bool first = true;
  for (const auto& [key, value] : result.params.entries()) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + json_escape(key) + "\": \"" + json_escape(value) + "\"";
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"replay\": {\n";
  out += "    \"mutations\": \"" + json_escape(result.mutations_label) +
         "\",\n";
  out += "    \"batch\": " + std::to_string(result.batch) + ",\n";
  out += "    \"radius\": " + std::to_string(result.radius) + ",\n";
  out += "    \"full_fraction\": " + json_number(result.full_fraction) + ",\n";
  out += "    \"frontier_cap\": " + std::to_string(result.frontier_cap) +
         ",\n";
  out += "    \"sample_full\": " + std::to_string(result.sample_full) + ",\n";
  out += "    \"epochs\": " + std::to_string(result.summary.epochs) + "\n";
  out += "  },\n";

  out += "  \"epochs\": [";
  for (std::size_t i = 0; i < result.epochs.size(); ++i) {
    const replay_epoch& ep = result.epochs[i];
    const epoch_report& r = ep.report;
    out += i == 0 ? "\n" : ",\n";
    out += "    {\n";
    out += "      \"epoch\": " + std::to_string(r.epoch) + ",\n";
    out += "      \"mutations\": " + std::to_string(r.mutations) + ",\n";
    out += "      \"touched\": " + std::to_string(r.touched) + ",\n";
    out += "      \"ball_nodes\": " + std::to_string(r.ball_nodes) + ",\n";
    out += "      \"capped_nodes\": " + std::to_string(r.capped_nodes) + ",\n";
    out += "      \"interior_nodes\": " + std::to_string(r.interior_nodes) +
           ",\n";
    out += std::string("      \"full_resolve\": ") +
           (r.full_resolve ? "true" : "false") + ",\n";
    out += "      \"holes_patched\": " + std::to_string(r.holes_patched) +
           ",\n";
    out += "      \"changed\": " + std::to_string(r.changed) + ",\n";
    out += "      \"size\": " + std::to_string(r.size) + ",\n";
    out += "      \"nodes\": " + std::to_string(r.nodes) + ",\n";
    out += "      \"edges\": " + std::to_string(r.edges) + ",\n";
    out += "      \"digest\": \"" + hex64(r.digest) + "\",\n";
    out += "      \"apply_ms\": " + json_number(ep.apply_ms) + ",\n";
    out += "      \"repair_ms\": " + json_number(ep.repair_ms) + ",\n";
    out += "      \"verify_ms\": " + json_number(ep.verify_ms) + ",\n";
    out += std::string("      \"valid\": ") + (ep.valid ? "true" : "false");
    if (ep.sampled) {
      out += ",\n      \"sampled\": true,\n";
      out += "      \"full_resolve_ms\": " + json_number(ep.full_resolve_ms) +
             ",\n";
      out += "      \"full_size\": " + std::to_string(ep.full_size);
    }
    out += "\n    }";
  }
  out += result.epochs.empty() ? "],\n" : "\n  ],\n";

  const replay_summary& s = result.summary;
  out += "  \"summary\": {\n";
  out += "    \"epochs\": " + std::to_string(s.epochs) + ",\n";
  out += "    \"full_resolves\": " + std::to_string(s.full_resolves) + ",\n";
  out += "    \"initial_size\": " + std::to_string(s.initial_size) + ",\n";
  out += "    \"final_size\": " + std::to_string(s.final_size) + ",\n";
  out += "    \"final_digest\": \"" + json_escape(s.final_digest) + "\",\n";
  out += "    \"initial_solve_ms\": " + json_number(s.initial_solve_ms) +
         ",\n";
  out += "    \"median_repair_ms\": " + json_number(s.median_repair_ms) +
         ",\n";
  out += "    \"p99_repair_ms\": " + json_number(s.p99_repair_ms) + ",\n";
  out += "    \"median_full_resolve_ms\": " +
         json_number(s.median_full_resolve_ms) + ",\n";
  out += "    \"speedup\": " + json_number(s.speedup) + "\n";
  out += "  }\n";
  out += "}\n";
  return out;
}

}  // namespace domset::dyn
