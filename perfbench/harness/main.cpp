// perfbench_harness: runs one benchmark workload for one seed and prints
// one JSON object as its last stdout line.
//
//   perfbench_harness --workload solve-ba --seed 1 --seconds 10 --trace 0
//       --domset <path to the domset binary> --out-dir <scratch dir>
//       [--mode run|setup] [--n 200000] [--inject solve-digest|epoch-digest]
//
// Every workload runs the same lifecycle on its own graph -- set-up, then
// two rounds of a solve phase, a served phase and an epoch phase --
// because every end-to-end metric is reported on every workload.  The
// workload picks the graph, the mutation bias and which phase gets the
// `--seconds` window (half per round); the other two phases run a fixed
// number of operations (enough for the tails they report).  All timing
// is taken from outside the library, around calls to its public
// functions.  `--trace 1` adds the spans and the per-layer metrics;
// `--mode setup` stops after set-up.
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/graphs.hpp"
#include "api/result_json.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "core/pipeline.hpp"
#include "dyn/incremental.hpp"
#include "dyn/workload.hpp"
#include "graph/properties.hpp"
#include "serve/server.hpp"
#include "served.hpp"
#include "trace.hpp"
#include "verify/verify.hpp"

namespace perfbench {
namespace {

using namespace domset;

// ------------------------------------------------------------ constants

constexpr std::uint32_t pipeline_k = 2;   // the paper's default trade-off
constexpr std::size_t solve_threads = 4;  // one per core of the 4-core box
constexpr std::size_t batch_size = 8;     // mutations per epoch / commit
constexpr std::uint32_t ball_radius = 2;
constexpr std::uint32_t frontier_cap = 32;
constexpr std::size_t query_clients = 2;
/// Epochs and commits per run: a p90 needs at least 10 samples beyond it.
constexpr std::size_t tail_samples = 110;
/// `ds_size` of the epoch and served workloads is the size at this epoch,
/// so it repeats exactly for a seed however far the window runs.
constexpr std::size_t size_epoch = 100;
/// Every phase runs in this many rounds spread over the run, so a burst
/// of host noise shorter than a round moves only part of a metric's
/// samples.
constexpr std::size_t rounds = 2;
/// Commits (split over the served rounds) and epochs (at the start of the
/// epoch phase) run unsampled: connection threads start and the first
/// commits allocate.
constexpr std::size_t warmup_ops = 10;
/// Warm solves per round outside the solve workload's window.
constexpr std::size_t round_solves = 3;
/// Query mix in percent: member, stats, digest, set.  The shares are
/// those of the repository's load generator (src/serve/load.cpp), copied
/// as numbers so a change to that tool cannot move the yardstick.
constexpr std::uint64_t mix_percent[] = {60, 20, 15, 5};
/// Query records kept per client and round: a uniform sample, so the
/// harness's memory does not grow with the host's query rate.
constexpr std::size_t kept_queries = std::size_t{1} << 16;
/// Traced runs trace one query in this many (queries are µs-scale and
/// numerous; every other one would make the span file huge).
constexpr std::size_t query_trace_stride = 8;

/// `domset run --graph ba --n 200000 --seed 1` (pipeline, k = 2).
constexpr char known_digest[] = "2a7d0620e1827ceb";
constexpr std::size_t known_size = 181837;

enum class phase { solve, epochs, serve };

struct workload_def {
  const char* name;
  const char* family;
  phase primary;
  dyn::workload_bias bias;
};

constexpr workload_def workloads[] = {
    {"solve-ba", "ba", phase::solve, dyn::workload_bias::hub},
    {"replay-ba", "ba", phase::epochs, dyn::workload_bias::hub},
    {"serve-gnp", "gnp", phase::serve, dyn::workload_bias::uniform},
};

struct options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool setup_only = false;
  std::size_t n = 200000;
  std::string domset_bin;
  std::string out_dir = ".";
  bool inject_solve_digest = false;  ///< corrupt the expected solve digest
  bool inject_epoch_digest = false;  ///< corrupt the offline epoch digests
};

// -------------------------------------------------------------- helpers

double ms_between(clock_type::time_point a, clock_type::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

std::string hex64(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, value);
  return buf;
}

std::uint64_t pipeline_digest(const std::vector<std::uint8_t>& in_set,
                              const std::vector<double>& x) {
  api::solve_result r;
  r.in_set = in_set;
  r.x = x;
  return api::solution_digest(r);
}

double median_of(std::vector<double> v) {
  if (v.empty()) throw std::runtime_error("median of no samples");
  return common::median(v);
}

/// The p-th percentile, refused unless at least 10 samples lie beyond it.
double tail_of(const std::vector<double>& v, double p) {
  const double beyond = static_cast<double>(v.size()) * (100.0 - p) / 100.0;
  if (beyond < 10.0)
    throw std::runtime_error("p" + std::to_string(static_cast<int>(p)) +
                             " needs 10 samples beyond it, have " +
                             std::to_string(v.size()) + " samples");
  return common::percentile(v, p);
}

/// Peak resident set of this process since start or the last
/// reset_peak_rss(), in MB (VmHWM).
double self_peak_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

/// Starts a new peak-RSS measurement: hands freed heap back to the system,
/// then resets the high-water mark to what is resident now.
void reset_peak_rss() {
  ::malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  if (!clear) throw std::runtime_error("cannot reset /proc/self/clear_refs");
}

std::uint64_t parse_u64(const std::string& text) {
  if (text.empty()) throw std::runtime_error("missing number in response");
  return std::stoull(text);
}

// ------------------------------------------------------------ run state

enum query_op : int { member, stats, digest, set, op_count };
constexpr const char* op_span[op_count] = {"serve.member", "serve.stats",
                                           "serve.digest", "serve.set"};

struct query_rec {
  int op = member;
  bool traced = false;
  double t0_ms = 0.0;
  double t1_ms = 0.0;
};

/// At most `kept_queries` records, a uniform sample of all added
/// (reservoir sampling, algorithm R).
struct query_sample {
  std::vector<query_rec> recs;
  std::uint64_t seen = 0;

  void add(const query_rec& r, common::rng& rng) {
    ++seen;
    if (recs.size() < kept_queries) {
      recs.push_back(r);
    } else {
      const std::uint64_t slot = rng.next_below(seen);
      if (slot < kept_queries) recs[slot] = r;
    }
  }
};

/// Operations attempted and failed, with the first few failures.  Each
/// load thread keeps its own and the run merges them after the join.
struct tally {
  static constexpr std::size_t kept_errors = 20;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;

  /// Counts one operation; a failed check fails the operation.
  void op(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (errors.size() < kept_errors) errors.push_back(what);
  }
  void merge(const tally& other) {
    attempted += other.attempted;
    failed += other.failed;
    for (const std::string& e : other.errors)
      if (errors.size() < kept_errors) errors.push_back(e);
  }
};

/// What one harness process measures, checks and reports.
class run {
 public:
  run(options opt, const workload_def& wl, clock_type::time_point t0)
      : opt_(std::move(opt)),
        wl_(wl),
        t0_(t0),
        tr_(std::string(wl.name) + "-s" + std::to_string(opt_.seed) + "-p" +
                std::to_string(::getpid()),
            t0),
        buf_(tr_.thread_buffer()) {}

  int execute();

 private:
  // -- accounting --------------------------------------------------------
  void op(bool ok, const std::string& what) { tally_.op(ok, what); }
  void e2e(const std::string& name, double value, const char* unit) {
    e2e_[name] = {value, unit};
  }
  void layer(const std::string& name, double value, const char* unit) {
    layer_[name] = {value, unit};
  }
  /// In the traced run, every `stride`-th operation carries spans; the
  /// rest stay untraced, so the run measures its own tracing overhead.
  [[nodiscard]] bool traced(std::size_t i, std::size_t stride = 2) const {
    return opt_.trace && i % stride == stride - 1;
  }
  [[nodiscard]] double elapsed_s(clock_type::time_point since) const {
    return ms_between(since, clock_type::now()) / 1000.0;
  }

  // -- phases ------------------------------------------------------------
  void build_graph();
  void start_pool();
  void setup();
  void solve_round(std::size_t round);
  void serve_round(std::size_t round);
  void epoch_round();
  void solve_report();
  void serve_report();
  void epoch_report();
  void in_process_serve();
  void report_trace();
  void print_result(double setup_s) const;

  struct solve_sample {
    double ms = 0.0;
    std::uint64_t digest = 0;
    std::size_t size = 0;
    sim::run_metrics lp, rounding;
  };
  solve_sample untraced_solve();
  solve_sample traced_solve(const exec::context& ctx, double* lp_ms,
                            double* rounding_ms);
  void check_solve(const solve_sample& s, const char* what);
  void cold_solve();
  [[nodiscard]] exec::context serial_context() const;
  [[nodiscard]] dyn::incremental_params engine_params() const;
  [[nodiscard]] std::vector<std::string> server_args() const;
  void start_server();
  void make_engine();
  const std::vector<dyn::mutation>& batch_for(std::size_t epoch);
  [[nodiscard]] std::string offline_digest(std::uint64_t digest) const;

  struct server_exit {
    std::uint64_t requests = 0, published = 0, reclaimed = 0;
    std::string final_digest;
    long maxrss_kb = 0;
  };
  /// Sends `shutdown`, reaps the server and reads its closing counters.
  server_exit stop_server();

  options opt_;
  const workload_def& wl_;
  clock_type::time_point t0_;
  tracer tr_;
  tracer::buffer& buf_;

  tally tally_;
  std::map<std::string, std::pair<double, std::string>> e2e_, layer_;

  graph::graph g_;
  exec::context ctx4_;
  std::optional<solve_sample> cold_;
  std::uint64_t expected_digest_ = 0;
  std::vector<double> solve_ms_, solve_traced_ms_, lp_ms_, rounding_ms_;
  std::vector<double> lp1_ms_, rounding1_ms_, verify_full_ms_;

  std::unique_ptr<server_process> server_;
  std::string socket_path_;
  std::uint64_t server_epoch0_digest_ = 0;
  std::unique_ptr<dyn::incremental_engine> engine_;
  double engine_ctor_ms_ = 0.0;

  /// One mutation stream, batch e - 1 being epoch e's.  The served
  /// mutator and the offline engine each consume it in order.
  std::vector<std::vector<dyn::mutation>> stream_;
  std::unique_ptr<dyn::workload> gen_;
  std::unique_ptr<dyn::dynamic_graph> mirror_;  ///< the stream's end state

  // served phase
  struct commit_rec {
    double t0_ms = 0.0, t1_ms = 0.0;
    std::uint64_t epoch = 0;
    std::size_t size = 0;
    std::string digest;
  };
  std::vector<commit_rec> commits_;  ///< epoch e's reply at e - 1
  std::map<std::uint64_t, std::string> observed_;  // epoch -> digest
  std::vector<double> mutate_ms_, commit_ms_;
  std::vector<query_rec> queries_;  ///< sampled queries of every round
  std::vector<double> rates_;  ///< queries/s per fifth of a sampled window
  std::size_t conflicts_ = 0;
  double commit_ms_p50_ = 0.0;
  double member_socket_ms_ = 0.0;

  // epoch phase
  struct offline_rec {
    std::size_t size = 0;
    std::string digest;
    bool timed = false;  ///< sampled and traced: the stage times are set
    double repair_ms = 0.0, snapshot_ms = 0.0, verify_ms = 0.0;
  };
  std::vector<offline_rec> offline_;  ///< epoch e's at e - 1
  struct epoch_samples {
    std::vector<double> untraced, traced, apply, repair, snapshot, verify;
    std::vector<double> ball, capped;
    double interior = 0.0, ball_sum = 0.0, peak_mb = 0.0;
    std::size_t holes = 0, changed = 0, full = 0, size_at = 0;
  };
  epoch_samples epochs_;
};

exec::context run::serial_context() const {
  exec::context ctx;
  ctx.seed = opt_.seed;
  ctx.threads = 1;
  return ctx;
}

dyn::incremental_params run::engine_params() const {
  dyn::incremental_params p;
  p.solver = "pipeline";
  p.exec = serial_context();
  p.radius = ball_radius;
  p.frontier_cap = frontier_cap;
  return p;
}

std::vector<std::string> run::server_args() const {
  return {"serve",          "--socket",       socket_path_,
          "--graph",        wl_.family,       "--n",
          std::to_string(opt_.n),             "--seed",
          std::to_string(opt_.seed),          "--threads",
          "1",              "--ball-radius",  std::to_string(ball_radius),
          "--frontier-cap", std::to_string(frontier_cap)};
}

void run::build_graph() {
  const clock_type::time_point t = clock_type::now();
  {
    tracer::scope s(tr_, buf_, "graph.make_graph", opt_.trace);
    g_ = api::make_graph(wl_.family, opt_.n, opt_.seed);
  }
  layer("graph.build_ms", ms_between(t, clock_type::now()), "ms");
  // The input properties the workloads were chosen for.
  const graph::degree_stats_result d = graph::degree_stats(g_);
  layer("graph.nodes", static_cast<double>(g_.node_count()), "nodes");
  layer("graph.edges", static_cast<double>(g_.edge_count()), "count");
  layer("graph.max_degree", d.max_degree, "count");
  layer("graph.degree_skew", d.skew, "x");
}

void run::start_pool() {
  ctx4_.seed = opt_.seed;
  ctx4_.threads = solve_threads;
  const clock_type::time_point t = clock_type::now();
  {
    tracer::scope s(tr_, buf_, "exec.ensure_shared_pool", opt_.trace);
    ctx4_.ensure_shared_pool();
  }
  layer("exec.pool_start_ms", ms_between(t, clock_type::now()), "ms");
}

void run::start_server() {
  socket_path_ = opt_.out_dir + "/srv-" + std::to_string(::getpid()) + ".sock";
  ::unlink(socket_path_.c_str());
  server_ = std::make_unique<server_process>(opt_.domset_bin, server_args());
  const std::string ready = server_->wait_ready(150.0);
  server_epoch0_digest_ = std::stoull(field(ready, "digest"), nullptr, 16);
  line_client client(socket_path_);
  const std::string reply = client.exchange("query digest");
  op(reply.rfind("ok ", 0) == 0 && field(reply, "epoch") == "0" &&
         field(reply, "digest") == hex64(server_epoch0_digest_),
     "first query: " + reply);
}

// ----------------------------------------------------------------- solve

run::solve_sample run::untraced_solve() {
  core::pipeline_params p;
  p.k = pipeline_k;
  p.exec = ctx4_;
  const clock_type::time_point t = clock_type::now();
  core::pipeline_result r = core::compute_dominating_set(g_, p);
  solve_sample s;
  s.ms = ms_between(t, clock_type::now());
  s.digest = pipeline_digest(r.in_set, r.fractional.x);
  s.size = r.size;
  s.lp = r.fractional.metrics;
  s.rounding = r.rounding.metrics;
  const clock_type::time_point tv = clock_type::now();
  const bool valid = verify::is_dominating_set(g_, r.in_set);
  verify_full_ms_.push_back(ms_between(tv, clock_type::now()));
  if (!valid) s.digest = ~s.digest;  // fails check_solve
  return s;
}

/// The pipeline as its two stage calls, composed exactly as
/// core::compute_dominating_set composes them, with a span around each.
run::solve_sample run::traced_solve(const exec::context& ctx, double* lp_ms,
                                    double* rounding_ms) {
  solve_sample s;
  core::lp_approx_result frac;
  core::rounding_result rounded;
  {
    tracer::scope whole(tr_, buf_, "core.pipeline", true);
    core::lp_approx_params lp;
    lp.k = pipeline_k;
    lp.exec = ctx;
    {
      tracer::scope st(tr_, buf_, "core.approximate_lp", true);
      frac = core::approximate_lp(g_, lp);
      *lp_ms = st.elapsed_ms();
    }
    core::rounding_params rp;
    rp.exec = ctx.with_seed(ctx.seed + 1);
    {
      tracer::scope st(tr_, buf_, "core.round_to_dominating_set", true);
      rounded = core::round_to_dominating_set(g_, frac.x, rp);
      *rounding_ms = st.elapsed_ms();
    }
    s.ms = whole.elapsed_ms();
  }
  s.digest = pipeline_digest(rounded.in_set, frac.x);
  s.size = rounded.size;
  s.lp = frac.metrics;
  s.rounding = rounded.metrics;
  bool valid = false;
  {
    tracer::scope sv(tr_, buf_, "verify.is_dominating_set", true);
    valid = verify::is_dominating_set(g_, rounded.in_set);
  }
  if (!valid) s.digest = ~s.digest;
  return s;
}

void run::check_solve(const solve_sample& s, const char* what) {
  op(s.digest == expected_digest_ && s.size == cold_->size,
     std::string(what) + ": digest " + hex64(s.digest) + " expected " +
         hex64(expected_digest_));
}

/// The first solve in the process; every later solve must repeat its
/// digest.
void run::cold_solve() {
  start_pool();
  cold_ = untraced_solve();
  expected_digest_ = cold_->digest;
  if (opt_.inject_solve_digest) expected_digest_ ^= 1;
  check_solve(*cold_, "cold solve");
}

void run::solve_round(std::size_t round) {
  if (!cold_) cold_solve();
  const clock_type::time_point start = clock_type::now();
  const double window =
      wl_.primary == phase::solve ? opt_.seconds / rounds : 0.0;
  const std::size_t need = opt_.trace ? 2 * round_solves : round_solves;
  for (std::size_t i = 0; i < need || elapsed_s(start) < window; ++i) {
    if (traced(i)) {
      double lp = 0.0, rd = 0.0;
      const solve_sample s = traced_solve(ctx4_, &lp, &rd);
      check_solve(s, "traced solve");
      solve_traced_ms_.push_back(s.ms);
      lp_ms_.push_back(lp);
      rounding_ms_.push_back(rd);
    } else {
      const solve_sample s = untraced_solve();
      check_solve(s, "warm solve");
      solve_ms_.push_back(s.ms);
    }
  }
  if (round == 0 && wl_.primary == phase::solve)
    e2e("peak_rss_mb", self_peak_mb(), "MB");
  if (!opt_.trace || round + 1 < rounds) return;
  // Same stage calls on one thread: the scaling the 4-thread run explains.
  const exec::context ctx1 = serial_context();
  for (std::size_t i = 0; i < round_solves; ++i) {
    double lp = 0.0, rd = 0.0;
    const solve_sample s = traced_solve(ctx1, &lp, &rd);
    check_solve(s, "1-thread traced solve");
    lp1_ms_.push_back(lp);
    rounding1_ms_.push_back(rd);
  }
}

void run::solve_report() {
  const double solve_ms = median_of(solve_ms_);
  e2e("solve_ms", solve_ms, "ms");
  const solve_sample& c = *cold_;
  e2e("rounds", static_cast<double>(c.lp.rounds + c.rounding.rounds), "count");
  const double messages =
      static_cast<double>(c.lp.messages_sent + c.rounding.messages_sent);
  e2e("messages_sent", messages, "count");
  e2e("bits_sent", static_cast<double>(c.lp.bits_sent + c.rounding.bits_sent),
      "count");
  if (wl_.primary == phase::solve) e2e("ds_size", c.size, "nodes");
  if (!opt_.trace) return;

  const double lp = median_of(lp_ms_), rd = median_of(rounding_ms_);
  const double lp1 = median_of(lp1_ms_), rd1 = median_of(rounding1_ms_);
  layer("core.cold_extra_ms", c.ms - solve_ms, "ms");
  layer("core.lp_ms", lp, "ms");
  layer("core.rounding_ms", rd, "ms");
  layer("core.lp_ms.t1", lp1, "ms");
  layer("core.rounding_ms.t1", rd1, "ms");
  layer("core.speedup_t4", (lp1 + rd1) / (lp + rd), "x");
  layer("core.solve_residual_ms", solve_ms - (lp + rd), "ms");
  layer("trace.solve_overhead_ms", median_of(solve_traced_ms_) - solve_ms,
        "ms");
  layer("sim.lp_rounds", static_cast<double>(c.lp.rounds), "count");
  layer("sim.rounding_rounds", static_cast<double>(c.rounding.rounds), "count");
  layer("sim.messages_sent", messages, "count");
  layer("sim.bits_sent",
        static_cast<double>(c.lp.bits_sent + c.rounding.bits_sent), "count");
  layer("sim.max_message_bits",
        std::max(c.lp.max_message_bits, c.rounding.max_message_bits), "bits");
  layer("sim.max_messages_per_node",
        static_cast<double>(std::max(c.lp.max_messages_per_node,
                                     c.rounding.max_messages_per_node)),
        "count");
  layer("sim.ns_per_message", (lp + rd) * 1e6 / messages, "ns");
  layer("verify.full_ms", median_of(verify_full_ms_), "ms");
}

// ---------------------------------------------------------------- serve

run::server_exit run::stop_server() {
  {
    line_client client(socket_path_);
    const std::string reply = client.exchange("shutdown");
    op(reply == "ok shutdown=1", "shutdown: " + reply);
  }
  server_exit out;
  op(server_->wait_exit(60.0) == 0, "domset serve exit status");
  const std::string& err = server_->stderr_text();
  const std::size_t at = err.find("domset serve: ");
  unsigned long long c = 0, r = 0, m = 0, k = 0, p = 0, x = 0;
  const bool parsed =
      at != std::string::npos &&
      std::sscanf(err.c_str() + at,
                  "domset serve: %llu connections, %llu requests, %llu "
                  "mutations, %llu commits, %llu epochs published (%llu "
                  "reclaimed)",
                  &c, &r, &m, &k, &p, &x) == 6;
  op(parsed, "domset serve stats line: " + err);
  op(k == commits_.size() && m == batch_size * commits_.size(),
     "domset serve counted " + std::to_string(k) + " commits, " +
         std::to_string(m) + " mutations");
  out.requests = r;
  out.published = p;
  out.reclaimed = x;
  const std::string& text = server_->stdout_text();
  const std::size_t final_line = text.find("final ");
  if (final_line != std::string::npos)
    out.final_digest =
        field(std::string_view(text).substr(final_line), "digest");
  out.maxrss_kb = server_->maxrss_kb();
  server_.reset();
  return out;
}

/// One round of served traffic: the mutator commits batches while the
/// query clients run; samples start after the round's warm-up commits.
void run::serve_round(std::size_t round) {
  if (!server_) start_server();
  const double window =
      wl_.primary == phase::serve ? opt_.seconds / rounds : 0.0;
  const std::size_t warmup = warmup_ops / rounds;
  const std::size_t sampled_commits = tail_samples / rounds;

  std::atomic<bool> stop{false};
  std::atomic<double> from_ms{1e300}, to_ms{0.0};
  tally mut_tally;
  std::exception_ptr mut_error;
  tracer::buffer& mbuf = tr_.thread_buffer();
  const auto at_ms = [this](clock_type::time_point t) {
    return ms_between(t0_, t);
  };
  const double start_ms = at_ms(clock_type::now());

  std::thread mutator([&] {
    try {
      line_client client(socket_path_);
      clock_type::time_point sampling = clock_type::now();
      for (std::size_t i = 0;
           i < warmup + sampled_commits || elapsed_s(sampling) < window; ++i) {
        if (i == warmup) {
          sampling = clock_type::now();
          from_ms.store(at_ms(sampling));
        }
        const bool sampled = i >= warmup;
        const std::string request =
            "mutate " + dyn::to_string(batch_for(commits_.size() + 1));
        const bool tr = traced(i);
        clock_type::time_point t0 = clock_type::now();
        std::string reply;
        {
          tracer::scope s(tr_, mbuf, "serve.mutate", tr);
          reply = client.exchange(request);
        }
        if (tr && sampled)
          mutate_ms_.push_back(ms_between(t0, clock_type::now()));
        mut_tally.op(reply.rfind("ok ", 0) == 0 &&
                         field(reply, "admitted") == std::to_string(batch_size),
                     "mutate: " + reply);
        t0 = clock_type::now();
        {
          tracer::scope s(tr_, mbuf, "serve.commit", tr);
          reply = client.exchange("commit");
        }
        const clock_type::time_point t1 = clock_type::now();
        if (sampled) commit_ms_.push_back(ms_between(t0, t1));
        commit_rec rec;
        rec.t0_ms = at_ms(t0);
        rec.t1_ms = at_ms(t1);
        rec.epoch = parse_u64(field(reply, "epoch"));
        rec.size = parse_u64(field(reply, "size"));
        rec.digest = field(reply, "digest");
        mut_tally.op(reply.rfind("ok ", 0) == 0 &&
                         rec.epoch == commits_.size() + 1,
                     "commit: " + reply);
        commits_.push_back(std::move(rec));
      }
    } catch (...) {
      mut_error = std::current_exception();
    }
    to_ms.store(at_ms(clock_type::now()));
    stop.store(true);
  });

  struct client_out {
    tally t;
    query_sample kept;
    std::vector<std::uint32_t> done_per_ms;  ///< completions, by ms of round
    std::map<std::uint64_t, std::string> seen;
    std::size_t conflicts = 0;
    std::exception_ptr error;
  };
  std::vector<client_out> outs(query_clients);
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < query_clients; ++c) {
    clients.emplace_back([&, c] {
      client_out& mine = outs[c];
      try {
        tracer::buffer& b = tr_.thread_buffer();
        line_client client(socket_path_);
        common::rng rng(common::derive_seed(opt_.seed, 1000 + 10 * round + c));
        common::rng keep(common::derive_seed(opt_.seed, 3000 + 10 * round + c));
        const std::uint64_t nodes = g_.node_count();
        for (std::size_t q = 0; !stop.load(std::memory_order_relaxed); ++q) {
          int kind = member;
          for (std::uint64_t d = rng.next_below(100);
               kind < set && d >= mix_percent[kind]; ++kind)
            d -= mix_percent[kind];
          std::string request;
          switch (kind) {
            case member:
              request = "query member " + std::to_string(rng.next_below(nodes));
              break;
            case stats: request = "query stats"; break;
            case digest: request = "query digest"; break;
            default: request = "query set"; break;
          }
          const bool tr = traced(q, query_trace_stride);
          const clock_type::time_point t0 = clock_type::now();
          std::string reply;
          {
            tracer::scope s(tr_, b, op_span[kind], tr);
            reply = client.exchange(request);
          }
          const clock_type::time_point t1 = clock_type::now();
          bool ok = reply.rfind("ok ", 0) == 0 && !field(reply, "epoch").empty();
          if (ok && (kind == stats || kind == digest)) {
            const std::uint64_t epoch = parse_u64(field(reply, "epoch"));
            const std::string d = field(reply, "digest");
            const auto [it, fresh] = mine.seen.emplace(epoch, d);
            if (!fresh && it->second != d) {
              ++mine.conflicts;
              ok = false;
            }
          } else if (ok && kind == member) {
            const std::string m = field(reply, "member");
            ok = m == "0" || m == "1";
          } else if (ok && kind == set) {
            const std::string members = field(reply, "members");
            const std::size_t size = parse_u64(field(reply, "size"));
            ok = size == 0 ? members.empty()
                           : static_cast<std::size_t>(std::count(
                                 members.begin(), members.end(), ',')) +
                                     1 ==
                                 size;
          }
          mine.t.op(ok, request + ": " + reply.substr(0, 120));
          const query_rec rec{kind, tr, at_ms(t0), at_ms(t1)};
          mine.kept.add(rec, keep);
          const auto ms = static_cast<std::size_t>(rec.t1_ms - start_ms);
          if (mine.done_per_ms.size() <= ms) mine.done_per_ms.resize(ms + 1);
          ++mine.done_per_ms[ms];
        }
      } catch (...) {
        mine.error = std::current_exception();
      }
    });
  }
  mutator.join();
  for (std::thread& t : clients) t.join();
  if (mut_error) std::rethrow_exception(mut_error);
  tally_.merge(mut_tally);

  // Sampled window, as whole milliseconds since the round started.
  const double from = from_ms.load(), to = to_ms.load();
  const auto first_ms = static_cast<std::size_t>(std::ceil(from - start_ms));
  const auto end_ms = static_cast<std::size_t>(to - start_ms);
  const double slice = static_cast<double>(end_ms - first_ms) / 5.0;
  double count[5] = {};
  for (client_out& o : outs) {
    if (o.error) std::rethrow_exception(o.error);
    tally_.merge(o.t);
    conflicts_ += o.conflicts;
    for (const auto& [epoch, d] : o.seen) {
      const auto [it, fresh] = observed_.emplace(epoch, d);
      if (!fresh && it->second != d) ++conflicts_;
    }
    for (const query_rec& r : o.kept.recs)
      if (r.t0_ms >= from && r.t1_ms <= to) queries_.push_back(r);
    for (std::size_t ms = first_ms; ms < end_ms && ms < o.done_per_ms.size();
         ++ms)
      count[std::min<std::size_t>(
          4, static_cast<std::size_t>(static_cast<double>(ms - first_ms) /
                                      slice))] += o.done_per_ms[ms];
  }
  for (const double n : count) rates_.push_back(n * 1000.0 / slice);
}

void run::serve_report() {
  op(conflicts_ == 0, "epoch digest conflicts: " + std::to_string(conflicts_));
  const server_exit ex = stop_server();
  op(!commits_.empty() && ex.final_digest == commits_.back().digest,
     "served final digest " + ex.final_digest);
  if (wl_.primary == phase::serve)
    e2e("peak_rss_mb", static_cast<double>(ex.maxrss_kb) / 1024.0, "MB");

  // Query samples, split by tracing and by overlap with a commit window.
  std::vector<double> untraced, traced_ms, during_commit, by_op[op_count];
  for (const query_rec& r : queries_) {
    const double ms = r.t1_ms - r.t0_ms;
    (r.traced ? traced_ms : untraced).push_back(ms);
    by_op[r.op].push_back(ms);
    const auto after = std::lower_bound(
        commits_.begin(), commits_.end(), r.t0_ms,
        [](const commit_rec& c, double t) { return c.t1_ms < t; });
    if (after != commits_.end() && after->t0_ms <= r.t1_ms)
      during_commit.push_back(ms);
  }
  commit_ms_p50_ = median_of(commit_ms_);
  e2e("query_ms_p50", median_of(untraced), "ms");
  e2e("query_ms_p90", tail_of(untraced, 90.0), "ms");
  e2e("query_ms_p99", tail_of(untraced, 99.0), "ms");
  e2e("queries_per_s", median_of(rates_), "1/s");
  e2e("commit_ms_p50", commit_ms_p50_, "ms");
  e2e("commit_ms_p90", tail_of(commit_ms_, 90.0), "ms");
  if (!opt_.trace) return;
  member_socket_ms_ = median_of(by_op[member]);
  layer("serve.member_ms_p50", member_socket_ms_, "ms");
  layer("serve.member_ms_p99", tail_of(by_op[member], 99.0), "ms");
  layer("serve.stats_ms_p50", median_of(by_op[stats]), "ms");
  layer("serve.digest_ms_p50", median_of(by_op[digest]), "ms");
  layer("serve.set_ms_p50", median_of(by_op[set]), "ms");
  layer("serve.set_ms_p99", tail_of(by_op[set], 99.0), "ms");
  layer("serve.query_during_commit_ms_p99", tail_of(during_commit, 99.0), "ms");
  layer("serve.mutate_ms_p50", median_of(mutate_ms_), "ms");
  layer("trace.query_overhead_us",
        (median_of(traced_ms) - median_of(untraced)) * 1000.0, "us");
  layer("serve.requests", static_cast<double>(ex.requests), "count");
  layer("serve.epochs_published", static_cast<double>(ex.published), "count");
  layer("serve.epochs_reclaimed", static_cast<double>(ex.reclaimed), "count");
  layer("serve.epoch_digest_conflicts", static_cast<double>(conflicts_),
        "count");
}

// ---------------------------------------------------------------- epochs

void run::make_engine() {
  const clock_type::time_point t = clock_type::now();
  {
    tracer::scope s(tr_, buf_, "dyn.incremental_engine", opt_.trace);
    engine_ = std::make_unique<dyn::incremental_engine>(g_, engine_params());
  }
  engine_ctor_ms_ = ms_between(t, clock_type::now());
}

/// Epoch `epoch`'s mutation batch.  Whichever consumer reaches an epoch
/// first generates its batch, so the server and the offline engine see
/// the same stream whatever their order.
const std::vector<dyn::mutation>& run::batch_for(std::size_t epoch) {
  if (!gen_) {
    dyn::workload_params gp;
    gp.bias = wl_.bias;
    gp.seed = common::derive_seed(opt_.seed, 1);
    gen_ = std::make_unique<dyn::workload>(gp);
    mirror_ = std::make_unique<dyn::dynamic_graph>(g_);
  }
  while (stream_.size() < epoch) {
    std::vector<dyn::mutation> batch;
    for (std::size_t j = 0; j < batch_size; ++j) {
      batch.push_back(gen_->next(*mirror_, mirror_->rebase_point()));
      mirror_->apply(batch.back());
    }
    (void)mirror_->commit();
    stream_.push_back(std::move(batch));
  }
  return stream_[epoch - 1];
}

/// An offline engine digest as the served ones print it (and, for the
/// benchmark's own tests, corrupted on request).
std::string run::offline_digest(std::uint64_t digest) const {
  return hex64(opt_.inject_epoch_digest ? digest ^ 1 : digest);
}

/// Runs the offline engine through the stream with the calls the
/// server's commit makes (apply, commit_and_repair, snapshot, verify):
/// first every epoch the server has committed, then on while the round's
/// sample floor or its half of the window (epoch workload) asks.  Epochs
/// the engine runs ahead of the server are committed by the next served
/// round.
void run::epoch_round() {
  if (!engine_) make_engine();
  if (offline_.empty())
    op(offline_digest(engine_->digest()) == hex64(server_epoch0_digest_),
       "offline epoch 0 digest " + offline_digest(engine_->digest()) +
           " vs served " + hex64(server_epoch0_digest_));
  const bool own = wl_.primary == phase::epochs;
  if (own) reset_peak_rss();
  const double window = own ? opt_.seconds / rounds : 0.0;
  const std::size_t need =
      (opt_.trace ? 2 * tail_samples : tail_samples) / rounds;
  std::size_t sampled = 0;
  double sampled_s = 0.0;
  epoch_samples& es = epochs_;
  while (offline_.size() < commits_.size() || sampled < need ||
         sampled_s < window) {
    const std::size_t e = offline_.size() + 1;
    const std::vector<dyn::mutation>& batch = batch_for(e);
    const bool tr = traced(e);
    clock_type::time_point t[5];
    dyn::epoch_report rep;
    bool valid = false;
    t[0] = clock_type::now();
    {
      tracer::scope s(tr_, buf_, "dyn.epoch", tr);
      {
        tracer::scope a(tr_, buf_, "dyn.apply", tr);
        for (const dyn::mutation& m : batch) engine_->network().apply(m);
      }
      t[1] = clock_type::now();
      {
        tracer::scope a(tr_, buf_, "dyn.commit_and_repair", tr);
        rep = engine_->commit_and_repair();
      }
      t[2] = clock_type::now();
      graph::graph snap;
      {
        tracer::scope a(tr_, buf_, "dyn.snapshot", tr);
        snap = engine_->snapshot();
      }
      t[3] = clock_type::now();
      {
        tracer::scope a(tr_, buf_, "verify.is_dominating_set", tr);
        valid = verify::is_dominating_set(snap, engine_->solution());
      }
      t[4] = clock_type::now();
    }
    const double epoch_ms = ms_between(t[0], clock_type::now());
    offline_rec rec;
    rec.size = rep.size;
    rec.digest = offline_digest(rep.digest);
    if (e > warmup_ops) {
      ++sampled;
      sampled_s += epoch_ms / 1000.0;
      (tr ? es.traced : es.untraced).push_back(epoch_ms);
      if (tr) {
        rec.timed = true;
        rec.repair_ms = ms_between(t[1], t[2]);
        rec.snapshot_ms = ms_between(t[2], t[3]);
        rec.verify_ms = ms_between(t[3], t[4]);
        es.apply.push_back(ms_between(t[0], t[1]));
        es.repair.push_back(rec.repair_ms);
        es.snapshot.push_back(rec.snapshot_ms);
        es.verify.push_back(rec.verify_ms);
      }
    }
    op(valid && rep.epoch == e,
       "epoch " + std::to_string(e) + (valid ? "" : " not dominating"));
    offline_.push_back(std::move(rec));
    if (e == size_epoch) es.size_at = rep.size;
    es.ball.push_back(static_cast<double>(rep.ball_nodes));
    es.capped.push_back(static_cast<double>(rep.capped_nodes));
    es.ball_sum += static_cast<double>(rep.ball_nodes);
    es.interior += static_cast<double>(rep.interior_nodes);
    es.holes += rep.holes_patched;
    es.changed += rep.changed;
    es.full += rep.full_resolve ? 1 : 0;
  }
  if (own) es.peak_mb = std::max(es.peak_mb, self_peak_mb());
}

void run::epoch_report() {
  const epoch_samples& es = epochs_;
  const auto served_epoch0 = observed_.find(0);
  op(served_epoch0 == observed_.end() ||
         served_epoch0->second == hex64(server_epoch0_digest_),
     "served epoch 0 digest");
  // Every served epoch -- commit reply and query replies -- against the
  // offline engine's epoch of the same number: one check each, naming
  // the first mismatch.
  std::size_t bad = 0;
  std::string first;
  for (std::size_t e = 1; e <= commits_.size(); ++e) {
    const commit_rec& c = commits_[e - 1];
    const offline_rec& o = offline_[e - 1];
    if (c.epoch == e && c.size == o.size && c.digest == o.digest) continue;
    if (bad++ == 0)
      first = "commit " + std::to_string(e) + ": served digest " + c.digest +
              " vs offline epoch digest " + o.digest;
  }
  op(bad == 0, std::to_string(bad) + " of " + std::to_string(commits_.size()) +
                   " commits differ from the offline replay, first " + first);
  bad = 0;
  for (const auto& [e, d] : observed_) {
    if (e == 0 || e > offline_.size() || offline_[e - 1].digest == d) continue;
    if (bad++ == 0)
      first = "query reply for epoch " + std::to_string(e) + ": digest " + d +
              " vs offline epoch digest " + offline_[e - 1].digest;
  }
  op(bad == 0, std::to_string(bad) + " of " + std::to_string(observed_.size()) +
                   " epochs seen by queries differ from the offline replay, "
                   "first " + first);
  if (wl_.primary == phase::epochs) e2e("peak_rss_mb", es.peak_mb, "MB");
  const double epoch_p50 = median_of(es.untraced);
  e2e("epoch_ms_p50", epoch_p50, "ms");
  e2e("epoch_ms_p90", tail_of(es.untraced, 90.0), "ms");
  if (wl_.primary != phase::solve) e2e("ds_size", es.size_at, "nodes");
  if (!opt_.trace) return;

  const double rp50 = median_of(es.repair);
  layer("dyn.apply_ms_p50", median_of(es.apply), "ms");
  layer("dyn.repair_ms_p50", rp50, "ms");
  layer("dyn.repair_ms_p90", tail_of(es.repair, 90.0), "ms");
  layer("dyn.snapshot_ms_p50", median_of(es.snapshot), "ms");
  layer("dyn.verify_ms_p50", median_of(es.verify), "ms");
  layer("dyn.epoch_residual_ms",
        epoch_p50 - (median_of(es.apply) + rp50 + median_of(es.snapshot) +
                     median_of(es.verify)),
        "ms");
  layer("trace.epoch_overhead_ms", median_of(es.traced) - epoch_p50, "ms");
  layer("dyn.ball_nodes_p50", median_of(es.ball), "nodes");
  layer("dyn.capped_nodes_p50", median_of(es.capped), "nodes");
  layer("dyn.interior_frac", es.ball_sum > 0 ? es.interior / es.ball_sum : 0.0,
        "ratio");
  layer("dyn.holes_patched", static_cast<double>(es.holes), "count");
  layer("dyn.changed_total", static_cast<double>(es.changed), "count");
  layer("dyn.full_resolves", static_cast<double>(es.full), "count");
  layer("dyn.engine_start_ms", engine_ctor_ms_, "ms");

  // The commit decomposition: the traced offline epochs the server also
  // committed.
  std::vector<double> c_repair, c_snapshot, c_verify;
  for (std::size_t e = 1; e <= commits_.size(); ++e) {
    const offline_rec& o = offline_[e - 1];
    if (!o.timed) continue;
    c_repair.push_back(o.repair_ms);
    c_snapshot.push_back(o.snapshot_ms);
    c_verify.push_back(o.verify_ms);
  }
  const double repair_c = median_of(c_repair);
  const double snapshot_c = median_of(c_snapshot);
  const double verify_c = median_of(c_verify);
  layer("serve.commit_repair_ms_p50", repair_c, "ms");
  layer("serve.commit_snapshot_ms_p50", snapshot_c, "ms");
  layer("serve.commit_verify_ms_p50", verify_c, "ms");
  layer("serve.commit_residual_ms_p50",
        commit_ms_p50_ - (repair_c + snapshot_c + verify_c), "ms");

  // A few from-scratch re-solves of the final snapshot: the cost the
  // incremental repair avoids.
  std::vector<double> full_ms;
  for (std::size_t i = 0; i < 2; ++i) {
    const clock_type::time_point t0 = clock_type::now();
    api::solve_result r;
    {
      tracer::scope s(tr_, buf_, "dyn.full_resolve", true);
      r = engine_->full_resolve();
    }
    full_ms.push_back(ms_between(t0, clock_type::now()));
    op(r.size > 0, "full re-solve");
  }
  layer("dyn.full_resolve_ms", median_of(full_ms), "ms");
  layer("dyn.repair_speedup", median_of(full_ms) / rp50, "x");
}

// ------------------------------------------------- in-process serve calls

/// The server's request handling without the socket: a second server
/// built from the same graph and parameters as the spawned one (its
/// epoch 0 must carry the same digest), driven through handle_line and
/// pin.  The socket time minus this is the transport cost.
void run::in_process_serve() {
  serve::server_params sp;
  sp.inc = engine_params();
  std::unique_ptr<serve::server> twin;
  {
    tracer::scope s(tr_, buf_, "serve.server", true);
    twin = std::make_unique<serve::server>(g_, sp);
  }
  op(twin->pin()->digest == server_epoch0_digest_, "in-process epoch 0");
  common::rng rng(common::derive_seed(opt_.seed, 2000));
  const auto time_line = [&](const char* name, std::size_t reps,
                             const auto& make_request) {
    std::vector<double> us;
    tracer::scope s(tr_, buf_, name, true);
    for (std::size_t i = 0; i < reps; ++i) {
      const std::string request = make_request();
      const clock_type::time_point t0 = clock_type::now();
      const std::string reply = twin->handle_line(request, i + 1);
      us.push_back(ms_between(t0, clock_type::now()) * 1000.0);
      if (reply.rfind("ok ", 0) != 0) op(false, request + ": " + reply);
    }
    return median_of(us);
  };
  const std::uint64_t nodes = g_.node_count();
  const double member_us = time_line("serve.handle_line.member", 20000, [&] {
    return "query member " + std::to_string(rng.next_below(nodes));
  });
  layer("serve.member_us", member_us, "us");
  layer("serve.stats_us",
        time_line("serve.handle_line.stats", 5000, [] { return "query stats"; }),
        "us");
  layer("serve.digest_us",
        time_line("serve.handle_line.digest", 5000,
                  [] { return "query digest"; }),
        "us");
  layer("serve.set_ms",
        time_line("serve.handle_line.set", 9, [] { return "query set"; }) /
            1000.0,
        "ms");
  layer("serve.transport_us", member_socket_ms_ * 1000.0 - member_us, "us");
  std::vector<double> pin_ns;
  {
    tracer::scope s(tr_, buf_, "serve.pin", true);
    for (std::size_t i = 0; i < 50; ++i) {
      const clock_type::time_point t0 = clock_type::now();
      for (std::size_t j = 0; j < 10000; ++j) {
        const serve::pinned_epoch p = twin->pin();
        if (!p) op(false, "pin returned no epoch");
      }
      pin_ns.push_back(ms_between(t0, clock_type::now()) * 1e6 / 10000.0);
    }
  }
  layer("serve.pin_ns", median_of(pin_ns), "ns");
}

// --------------------------------------------------------------- report

void run::report_trace() {
  for (const auto& [name, ms] : tr_.self_ms_by_layer())
    layer(name + ".self_ms", ms, "ms");
  layer("trace.spans", static_cast<double>(tr_.span_count()), "count");
  const std::string path = opt_.out_dir + "/trace-" + wl_.name + "-s" +
                           std::to_string(opt_.seed) + ".jsonl";
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    op(false, "cannot write " + path);
    return;
  }
  tr_.write_jsonl(out);
  std::fclose(out);
}

void print_metrics(
    const std::map<std::string, std::pair<double, std::string>>& metrics) {
  bool first = true;
  for (const auto& [name, value] : metrics) {
    std::printf("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}", first ? "" : ",",
                name.c_str(), value.first, value.second.c_str());
    first = false;
  }
}

void run::print_result(double setup_s) const {
  std::printf("{\"correct\":%s,\"attempted\":%" PRIu64 ",\"failed\":%" PRIu64
              ",\"setup_s\":%.17g,\"end_to_end\":{",
              tally_.failed == 0 ? "true" : "false", tally_.attempted,
              tally_.failed, setup_s);
  print_metrics(e2e_);
  std::printf("},\"per_layer\":{");
  print_metrics(layer_);
  std::printf("},\"errors\":[");
  for (std::size_t i = 0; i < tally_.errors.size(); ++i) {
    std::string text = tally_.errors[i];
    for (char& ch : text)
      if (ch == '"' || ch == '\\' || static_cast<unsigned char>(ch) < 0x20)
        ch = '\'';
    std::printf("%s\"%s\"", i == 0 ? "" : ",", text.c_str());
  }
  std::printf("]}\n");
  std::fflush(stdout);
}

// ---------------------------------------------------------------- setup

/// Process start to the workload's first correct result: a verified cold
/// solve, a verified epoch-0 solve, or the first answered query.
void run::setup() {
  switch (wl_.primary) {
    case phase::solve: {
      build_graph();
      cold_solve();
      if (opt_.seed == 1 && opt_.n == 200000)
        op(hex64(cold_->digest) == known_digest && cold_->size == known_size,
           "seed 1 must reproduce domset run: digest " + hex64(cold_->digest));
      break;
    }
    case phase::epochs: {
      build_graph();
      make_engine();
      const graph::graph snap = engine_->snapshot();
      op(verify::is_dominating_set(snap, engine_->solution()),
         "epoch 0 not dominating");
      break;
    }
    case phase::serve:
      start_server();
      break;
  }
}

int run::execute() {
  double setup_s = 0.0;
  try {
    setup();
    setup_s = ms_between(t0_, clock_type::now()) / 1000.0;
    if (opt_.setup_only) {
      if (server_) (void)stop_server();
    } else {
      if (g_.node_count() == 0) build_graph();
      for (std::size_t r = 0; r < rounds; ++r) {
        solve_round(r);
        serve_round(r);
        epoch_round();
      }
      solve_report();
      serve_report();
      epoch_report();
      if (opt_.trace) {
        in_process_serve();
        report_trace();
      }
      e2e("setup_s", setup_s, "s");
    }
  } catch (const std::exception& err) {
    op(false, err.what());
  }
  print_result(setup_s);
  return tally_.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const clock_type::time_point t0 = clock_type::now();
  options opt;
  const auto usage = [](const char* why) {
    std::fprintf(stderr,
                 "perfbench_harness: %s\nusage: perfbench_harness --workload "
                 "<solve-ba|replay-ba|serve-gnp> --seed <n> --seconds <s> "
                 "--trace <0|1> --domset <binary> --out-dir <dir> "
                 "[--mode run|setup] [--n <nodes>] "
                 "[--inject solve-digest|epoch-digest]\n",
                 why);
    return 2;
  };
  try {
    for (int i = 1; i < argc; i += 2) {
      const std::string key = argv[i];
      if (i + 1 >= argc) return usage(("missing value for " + key).c_str());
      const std::string value = argv[i + 1];
      if (key == "--workload") opt.workload = value;
      else if (key == "--seed") opt.seed = std::stoull(value);
      else if (key == "--seconds") opt.seconds = std::stod(value);
      else if (key == "--trace") opt.trace = value == "1";
      else if (key == "--mode") opt.setup_only = value == "setup";
      else if (key == "--n") opt.n = std::stoull(value);
      else if (key == "--domset") opt.domset_bin = value;
      else if (key == "--out-dir") opt.out_dir = value;
      else if (key == "--inject" && value == "solve-digest")
        opt.inject_solve_digest = true;
      else if (key == "--inject" && value == "epoch-digest")
        opt.inject_epoch_digest = true;
      else return usage(("unknown argument " + key).c_str());
    }
  } catch (const std::exception&) {
    return usage("malformed number");
  }
  for (const workload_def& wl : workloads)
    if (opt.workload == wl.name) return run(opt, wl, t0).execute();
  return usage(("unknown workload '" + opt.workload + "'").c_str());
}
