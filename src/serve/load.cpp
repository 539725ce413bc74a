#include "serve/load.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <thread>
#include <utility>

#include "api/result_json.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "dyn/dynamic_graph.hpp"
#include "serve/protocol.hpp"

namespace domset::serve {

namespace {

using clock_type = std::chrono::steady_clock;

double ms_between(clock_type::time_point a, clock_type::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// One blocking line-protocol connection.
class line_client {
 public:
  explicit line_client(const std::string& path) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.empty() || path.size() >= sizeof addr.sun_path)
      throw std::runtime_error("load: bad socket path '" + path + "'");
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0)
      throw std::runtime_error(std::string("load: socket: ") +
                               std::strerror(errno));
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) != 0) {
      const int err = errno;
      ::close(fd_);
      fd_ = -1;
      throw std::runtime_error("load: connect '" + path +
                               "': " + std::strerror(err));
    }
  }
  ~line_client() {
    if (fd_ >= 0) ::close(fd_);
  }
  line_client(const line_client&) = delete;
  line_client& operator=(const line_client&) = delete;

  /// Sends one request line, reads one response line, parses it.
  response exchange(const std::string& request_line) {
    std::string out = request_line;
    out += '\n';
    std::string_view rest = out;
    while (!rest.empty()) {
      const ssize_t n = ::send(fd_, rest.data(), rest.size(), MSG_NOSIGNAL);
      if (n <= 0)
        throw std::runtime_error("load: send failed (server gone?)");
      rest.remove_prefix(static_cast<std::size_t>(n));
    }
    for (;;) {
      const std::size_t pos = buffer_.find('\n');
      if (pos != std::string::npos) {
        const std::string line = buffer_.substr(0, pos);
        buffer_.erase(0, pos + 1);
        return parse_response(line);
      }
      char chunk[4096];
      const ssize_t n = ::read(fd_, chunk, sizeof chunk);
      if (n <= 0)
        throw std::runtime_error("load: connection closed mid-response");
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

struct window {
  clock_type::time_point begin;
  clock_type::time_point end;
};

struct query_sample {
  clock_type::time_point begin;
  clock_type::time_point end;
  double ms = 0.0;
};

struct epoch_digest {
  std::uint64_t epoch = 0;
  std::string digest;
};

std::uint64_t parse_u64(const std::string& text) {
  return text.empty() ? 0 : std::stoull(text);
}

void expect_ok(const response& resp, const char* what) {
  if (!resp.ok)
    throw std::runtime_error(std::string("load: ") + what +
                             " rejected: " + resp.error);
}

latency_summary summarize(std::vector<double> times) {
  latency_summary out;
  out.count = times.size();
  if (!times.empty()) {
    out.p50_ms = common::median(times);
    out.p99_ms = common::percentile(times, 99.0);
  }
  return out;
}

}  // namespace

load_report run_load(const graph::graph& mirror_base,
                     const load_params& params) {
  if (params.batch == 0)
    throw std::invalid_argument("load: batch must be > 0");

  load_report report;
  report.clients = params.clients;

  // -- mutator state, filled by its thread --------------------------------
  std::vector<window> commit_windows;
  std::vector<double> commit_times;
  std::vector<epoch_digest> observed;  // all threads' epoch->digest pairs
  std::vector<std::string> admitted;
  std::uint64_t last_epoch = 0;
  std::string last_digest;
  std::size_t last_size = 0;
  std::exception_ptr mutator_error;

  std::thread mutator([&] {
    try {
      line_client client(params.socket_path);
      dyn::dynamic_graph mirror(mirror_base);
      dyn::workload gen(params.gen);
      const auto commit_now = [&] {
        const clock_type::time_point t0 = clock_type::now();
        const response resp = client.exchange("commit");
        const clock_type::time_point t1 = clock_type::now();
        expect_ok(resp, "commit");
        commit_windows.push_back({t0, t1});
        commit_times.push_back(ms_between(t0, t1));
        last_epoch = parse_u64(resp.get("epoch"));
        last_digest = resp.get("digest");
        last_size = static_cast<std::size_t>(parse_u64(resp.get("size")));
        observed.push_back({last_epoch, last_digest});
        (void)mirror.commit();
      };
      for (std::size_t i = 0; i < params.mutations; ++i) {
        const dyn::mutation m = gen.next(mirror, mirror.rebase_point());
        mirror.apply(m);
        const std::string atom = dyn::to_string(m);
        expect_ok(client.exchange("mutate " + atom), "mutate");
        admitted.push_back(atom);
        if ((i + 1) % params.batch == 0) commit_now();
      }
      if (params.mutations % params.batch != 0) commit_now();
    } catch (...) {
      mutator_error = std::current_exception();
    }
  });

  // -- query clients ------------------------------------------------------
  struct client_result {
    std::vector<query_sample> samples;
    std::vector<epoch_digest> observed;
    std::size_t member_ops = 0, stats_ops = 0, digest_ops = 0, set_ops = 0;
    std::exception_ptr error;
  };
  std::vector<client_result> results(params.clients);
  std::vector<std::thread> clients;
  clients.reserve(params.clients);
  const std::size_t node_span = std::max<std::size_t>(1, mirror_base.node_count());
  for (std::size_t t = 0; t < params.clients; ++t) {
    clients.emplace_back([&, t] {
      client_result& mine = results[t];
      try {
        line_client client(params.socket_path);
        common::rng rng(common::derive_seed(params.query_seed, t));
        for (std::size_t q = 0; q < params.queries_per_client; ++q) {
          // Mix: mostly membership (the hot production query), stats and
          // digest for the epoch-consistency evidence, rare full-set.
          const std::uint64_t draw = rng.next_below(100);
          std::string line;
          enum { member, stats, digest, set } op;
          if (draw < 60) {
            op = member;
            line = "query member " + std::to_string(rng.next_below(node_span));
          } else if (draw < 80) {
            op = stats;
            line = "query stats";
          } else if (draw < 95) {
            op = digest;
            line = "query digest";
          } else {
            op = set;
            line = "query set";
          }
          query_sample sample;
          sample.begin = clock_type::now();
          const response resp = client.exchange(line);
          sample.end = clock_type::now();
          sample.ms = ms_between(sample.begin, sample.end);
          expect_ok(resp, "query");
          mine.samples.push_back(sample);
          switch (op) {
            case member: ++mine.member_ops; break;
            case stats: ++mine.stats_ops; break;
            case digest: ++mine.digest_ops; break;
            case set: ++mine.set_ops; break;
          }
          if (resp.has("digest"))
            mine.observed.push_back(
                {parse_u64(resp.get("epoch")), resp.get("digest")});
        }
      } catch (...) {
        mine.error = std::current_exception();
      }
    });
  }

  mutator.join();
  for (std::thread& t : clients) t.join();
  if (mutator_error) std::rethrow_exception(mutator_error);
  for (const client_result& r : results)
    if (r.error) std::rethrow_exception(r.error);

  // -- authoritative final state (all traffic has drained) ---------------
  {
    line_client client(params.socket_path);
    const response resp = client.exchange("query digest");
    expect_ok(resp, "final query digest");
    report.final_epoch = parse_u64(resp.get("epoch"));
    report.final_size = static_cast<std::size_t>(parse_u64(resp.get("size")));
    report.final_digest = resp.get("digest");
    observed.push_back({report.final_epoch, report.final_digest});
    if (params.shutdown_server)
      expect_ok(client.exchange("shutdown"), "shutdown");
  }

  // -- merge and classify -------------------------------------------------
  report.mutations_sent = admitted.size();
  report.admitted = std::move(admitted);
  report.commits = commit_windows.size();
  report.commit = summarize(commit_times);

  std::vector<double> all_times, repair_times;
  for (client_result& r : results) {
    report.member_ops += r.member_ops;
    report.stats_ops += r.stats_ops;
    report.digest_ops += r.digest_ops;
    report.set_ops += r.set_ops;
    for (const query_sample& s : r.samples) {
      all_times.push_back(s.ms);
      // "During repair" = the round-trip overlapped some commit window
      // (the interval the admission mutex is held for commit -> repair
      // -> publish).
      const bool overlaps = std::any_of(
          commit_windows.begin(), commit_windows.end(), [&](const window& w) {
            return s.begin < w.end && w.begin < s.end;
          });
      if (overlaps) repair_times.push_back(s.ms);
    }
    for (epoch_digest& e : r.observed) observed.push_back(std::move(e));
  }
  report.query = summarize(std::move(all_times));
  report.query_during_repair = summarize(std::move(repair_times));

  std::sort(observed.begin(), observed.end(),
            [](const epoch_digest& a, const epoch_digest& b) {
              return a.epoch != b.epoch ? a.epoch < b.epoch
                                        : a.digest < b.digest;
            });
  for (std::size_t i = 1; i < observed.size(); ++i)
    if (observed[i].epoch == observed[i - 1].epoch &&
        observed[i].digest != observed[i - 1].digest)
      ++report.epoch_digest_conflicts;

  return report;
}

std::string to_json(const load_document& doc) {
  using api::json_escape;
  using api::json_number;
  const load_report& r = doc.report;
  const auto latency_block = [](const latency_summary& l) {
    std::string out = "{ \"count\": " + std::to_string(l.count);
    out += ", \"p50_ms\": " + json_number(l.p50_ms);
    out += ", \"p99_ms\": " + json_number(l.p99_ms);
    out += " }";
    return out;
  };
  std::string out;
  out += "{\n";
  out += "  \"schema\": \"domset-serve/1\",\n";
  out += "  \"alg\": \"" + json_escape(doc.alg) + "\",\n";
  out += "  \"graph\": {\n";
  out += "    \"family\": \"" + json_escape(doc.graph_family) + "\",\n";
  out += "    \"nodes\": " + std::to_string(doc.nodes) + ",\n";
  out += "    \"edges\": " + std::to_string(doc.edges) + ",\n";
  out += "    \"max_degree\": " + std::to_string(doc.max_degree) + "\n";
  out += "  },\n";
  out += "  \"exec\": {\n";
  out += "    \"seed\": " + std::to_string(doc.exec.seed) + ",\n";
  out += "    \"threads\": " + std::to_string(doc.exec.threads) + "\n";
  out += "  },\n";
  out += "  \"params\": {";
  bool first = true;
  for (const auto& [key, value] : doc.params.entries()) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + json_escape(key) + "\": \"" + json_escape(value) + "\"";
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"serve\": {\n";
  out += "    \"socket\": \"" + json_escape(doc.socket) + "\",\n";
  out += "    \"bias\": \"" + json_escape(doc.bias) + "\",\n";
  out += "    \"clients\": " + std::to_string(doc.clients) + ",\n";
  out += "    \"queries_per_client\": " +
         std::to_string(doc.queries_per_client) + ",\n";
  out += "    \"mutations\": " + std::to_string(doc.mutations) + ",\n";
  out += "    \"batch\": " + std::to_string(doc.batch) + "\n";
  out += "  },\n";
  out += "  \"ops\": {\n";
  out += "    \"mutate\": " + std::to_string(r.mutations_sent) + ",\n";
  out += "    \"commit\": " + std::to_string(r.commits) + ",\n";
  out += "    \"member\": " + std::to_string(r.member_ops) + ",\n";
  out += "    \"stats\": " + std::to_string(r.stats_ops) + ",\n";
  out += "    \"digest\": " + std::to_string(r.digest_ops) + ",\n";
  out += "    \"set\": " + std::to_string(r.set_ops) + "\n";
  out += "  },\n";
  out += "  \"latency\": {\n";
  out += "    \"query\": " + latency_block(r.query) + ",\n";
  out += "    \"query_during_repair\": " +
         latency_block(r.query_during_repair) + ",\n";
  out += "    \"commit\": " + latency_block(r.commit) + "\n";
  out += "  },\n";
  out += "  \"final\": {\n";
  out += "    \"epoch\": " + std::to_string(r.final_epoch) + ",\n";
  out += "    \"size\": " + std::to_string(r.final_size) + ",\n";
  out += "    \"digest\": \"" + json_escape(r.final_digest) + "\"\n";
  out += "  },\n";
  out += "  \"epoch_digest_conflicts\": " +
         std::to_string(r.epoch_digest_conflicts) + "\n";
  out += "}\n";
  return out;
}

}  // namespace domset::serve
