// End-to-end contract of `domset serve` + `domset load`: the in-process
// request surface answers every query from a consistently pinned epoch,
// errors carry the connection's request line, a socket demo with 8
// concurrent clients plus a mutator observes zero epoch/digest
// conflicts, and the served final digest is bit-identical to an offline
// `domset replay` of the admitted stream across {1, 2, 4, 8} threads.
// The socket itself must survive hostile or careless clients: over-long
// lines, pipelined floods, connection churn, a path that is not a socket.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <time.h>
#include <unistd.h>

#include <csignal>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "dyn/mutation.hpp"
#include "dyn/replay.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "serve/load.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "verify/verify.hpp"

namespace domset {
namespace {

using serve::response;
using serve::server;
using serve::server_params;

graph::graph test_graph(std::size_t n, std::uint64_t seed) {
  common::rng gen(seed);
  return graph::barabasi_albert(n, 3, gen);
}

response handle(server& srv, const std::string& line, std::size_t line_no) {
  bool want_shutdown = false;
  return serve::parse_response(srv.handle_line(line, line_no, &want_shutdown));
}

std::string socket_path_for(const std::string& name) {
  return testing::TempDir() + "domset_serve_" + name + "_" +
         std::to_string(::getpid()) + ".sock";
}

sockaddr_un address_of(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof addr.sun_path - 1);
  return addr;
}

/// A line-protocol client.  Reads time out after 10 s, so a server that
/// never answers fails the test instead of hanging it.
class line_client {
 public:
  explicit line_client(const std::string& path)
      : fd_(::socket(AF_UNIX, SOCK_STREAM, 0)) {
    const sockaddr_un addr = address_of(path);
    const timeval timeout{10, 0};
    if (fd_ >= 0 &&
        (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof addr) != 0 ||
         ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                      sizeof timeout) != 0)) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~line_client() {
    if (fd_ >= 0) ::close(fd_);
  }
  line_client(const line_client&) = delete;
  line_client& operator=(const line_client&) = delete;

  [[nodiscard]] bool connected() const { return fd_ >= 0; }

  /// Sends all of `text`; false once the server has hung up.
  bool send(std::string_view text) {
    while (!text.empty()) {
      const ssize_t n = ::send(fd_, text.data(), text.size(), MSG_NOSIGNAL);
      if (n <= 0) return false;
      text.remove_prefix(static_cast<std::size_t>(n));
    }
    return true;
  }

  /// The next reply line; empty on hang-up or timeout.
  std::string read_line() {
    std::size_t eol;
    char chunk[4096];
    while ((eol = pending_.find('\n')) == std::string::npos) {
      const ssize_t n = ::read(fd_, chunk, sizeof chunk);
      if (n <= 0) return "";
      pending_.append(chunk, static_cast<std::size_t>(n));
    }
    std::string line = pending_.substr(0, eol);
    pending_.erase(0, eol + 1);
    return line;
  }

  std::string exchange(const std::string& request) {
    return send(request + "\n") ? read_line() : "";
  }

 private:
  int fd_;
  std::string pending_;
};

/// Waits (5 s at most) until `path` exists, i.e. `run()` has bound it.
void wait_for_socket(const std::string& path) {
  for (int i = 0; i < 500 && ::access(path.c_str(), F_OK) != 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
}

/// `server::run()` on its own thread, accepting by the end of the
/// constructor; stopped and joined on scope exit.
struct running_server {
  running_server(server& s, const std::string& path)
      : srv(s), thread([&s] { s.run(); }) {
    for (int i = 0; i < 500 && !line_client(path).connected(); ++i)
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ~running_server() {
    srv.request_stop();
    thread.join();
  }
  running_server(const running_server&) = delete;
  running_server& operator=(const running_server&) = delete;
  server& srv;
  std::thread thread;
};

server_params on_socket(const std::string& path) {
  server_params sp;
  sp.socket_path = path;
  return sp;
}

/// This process's virtual size in KiB (VmSize in /proc/self/status).
std::size_t vm_size_kib() {
  std::ifstream status("/proc/self/status");
  std::string key;
  std::size_t kib = 0;
  while (status >> key && key != "VmSize:") {
  }
  status >> kib;
  return kib;
}

TEST(ServeServer, InProcessRequestSurface) {
  server srv(test_graph(150, 3), server_params{});

  const response ping = handle(srv, "ping", 1);
  ASSERT_TRUE(ping.ok) << ping.error;
  EXPECT_EQ(ping.get("epoch"), "0");

  const response stats = handle(srv, "query stats", 2);
  ASSERT_TRUE(stats.ok);
  EXPECT_EQ(stats.get("nodes"), "150");
  EXPECT_EQ(stats.get("digest").size(), 16u);

  // Mutations stay pending (invisible to queries) until commit.  The
  // fresh node + edge cannot collide with anything the generator built.
  const response mutate = handle(srv, "mutate addnode=150+add=0-150", 3);
  ASSERT_TRUE(mutate.ok) << mutate.error;
  EXPECT_EQ(mutate.get("admitted"), "2");
  EXPECT_EQ(mutate.get("epoch"), "0");
  EXPECT_EQ(handle(srv, "query stats", 4).get("digest"), stats.get("digest"));

  const response commit = handle(srv, "commit", 5);
  ASSERT_TRUE(commit.ok) << commit.error;
  EXPECT_EQ(commit.get("epoch"), "1");
  EXPECT_EQ(commit.get("digest").size(), 16u);
  // An empty commit is a no-op, not a new epoch.
  EXPECT_EQ(handle(srv, "commit", 6).get("epoch"), "1");

  // The published epoch answers member/set/digest consistently.
  const response digest = handle(srv, "query digest", 7);
  EXPECT_EQ(digest.get("epoch"), "1");
  EXPECT_EQ(digest.get("digest"), commit.get("digest"));
  const response member = handle(srv, "query member 0", 8);
  ASSERT_TRUE(member.ok);
  const response set = handle(srv, "query set", 9);
  ASSERT_TRUE(set.ok);
  const std::string members = "," + set.get("members") + ",";
  EXPECT_EQ(members.find(",0,") != std::string::npos,
            member.get("member") == "1");

  const serve::server_stats counters = srv.stats();
  EXPECT_EQ(counters.mutations_admitted, 2u);
  EXPECT_EQ(counters.commits, 1u);
  EXPECT_EQ(counters.epochs_published, 2u);
  srv.request_stop();
}

TEST(ServeServer, ErrorsNameTheRequestLineAndKeepServing) {
  server srv(test_graph(80, 4), server_params{});

  const response bad_parse = handle(srv, "query member x", 3);
  ASSERT_FALSE(bad_parse.ok);
  EXPECT_EQ(bad_parse.error.rfind("request line 3: ", 0), 0u)
      << bad_parse.error;

  const response out_of_range = handle(srv, "query member 99999", 4);
  ASSERT_FALSE(out_of_range.ok);
  EXPECT_EQ(out_of_range.error.rfind("request line 4: ", 0), 0u);

  // Honest partial admission: the atoms before the bad one stay pending.
  const response partial = handle(srv, "mutate addnode=80+add=0-99999", 5);
  ASSERT_FALSE(partial.ok);
  EXPECT_NE(partial.error.find("applied 1 of 2"), std::string::npos)
      << partial.error;

  // The connection (and the server) keeps serving after errors.
  EXPECT_TRUE(handle(srv, "ping", 6).ok);
  EXPECT_EQ(handle(srv, "commit", 7).get("epoch"), "1");
  srv.request_stop();
}

TEST(ServeServer, ConcurrentHandlersSeeConsistentPinnedEpochs) {
  // The in-process analogue of the socket demo: handler threads query
  // while commits run; any response pairing an epoch with a foreign
  // digest (a torn pin) fails the test.
  server srv(test_graph(200, 6), server_params{});
  std::vector<std::thread> readers;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> conflicts{0};
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      std::unordered_map<std::uint64_t, std::string> seen;
      std::size_t line = 0;
      while (!stop.load()) {
        bool unused = false;
        const response resp = serve::parse_response(
            srv.handle_line("query digest", ++line, &unused));
        if (resp.ok) {
          const auto [it, fresh] = seen.try_emplace(
              std::stoull(resp.get("epoch")), resp.get("digest"));
          if (!fresh && it->second != resp.get("digest"))
            conflicts.fetch_add(1);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }

  dyn::workload_params wp;
  wp.seed = 6;
  dyn::workload gen(wp);
  graph::graph mirror_base = test_graph(200, 6);
  dyn::dynamic_graph mirror(mirror_base);
  std::size_t line = 100;
  for (int epoch = 1; epoch <= 6; ++epoch) {
    for (int i = 0; i < 8; ++i) {
      const dyn::mutation m = gen.next(mirror, mirror.rebase_point());
      mirror.apply(m);
      bool unused = false;
      const response resp = serve::parse_response(
          srv.handle_line("mutate " + dyn::to_string(m), ++line, &unused));
      ASSERT_TRUE(resp.ok) << resp.error;
    }
    (void)mirror.commit();
    bool unused = false;
    const response resp = serve::parse_response(
        srv.handle_line("commit", ++line, &unused));
    ASSERT_TRUE(resp.ok) << resp.error;
    EXPECT_EQ(resp.get("epoch"), std::to_string(epoch));
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(conflicts.load(), 0u);
  srv.request_stop();
}

void ignore_alarm(int) {}

/// Thread ids of this process (Linux: one /proc/self/task entry each).
std::set<pid_t> thread_ids() {
  std::set<pid_t> ids;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task"))
    ids.insert(static_cast<pid_t>(std::stol(entry.path().filename())));
  return ids;
}

TEST(ServeServer, PingsSurviveSignalInterruptedReads) {
  // A SIGALRM interval timer aimed at the connection thread, with a
  // handler installed without SA_RESTART, makes its blocking read fail
  // with EINTR; the connection must retry instead of dropping the client.
  const std::string socket_path = socket_path_for("eintr");
  struct sigaction action {};
  action.sa_handler = ignore_alarm;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;
  struct sigaction previous_action {};
  ASSERT_EQ(::sigaction(SIGALRM, &action, &previous_action), 0);

  server srv(test_graph(100, 5), on_socket(socket_path));
  std::thread server_thread([&] { srv.run(); });
  // Not running_server: its probe connections would add threads.
  wait_for_socket(socket_path);

  const std::set<pid_t> before = thread_ids();
  auto client = std::make_unique<line_client>(socket_path);
  const auto ping = [&client] {
    return client->exchange("ping") == "ok epoch=0";
  };
  // The first reply proves the connection thread exists: it is the one
  // thread the connect added.
  const bool first_reply = client->connected() && ping();
  std::vector<pid_t> added;
  for (const pid_t id : thread_ids())
    if (!before.contains(id)) added.push_back(id);
  EXPECT_EQ(added.size(), 1u);

  // No ASSERT from here on: the server thread must be joined on every
  // path.
  sigevent event{};
  event.sigev_notify = SIGEV_THREAD_ID;
  event.sigev_signo = SIGALRM;
  event._sigev_un._tid = added.empty() ? 0 : added.front();
  timer_t timer{};
  const bool armed = added.size() == 1 &&
                     ::timer_create(CLOCK_MONOTONIC, &event, &timer) == 0;
  const itimerspec every_200us{{0, 200'000}, {0, 200'000}};
  if (armed) ::timer_settime(timer, 0, &every_200us, nullptr);
  EXPECT_TRUE(armed);

  constexpr int kPings = 200;
  int replies = first_reply ? 1 : 0;
  for (int i = 1; first_reply && i < kPings; ++i) {
    if (!ping()) break;
    ++replies;
    // Idle so the connection thread sits in read() when alarms land.
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  if (armed) ::timer_delete(timer);
  client.reset();
  srv.request_stop();
  server_thread.join();
  // The connection thread is joined, so no alarm can still be pending.
  ::sigaction(SIGALRM, &previous_action, nullptr);

  EXPECT_EQ(replies, kPings);
}

TEST(ServeServer, SocketLoadAgreesWithOfflineReplayAcrossExecKnobs) {
  // The acceptance demo: a real AF_UNIX server, 8 concurrent query
  // clients plus the mutator, every response from a consistently pinned
  // epoch, and the served final digest reproduced by an offline replay
  // of the admitted stream at every thread count.
  const std::string socket_path = socket_path_for("load");
  const std::uint64_t seed = 7;
  const std::size_t n = 200;

  server_params sp = on_socket(socket_path);
  sp.inc.exec.seed = seed;
  server srv(test_graph(n, seed), sp);
  std::thread server_thread([&] { srv.run(); });

  serve::load_params lp;
  lp.socket_path = socket_path;
  lp.clients = 8;
  lp.queries_per_client = 50;
  lp.mutations = 96;
  lp.batch = 24;
  lp.gen.seed = seed;
  lp.query_seed = seed;
  lp.shutdown_server = true;

  // The server binds the socket on its own thread; wait for it.
  wait_for_socket(socket_path);

  const serve::load_report report = run_load(test_graph(n, seed), lp);
  server_thread.join();

  EXPECT_EQ(report.clients, 8u);
  EXPECT_EQ(report.query.count, 8u * 50u);
  EXPECT_EQ(report.mutations_sent, 96u);
  EXPECT_EQ(report.commits, 4u);
  EXPECT_EQ(report.final_epoch, 4u);
  EXPECT_EQ(report.final_digest.size(), 16u);
  // Every epoch is immutable once published: no response may pair an
  // epoch with a digest another response contradicts.
  EXPECT_EQ(report.epoch_digest_conflicts, 0u);

  // Offline agreement: replaying the admitted stream with the same batch
  // reproduces the served digest bit-for-bit at every thread count (the
  // engine's determinism contract).
  std::vector<dyn::mutation> log;
  for (const std::string& atom : report.admitted)
    log.push_back(dyn::parse_mutation(atom));
  ASSERT_EQ(log.size(), 96u);
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    dyn::replay_spec spec;
    spec.inc.exec.seed = seed;
    spec.inc.exec.threads = threads;
    spec.batch = lp.batch;
    spec.log = log;
    spec.mutations_label = "file:admitted";
    const dyn::replay_result offline =
        dyn::run_replay(test_graph(n, seed), "ba", spec);
    EXPECT_EQ(offline.summary.final_digest, report.final_digest)
        << threads << " threads";
    EXPECT_EQ(offline.summary.final_size, report.final_size);
  }
}

TEST(ServeServer, ShutdownCommitsThePendingBatch) {
  // A batch admitted but never committed is sealed when the server stops,
  // exactly as an offline replay of that batch would seal it.
  const std::string path = socket_path_for("drain");
  const std::string atoms = "addnode=120+add=0-120+add=5-120";
  server_params sp = on_socket(path);
  sp.inc.exec.seed = 9;
  server srv(test_graph(120, 9), sp);
  {
    running_server running(srv, path);
    line_client client(path);
    EXPECT_EQ(client.exchange("mutate " + atoms),
              "ok admitted=3 pending=3 epoch=0");
    EXPECT_EQ(client.exchange("shutdown"), "ok shutdown=1");
  }

  const serve::pinned_epoch epoch = srv.pin();
  EXPECT_EQ(epoch->epoch, 1u);
  EXPECT_EQ(srv.stats().commits, 1u);
  dyn::replay_spec spec;
  spec.inc = sp.inc;
  spec.batch = 3;
  spec.log = dyn::parse_mutation_list(atoms);
  const dyn::replay_result offline =
      dyn::run_replay(test_graph(120, 9), "ba", spec);
  EXPECT_EQ(offline.summary.epochs, 1u);
  EXPECT_EQ(std::stoull(offline.summary.final_digest, nullptr, 16),
            epoch->digest);
  EXPECT_EQ(offline.summary.final_size, epoch->size);
}

TEST(ServeServer, SocketPathIsReplacedOnlyWhenItIsAStaleSocket) {
  const std::string path = socket_path_for("path");
  server srv(test_graph(60, 10), on_socket(path));
  std::ofstream(path) << "keep me\n";
  {
    std::atomic<bool> done{false};
    std::string error;
    std::thread runner([&] {
      try {
        srv.run();
      } catch (const std::runtime_error& err) {
        error = err.what();
      }
      done.store(true);
    });
    for (int i = 0; !done.load(); ++i) {
      if (i >= 100) srv.request_stop();  // it took the path over: stop it
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    runner.join();
    EXPECT_NE(error.find(path), std::string::npos) << error;
  }
  std::stringstream content;
  content << std::ifstream(path).rdbuf();
  EXPECT_EQ(content.str(), "keep me\n") << "the file was replaced";

  // What a killed server leaves: a socket bound and never unlinked.
  std::filesystem::remove(path);
  const int stale = ::socket(AF_UNIX, SOCK_STREAM, 0);
  const sockaddr_un addr = address_of(path);
  ASSERT_EQ(::bind(stale, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof addr),
            0);
  ::close(stale);
  server second(test_graph(60, 10), on_socket(path));
  running_server running(second, path);
  EXPECT_EQ(line_client(path).exchange("ping"), "ok epoch=0");
}

TEST(ServeServer, ClosedConnectionThreadsAreReaped) {
  // A closed connection must not keep its thread's stack mapped until
  // the server stops.
  const std::string path = socket_path_for("reap");
  server srv(test_graph(60, 12), on_socket(path));
  running_server running(srv, path);
  // Eight connections live at once first: the allocator sets up its
  // per-thread arenas (64 MiB of address space each) and its stack cache
  // for more live connection threads than the sequential cycles below
  // ever have, so the measurement sees only what closed connections keep.
  {
    std::vector<std::unique_ptr<line_client>> warm;
    for (int i = 0; i < 8; ++i)
      warm.push_back(std::make_unique<line_client>(path));
    for (const auto& client : warm)
      EXPECT_EQ(client->exchange("ping"), "ok epoch=0");
  }

  const std::size_t before = vm_size_kib();
  int replies = 0;
  for (int i = 0; i < 300; ++i)
    replies += line_client(path).exchange("ping") == "ok epoch=0";
  const std::size_t after = vm_size_kib();
  EXPECT_EQ(replies, 300);
  EXPECT_LT(after, before + 100 * 1024)
      << "VmSize grew from " << before << " KiB to " << after << " KiB";
}

TEST(ServeServer, RequestLinesAreCappedAndPipelinedLinesAllAnswered) {
  const std::string path = socket_path_for("lines");
  const std::size_t n = 60;
  server srv(test_graph(n, 13), on_socket(path));
  running_server running(srv, path);

  // 2 MiB without a newline is refused; the send fails once the server
  // hangs up, and another client is served throughout.
  line_client hog(path);
  line_client other(path);
  std::thread flood([&] { (void)hog.send(std::string(2u << 20, 'x')); });
  int pings = 0;
  for (int i = 0; i < 50; ++i) pings += other.exchange("ping") == "ok epoch=0";
  const std::string refusal = hog.read_line();
  flood.join();
  EXPECT_EQ(pings, 50);
  EXPECT_EQ(refusal.rfind("err request line 1: ", 0), 0u) << refusal;
  EXPECT_EQ(hog.read_line(), "") << "the connection stays open";

  // 10,000 requests in one write: pings, with a member query on every
  // tenth line so the order of the replies is checkable.
  std::string requests;
  for (std::size_t i = 0; i < 10'000; ++i)
    requests += i % 10 == 9
                    ? "query member " + std::to_string(i / 10 % n) + "\n"
                    : std::string("ping\n");
  std::thread writer([&] { EXPECT_TRUE(other.send(requests)); });
  std::size_t in_order = 0;
  for (; in_order < 10'000; ++in_order) {
    const std::string reply = other.read_line();
    const std::size_t i = in_order;
    if (i % 10 == 9 ? reply.rfind("ok epoch=0 node=" +
                                      std::to_string(i / 10 % n) + " member=",
                                  0) != 0
                    : reply != "ok epoch=0") {
      ADD_FAILURE() << "reply " << i << ": " << reply;
      break;
    }
  }
  writer.join();
  EXPECT_EQ(in_order, 10'000u);
}

}  // namespace
}  // namespace domset
