// End-to-end contract of `domset serve` + `domset load`: the in-process
// request surface answers every query from a consistently pinned epoch,
// errors carry the connection's request line, a socket demo with 8
// concurrent clients plus a mutator observes zero epoch/digest
// conflicts, and the served final digest is bit-identical to an offline
// `domset replay` of the admitted stream across {1, 2, 4, 8} threads.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <time.h>
#include <unistd.h>

#include <csignal>
#include <cstring>
#include <filesystem>
#include <set>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
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
  const std::string socket_path =
      testing::TempDir() + "domset_serve_eintr_" +
      std::to_string(::getpid()) + ".sock";
  struct sigaction action {};
  action.sa_handler = ignore_alarm;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;
  struct sigaction previous_action {};
  ASSERT_EQ(::sigaction(SIGALRM, &action, &previous_action), 0);

  server_params sp;
  sp.socket_path = socket_path;
  server srv(test_graph(100, 5), sp);
  std::thread server_thread([&] { srv.run(); });
  for (int i = 0; i < 500 && ::access(socket_path.c_str(), F_OK) != 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));

  const std::set<pid_t> before = thread_ids();
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, socket_path.c_str(), sizeof addr.sun_path - 1);
  const bool connected =
      fd >= 0 && ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                           sizeof addr) == 0;

  std::string pending;
  const auto ping = [&] {
    if (::send(fd, "ping\n", 5, MSG_NOSIGNAL) != 5) return false;
    std::size_t eol;
    char chunk[256];
    while ((eol = pending.find('\n')) == std::string::npos) {
      const ssize_t n = ::read(fd, chunk, sizeof chunk);
      if (n <= 0) return false;
      pending.append(chunk, static_cast<std::size_t>(n));
    }
    const bool ok = serve::parse_response(pending.substr(0, eol)).ok;
    pending.erase(0, eol + 1);
    return ok;
  };
  // The first reply proves the connection thread exists: it is the one
  // thread the connect added.
  const bool first_reply = connected && ping();
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
  if (fd >= 0) ::close(fd);
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
  const std::string socket_path =
      testing::TempDir() + "domset_serve_test_" +
      std::to_string(::getpid()) + ".sock";
  const std::uint64_t seed = 7;
  const std::size_t n = 200;

  server_params sp;
  sp.socket_path = socket_path;
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
  for (int i = 0; i < 500 && ::access(socket_path.c_str(), F_OK) != 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));

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

}  // namespace
}  // namespace domset
