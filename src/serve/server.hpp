/// \file server.hpp
/// \brief The `domset serve` resident server: a dyn::incremental_engine
/// plus lock-free query answering over reader epoch pinning.
//
// Threading model (the reader/writer contract, see docs/serve.md):
//
//   * Queries never take a lock.  Every query pins the current epoch in
//     the serve::epoch_store (an immutable {shape, solution, digest}
//     published per commit) and answers from it -- so query latency is
//     independent of any commit in flight, including a full-re-solve
//     fallback.
//
//   * Mutations are *admitted* under the admission mutex into the
//     engine's pending batch (snapshot isolation hides them from the
//     committed surface).  A `commit` request seals the batch on its own
//     connection thread, holding the same mutex for the whole window:
//     commit -> incremental repair -> snapshot -> verify dominating ->
//     publish.  Mutators and other commits queue behind it (that is the
//     admission-batching policy), because dyn::dynamic_graph::snapshot()
//     rebases the overlay -- a concurrent apply() would race the rebase.
//     The same mutex is the serialization epoch_store::publish needs, so
//     the server runs no thread beyond the accept loop and one per
//     connection.
//
//   * Commit triggers: an explicit `commit` request (epoch boundaries
//     land exactly where the client puts them, which is what makes the
//     served digest reproducible by an offline `domset replay` of the
//     same stream), and the end of `run()`, which seals any pending batch
//     the same way.
//
//   * Every published epoch is verified dominating against a snapshot of
//     its graph before readers can see it -- validity is a contract, as
//     in `domset replay`.  The snapshot serves only that check; the epoch
//     keeps the graph's shape, not its CSR.
//
// The wire protocol is serve/protocol.hpp over an AF_UNIX stream
// socket, one thread per connection, joined once the connection closes
// (at the next accept).  A request line longer than `max_request_line`
// gets an `err` reply and the connection is closed.  `handle_line()` is
// public so tests (and in-process embedding) can drive the full request
// surface without a socket.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "dyn/incremental.hpp"
#include "graph/graph.hpp"
#include "serve/epoch_store.hpp"

namespace domset::serve {

/// Longest request line a connection may send (newline excluded), far
/// above the 8-32-atom `mutate` batches clients send.
inline constexpr std::size_t max_request_line = std::size_t{1} << 20;

struct server_params {
  /// AF_UNIX socket path (`run()` binds it; unused by in-process use).
  std::string socket_path;
  dyn::incremental_params inc;
};

struct server_stats {
  std::uint64_t connections = 0;
  std::uint64_t requests = 0;
  std::uint64_t mutations_admitted = 0;
  std::uint64_t commits = 0;
  std::uint64_t epochs_published = 0;
  std::uint64_t epochs_reclaimed = 0;
};

class server {
 public:
  /// Solves `base` from scratch (epoch 0) and publishes it.  Throws what
  /// dyn::incremental_engine throws.
  server(graph::graph base, server_params params);
  ~server();
  server(const server&) = delete;
  server& operator=(const server&) = delete;

  /// Binds the socket, accepts connections, and blocks until a
  /// `shutdown` request (or `request_stop()`).  Commits any pending batch
  /// before returning.  A stale socket at the path is replaced; anything
  /// else there is left alone.  Throws std::runtime_error on socket
  /// errors and when the path exists but is not a socket.
  void run();

  /// Stops `run()` from another thread: unblocks the accept loop and
  /// every connection.
  void request_stop();

  /// Processes one request line and returns the response line (no
  /// trailing newline).  `line_no` is the connection's 1-based request
  /// counter, echoed in errors.  Sets `*want_shutdown` (if non-null)
  /// when the request asks for server shutdown -- the caller replies
  /// first, then calls request_stop().  Thread-safe.
  [[nodiscard]] std::string handle_line(std::string_view line,
                                        std::size_t line_no,
                                        bool* want_shutdown = nullptr);

  /// Pins the current epoch (lock-free; the in-process query surface).
  [[nodiscard]] pinned_epoch pin() { return store_.pin(); }

  [[nodiscard]] server_stats stats() const;

 private:
  /// Seals the pending batch and publishes the new epoch; aborts the
  /// process if the engine fails.  Requires the admission mutex held.
  void commit_locked();
  /// Snapshot + verify + publish the engine's current state, whose
  /// solution has `size` members and digest `digest`.  Requires the
  /// admission mutex held (snapshot() rebases the overlay).
  void publish_locked(std::size_t size, std::uint64_t digest);
  /// Mutations admitted since the last commit.  Requires the admission
  /// mutex held.
  [[nodiscard]] std::size_t pending() const {
    return engine_.network().pending_mutations();
  }
  void connection_loop(int fd);
  /// Joins the threads of closed connections.
  void reap_closed_connections();

  server_params params_;
  dyn::incremental_engine engine_;
  epoch_store store_;

  std::mutex mu_;  ///< admission: pending surface + the commit window
  bool stop_ = false;

  int listen_fd_ = -1;
  struct connection {
    int fd;  ///< -1 once the connection has closed
    std::thread thread;
  };
  std::mutex conn_mu_;
  std::vector<connection> conns_;

  std::atomic<std::uint64_t> connections_{0};
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> mutations_admitted_{0};
  std::atomic<std::uint64_t> commits_{0};
};

}  // namespace domset::serve
