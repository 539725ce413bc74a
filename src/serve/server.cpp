#include "serve/server.hpp"

#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "serve/protocol.hpp"
#include "verify/verify.hpp"

namespace domset::serve {

namespace {

std::string hex64(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, value);
  return buf;
}

/// Sends all of `text`, retrying signal interruptions; false when the
/// send failed, so the caller ends the connection instead of serving a
/// stream that lost part of a reply.
bool write_all(int fd, std::string_view text) {
  // MSG_NOSIGNAL: a client that hung up mid-reply must not SIGPIPE the
  // whole server.
  while (!text.empty()) {
    const ssize_t n = ::send(fd, text.data(), text.size(), MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    text.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

}  // namespace

server::server(graph::graph base, server_params params)
    : params_(std::move(params)), engine_(std::move(base), params_.inc) {
  // Epoch 0: no contention yet, the mutex is free.
  publish_locked(engine_.size(), engine_.digest());
}

server::~server() {
  request_stop();
  for (connection& c : conns_)
    if (c.thread.joinable()) c.thread.join();
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

void server::publish_locked(std::size_t size, std::uint64_t digest) {
  const graph::graph snapshot = engine_.snapshot();
  // The contract behind "every query is answered from a verified epoch":
  // nothing unverified is ever published.
  if (!verify::is_dominating_set(snapshot, engine_.solution()))
    throw std::runtime_error(
        "serve: epoch " + std::to_string(engine_.epoch()) +
        " failed dominating-set verification before publish");
  epoch_state state;
  state.epoch = engine_.epoch();
  state.nodes = snapshot.node_count();
  state.edges = snapshot.edge_count();
  state.solution = engine_.solution();
  state.size = size;
  state.digest = digest;
  store_.publish(std::move(state));
}

void server::commit_locked() {
  try {
    const dyn::epoch_report report = engine_.commit_and_repair();
    publish_locked(report.size, report.digest);
  } catch (const std::exception& err) {
    // A failed commit/verify is an engine-integrity bug; die loudly
    // rather than serve unverified state.
    std::fprintf(stderr, "domset serve: fatal: %s\n", err.what());
    std::abort();
  }
  commits_.fetch_add(1, std::memory_order_relaxed);
}

std::string server::handle_line(std::string_view line, std::size_t line_no,
                                bool* want_shutdown) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  request req;
  try {
    req = parse_request_line(line, line_no);
  } catch (const std::invalid_argument& err) {
    return format_error(line_no, err.what());
  }

  switch (req.kind) {
    case request_kind::mutate: {
      std::unique_lock<std::mutex> lock(mu_);
      std::size_t applied = 0;
      std::string failure;
      try {
        for (const dyn::mutation& m : req.batch) {
          engine_.network().apply(m);
          ++applied;
        }
      } catch (const std::invalid_argument& err) {
        failure = err.what();
      }
      mutations_admitted_.fetch_add(applied, std::memory_order_relaxed);
      if (!failure.empty()) {
        // Honest partial admission: atoms before the bad one stay
        // pending (the batch is a stream, not a transaction).
        return format_error(line_no,
                            "applied " + std::to_string(applied) + " of " +
                                std::to_string(req.batch.size()) + ": " +
                                failure);
      }
      return format_ok({{"admitted", std::to_string(applied)},
                        {"pending", std::to_string(pending())},
                        {"epoch", std::to_string(engine_.epoch())}});
    }
    case request_kind::commit: {
      pinned_epoch epoch;
      {
        const std::lock_guard<std::mutex> lock(mu_);
        if (pending() > 0) commit_locked();
        epoch = store_.pin();  // the epoch this commit (or the last) published
      }
      return format_ok({{"epoch", std::to_string(epoch->epoch)},
                        {"size", std::to_string(epoch->size)},
                        {"digest", hex64(epoch->digest)}});
    }
    case request_kind::query_member: {
      const pinned_epoch epoch = store_.pin();
      if (req.node >= epoch->solution.size())
        return format_error(
            line_no, "node " + std::to_string(req.node) +
                         " out of range (epoch " +
                         std::to_string(epoch->epoch) + " has " +
                         std::to_string(epoch->solution.size()) + " nodes)");
      return format_ok(
          {{"epoch", std::to_string(epoch->epoch)},
           {"node", std::to_string(req.node)},
           {"member", epoch->solution[req.node] != 0 ? "1" : "0"}});
    }
    case request_kind::query_set: {
      const pinned_epoch epoch = store_.pin();
      std::string members;
      for (std::size_t v = 0; v < epoch->solution.size(); ++v) {
        if (epoch->solution[v] == 0) continue;
        if (!members.empty()) members += ',';
        members += std::to_string(v);
      }
      return format_ok({{"epoch", std::to_string(epoch->epoch)},
                        {"size", std::to_string(epoch->size)},
                        {"members", std::move(members)}});
    }
    case request_kind::query_stats: {
      const pinned_epoch epoch = store_.pin();
      return format_ok(
          {{"epoch", std::to_string(epoch->epoch)},
           {"nodes", std::to_string(epoch->nodes)},
           {"edges", std::to_string(epoch->edges)},
           {"size", std::to_string(epoch->size)},
           {"digest", hex64(epoch->digest)}});
    }
    case request_kind::query_digest: {
      const pinned_epoch epoch = store_.pin();
      return format_ok({{"epoch", std::to_string(epoch->epoch)},
                        {"size", std::to_string(epoch->size)},
                        {"digest", hex64(epoch->digest)}});
    }
    case request_kind::ping: {
      const pinned_epoch epoch = store_.pin();
      return format_ok({{"epoch", std::to_string(epoch->epoch)}});
    }
    case request_kind::shutdown: {
      if (want_shutdown != nullptr) *want_shutdown = true;
      return format_ok({{"shutdown", "1"}});
    }
  }
  return format_error(line_no, "unhandled request");
}

void server::request_stop() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  const std::lock_guard<std::mutex> lock(conn_mu_);
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  for (const connection& c : conns_)
    if (c.fd >= 0) ::shutdown(c.fd, SHUT_RDWR);
}

void server::connection_loop(int fd) {
  std::string buffer;       // at most one partial line between reads
  std::size_t scanned = 0;  // buffer[0, scanned) holds no newline
  char chunk[4096];
  std::size_t line_no = 0;
  bool want_shutdown = false;
  bool open = true;
  // Memory stays bounded by one line plus one read.
  const auto refuse_long_line = [&] {
    write_all(fd, format_error(++line_no,
                               "longer than " +
                                   std::to_string(max_request_line) +
                                   " bytes") +
                      '\n');
    return false;
  };
  while (open && !want_shutdown) {
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t begin = 0;
    std::size_t eol;
    while (open && !want_shutdown &&
           (eol = buffer.find('\n', scanned)) != std::string::npos) {
      if (eol - begin > max_request_line) {
        open = refuse_long_line();
        break;
      }
      std::string response =
          handle_line(std::string_view(buffer).substr(begin, eol - begin),
                      ++line_no, &want_shutdown);
      response += '\n';
      open = write_all(fd, response);
      begin = scanned = eol + 1;
    }
    // When a line ended in this read, the partial line left after it
    // arrived in this read too: the move is never longer than the read.
    buffer.erase(0, begin);
    scanned = buffer.size();
    if (open && scanned > max_request_line) open = refuse_long_line();
  }
  {
    // Mark closed before close(): request_stop must never shutdown() a
    // recycled descriptor.
    const std::lock_guard<std::mutex> lock(conn_mu_);
    for (connection& c : conns_)
      if (c.fd == fd) c.fd = -1;
  }
  ::close(fd);
  if (want_shutdown) request_stop();
}

void server::reap_closed_connections() {
  std::vector<std::thread> closed;
  {
    const std::lock_guard<std::mutex> lock(conn_mu_);
    std::erase_if(conns_, [&closed](connection& c) {
      if (c.fd >= 0) return false;
      closed.push_back(std::move(c.thread));
      return true;
    });
  }
  // Joined outside the lock: a closing thread may still be inside
  // request_stop(), which takes it.
  for (std::thread& t : closed) t.join();
}

void server::run() {
  if (params_.socket_path.empty())
    throw std::runtime_error("serve: socket path is empty");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (params_.socket_path.size() >= sizeof addr.sun_path)
    throw std::runtime_error("serve: socket path too long: " +
                             params_.socket_path);
  std::memcpy(addr.sun_path, params_.socket_path.c_str(),
              params_.socket_path.size() + 1);

  // Replace only what a previous server left behind.
  struct stat existing {};
  if (::lstat(params_.socket_path.c_str(), &existing) == 0) {
    if (!S_ISSOCK(existing.st_mode))
      throw std::runtime_error("serve: '" + params_.socket_path +
                               "' exists and is not a socket");
    ::unlink(params_.socket_path.c_str());
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0)
    throw std::runtime_error(std::string("serve: socket: ") +
                             std::strerror(errno));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    const int err = errno;
    ::close(fd);
    throw std::runtime_error("serve: bind '" + params_.socket_path +
                             "': " + std::strerror(err));
  }
  if (::listen(fd, 128) != 0) {
    const int err = errno;
    ::close(fd);
    throw std::runtime_error(std::string("serve: listen: ") +
                             std::strerror(err));
  }
  {
    const std::lock_guard<std::mutex> lock(conn_mu_);
    listen_fd_ = fd;
  }
  {
    const pinned_epoch epoch = store_.pin();
    std::printf("serving socket=%s epoch=%" PRIu64 " nodes=%zu size=%zu "
                "digest=%s\n",
                params_.socket_path.c_str(), epoch->epoch, epoch->nodes,
                epoch->size, hex64(epoch->digest).c_str());
    std::fflush(stdout);
  }

  for (;;) {
    const int conn = ::accept(fd, nullptr, nullptr);
    if (conn < 0) {
      const std::lock_guard<std::mutex> lock(mu_);
      if (stop_) break;
      if (errno == EINTR || errno == ECONNABORTED) continue;
      break;
    }
    connections_.fetch_add(1, std::memory_order_relaxed);
    reap_closed_connections();
    const std::lock_guard<std::mutex> lock(conn_mu_);
    conns_.push_back(
        {conn, std::thread(&server::connection_loop, this, conn)});
  }

  // Only this thread adds or removes entries, so the list can be walked
  // unlocked while the exiting threads mark theirs closed.
  for (connection& c : conns_) c.thread.join();
  {
    const std::lock_guard<std::mutex> lock(conn_mu_);
    conns_.clear();
  }
  {
    // Seal whatever the connections admitted but never committed.
    const std::lock_guard<std::mutex> lock(mu_);
    if (pending() > 0) commit_locked();
  }
  ::unlink(params_.socket_path.c_str());

  const pinned_epoch epoch = store_.pin();
  std::printf("final epoch=%" PRIu64 " size=%zu digest=%s\n", epoch->epoch,
              epoch->size, hex64(epoch->digest).c_str());
  std::fflush(stdout);
}

server_stats server::stats() const {
  server_stats out;
  out.connections = connections_.load(std::memory_order_relaxed);
  out.requests = requests_.load(std::memory_order_relaxed);
  out.mutations_admitted =
      mutations_admitted_.load(std::memory_order_relaxed);
  out.commits = commits_.load(std::memory_order_relaxed);
  out.epochs_published = store_.published();
  out.epochs_reclaimed = store_.reclaimed();
  return out;
}

}  // namespace domset::serve
