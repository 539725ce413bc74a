#include "serve/server.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
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
    : params_(std::move(params)),
      engine_(std::move(base), params_.inc),
      store_(params_.epoch_slots) {
  publish_locked();  // epoch 0: no contention yet, the mutex is free
  writer_ = std::thread(&server::writer_loop, this);
}

server::~server() {
  request_stop();
  for (std::thread& t : conn_threads_)
    if (t.joinable()) t.join();
  if (writer_.joinable()) writer_.join();
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

void server::publish_locked() {
  epoch_state state;
  state.epoch = engine_.epoch();
  state.snapshot = engine_.snapshot();
  state.solution = engine_.solution();
  state.size = engine_.size();
  state.digest = engine_.digest();
  // The contract behind "every query is answered from a verified epoch":
  // nothing unverified is ever published.
  if (!verify::is_dominating_set(state.snapshot, state.solution))
    throw std::runtime_error(
        "serve: epoch " + std::to_string(state.epoch) +
        " failed dominating-set verification before publish");
  store_.publish(std::move(state));
}

void server::commit_locked() {
  engine_.commit_and_repair();
  publish_locked();
  pending_ = 0;
  commits_.fetch_add(1, std::memory_order_relaxed);
}

void server::writer_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    const auto ready = [this] {
      return stop_ || commit_requested_ ||
             (params_.batch_max > 0 && pending_ >= params_.batch_max);
    };
    if (params_.interval_ms > 0.0) {
      writer_cv_.wait_for(
          lock, std::chrono::duration<double, std::milli>(params_.interval_ms),
          ready);
    } else {
      writer_cv_.wait(lock, ready);
    }
    // A timer wake with pending mutations also commits -- that is the
    // interval policy; an empty pending batch never seals an epoch.
    if (pending_ > 0) {
      try {
        commit_locked();
      } catch (const std::exception& err) {
        // A failed commit/verify is an engine-integrity bug; die loudly
        // rather than serve unverified state.
        std::fprintf(stderr, "domset serve: fatal: %s\n", err.what());
        std::abort();
      }
    }
    commit_requested_ = false;
    commit_cv_.notify_all();
    if (stop_) return;
  }
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
      pending_ += applied;
      mutations_admitted_.fetch_add(applied, std::memory_order_relaxed);
      if (params_.batch_max > 0 && pending_ >= params_.batch_max)
        writer_cv_.notify_one();
      if (!failure.empty()) {
        // Honest partial admission: atoms before the bad one stay
        // pending (the batch is a stream, not a transaction).
        return format_error(line_no,
                            "applied " + std::to_string(applied) + " of " +
                                std::to_string(req.batch.size()) + ": " +
                                failure);
      }
      return format_ok({{"admitted", std::to_string(applied)},
                        {"pending", std::to_string(pending_)},
                        {"epoch", std::to_string(engine_.epoch())}});
    }
    case request_kind::commit: {
      std::unique_lock<std::mutex> lock(mu_);
      if (pending_ > 0) {
        const std::uint64_t target = engine_.epoch() + 1;
        commit_requested_ = true;
        writer_cv_.notify_one();
        commit_cv_.wait(lock, [this, target] {
          return engine_.epoch() >= target || stop_;
        });
      }
      return format_ok({{"epoch", std::to_string(engine_.epoch())},
                        {"size", std::to_string(engine_.size())},
                        {"digest", hex64(engine_.digest())}});
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
           {"nodes", std::to_string(epoch->snapshot.node_count())},
           {"edges", std::to_string(epoch->snapshot.edge_count())},
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
  writer_cv_.notify_all();
  commit_cv_.notify_all();
  const std::lock_guard<std::mutex> lock(conn_mu_);
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  for (const int fd : conn_fds_)
    if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
}

void server::connection_loop(int fd) {
  std::string buffer;
  char chunk[4096];
  std::size_t line_no = 0;
  bool want_shutdown = false;
  bool connected = true;
  while (connected && !want_shutdown) {
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t pos;
    while (connected && !want_shutdown &&
           (pos = buffer.find('\n')) != std::string::npos) {
      const std::string line = buffer.substr(0, pos);
      buffer.erase(0, pos + 1);
      std::string response = handle_line(line, ++line_no, &want_shutdown);
      response += '\n';
      connected = write_all(fd, response);
    }
  }
  {
    // Mark closed before close(): request_stop must never shutdown() a
    // recycled descriptor.
    const std::lock_guard<std::mutex> lock(conn_mu_);
    for (int& entry : conn_fds_)
      if (entry == fd) entry = -1;
  }
  ::close(fd);
  if (want_shutdown) request_stop();
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

  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0)
    throw std::runtime_error(std::string("serve: socket: ") +
                             std::strerror(errno));
  ::unlink(params_.socket_path.c_str());
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
                params_.socket_path.c_str(), epoch->epoch,
                epoch->snapshot.node_count(), epoch->size,
                hex64(epoch->digest).c_str());
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
    const std::lock_guard<std::mutex> lock(conn_mu_);
    conn_fds_.push_back(conn);
    conn_threads_.emplace_back(&server::connection_loop, this, conn);
  }

  for (std::thread& t : conn_threads_)
    if (t.joinable()) t.join();
  {
    const std::lock_guard<std::mutex> lock(conn_mu_);
    conn_threads_.clear();
    conn_fds_.clear();
  }
  // The writer performs the final drain-commit on its way out (stop_ is
  // set and its loop commits any pending batch before returning).
  if (writer_.joinable()) writer_.join();
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
