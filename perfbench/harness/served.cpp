#include "served.hpp"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <thread>

extern char** environ;

namespace perfbench {

namespace {

using steady = std::chrono::steady_clock;

double seconds_since(steady::time_point t0) {
  return std::chrono::duration<double>(steady::now() - t0).count();
}

}  // namespace

server_process::server_process(const std::string& binary,
                               const std::vector<std::string>& args) {
  int out_pipe[2];
  int err_pipe[2];
  if (::pipe(out_pipe) != 0) throw std::runtime_error("pipe failed");
  if (::pipe(err_pipe) != 0) {
    ::close(out_pipe[0]);
    ::close(out_pipe[1]);
    throw std::runtime_error("pipe failed");
  }
  std::vector<std::string> storage;
  storage.push_back(binary);
  storage.insert(storage.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& s : storage) argv.push_back(s.data());
  argv.push_back(nullptr);

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, out_pipe[1], STDOUT_FILENO);
  posix_spawn_file_actions_adddup2(&actions, err_pipe[1], STDERR_FILENO);
  posix_spawn_file_actions_addclose(&actions, out_pipe[0]);
  posix_spawn_file_actions_addclose(&actions, err_pipe[0]);
  const int rc = ::posix_spawn(&pid_, binary.c_str(), &actions, nullptr,
                               argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(out_pipe[1]);
  ::close(err_pipe[1]);
  out_fd_ = out_pipe[0];
  err_fd_ = err_pipe[0];
  ::fcntl(out_fd_, F_SETFL, O_NONBLOCK);
  ::fcntl(err_fd_, F_SETFL, O_NONBLOCK);
  if (rc != 0) {
    pid_ = -1;
    ::close(out_fd_);
    ::close(err_fd_);
    throw std::runtime_error("cannot start " + binary + ": " +
                             std::strerror(rc));
  }
}

server_process::~server_process() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
  }
  if (out_fd_ >= 0) ::close(out_fd_);
  if (err_fd_ >= 0) ::close(err_fd_);
}

void server_process::drain() {
  char chunk[4096];
  for (const auto& [fd, text] : {std::pair{out_fd_, &out_}, {err_fd_, &err_}}) {
    for (;;) {
      const ssize_t n = ::read(fd, chunk, sizeof chunk);
      if (n <= 0) break;
      text->append(chunk, static_cast<std::size_t>(n));
    }
  }
}

bool server_process::try_reap() {
  if (pid_ <= 0) return true;
  rusage usage{};
  const pid_t r = ::wait4(pid_, &status_, WNOHANG, &usage);
  if (r != pid_) return false;
  maxrss_kb_ = usage.ru_maxrss;
  pid_ = -1;
  drain();
  return true;
}

std::string server_process::wait_ready(double timeout_s) {
  const steady::time_point t0 = steady::now();
  for (;;) {
    drain();
    const std::size_t at = out_.find("serving ");
    if (at != std::string::npos) {
      const std::size_t end = out_.find('\n', at);
      if (end != std::string::npos) return out_.substr(at, end - at);
    }
    if (try_reap())
      throw std::runtime_error("domset serve exited before serving: " + err_);
    if (seconds_since(t0) > timeout_s)
      throw std::runtime_error("domset serve not ready in time");
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

int server_process::wait_exit(double timeout_s) {
  const steady::time_point t0 = steady::now();
  while (!try_reap()) {
    drain();
    if (seconds_since(t0) > timeout_s)
      throw std::runtime_error("domset serve did not exit in time");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return WIFEXITED(status_) ? WEXITSTATUS(status_) : 128 + WTERMSIG(status_);
}

line_client::line_client(const std::string& socket_path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof addr.sun_path)
    throw std::runtime_error("socket path too long: " + socket_path);
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd_ < 0) throw std::runtime_error("socket() failed");
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    const int err = errno;
    ::close(fd_);
    throw std::runtime_error("connect " + socket_path + ": " +
                             std::strerror(err));
  }
}

line_client::~line_client() {
  if (fd_ >= 0) ::close(fd_);
}

std::string line_client::exchange(std::string_view request) {
  std::string out(request);
  out += '\n';
  std::string_view rest = out;
  while (!rest.empty()) {
    const ssize_t n = ::send(fd_, rest.data(), rest.size(), MSG_NOSIGNAL);
    if (n <= 0) throw std::runtime_error("server closed the connection");
    rest.remove_prefix(static_cast<std::size_t>(n));
  }
  char chunk[65536];
  std::size_t scanned = 0;  // a full-set reply spans many reads
  std::size_t pos;
  while ((pos = buffer_.find('\n', scanned)) == std::string::npos) {
    scanned = buffer_.size();
    const ssize_t n = ::read(fd_, chunk, sizeof chunk);
    if (n <= 0) throw std::runtime_error("server closed the connection");
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
  std::string line = buffer_.substr(0, pos);
  buffer_.erase(0, pos + 1);
  return line;
}

std::string field(std::string_view response, std::string_view key) {
  std::size_t at = 0;
  while (at < response.size()) {
    const std::size_t end =
        std::min(response.find_first_of(" \n", at), response.size());
    const std::string_view token = response.substr(at, end - at);
    if (token.size() > key.size() && token.substr(0, key.size()) == key &&
        token[key.size()] == '=')
      return std::string(token.substr(key.size() + 1));
    at = end + 1;
  }
  return {};
}

}  // namespace perfbench
