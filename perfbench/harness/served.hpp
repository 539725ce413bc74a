/// \file served.hpp
/// \brief The benchmark's side of `domset serve`: the server as a child
/// process, and a blocking line client for its AF_UNIX socket.
///
/// The load that drives the server is the benchmark's own, not the
/// repository's load tool, so a change to that tool cannot move the
/// yardstick.
#pragma once

#include <sys/types.h>

#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// A `domset serve` child process with stdout and stderr on pipes.  The
/// destructor kills and reaps a child that is still running, so no
/// server outlives the harness on any exit path.
class server_process {
 public:
  server_process(const std::string& binary,
                 const std::vector<std::string>& args);
  ~server_process();
  server_process(const server_process&) = delete;
  server_process& operator=(const server_process&) = delete;

  /// Blocks until the server prints its "serving ..." line and returns
  /// it.  Throws std::runtime_error if the child exits or `timeout_s`
  /// passes first.
  std::string wait_ready(double timeout_s);

  /// Waits for the child to exit (after a `shutdown` request), keeping
  /// its pipes drained.  Throws on timeout; returns the exit status.
  int wait_exit(double timeout_s);

  /// Peak resident set of the exited child, in KiB (0 before exit).
  [[nodiscard]] long maxrss_kb() const { return maxrss_kb_; }
  [[nodiscard]] const std::string& stdout_text() const { return out_; }
  [[nodiscard]] const std::string& stderr_text() const { return err_; }

 private:
  /// Reads whatever the pipes hold without blocking.
  void drain();
  /// Reaps the child if it has exited; true once reaped.
  bool try_reap();

  pid_t pid_ = -1;
  int out_fd_ = -1;
  int err_fd_ = -1;
  std::string out_;
  std::string err_;
  long maxrss_kb_ = 0;
  int status_ = 0;
};

/// One connection to the server: send a request line, read the response
/// line.  Closed loop: the next request goes out only after the reply.
class line_client {
 public:
  explicit line_client(const std::string& socket_path);
  ~line_client();
  line_client(const line_client&) = delete;
  line_client& operator=(const line_client&) = delete;

  /// Sends `request` plus a newline and returns the response line
  /// without its newline.  Throws std::runtime_error on a closed socket.
  std::string exchange(std::string_view request);

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// The value of `key=` in a whitespace-separated response, or "".
[[nodiscard]] std::string field(std::string_view response,
                                std::string_view key);

}  // namespace perfbench
