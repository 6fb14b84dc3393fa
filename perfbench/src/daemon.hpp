// Client side of `smartctl serve`: launching the daemon on an artifact,
// timing its start-up to the first healthz reply, and line I/O over its
// AF_UNIX socket. Written on raw POSIX sockets so the client never shares
// code with the transport it measures.
#pragma once

#include <sys/types.h>

#include <string>
#include <string_view>
#include <vector>

#include "bench.hpp"

namespace perfbench {

/// Connects to an AF_UNIX stream socket; -1 when nothing accepts there.
int connect_socket(const std::string& path);
/// Writes every byte; throws std::runtime_error on failure.
void write_all(int fd, std::string_view data);
/// Reads the next '\n'-terminated line into `line` (terminator stripped),
/// buffering surplus bytes in `buf`. False on EOF or after `timeout_s`.
bool read_line(int fd, std::string& buf, std::string& line, double timeout_s);

class Daemon {
 public:
  /// Launches `smartctl serve` on `model`, listening on `socket`.
  Daemon(const std::string& smartctl, const std::string& model,
         const std::string& socket, const std::string& log);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// The serve flags every daemon of the benchmark gets (besides --model
  /// and --socket).
  static std::vector<std::string> flags();

  pid_t pid() const noexcept { return pid_; }

  /// Seconds from launch to the first healthz reply (artifact read,
  /// checksum, model build, listen). Keeps that connection open as the
  /// control connection. Throws when the daemon is not healthy in time.
  double wait_healthy(double timeout_s);

  /// Sends `shutdown` over the control connection, waits for its reply and
  /// for the process to exit; true when it drained and exited with 0.
  bool shutdown();

 private:
  std::string socket_;
  pid_t pid_ = -1;
  int control_ = -1;
  std::string control_buf_;
  Clock::time_point launched_;
  bool reaped_ = false;
};

}  // namespace perfbench
