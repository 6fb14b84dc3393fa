#include "daemon.hpp"

#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "workloads.hpp"

namespace perfbench {

int connect_socket(const std::string& path) {
  sockaddr_un addr{};
  if (path.size() >= sizeof addr.sun_path) {
    throw std::runtime_error("socket path too long: " + path);
  }
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  for (;;) {
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) == 0) {
      return fd;
    }
    if (errno == EINTR) continue;
    ::close(fd);
    return -1;
  }
}

void write_all(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = ::write(fd, data.data(), data.size());
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("write to daemon failed: ") +
                               std::strerror(errno));
    }
    data.remove_prefix(static_cast<std::size_t>(n));
  }
}

bool read_line(int fd, std::string& buf, std::string& line, double timeout_s) {
  const auto start = Clock::now();
  for (;;) {
    const std::size_t nl = buf.find('\n');
    if (nl != std::string::npos) {
      line.assign(buf, 0, nl);
      buf.erase(0, nl + 1);
      return true;
    }
    const double left = timeout_s - seconds_between(start, Clock::now());
    if (left <= 0) return false;
    pollfd p{fd, POLLIN, 0};
    const int rc = ::poll(&p, 1, static_cast<int>(left * 1000) + 1);
    if (rc < 0 && errno == EINTR) continue;
    if (rc <= 0) return false;
    char chunk[4096];
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    buf.append(chunk, static_cast<std::size_t>(n));
  }
}

std::vector<std::string> Daemon::flags() {
  return {"--max-inflight", std::to_string(kMaxInflight)};
}

Daemon::Daemon(const std::string& smartctl, const std::string& model,
               const std::string& socket, const std::string& log)
    : socket_(socket) {
  ::unlink(socket.c_str());
  std::vector<std::string> argv = {smartctl, "serve", "--model", model,
                                   "--socket", socket};
  for (std::string& f : flags()) argv.push_back(std::move(f));
  launched_ = Clock::now();
  pid_ = spawn(argv, log);
}

Daemon::~Daemon() {
  if (control_ >= 0) ::close(control_);
  if (!reaped_ && pid_ > 0) {
    ::kill(pid_, SIGTERM);
    reap(pid_, 5.0);
  }
}

double Daemon::wait_healthy(double timeout_s) {
  for (;;) {
    control_ = connect_socket(socket_);
    if (control_ >= 0) break;
    if (seconds_between(launched_, Clock::now()) > timeout_s) {
      throw std::runtime_error("daemon did not listen within the timeout");
    }
    if (::kill(pid_, 0) != 0) throw std::runtime_error("daemon exited at start-up");
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  write_all(control_, "healthz h\n");
  std::string line;
  if (!read_line(control_, control_buf_, line, timeout_s)) {
    throw std::runtime_error("no healthz reply");
  }
  const double elapsed = seconds_between(launched_, Clock::now());
  if (line.rfind("ok h healthz epoch=1 ", 0) != 0) {
    throw std::runtime_error("unexpected healthz reply: " + line);
  }
  return elapsed;
}

bool Daemon::shutdown() {
  bool ok = control_ >= 0;
  if (ok) {
    write_all(control_, "shutdown bye\n");
    std::string line;
    ok = read_line(control_, control_buf_, line, 30.0) && line == "ok bye bye";
    ::close(control_);
    control_ = -1;
  }
  const bool exited = reap(pid_, 30.0);
  reaped_ = true;
  return ok && exited;
}

}  // namespace perfbench
