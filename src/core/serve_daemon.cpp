#include "core/serve_daemon.hpp"

#include <csignal>
#include <cstdio>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <ostream>
#include <thread>
#include <vector>

#include <pthread.h>
#include <unistd.h>

#include "core/serialize.hpp"
#include "util/table.hpp"
#include "util/timing.hpp"
#include "util/transport.hpp"

namespace smart::core {

namespace {

std::atomic<bool> g_serve_stop{false};

void serve_stop_handler(int) { g_serve_stop.store(true); }

/// Installs a handler for `sig`, restoring the previous disposition on
/// destruction (the daemon runs in-process in the unit tests; handlers must
/// not leak past the serve call).
class ScopedSignal {
 public:
  ScopedSignal(int sig, void (*handler)(int)) : sig_(sig) {
    struct sigaction sa {};
    sa.sa_handler = handler;
    sigemptyset(&sa.sa_mask);
    sigaction(sig_, &sa, &old_);
  }
  ~ScopedSignal() { sigaction(sig_, &old_, nullptr); }
  ScopedSignal(const ScopedSignal&) = delete;
  ScopedSignal& operator=(const ScopedSignal&) = delete;

 private:
  int sig_;
  struct sigaction old_ {};
};

/// Blocks `sig` for the calling thread — and, transitively, every thread
/// spawned afterwards — restoring the previous mask on destruction. The
/// reload poller then reaps the signal synchronously with sigtimedwait:
/// unlike an async handler, delivery cannot be deferred by whatever the
/// receiving thread happens to be blocked in (sanitizer runtimes queue
/// async handlers until the interrupted thread reaches a safe point, which
/// an idle thread may not hit for seconds).
class ScopedSigblock {
 public:
  explicit ScopedSigblock(int sig) {
    sigset_t set;
    sigemptyset(&set);
    sigaddset(&set, sig);
    pthread_sigmask(SIG_BLOCK, &set, &old_);
  }
  ~ScopedSigblock() { pthread_sigmask(SIG_SETMASK, &old_, nullptr); }
  ScopedSigblock(const ScopedSigblock&) = delete;
  ScopedSigblock& operator=(const ScopedSigblock&) = delete;

 private:
  sigset_t old_{};
};

/// One peer: a line reader plus a thread-safe reply writer. Batched replies
/// are written from the batcher thread, so a write failure (the peer
/// vanished mid-reply) cannot throw there — it is captured, later replies
/// are dropped quietly, and serve_session rethrows it on its own thread.
class ServeConnection {
 public:
  ServeConnection(int read_fd, int write_fd)
      : reader_(read_fd), writer_(write_fd) {}

  /// Writes one reply line plus its newline in one write, through a
  /// buffer kept across replies.
  void write_reply(const std::string& line) {
    const std::lock_guard<std::mutex> lk(mu_);
    if (error_) return;  // the peer is gone
    try {
      out_.assign(line);
      out_ += '\n';
      writer_.write_all(out_);
    } catch (...) {
      error_ = std::current_exception();
    }
  }

  util::LineChannel& reader() { return reader_; }
  util::LineChannel& writer() { return writer_; }

  void rethrow_write_error() {
    const std::lock_guard<std::mutex> lk(mu_);
    if (error_) std::rethrow_exception(error_);
  }

 private:
  util::LineChannel reader_;
  util::LineChannel writer_;
  std::mutex mu_;
  std::string out_;  // the line being written (guarded by mu_)
  std::exception_ptr error_;
};

/// The id of `line` for the replies a session gives itself (busy): its
/// second token when that is a legal protocol id, else "-".
std::string_view line_request_id(std::string_view line) {
  std::size_t at = line.find_first_not_of(' ');  // the verb
  at = line.find(' ', at);
  at = line.find_first_not_of(' ', at);          // the id
  if (at == std::string_view::npos) return "-";
  const std::string_view id = line.substr(at, line.find(' ', at) - at);
  return serve::valid_id(id) ? id : "-";
}

bool blank_line(std::string_view line) {
  return line.find_first_not_of(" \t\r") == std::string_view::npos;
}

/// Session threads of the accept loop. Finished sessions are reaped on the
/// next launch (and at join_all), so the thread list stays proportional to
/// the live connection count, not the connection total.
class SessionSet {
 public:
  void launch(std::function<void()> fn) {
    const std::lock_guard<std::mutex> lk(mu_);
    reap_locked();
    threads_.emplace_back([this, fn = std::move(fn)] {
      fn();
      const std::lock_guard<std::mutex> lk2(mu_);
      done_.push_back(std::this_thread::get_id());
    });
  }

  void join_all() {
    std::vector<std::thread> taken;
    {
      const std::lock_guard<std::mutex> lk(mu_);
      taken.swap(threads_);
      done_.clear();
    }
    for (std::thread& t : taken) t.join();
  }

 private:
  void reap_locked() {
    for (const std::thread::id id : done_) {
      for (auto it = threads_.begin(); it != threads_.end(); ++it) {
        if (it->get_id() == id) {
          it->join();
          threads_.erase(it);
          break;
        }
      }
    }
    done_.clear();
  }

  std::mutex mu_;
  std::vector<std::thread> threads_;
  std::vector<std::thread::id> done_;
};

/// Reaps SIGHUP (blocked in every daemon thread) and reloads the model:
/// hot reload without interrupting traffic. sigtimedwait doubles as the
/// poll sleep, so reload latency is bounded by its timeout rather than by
/// async-handler delivery. Outcome notices go to stderr; a failed reload
/// keeps the old model serving.
class ReloadPoller {
 public:
  explicit ReloadPoller(AdvisorServer& server)
      : thread_([this, &server] { run(server); }) {}
  ~ReloadPoller() {
    stop_.store(true, std::memory_order_release);
    thread_.join();
  }
  ReloadPoller(const ReloadPoller&) = delete;
  ReloadPoller& operator=(const ReloadPoller&) = delete;

 private:
  void run(AdvisorServer& server) {
    sigset_t hup;
    sigemptyset(&hup);
    sigaddset(&hup, SIGHUP);
    const timespec tick{0, 20 * 1000 * 1000};
    while (!stop_.load(std::memory_order_acquire)) {
      if (sigtimedwait(&hup, nullptr, &tick) != SIGHUP) continue;
      try {
        const std::uint64_t epoch = server.reload();
        const auto snapshot = server.model_snapshot();
        std::fprintf(stderr,
                     "serve: reloaded epoch=%llu version=%s checksum=%s\n",
                     static_cast<unsigned long long>(epoch),
                     snapshot.version.c_str(), snapshot.checksum.c_str());
      } catch (const std::exception& e) {
        std::fprintf(stderr, "serve: reload failed: %s\n", e.what());
      }
    }
  }

  std::atomic<bool> stop_{false};
  std::thread thread_;  // last: starts once stop_ exists
};

}  // namespace

void serve_session(AdvisorServer& server, int read_fd, int write_fd,
                   const SessionLimits& limits, std::atomic<bool>& stop,
                   std::string_view name) {
  ServeConnection conn(read_fd, write_fd);
  conn.reader().set_idle_timeout_ms(limits.idle_timeout_ms);
  if (limits.write_timeout_ms > 0) {
    conn.writer().set_write_timeout_ms(limits.write_timeout_ms);
  }
  // In-flight = submitted minus replied on THIS session; the sink wrapper
  // decrements as each reply (batched, memoized, control or shed) is
  // delivered. Every exit path drains the server before `conn` and
  // `inflight` go out of scope, so the sink may point at both; two
  // pointers also fit the small-object buffer of the std::function each
  // queued request copies.
  std::atomic<int> inflight{0};
  const AdvisorServer::Sink sink =
      [c = &conn, n = &inflight](const std::string& line) {
        c->write_reply(line);
        n->fetch_sub(1, std::memory_order_acq_rel);
      };
  std::string line;
  try {
    for (;;) {
      const auto r = conn.reader().read_line(line, &stop);
      if (r != util::LineChannel::ReadResult::kLine) {
        // EOF, idle timeout or the stop flag: answer everything this peer
        // already submitted (graceful drain), then end the session.
        server.drain();
        conn.rethrow_write_error();
        if (r == util::LineChannel::ReadResult::kIdleTimeout) {
          std::fprintf(stderr, "serve: %.*s: idle timeout, closing\n",
                       static_cast<int>(name.size()), name.data());
        }
        return;
      }
      if (!blank_line(line)) {
        if (inflight.load(std::memory_order_acquire) >= limits.max_inflight) {
          // Per-session cap: shed at the edge with a structured reply
          // instead of letting one pipelining peer monopolize the queue.
          conn.write_reply(serve::err_reply(line_request_id(line),
                                            "busy (connection in-flight cap)"));
          conn.rethrow_write_error();
          continue;
        }
        inflight.fetch_add(1, std::memory_order_acq_rel);
      }
      const bool keep = server.submit(line, sink);
      conn.rethrow_write_error();
      if (!keep) {
        // A shutdown was accepted (this peer's, or another's that raced
        // it): stop the whole daemon once this peer's requests are
        // answered.
        stop.store(true);
        server.drain();
        return;
      }
    }
  } catch (...) {
    // The server queue still holds sinks that point at `conn`; flush them
    // while it is alive (a dead peer drops replies quietly), THEN let the
    // error unwind.
    server.drain();
    throw;
  }
}

void serve_listener(AdvisorServer& server, int listen_fd, int max_conns,
                    const SessionLimits& limits, std::atomic<bool>& stop) {
  SessionSet sessions;
  std::atomic<int> active{0};  // every session ends before this returns
  std::uint64_t conn_counter = 0;
  try {
    for (;;) {
      const int fd = util::accept_unix(listen_fd, &stop);
      if (fd < 0) break;  // stop flag: a signal or an accepted shutdown
      const std::uint64_t conn_id = ++conn_counter;
      if (active.load(std::memory_order_acquire) >= max_conns) {
        // Connection-capacity shed: one structured line, then hang up —
        // the client knows it was refused, not ignored.
        util::LineChannel refuse(fd);
        try {
          refuse.write_all("err - busy (connection capacity)\n");
        } catch (const std::exception&) {
        }
        ::close(fd);
        continue;
      }
      active.fetch_add(1, std::memory_order_acq_rel);
      sessions.launch([&server, &stop, &active, &limits, fd, conn_id] {
        const std::string name = "connection " + std::to_string(conn_id);
        try {
          serve_session(server, fd, fd, limits, stop, name);
        } catch (const std::exception& e) {
          // A broken peer must not kill the daemon: log, close this
          // session, keep serving everyone else.
          std::fprintf(stderr, "serve: %s: %s\n", name.c_str(), e.what());
        }
        ::close(fd);
        active.fetch_sub(1, std::memory_order_acq_rel);
      });
    }
    sessions.join_all();
    server.drain();
  } catch (...) {
    stop.store(true);
    sessions.join_all();
    throw;
  }
}

void run_daemon(const DaemonOptions& options, std::ostream& report) {
  // The provider re-validates the artifact through the strict load_model
  // reader on every (re)load; the daemon starts by loading through the same
  // path, so the banner and the reload verb can never disagree about what a
  // "valid artifact" is. Version and checksum come from the same single
  // read as the model, so they describe the model that serves even when a
  // hot swap renames a new artifact over the path mid-load.
  const ModelProvider provider = [path = options.model_path] {
    ModelSnapshot snapshot;
    ModelArtifactInfo info;
    snapshot.mart = std::make_shared<const StencilMart>(load_model(path, info));
    snapshot.version = std::move(info.version);
    snapshot.checksum = std::move(info.checksum);
    return snapshot;
  };
  // SIGHUP is blocked before any daemon thread exists, so every thread
  // inherits the mask and a HUP stays pending until the reload poller
  // reaps it.
  const ScopedSigblock block_hup(SIGHUP);
  AdvisorServer server(provider(), options.serve, provider);

  g_serve_stop.store(false);
  const ScopedSignal on_term(SIGTERM, serve_stop_handler);
  const ScopedSignal on_int(SIGINT, serve_stop_handler);
  const ScopedSignal ignore_pipe(SIGPIPE, SIG_IGN);
  {
    const auto snapshot = server.model_snapshot();
    report << "serve: model " << options.model_path
           << " version=" << snapshot.version
           << " checksum=" << snapshot.checksum
           << " epoch=" << server.epoch() << std::endl;
  }
  {
    const ReloadPoller reload_poller(server);
    if (options.socket_path.empty()) {
      serve_session(server, STDIN_FILENO, STDOUT_FILENO, options.limits,
                    g_serve_stop, "stdio");
    } else {
      const int listen_fd = util::listen_unix(options.socket_path);
      struct Unlisten {
        int fd;
        const std::string& path;
        ~Unlisten() {
          ::close(fd);
          ::unlink(path.c_str());
        }
      } unlisten{listen_fd, options.socket_path};
      report << "serve: listening on " << options.socket_path
             << " (max-conns " << options.max_conns << ", max-queue "
             << options.serve.max_queue << ")" << std::endl;
      serve_listener(server, listen_fd, options.max_conns, options.limits,
                     g_serve_stop);
    }
  }

  if (options.timing) {
    const auto counters = server.counters_snapshot();
    report << "serve: served=" << counters.served
           << " errors=" << counters.errors
           << " memo_hits=" << counters.memo_hits
           << " batches=" << counters.batches
           << " shed_busy=" << counters.shed_busy
           << " shed_deadline=" << counters.shed_deadline
           << " p50_us=" << counters.p50_us
           << " p99_us=" << counters.p99_us
           << " qps=" << util::format_double(counters.qps, 1)
           << " epoch=" << counters.epoch << '\n'
           << util::timing_report();
  }
}

}  // namespace smart::core
