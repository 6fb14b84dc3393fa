// The `smartctl serve` daemon around an AdvisorServer (core/advisor_server):
// one session loop that answers a peer's request lines — stdin/stdout, or
// one accepted AF_UNIX connection — the multi-client accept loop, and the
// process wiring run_daemon adds for the CLI (the model provider, signal
// handling, the SIGHUP reload poller, the banner and the exit report).
//
// The loops take the server, the file descriptors and a stop flag as
// arguments, so tests drive them in-process over a pipe or a socketpair.
//
// Session contract: every way a session ends (EOF, idle timeout, the stop
// flag, an accepted `shutdown`, a failed peer) first drains the server, so
// every request the session read is answered before the session's
// connection object goes away — queued reply sinks point at it. Replies to
// a peer that vanished are dropped quietly and its error is rethrown on the
// session's own thread: the stdio caller turns it into the rc-1
// `smartctl: error:` line, the accept loop logs it and ends that session
// alone.
#pragma once

#include <atomic>
#include <iosfwd>
#include <string>
#include <string_view>

#include "core/advisor_server.hpp"

namespace smart::core {

/// Limits of one session (stdio or one socket connection).
struct SessionLimits {
  /// Unanswered requests a session may have in the server; one more gets
  /// `err <id> busy (connection in-flight cap)` instead of a queue slot.
  int max_inflight = 1024;
  /// A session whose peer sends nothing for this long ends (0 = never).
  int idle_timeout_ms = 0;
  /// A reply write that waits this long for the peer to drain fails the
  /// session (0 = wait forever). It switches the write fd to O_NONBLOCK,
  /// so the CLI offers it for sockets only, never for an inherited stdout.
  int write_timeout_ms = 0;
};

/// Serves one peer: reads request lines from `read_fd` and writes one reply
/// line per request to `write_fd` until EOF, an idle timeout, `stop`, or an
/// accepted `shutdown`, which also raises `stop` (the accept loop then
/// ends too). Throws std::runtime_error, after the drain, when the peer
/// failed (a read error, or a reply write that failed). `name` labels the
/// idle-timeout notice on stderr.
void serve_session(AdvisorServer& server, int read_fd, int write_fd,
                   const SessionLimits& limits, std::atomic<bool>& stop,
                   std::string_view name);

/// The multi-client accept loop on a listening socket: each accepted
/// connection runs serve_session on its own thread, up to `max_conns` at
/// once; a connection beyond that gets `err - busy (connection capacity)`
/// and a close. A failing session logs `serve: connection N: <error>` to
/// stderr and ends alone. Returns once `stop` is raised, every session has
/// ended and the server has drained.
void serve_listener(AdvisorServer& server, int listen_fd, int max_conns,
                    const SessionLimits& limits, std::atomic<bool>& stop);

/// What `smartctl serve` runs, its flags already validated.
struct DaemonOptions {
  std::string model_path;
  std::string socket_path;  // empty: one session on stdin/stdout
  ServeConfig serve;
  int max_conns = 16;       // socket mode only
  SessionLimits limits;
  bool timing = false;      // print the counters and phase table at exit
};

/// Loads the model through the strict artifact reader (the same provider
/// re-validates it on every reload) and serves until EOF on stdin, SIGTERM
/// or SIGINT, or an accepted `shutdown`. SIGHUP reloads the model; SIGPIPE
/// is ignored while serving. Every signal disposition and mask is restored
/// on return. The banner, the socket's listening line and the exit report
/// go to `report`; reload notices and session errors go to stderr.
void run_daemon(const DaemonOptions& options, std::ostream& report);

}  // namespace smart::core
