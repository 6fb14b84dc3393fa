// core/serve_daemon driven in-process: one session over pipes (the stdio
// shape, separate read and write fds) and the accept loop over an AF_UNIX
// socket.
#include "core/serve_daemon.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <csignal>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "util/transport.hpp"

namespace smart::core {
namespace {

const StencilMart& daemon_mart() {
  static const StencilMart mart = [] {
    MartConfig config;
    config.profile.dims = 2;
    config.profile.num_stencils = 10;
    config.profile.samples_per_oc = 2;
    config.profile.seed = 4242;
    config.tuning_samples = 8;
    StencilMart m(config);
    m.train();
    return m;
  }();
  return mart;
}

/// A batching window far longer than any test: replies to advise/predict
/// come only from a full batch or a drain.
ServeConfig held_batches() {
  ServeConfig config;
  config.max_batch = 64;
  config.max_wait_us = 30'000'000;
  return config;
}

/// A pipe whose ends close with the object (or earlier, by hand).
struct Pipe {
  int read_fd = -1;
  int write_fd = -1;
  Pipe() {
    int fds[2];
    EXPECT_EQ(::pipe(fds), 0);
    read_fd = fds[0];
    write_fd = fds[1];
  }
  ~Pipe() {
    close_read();
    close_write();
  }
  void close_read() {
    if (read_fd >= 0) ::close(read_fd);
    read_fd = -1;
  }
  void close_write() {
    if (write_fd >= 0) ::close(write_fd);
    write_fd = -1;
  }
};

/// Feeds `lines` to a session whose peer then hangs up (EOF), and returns
/// every line the session wrote.
std::vector<std::string> run_session(AdvisorServer& server,
                                     const std::vector<std::string>& lines,
                                     const SessionLimits& limits,
                                     std::atomic<bool>& stop) {
  Pipe in;
  Pipe out;
  util::LineChannel feed(in.write_fd);
  for (const std::string& line : lines) feed.write_all(line + "\n");
  in.close_write();
  serve_session(server, in.read_fd, out.write_fd, limits, stop, "test");
  out.close_write();
  util::LineChannel replies(out.read_fd);
  std::vector<std::string> got;
  for (std::string line;
       replies.read_line(line) == util::LineChannel::ReadResult::kLine;) {
    got.push_back(line);
  }
  return got;
}

TEST(ServeDaemon, EofDrainsAndAnswersEveryRequest) {
  AdvisorServer server(daemon_mart(), held_batches());
  std::atomic<bool> stop{false};
  const std::vector<std::string> requests = {
      "advise e1 shape=star order=2 gpu=V100",
      "predict e2 shape=box order=1 gpu=A100",
      "",  // blank: no reply
      "advise e3 shape=cross order=3 gpu=P100",
      "advise e4 order=9",  // an error reply, under its id
      "predict e5 shape=star order=1 gpu=2080Ti",
  };
  const auto replies = run_session(server, requests, {}, stop);
  ASSERT_EQ(replies.size(), 5u);
  std::vector<std::string> ids;
  for (const std::string& reply : replies) {
    ids.push_back(reply.substr(reply.find(' ') + 1, 2));
  }
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<std::string>{"e1", "e2", "e3", "e4", "e5"}));
  EXPECT_FALSE(stop.load());
}

TEST(ServeDaemon, ShutdownReplyIsTheLastLineAndRaisesStop) {
  AdvisorServer server(daemon_mart(), held_batches());
  std::atomic<bool> stop{false};
  const auto replies = run_session(server,
                                   {"advise s1 shape=star order=1 gpu=V100",
                                    "predict s2 shape=box order=2 gpu=A100",
                                    "shutdown s3", "ping s4"},
                                   {}, stop);
  ASSERT_EQ(replies.size(), 3u);  // the session reads nothing after bye
  EXPECT_EQ(replies.back(), "ok s3 bye");
  EXPECT_TRUE(stop.load());
}

TEST(ServeDaemon, InflightCapShedsWithBusyReply) {
  // One unanswered request per session: the second advise is shed at the
  // edge with its own id while the first waits for the drain.
  AdvisorServer server(daemon_mart(), held_batches());
  std::atomic<bool> stop{false};
  SessionLimits limits;
  limits.max_inflight = 1;
  const auto replies = run_session(server,
                                   {"advise c1 shape=star order=1 gpu=V100",
                                    "advise c2 shape=box order=1 gpu=V100"},
                                   limits, stop);
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_EQ(replies[0], "err c2 busy (connection in-flight cap)");
  EXPECT_EQ(replies[1].rfind("ok c1 ", 0), 0u) << replies[1];
}

TEST(ServeDaemon, VanishedPeerReachesTheCallerAsAnError) {
  // The reply is written on the batcher thread during the EOF drain; its
  // EPIPE must come back to the session's caller, not kill the process.
  struct sigaction ignore {};
  struct sigaction previous {};
  ignore.sa_handler = SIG_IGN;
  sigemptyset(&ignore.sa_mask);
  ASSERT_EQ(sigaction(SIGPIPE, &ignore, &previous), 0);

  AdvisorServer server(daemon_mart(), held_batches());
  std::atomic<bool> stop{false};
  Pipe in;
  Pipe out;
  util::LineChannel(in.write_fd)
      .write_all("advise v1 shape=star order=2 gpu=V100\n");
  in.close_write();
  out.close_read();
  try {
    serve_session(server, in.read_fd, out.write_fd, {}, stop, "test");
    ADD_FAILURE() << "a vanished peer ended the session quietly";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("peer closed the connection"),
              std::string::npos)
        << e.what();
  }
  sigaction(SIGPIPE, &previous, nullptr);
}

TEST(ServeDaemon, ConnectionOverCapacityGetsBusyAndClose) {
  AdvisorServer server(daemon_mart(), ServeConfig{});
  const std::string path = ::testing::TempDir() + "serve_daemon_test.sock";
  const int listen_fd = util::listen_unix(path);
  std::atomic<bool> stop{false};
  std::thread listener([&] {
    serve_listener(server, listen_fd, /*max_conns=*/1, SessionLimits{}, stop);
  });

  // The first client holds the only slot; its pong proves its session runs.
  const int first = util::connect_unix(path);
  util::LineChannel first_channel(first);
  first_channel.write_all("ping k1\n");
  std::string line;
  EXPECT_EQ(first_channel.read_line(line), util::LineChannel::ReadResult::kLine);
  EXPECT_EQ(line, "ok k1 pong v1");

  const int second = util::connect_unix(path);
  util::LineChannel second_channel(second);
  EXPECT_EQ(second_channel.read_line(line),
            util::LineChannel::ReadResult::kLine);
  EXPECT_EQ(line, "err - busy (connection capacity)");
  EXPECT_EQ(second_channel.read_line(line), util::LineChannel::ReadResult::kEof);

  stop.store(true);
  listener.join();
  ::close(first);
  ::close(second);
  ::close(listen_fd);
  ::unlink(path.c_str());
}

}  // namespace
}  // namespace smart::core
