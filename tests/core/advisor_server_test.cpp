// AdvisorServer + StencilMart::advise_batch: the serve daemon's whole
// determinism contract, tested in-process.
//
//   - advise_batch is BITWISE equal to the per-variant reference of
//     advise_reference.hpp, with or without duplicates, serial or parallel
//     (the PR 2 style equivalence the admission batcher is built on);
//   - the reply byte-stream is invariant across batch size, arrival order
//     and memoization (response-SET equality);
//   - serve advise payloads unescape to the exact `smartctl advise` report;
//   - predict payloads carry a bit-exact hexfloat;
//   - batcher flush rules: max-batch boundary, max-wait-us timer, and
//     drain-on-shutdown with no dropped requests;
//   - stats reset-on-read, memo hit counting, and per-item error replies.
#include "core/advisor_server.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "advise_reference.hpp"
#include "core/mart.hpp"
#include "util/task_pool.hpp"

namespace smart::core {
namespace {

using namespace std::chrono_literals;

/// One small trained mart shared by the whole suite (training dominates
/// runtime; every test below exercises inference only).
const StencilMart& test_mart() {
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

void expect_bitwise(double a, double b) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b));
}

/// Thread-safe reply sink with a waiting accessor (replies for batched work
/// arrive on the server's batcher thread).
class ReplyCollector {
 public:
  AdvisorServer::Sink sink() {
    return [this](const std::string& line) {
      const std::lock_guard<std::mutex> lk(mu_);
      lines_.push_back(line);
      cv_.notify_all();
    };
  }

  /// Blocks until `n` replies arrived (fails the test on timeout).
  std::vector<std::string> wait_for(std::size_t n,
                                    std::chrono::seconds budget = 60s) {
    std::unique_lock<std::mutex> lk(mu_);
    const bool ok = cv_.wait_for(lk, budget, [&] { return lines_.size() >= n; });
    EXPECT_TRUE(ok) << "timed out waiting for " << n << " replies, have "
                    << lines_.size();
    return lines_;
  }

  std::vector<std::string> snapshot() {
    const std::lock_guard<std::mutex> lk(mu_);
    return lines_;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::string> lines_;
};

std::vector<AdviseBatchItem> sample_items() {
  return {
      {stencil::make_star(2, 2), "V100", true},
      {stencil::make_box(2, 1), "A100", true},
      {stencil::make_cross(2, 3), "P100", false},  // predict: no rec fold
      {stencil::make_star(2, 1), "2080Ti", true},
  };
}

/// advise_batch against single per-variant reference calls.
void check_batch_matches_singles(const std::vector<AdviseBatchItem>& items) {
  const StencilMart& mart = test_mart();
  static reference::AdviseReference ref(mart);
  const auto results = mart.advise_batch(items);
  ASSERT_EQ(results.size(), items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    SCOPED_TRACE("item " + std::to_string(i));
    ASSERT_TRUE(results[i].ok()) << results[i].error;
    const OcAdvice single =
        ref.advise(items[i].pattern, ref.gpu_index(items[i].gpu));
    EXPECT_EQ(results[i].advice.group, single.group);
    EXPECT_EQ(results[i].advice.group_name, single.group_name);
    EXPECT_EQ(results[i].advice.oc.name(), single.oc.name());
    EXPECT_EQ(results[i].advice.setting.to_string(), single.setting.to_string());
    expect_bitwise(results[i].advice.expected_time_ms, single.expected_time_ms);
    expect_bitwise(results[i].advice.predicted_time_ms, single.predicted_time_ms);
    if (items[i].recommend) {
      const GpuRecommendation rec = ref.recommend(items[i].pattern);
      EXPECT_EQ(results[i].rec.fastest_gpu, rec.fastest_gpu);
      EXPECT_EQ(results[i].rec.cheapest_gpu, rec.cheapest_gpu);
      expect_bitwise(results[i].rec.fastest_time_ms, rec.fastest_time_ms);
      expect_bitwise(results[i].rec.cheapest_cost_score, rec.cheapest_cost_score);
    }
  }
}

TEST(AdvisorServer, AdviseBatchBitwiseEqualsSingleCalls) {
  check_batch_matches_singles(sample_items());
}

TEST(AdvisorServer, AdviseBatchWithDuplicatesAndSerialMode) {
  // Duplicates share one tuning job; batching must still reproduce every
  // per-item value bitwise. Run again under SerialSection: thread count
  // must not change a single bit either.
  auto items = sample_items();
  items.push_back(items[0]);
  items.push_back(items[2]);
  check_batch_matches_singles(items);
  const util::SerialSection serial;
  check_batch_matches_singles(items);
}

TEST(AdvisorServer, AdviseBatchReportsPerItemErrors) {
  const StencilMart& mart = test_mart();
  std::vector<AdviseBatchItem> items = {
      {stencil::make_star(2, 2), "NoSuchGpu", true},
      {stencil::make_star(3, 1), "V100", false},  // 3-D vs 2-D corpus
      {stencil::make_star(2, 2), "V100", true},   // valid neighbour
  };
  const auto results = mart.advise_batch(items);
  EXPECT_EQ(results[0].error, "StencilMart: unknown GPU NoSuchGpu");
  EXPECT_EQ(results[1].error,
            "StencilMart::advise: pattern dimensionality differs from the "
            "training corpus");
  EXPECT_TRUE(results[2].ok()) << results[2].error;
}

TEST(AdvisorServer, AdviseReplyUnescapesToCliReport) {
  const StencilMart& mart = test_mart();
  AdvisorServer server(mart, {});
  ReplyCollector replies;
  ASSERT_TRUE(server.submit("advise rep1 shape=star order=2 gpu=V100",
                            replies.sink()));
  const auto lines = replies.wait_for(1);
  ASSERT_EQ(lines.size(), 1u);
  ASSERT_EQ(lines[0].rfind("ok rep1 ", 0), 0u) << lines[0];

  const auto pattern = stencil::make_star(2, 2);
  const std::string want = advise_report(pattern, "V100",
                                         mart.advise(pattern, "V100"),
                                         mart.recommend_gpu(pattern));
  EXPECT_EQ(serve::unescape_text(lines[0].substr(std::string("ok rep1 ").size())),
            want);
}

TEST(AdvisorServer, PredictReplyCarriesBitExactHexfloat) {
  const StencilMart& mart = test_mart();
  AdvisorServer server(mart, {});
  ReplyCollector replies;
  ASSERT_TRUE(server.submit("predict px shape=box order=1 gpu=A100",
                            replies.sink()));
  const auto lines = replies.wait_for(1);
  ASSERT_EQ(lines[0].rfind("ok px predicted_ms=", 0), 0u) << lines[0];
  const std::string payload =
      lines[0].substr(std::string("ok px predicted_ms=").size());
  const double round_tripped = std::strtod(payload.c_str(), nullptr);
  const auto pattern = stencil::make_box(2, 1);
  expect_bitwise(round_tripped, mart.advise(pattern, "A100").predicted_time_ms);
}

std::vector<std::string> base_requests() {
  return {
      "advise r01 shape=star order=2 gpu=V100",
      "advise r02 shape=box order=1 gpu=A100",
      "advise r03 shape=cross order=3 gpu=P100",
      "predict r04 shape=star order=1 gpu=2080Ti",
      "predict r05 shape=box order=2 gpu=V100",
      "advise r06 offsets=0,0;1,0;-1,0;0,1;0,-1 gpu=A100",
      // Duplicates of r01/r05 under fresh ids: memo + dedup must not alter
      // reply bytes.
      "advise r07 shape=star order=2 gpu=V100",
      "predict r08 shape=box order=2 gpu=V100",
      // Errors are part of the response-set contract too.
      "advise r09 gpu=NoSuchGpu",
      "advise r10 dims=3 order=1",
  };
}

/// Runs the request set through a fresh server and returns the reply SET
/// with ids stripped of nothing — full lines, sorted.
std::vector<std::string> run_request_set(std::vector<std::string> requests,
                                         ServeConfig config) {
  AdvisorServer server(test_mart(), config);
  ReplyCollector replies;
  const auto sink = replies.sink();
  for (const auto& request : requests) server.submit(request, sink);
  server.drain();
  auto lines = replies.wait_for(requests.size());
  std::sort(lines.begin(), lines.end());
  return lines;
}

TEST(AdvisorServer, ResponseSetInvariantAcrossBatchSizeAndOrder) {
  const auto requests = base_requests();
  ServeConfig config;
  config.max_batch = 8;
  config.max_wait_us = 200;
  const auto golden = run_request_set(requests, config);
  ASSERT_EQ(golden.size(), requests.size());

  for (const int max_batch : {1, 3, 64}) {
    for (const long long max_wait_us : {0ll, 200ll, 5000ll}) {
      ServeConfig variant;
      variant.max_batch = max_batch;
      variant.max_wait_us = max_wait_us;
      // Forward, reverse, and a rotated order.
      auto forward = requests;
      auto reverse = requests;
      std::reverse(reverse.begin(), reverse.end());
      auto rotated = requests;
      std::rotate(rotated.begin(), rotated.begin() + 4, rotated.end());
      for (const auto& order : {forward, reverse, rotated}) {
        const auto got = run_request_set(order, variant);
        EXPECT_EQ(got, golden)
            << "max_batch=" << max_batch << " max_wait_us=" << max_wait_us;
      }
    }
  }
}

TEST(AdvisorServer, FlushesOnMaxBatchBoundaryWithoutTimer) {
  // The timer alone would hold replies for 30s; hitting max_batch must
  // flush immediately. wait_for's own timeout turns a missed flush into a
  // failure rather than a hang.
  ServeConfig config;
  config.max_batch = 4;
  config.max_wait_us = 30'000'000;
  AdvisorServer server(test_mart(), config);
  ReplyCollector replies;
  const auto sink = replies.sink();
  server.submit("advise b1 shape=star order=1", sink);
  server.submit("advise b2 shape=star order=2", sink);
  server.submit("advise b3 shape=box order=1", sink);
  server.submit("advise b4 shape=box order=2", sink);
  const auto lines = replies.wait_for(4, 20s);
  EXPECT_EQ(lines.size(), 4u);
  const auto counters = server.counters_snapshot();
  EXPECT_GE(counters.max_batch_seen, 1u);
  EXPECT_LE(counters.max_batch_seen, 4u);
}

TEST(AdvisorServer, TimerFlushesPartialBatch) {
  // max_batch is unreachable; the max-wait-us timer must flush a lone
  // request promptly.
  ServeConfig config;
  config.max_batch = 4096;
  config.max_wait_us = 1000;  // 1 ms
  AdvisorServer server(test_mart(), config);
  ReplyCollector replies;
  server.submit("advise t1 shape=star order=2", replies.sink());
  const auto lines = replies.wait_for(1, 20s);
  EXPECT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0].rfind("ok t1 ", 0), 0u);
}

TEST(AdvisorServer, ShutdownDrainsEveryPendingRequest) {
  // Nothing could flush on its own (huge batch, huge timer): the shutdown
  // must drain all pending requests, answer them, then acknowledge.
  ServeConfig config;
  config.max_batch = 4096;
  config.max_wait_us = 30'000'000;
  AdvisorServer server(test_mart(), config);
  ReplyCollector replies;
  const auto sink = replies.sink();
  const int kPending = 5;
  for (int i = 0; i < kPending; ++i) {
    ASSERT_TRUE(server.submit(
        "advise d" + std::to_string(i) + " shape=star order=" +
            std::to_string(1 + i % 4),
        sink));
  }
  EXPECT_FALSE(server.submit("shutdown dz", sink));
  const auto lines = replies.snapshot();  // shutdown returned: all answered
  ASSERT_EQ(lines.size(), static_cast<std::size_t>(kPending) + 1);
  int ok_count = 0;
  bool saw_bye = false;
  for (const auto& line : lines) {
    if (line == "ok dz bye") saw_bye = true;
    else if (line.rfind("ok d", 0) == 0) ++ok_count;
  }
  EXPECT_EQ(ok_count, kPending);
  EXPECT_TRUE(saw_bye);
  // The bye must come LAST: every data reply precedes the ack.
  EXPECT_EQ(lines.back(), "ok dz bye");
  // Requests after shutdown are refused with an err reply.
  EXPECT_FALSE(server.submit("ping late", sink));
  const auto after = replies.snapshot();
  ASSERT_EQ(after.size(), lines.size() + 1);
  EXPECT_EQ(after.back().rfind("err late ", 0), 0u);
}

TEST(AdvisorServer, MemoHitsAndStatsReset) {
  AdvisorServer server(test_mart(), {});
  ReplyCollector replies;
  const auto sink = replies.sink();
  server.submit("advise m1 shape=star order=2 gpu=V100", sink);
  server.drain();
  server.submit("advise m2 shape=star order=2 gpu=V100", sink);  // memo hit
  server.drain();
  auto lines = replies.wait_for(2);
  ASSERT_EQ(lines.size(), 2u);
  // Identical payloads under different ids: the memo serves stored bytes.
  EXPECT_EQ(lines[0].substr(std::string("ok m1 ").size()),
            lines[1].substr(std::string("ok m2 ").size()));

  const auto counters = server.counters_snapshot();
  EXPECT_EQ(counters.served, 2u);
  EXPECT_EQ(counters.memo_hits, 1u);
  EXPECT_GE(counters.batches, 1u);

  // The stats verb reports, then resets the window.
  server.submit("stats s1", sink);
  lines = replies.wait_for(3);
  EXPECT_NE(lines[2].find("served=2"), std::string::npos) << lines[2];
  EXPECT_NE(lines[2].find("memo_hits=1"), std::string::npos);
  server.submit("stats s2", sink);
  lines = replies.wait_for(4);
  EXPECT_NE(lines[3].find("served=0"), std::string::npos) << lines[3];
  server.submit("shutdown s3", sink);
}

TEST(AdvisorServer, ErrorRepliesCarryIdAndDiagnostic) {
  AdvisorServer server(test_mart(), {});
  ReplyCollector replies;
  const auto sink = replies.sink();
  server.submit("advise e1 gpu=NoSuchGpu", sink);
  server.submit("advise e2 dims=3", sink);
  server.submit("nonsense e3", sink);
  server.drain();
  auto lines = replies.wait_for(3);
  std::sort(lines.begin(), lines.end());
  EXPECT_EQ(lines[0].rfind("err -", 0), 0u);  // unknown verb: id unparsed
  EXPECT_EQ(lines[1], "err e1 StencilMart: unknown GPU NoSuchGpu");
  EXPECT_EQ(lines[2].rfind("err e2 ", 0), 0u);
  EXPECT_NE(lines[2].find("dimensionality"), std::string::npos);
}

TEST(AdvisorServer, PingAnswersImmediatelyAndBlankLinesAreIgnored) {
  AdvisorServer server(test_mart(), {});
  ReplyCollector replies;
  const auto sink = replies.sink();
  EXPECT_TRUE(server.submit("", sink));
  EXPECT_TRUE(server.submit("   ", sink));
  EXPECT_TRUE(server.submit("ping p1", sink));
  const auto lines = replies.snapshot();  // no wait: ping is synchronous
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], "ok p1 pong v1");
}

TEST(AdvisorServer, RejectsInvalidConfigAndUntrainedMart) {
  ServeConfig bad;
  bad.max_batch = 0;
  EXPECT_THROW(AdvisorServer(test_mart(), bad), std::invalid_argument);
  ServeConfig bad_queue;
  bad_queue.max_queue = 0;
  EXPECT_THROW(AdvisorServer(test_mart(), bad_queue), std::invalid_argument);
  ServeConfig bad_deadline;
  bad_deadline.deadline_us = -1;
  EXPECT_THROW(AdvisorServer(test_mart(), bad_deadline), std::invalid_argument);
  MartConfig config;
  const StencilMart untrained(config);
  EXPECT_THROW(AdvisorServer(untrained, {}), std::logic_error);
}

TEST(AdvisorServer, BoundedQueueShedsWithStructuredBusyError) {
  // Nothing can flush on its own (huge batch, huge timer), so the queue
  // holds exactly what submit() admits: the third request must be shed
  // synchronously with the fixed busy bytes, never buffered or dropped.
  ServeConfig config;
  config.max_batch = 4096;
  config.max_wait_us = 30'000'000;
  config.max_queue = 2;
  AdvisorServer server(test_mart(), config);
  ReplyCollector replies;
  const auto sink = replies.sink();
  server.submit("advise q1 shape=star order=1", sink);
  server.submit("advise q2 shape=star order=2", sink);
  server.submit("advise q3 shape=box order=1", sink);
  {
    const auto now = replies.snapshot();  // shed reply is synchronous
    ASSERT_EQ(now.size(), 1u);
    EXPECT_EQ(now[0], "err q3 busy (admission queue full)");
  }
  server.drain();
  auto lines = replies.wait_for(3);
  std::sort(lines.begin(), lines.end());
  EXPECT_EQ(lines[1].rfind("ok q1 ", 0), 0u);
  EXPECT_EQ(lines[2].rfind("ok q2 ", 0), 0u);
  const auto counters = server.counters_snapshot();
  EXPECT_EQ(counters.served, 2u);
  EXPECT_EQ(counters.shed_busy, 1u);
  EXPECT_EQ(counters.shed_deadline, 0u);
  EXPECT_EQ(counters.epoch, 1u);

  // The stats verb reports the shed counters and the (non-windowed) epoch.
  server.submit("stats st", sink);
  const auto after = replies.snapshot();
  ASSERT_EQ(after.size(), 4u);
  EXPECT_NE(after.back().find("shed_busy=1"), std::string::npos) << after.back();
  EXPECT_NE(after.back().find("shed_deadline=0"), std::string::npos);
  EXPECT_NE(after.back().find("epoch=1"), std::string::npos);
}

TEST(AdvisorServer, DeadlineShedsRequestsThatWaitedTooLong) {
  // Every request waits ~20ms for the timer flush but the deadline is 1us:
  // all of them must be shed with the fixed deadline bytes, and none may
  // reach the model.
  ServeConfig config;
  config.max_batch = 4096;
  config.max_wait_us = 20'000;
  config.deadline_us = 1;
  AdvisorServer server(test_mart(), config);
  ReplyCollector replies;
  const auto sink = replies.sink();
  server.submit("advise dl1 shape=star order=2", sink);
  server.submit("advise dl2 shape=box order=1", sink);
  server.drain();
  auto lines = replies.wait_for(2);
  std::sort(lines.begin(), lines.end());
  EXPECT_EQ(lines[0], "err dl1 deadline exceeded before execution");
  EXPECT_EQ(lines[1], "err dl2 deadline exceeded before execution");
  const auto counters = server.counters_snapshot();
  EXPECT_EQ(counters.served, 0u);
  EXPECT_EQ(counters.shed_deadline, 2u);
}

TEST(AdvisorServer, HealthzReportsEpochVersionChecksum) {
  AdvisorServer server(test_mart(), {});
  ReplyCollector replies;
  const auto sink = replies.sink();
  server.submit("healthz h1", sink);
  const auto lines = replies.snapshot();  // healthz is synchronous
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], "ok h1 healthz epoch=1 version=in-process checksum=-");
  // The in-process ctor has no provider: reload must refuse, not crash.
  server.submit("reload h2", sink);
  const auto after = replies.snapshot();
  ASSERT_EQ(after.size(), 2u);
  EXPECT_EQ(after.back(),
            "err h2 reload failed: reload unavailable (not serving from a "
            "model artifact)");
  EXPECT_EQ(server.epoch(), 1u);
}

/// Second trained mart with a different corpus seed: reload swaps to it and
/// the replies must flip to what a fresh server on B would produce.
const StencilMart& test_mart_b() {
  static const StencilMart mart = [] {
    MartConfig config;
    config.profile.dims = 2;
    config.profile.num_stencils = 10;
    config.profile.samples_per_oc = 2;
    config.profile.seed = 777;
    config.tuning_samples = 8;
    StencilMart m(config);
    m.train();
    return m;
  }();
  return mart;
}

TEST(AdvisorServer, ReloadSwapsModelBumpsEpochAndClearsMemo) {
  const auto wrap = [](const StencilMart& mart, std::string version,
                       std::string checksum) {
    return ModelSnapshot{
        std::shared_ptr<const StencilMart>(&mart, [](const StencilMart*) {}),
        std::move(version), std::move(checksum)};
  };
  AdvisorServer server(wrap(test_mart(), "vA", "aaaa"), {},
                       [&] { return wrap(test_mart_b(), "vB", "bbbb"); });
  ReplyCollector replies;
  const auto sink = replies.sink();
  const std::string request = "predict p0 shape=star order=2 gpu=V100";

  server.submit(request, sink);
  server.drain();
  const std::string reply_a = replies.wait_for(1)[0];

  server.submit("reload rl", sink);
  const auto mid = replies.snapshot();
  ASSERT_EQ(mid.size(), 2u);
  EXPECT_EQ(mid.back(), "ok rl reloaded epoch=2 version=vB checksum=bbbb");
  EXPECT_EQ(server.epoch(), 2u);
  EXPECT_EQ(server.model_snapshot().version, "vB");

  server.submit(request, sink);
  server.drain();
  const std::string reply_b = replies.wait_for(3)[2];
  // The two epochs trained on different corpora: the hexfloat payload
  // flips, and the memo cannot have served epoch-1 bytes for epoch 2.
  EXPECT_NE(reply_a, reply_b);
  EXPECT_EQ(server.counters_snapshot().memo_hits, 0u);

  // Replies on epoch 2 are bitwise what a fresh server on B produces.
  AdvisorServer fresh_b(test_mart_b(), {});
  ReplyCollector fresh_replies;
  fresh_b.submit(request, fresh_replies.sink());
  fresh_b.drain();
  EXPECT_EQ(reply_b, fresh_replies.wait_for(1)[0]);

  // The memo works again within the new epoch.
  server.submit(request, sink);
  server.drain();
  replies.wait_for(4);
  EXPECT_EQ(server.counters_snapshot().memo_hits, 1u);
}

TEST(AdvisorServer, FailedReloadLeavesServingModelUntouched) {
  const auto wrap = [](const StencilMart& mart) {
    return ModelSnapshot{
        std::shared_ptr<const StencilMart>(&mart, [](const StencilMart*) {}),
        "vA", "aaaa"};
  };
  int calls = 0;
  AdvisorServer server(wrap(test_mart()), {}, [&]() -> ModelSnapshot {
    ++calls;
    throw std::runtime_error("artifact truncated");
  });
  ReplyCollector replies;
  const auto sink = replies.sink();
  server.submit("reload rf", sink);
  const auto lines = replies.snapshot();
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], "err rf reload failed: artifact truncated");
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(server.epoch(), 1u);
  EXPECT_EQ(server.model_snapshot().version, "vA");
  // Still serving on the old model after the failed swap.
  server.submit("predict ps shape=star order=2 gpu=V100", sink);
  server.drain();
  EXPECT_EQ(replies.wait_for(2).back().rfind("ok ps predicted_ms=", 0), 0u);
}

TEST(AdvisorServer, ConcurrentProducersPreserveReplySet) {
  // submit() from many threads at once (the per-connection reader model):
  // the merged reply set must equal the serial golden run, every time.
  const auto requests = base_requests();
  ServeConfig config;
  config.max_batch = 4;
  config.max_wait_us = 100;
  const auto golden = run_request_set(requests, config);

  for (int round = 0; round < 5; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    AdvisorServer server(test_mart(), config);
    ReplyCollector replies;
    const auto sink = replies.sink();
    const int kProducers = 4;
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&, p] {
        for (std::size_t i = p; i < requests.size(); i += kProducers) {
          server.submit(requests[i], sink);
        }
      });
    }
    for (auto& t : producers) t.join();
    server.drain();
    auto lines = replies.wait_for(requests.size());
    std::sort(lines.begin(), lines.end());
    EXPECT_EQ(lines, golden);
  }
}

}  // namespace
}  // namespace smart::core
