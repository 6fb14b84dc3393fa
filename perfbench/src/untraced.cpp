// Untraced run: drives the shipped smartctl binary end to end and produces
// every end-to-end metric. It uses only the advise/predict/healthz/shutdown
// verbs, the profile/merge/train flags and /proc; it sets no inference knob
// and reads neither `stats` nor `--timing`. Every time it reports is
// divided by the host-speed factor over its own interval (host_speed.hpp).
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "core/profile_dataset.hpp"
#include "core/serialize.hpp"
#include "daemon.hpp"
#include "gpusim/gpu_spec.hpp"
#include "host_speed.hpp"
#include "oracle.hpp"
#include "util/task_pool.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace core = smart::core;

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::size_t units_per_corpus() {
  return static_cast<std::size_t>(kCorpusStencils) *
         core::ProfileDataset::num_ocs() * smart::gpusim::evaluation_gpus().size();
}

std::string join(const std::vector<double>& values) {
  std::string out;
  for (const double v : values) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%s%.4g", out.empty() ? "" : " ", v);
    out += buf;
  }
  return out;
}

// ----------------------------------------------------------- build phase --

/// One smartctl step: its interval and its CPU seconds.
struct Step {
  Interval timed;
  double cpu_s = 0.0;
};

/// The timed steps of one build.
struct BuildRepeat {
  std::vector<Step> profile, train;
  Interval pipeline;  // empty directory to verified artifacts
};

struct BuildSummary {
  std::vector<BuildRepeat> repeats;
  double maxrss_mb = 0.0;
  std::size_t steps = 0;
  std::size_t steps_failed = 0;
  std::string model;  // the 2-D artifact the daemon serves
  double corpus_mb = 0.0;
  double model_mb = 0.0;
  std::size_t work_units = 0;  // per repeat
};

/// The artifact passes the strict envelope reader (magic, size, checksum).
bool artifact_valid(const std::string& path) {
  try {
    core::inspect_model(path);
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

/// Builds corpora and models through the smartctl CLI, one repeat per
/// build_once() call, from an empty directory each time: `profile` the
/// golden 2-D corpus; the golden 3-D corpus as kShards `profile --shard i/N`
/// sweeps + `merge`; `train` on each corpus. Every workload builds the same
/// way (the serve workloads serve the 2-D artifact): a build of the 2-D
/// corpus alone lasts ~1.3 s, and its times spread by 0.1 (IQR/median over
/// five runs of 13 builds) where this one's spread by 0.04-0.07.
/// Every repeat must write byte-identical files; the golden corpora must
/// carry their recorded checksums.
class Builder {
 public:
  Builder(const RunContext& ctx, Verifier& verify)
      : ctx_(ctx),
        verify_(verify),
        dir_(ctx.work + "/build"),
        log_(ctx.work + "/steps.log"),
        order_rng_(derive_seed(ctx.seed, "shard-order")) {
    b_.model = dir_ + "/golden2d.smart";
    b_.work_units = 2 * units_per_corpus();
  }

  void build_once() {
    reset_dir(dir_);
    build();
    ++repeats_;
  }

  const BuildSummary& summary() const noexcept { return b_; }

 private:
  /// Runs one smartctl step.
  Step step(std::vector<std::string> args) {
    args.insert(args.begin(), ctx_.smartctl);
    const ChildResult r = run_child(args, log_);
    ++b_.steps;
    if (!r.ok) {
      ++b_.steps_failed;
      std::fprintf(stderr, "perfbench: step failed: %s %s (see %s)\n",
                   args[1].c_str(), args.size() > 2 ? args[2].c_str() : "",
                   log_.c_str());
    }
    b_.maxrss_mb = std::max(b_.maxrss_mb, r.maxrss_mb);
    return {r.timed, r.cpu_s};
  }

  std::vector<std::string> corpus_args(std::uint64_t seed) const {
    return {"--stencils", std::to_string(kCorpusStencils), "--samples",
            std::to_string(kCorpusSamples), "--seed", std::to_string(seed)};
  }

  void record(BuildRepeat repeat, Clock::time_point start, bool valid) {
    repeat.pipeline = {start, Clock::now()};
    b_.repeats.push_back(std::move(repeat));
    verify_.check(valid, "artifact fails the envelope check");
  }

  /// Outside the timed window: every repeat writes the first one's bytes.
  void check_repeat(const std::vector<std::string>& files) {
    std::vector<std::uint64_t> d;
    for (const std::string& f : files) d.push_back(fnv1a(read_file(f)));
    if (repeats_ == 0) {
      digests_ = d;
      b_.corpus_mb = b_.model_mb = 0.0;
      for (const std::string& f : files) {
        (f.ends_with(".smart") ? b_.model_mb : b_.corpus_mb) += file_mb(f);
      }
    } else {
      verify_.check(d == digests_, "build output bytes differ between repeats");
    }
  }

  void build() {
    const std::string c2 = dir_ + "/golden2d.txt", c3 = dir_ + "/golden3d.txt";
    const std::string m3 = dir_ + "/golden3d.smart";
    const auto shard_file = [&](int i) { return dir_ + "/shard" + std::to_string(i) + ".txt"; };
    const auto with = [&](std::vector<std::string> head) {
      for (std::string& a : corpus_args(kGoldenSeed)) head.push_back(std::move(a));
      return head;
    };
    // The seed orders the shard sweeps and the merge operands; the merged
    // bytes must not depend on either order.
    std::vector<int> sweep(kShards), operands(kShards);
    std::iota(sweep.begin(), sweep.end(), 0);
    std::iota(operands.begin(), operands.end(), 0);
    for (int i = kShards - 1; i > 0; --i) {
      const auto bound = static_cast<std::uint64_t>(i) + 1;
      std::swap(sweep[static_cast<std::size_t>(i)], sweep[order_rng_.below(bound)]);
      std::swap(operands[static_cast<std::size_t>(i)], operands[order_rng_.below(bound)]);
    }
    BuildRepeat repeat;
    const auto start = Clock::now();
    repeat.profile.push_back(step(with({"profile", "--dims", "2", "--out", c2})));
    for (const int i : sweep) {
      repeat.profile.push_back(step(with({"profile", "--dims", "3", "--shard",
                                          std::to_string(i) + "/" + std::to_string(kShards),
                                          "--out", shard_file(i)})));
    }
    std::vector<std::string> merge = {"merge", "--out", c3};
    for (const int i : operands) merge.push_back(shard_file(i));
    step(merge);
    repeat.train.push_back(step({"train", "--corpus", c2, "--out", b_.model}));
    repeat.train.push_back(step({"train", "--corpus", c3, "--out", m3}));
    record(std::move(repeat), start, artifact_valid(b_.model) && artifact_valid(m3));
    if (repeats_ == 0) {
      verify_.checksum("golden 2-D corpus", core::dataset_checksum(core::load_dataset(c2)),
                       kGolden2dChecksum);
      verify_.checksum("merged 3-D corpus", core::dataset_checksum(core::load_dataset(c3)),
                       kGolden3dChecksum);
    }
    check_repeat({c2, c3, b_.model, m3});
  }

  const RunContext& ctx_;
  Verifier& verify_;
  std::string dir_;
  std::string log_;
  Rng order_rng_;
  BuildSummary b_;
  std::vector<std::uint64_t> digests_;
  int repeats_ = 0;
};

// --------------------------------------------------------------- traffic --

struct TrafficResult {
  /// Latency of every answered timed request, by 1-s window of its
  /// scheduled send time.
  std::vector<std::vector<double>> windows;
  std::size_t sent = 0, ok = 0, err = 0, missing = 0, unexpected = 0;
  std::size_t timed_done = 0;
  std::size_t repeat_checks = 0, repeat_mismatches = 0;
  double max_late_us = 0.0;
  double cpu_s = 0.0;
  Interval cpu_window;  // when cpu_s was counted
  std::vector<std::string> errors;  // first few err replies
};

/// A contiguous part of a stream: requests [begin, end), sent at their
/// scheduled offsets from send_us[begin]; requests from `timed` on are
/// timed.
struct Slice {
  std::size_t begin = 0, timed = 0, end = 0;
};

/// First reply payload of every memo key one daemon has answered.
using FirstReplies = std::unordered_map<std::uint64_t, std::string>;

/// Open-loop load: one sender (this thread) writes each request at its
/// scheduled time, round-robin over `fds`; one receiver thread matches
/// replies by id. Latency is timed from the scheduled send time, so a stall
/// also delays every request due during it. Replies of requests flagged in
/// `keep` are stored in `kept`.
TrafficResult drive(const Stream& stream, Slice slice, pid_t daemon,
                    const std::vector<int>& fds, const std::vector<char>& keep,
                    std::vector<std::string>& kept, FirstReplies& first) {
  const std::size_t n = slice.end - slice.begin;
  const std::size_t conns = fds.size();
  const double origin_us = stream.send_us[slice.begin];
  std::vector<std::string> lines(n);
  for (std::size_t j = 0; j < n; ++j) lines[j] = stream.line(slice.begin + j) + '\n';

  TrafficResult out;
  std::vector<double> recv_us(n, -1.0);
  std::vector<std::atomic<int>> inflight(conns);
  std::atomic<bool> sender_done{false};
  const auto t0 = Clock::now() + std::chrono::milliseconds(5);
  const auto offset_us = [t0, origin_us](Clock::time_point t) {
    return origin_us + std::chrono::duration<double, std::micro>(t - t0).count();
  };

  std::thread receiver([&] {
    std::vector<std::string> bufs(conns);
    std::vector<pollfd> pfds;
    for (const int fd : fds) pfds.push_back({fd, POLLIN, 0});
    std::size_t received = 0;
    std::optional<Clock::time_point> drain_deadline;
    const auto handle = [&](std::string_view line, std::size_t c, double t_us) {
      const std::size_t sp1 = line.find(' ');
      const std::size_t sp2 = line.find(' ', sp1 == line.npos ? 0 : sp1 + 1);
      const std::string_view id =
          sp1 == line.npos ? std::string_view{} : line.substr(sp1 + 1, sp2 - sp1 - 1);
      std::size_t idx = slice.end;
      if (id.size() > 1 && id[0] == 'r') {
        idx = 0;
        for (const char ch : id.substr(1)) {
          if (ch < '0' || ch > '9' || idx > slice.end) {
            idx = slice.end;
            break;
          }
          idx = idx * 10 + static_cast<std::size_t>(ch - '0');
        }
      }
      if (idx < slice.begin || idx >= slice.end || recv_us[idx - slice.begin] >= 0.0) {
        ++out.unexpected;  // unknown id, or a second reply to one request
        return;
      }
      recv_us[idx - slice.begin] = t_us;
      ++received;
      inflight[c].fetch_sub(1, std::memory_order_relaxed);
      if (line.substr(0, sp1) == "ok") {
        ++out.ok;
        const std::string_view payload =
            sp2 == line.npos ? std::string_view{} : line.substr(sp2 + 1);
        const auto [it, inserted] = first.try_emplace(stream.key(idx), payload);
        if (!inserted) {
          ++out.repeat_checks;
          if (it->second != payload) ++out.repeat_mismatches;
        }
      } else {
        ++out.err;
        if (out.errors.size() < 5) out.errors.emplace_back(line);
      }
      if (keep[idx]) kept[idx] = std::string(line);
    };
    char chunk[1 << 16];
    while (received < n) {
      if (sender_done.load(std::memory_order_acquire)) {
        if (!drain_deadline) drain_deadline = Clock::now() + std::chrono::seconds(15);
        if (Clock::now() > *drain_deadline) break;
      }
      if (::poll(pfds.data(), pfds.size(), 20) <= 0) continue;
      for (std::size_t c = 0; c < conns; ++c) {
        if (pfds[c].fd < 0 || pfds[c].revents == 0) continue;
        const ssize_t got = ::read(pfds[c].fd, chunk, sizeof chunk);
        if (got <= 0) {
          if (got < 0 && errno == EINTR) continue;
          pfds[c].fd = -1;  // the daemon closed this connection
          continue;
        }
        const double t_us = offset_us(Clock::now());
        std::string& buf = bufs[c];
        buf.append(chunk, static_cast<std::size_t>(got));
        std::size_t pos = 0;
        for (std::size_t nl; (nl = buf.find('\n', pos)) != std::string::npos; pos = nl + 1) {
          handle(std::string_view(buf).substr(pos, nl - pos), c, t_us);
        }
        buf.erase(0, pos);
      }
    }
  });

  std::vector<std::string> batch(conns);
  double cpu0 = 0.0;
  std::size_t i = slice.begin;
  const auto start_cpu = [&] {
    cpu0 = process_cpu_s(daemon);
    out.cpu_window.from = Clock::now();
  };
  if (slice.timed == slice.begin) start_cpu();
  try {
    while (i < slice.end) {
      const auto due = t0 + std::chrono::nanoseconds(static_cast<std::int64_t>(
                                (stream.send_us[i] - origin_us) * 1e3));
      if (Clock::now() < due) {
        std::this_thread::sleep_until(due);
        continue;
      }
      const auto now = Clock::now();
      const double now_us = offset_us(now);
      for (std::string& b : batch) b.clear();
      bool throttled = false;
      while (i < slice.end && stream.send_us[i] <= now_us) {
        const std::size_t c = i % conns;
        if (inflight[c].load(std::memory_order_relaxed) >= kInflightLimit) {
          throttled = true;  // stay below the daemon's per-connection cap
          break;
        }
        if (i == slice.timed) start_cpu();
        if (i >= slice.timed) {
          out.max_late_us = std::max(out.max_late_us, now_us - stream.send_us[i]);
        }
        batch[c] += lines[i - slice.begin];
        inflight[c].fetch_add(1, std::memory_order_relaxed);
        ++i;
        ++out.sent;
      }
      for (std::size_t c = 0; c < conns; ++c) {
        if (!batch[c].empty()) write_all(fds[c], batch[c]);
      }
      if (throttled) std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  } catch (...) {
    sender_done.store(true, std::memory_order_release);
    receiver.join();
    throw;
  }
  sender_done.store(true, std::memory_order_release);
  receiver.join();
  if (slice.timed < slice.end) {
    out.cpu_s = process_cpu_s(daemon) - cpu0;
    out.cpu_window.to = Clock::now();
  }
  for (std::size_t k = slice.begin; k < slice.end; ++k) {
    const double got = recv_us[k - slice.begin];
    if (got < 0.0) {
      ++out.missing;
    } else if (k >= slice.timed) {
      const auto w = static_cast<std::size_t>(
          (stream.send_us[k] - stream.send_us[slice.timed]) / 1e6);
      if (w >= out.windows.size()) out.windows.resize(w + 1);
      out.windows[w].push_back(got - stream.send_us[k]);
      ++out.timed_done;
    }
  }
  return out;
}

/// Seeded oracle sample: first-time timed requests of each verb.
std::vector<std::size_t> oracle_sample(const Stream& stream, std::uint64_t seed) {
  std::unordered_set<std::uint64_t> seen;
  std::vector<std::size_t> advise, predict;
  for (std::size_t i = 0; i < stream.requests.size(); ++i) {
    if (!seen.insert(stream.key(i)).second || i < stream.warm) continue;
    (stream.requests[i].verb == Verb::kAdvise ? advise : predict).push_back(i);
  }
  Rng rng(seed);
  std::vector<std::size_t> out;
  for (auto* pool : {&advise, &predict}) {
    const std::size_t want = pool == &advise ? kAdviseSample : kPredictSample;
    const std::size_t take = std::min(want, pool->size());
    for (std::size_t k = 0; k < take; ++k) {
      std::swap((*pool)[k], (*pool)[k + rng.below(pool->size() - k)]);
      out.push_back((*pool)[k]);
    }
  }
  return out;
}

/// Sums of the traffic phases of one run.
struct TrafficTotals {
  std::vector<double> p50s, p99s;  // per full 1-s window
  std::size_t min_window = SIZE_MAX;
  std::size_t requests = 0, sent = 0, ok = 0, err = 0, missing = 0, unexpected = 0;
  std::size_t timed = 0, repeat_checks = 0, repeat_mismatches = 0;
  std::vector<std::pair<Interval, double>> cpu;  // daemon CPU seconds per slice
  double max_late_us = 0.0;
  double hwm_mb = 0.0;
  std::vector<std::string> errors;

  void add(const TrafficResult& t, std::size_t slice_requests) {
    // Latency percentiles per 1-s window, reported as the median over the
    // windows: a typical second's p50 and p99, so one burst of host
    // interference moves the result by one window, not by its whole tail.
    for (const auto& w : t.windows) {
      if (w.size() < 1000) continue;  // a partial window
      p50s.push_back(percentile(w, 50.0));
      p99s.push_back(percentile(w, 99.0));
      min_window = std::min(min_window, w.size());
    }
    requests += slice_requests;
    sent += t.sent;
    ok += t.ok;
    err += t.err;
    missing += t.missing;
    unexpected += t.unexpected;
    timed += t.timed_done;
    repeat_checks += t.repeat_checks;
    repeat_mismatches += t.repeat_mismatches;
    if (t.timed_done > 0) cpu.emplace_back(t.cpu_window, t.cpu_s);
    max_late_us = std::max(max_late_us, t.max_late_us);
    for (const std::string& e : t.errors) {
      if (errors.size() < 5) errors.push_back(e);
    }
  }
};

class Runner {
 public:
  Runner(const RunContext& ctx, Outcome& o)
      : ctx_(ctx), o_(o), builder_(ctx, verify_),
        socket_(ctx.work + "/serve.sock"),
        probe_socket_(ctx.work + "/probe.sock"),
        daemon_log_(ctx.work + "/daemon.log") {}

  void run() {
    const CpuStat host0 = read_cpu_stat();
    if (ctx_.spec.kind == Workload::kOfflineBuild) {
      run_offline();
    } else {
      run_serve();
    }
    steal_pct_ = steal_pct(host0, read_cpu_stat());
    check_oracle();
    report();
  }

 private:
  /// One daemon start-up sample on `socket`; the daemon is returned
  /// running when `keep`.
  std::unique_ptr<Daemon> start(const std::string& socket, bool keep) {
    auto daemon = std::make_unique<Daemon>(ctx_.smartctl, builder_.summary().model,
                                           socket, daemon_log_);
    ++o_.attempted;
    const double seconds = daemon->wait_healthy(60.0);
    const auto healthy = Clock::now();
    setup_.push_back({healthy - std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(seconds)),
                      healthy});
    if (keep) return daemon;
    stop(*daemon);
    return nullptr;
  }

  /// A start-up sample that does not disturb the serving daemon.
  void probe() { start(probe_socket_, false); }

  void stop(Daemon& daemon) {
    ++o_.attempted;
    if (!daemon.shutdown()) ++o_.failed;
  }

  /// A serving daemon with the load generator's connections to it.
  class Session {
   public:
    explicit Session(Runner& runner)
        : runner_(runner), daemon_(runner.start(runner.socket_, true)) {
      for (int c = 0; c < kConnections; ++c) {
        const int fd = connect_socket(runner.socket_);
        if (fd < 0) throw std::runtime_error("cannot connect to the daemon");
        fds_.push_back(fd);
      }
    }
    ~Session() {
      for (const int fd : fds_) ::close(fd);
    }
    Session(const Session&) = delete;
    Session& operator=(const Session&) = delete;

    void run(const Stream& stream, const Slice& slice, const std::vector<char>& keep) {
      const TrafficResult t =
          drive(stream, slice, daemon_->pid(), fds_, keep, runner_.kept_, first_);
      runner_.totals_.add(t, slice.end - slice.begin);
    }

    /// Peak RSS, then drain and stop the daemon.
    void finish() {
      runner_.totals_.hwm_mb =
          std::max(runner_.totals_.hwm_mb, process_hwm_mb(daemon_->pid()));
      for (const int fd : fds_) ::close(fd);
      fds_.clear();
      runner_.stop(*daemon_);
    }

   private:
    Runner& runner_;
    std::unique_ptr<Daemon> daemon_;
    std::vector<int> fds_;
    FirstReplies first_;
  };

  /// serve_*: one continuous daemon. The timed traffic is cut into
  /// kServeBuilds - 1 slices; after each, the daemon idles (memo kept)
  /// while one build and two start-up samples run. Repeats of the one-off
  /// steps and the latency windows are spread over the whole run instead of
  /// sharing one stretch of host state.
  void run_serve() {
    builder_.build_once();
    probe();
    probe();
    stream_ = make_stream(ctx_.spec.traffic, derive_seed(ctx_.seed, "traffic"));
    const std::vector<char> keep = sample_keep(stream_);
    Session session(*this);
    const std::size_t n = stream_.requests.size();
    session.run(stream_, {0, stream_.warm, stream_.warm}, keep);  // untimed warm-up
    const int slices = kServeBuilds - 1;
    const double t_warm = ctx_.spec.traffic.warm_s * 1e6;
    const double slice_us = ctx_.spec.traffic.timed_s * 1e6 / slices;
    std::size_t begin = stream_.warm;
    for (int k = 0; k < slices; ++k) {
      const double limit = t_warm + slice_us * (k + 1);
      std::size_t end = begin;
      while (end < n && (k + 1 == slices || stream_.send_us[end] < limit)) ++end;
      session.run(stream_, {begin, begin, end}, keep);
      begin = end;
      builder_.build_once();
      probe();
      probe();
    }
    session.finish();
  }

  /// offline_build: repeated builds until the measured seconds are used;
  /// after each, two start-ups on the fresh 2-D artifact, one of which then
  /// serves a 1.5-s cold stream that verifies it.
  void run_offline() {
    const auto begin = Clock::now();
    for (int it = 0; it < kMaxBuilds; ++it) {
      if (it >= kMinBuilds && seconds_between(begin, Clock::now()) >= ctx_.seconds) break;
      builder_.build_once();
      probe();
      // Each build gets its own stream; the first one's is the oracle's.
      const Stream stream = make_stream(
          ctx_.spec.traffic, derive_seed(ctx_.seed, "verify-" + std::to_string(it)));
      std::vector<char> keep(stream.requests.size(), 0);
      if (it == 0) {
        stream_ = stream;
        keep = sample_keep(stream_);
      }
      Session session(*this);
      session.run(stream, {0, stream.warm, stream.requests.size()}, keep);
      session.finish();
    }
  }

  std::vector<char> sample_keep(const Stream& stream) {
    sample_ = oracle_sample(stream, derive_seed(ctx_.seed, "sample"));
    kept_.assign(stream.requests.size(), {});
    std::vector<char> keep(stream.requests.size(), 0);
    for (const std::size_t i : sample_) keep[i] = 1;
    return keep;
  }

  /// Sampled replies must be byte-equal to the per-item advise report on
  /// the same artifact; advice quality over the advise part of the sample.
  void check_oracle() {
    const core::StencilMart mart = core::load_model(builder_.summary().model);
    std::vector<Expected> expected(sample_.size());
    std::vector<QualityTerm> quality(sample_.size());
    std::vector<std::string> oracle_error(sample_.size());
    smart::util::parallel_for(sample_.size(), [&](std::size_t k) {
      const Request& r = stream_.requests[sample_[k]];
      try {
        const auto pattern = to_pattern(stream_.stencils[r.stencil]);
        expected[k] = expected_reply(mart, pattern, r.verb, kGpus[r.gpu]);
        if (r.verb == Verb::kAdvise) {
          quality[k] = quality_term(mart, pattern, kGpus[r.gpu], expected[k].advice);
        }
      } catch (const std::exception& e) {
        oracle_error[k] = e.what();
      }
    });
    for (std::size_t k = 0; k < sample_.size(); ++k) {
      const std::size_t i = sample_[k];
      const std::string id = "r" + std::to_string(i);
      if (!verify_.check(oracle_error[k].empty(), "oracle failed on " + id + ": " + oracle_error[k])) {
        continue;
      }
      verify_.reply(id, kept_[i], id, expected[k].payload);
      if (stream_.requests[i].verb == Verb::kAdvise) {
        regrets_.push_back(quality[k].regret);
        apes_.push_back(quality[k].ape);
      }
    }
    if (regrets_.empty()) throw std::runtime_error("empty advice-quality sample");
    verify_.tally(totals_.repeat_checks, totals_.repeat_mismatches,
                  "memo repeats vs first reply");
  }

  void report() {
    const BuildSummary& b = builder_.summary();
    const TrafficTotals& t = totals_;
    if (t.p99s.empty()) throw std::runtime_error("too few timed samples for p99");
    o_.attempted += b.steps + t.requests + verify_.checks();
    o_.failed += b.steps_failed + t.err + t.missing + t.unexpected + verify_.mismatches();
    o_.correct = o_.failed == 0;

    // Every time as measured (raw) and at the nominal host speed: raw ÷ the
    // host-speed factor over its own interval (host_speed.hpp). The
    // normalized times are reported. The profile throughput counts the
    // steps' CPU seconds, not their wall time: with the pool's two threads,
    // a profile step read 1.9 times slower at 17% steal, far past what
    // 1 / (1 - steal) corrects; its CPU seconds go through the CPU factor.
    const auto wall = [&](const std::vector<Step>& steps, bool normalized) {
      double total = 0.0;
      for (const Step& s : steps) {
        total += normalized ? speed_.normalized_s(s.timed) : s.timed.seconds();
      }
      return total;
    };
    const auto cpu = [&](const std::vector<Step>& steps, bool normalized) {
      double total = 0.0;
      for (const Step& s : steps) {
        total += normalized ? s.cpu_s / speed_.cpu_factor(s.timed) : s.cpu_s;
      }
      return total;
    };
    // The first build is a warm-up: cold page cache, and a reference thread
    // that has only just started (with a wall-time factor, the first
    // build's read 0.5 or 2.1 where later builds read 1.0-1.2).
    const std::vector<BuildRepeat> builds(b.repeats.begin() + kWarmupBuilds, b.repeats.end());
    std::vector<double> units_per_s[2], train_s[2], pipeline_s[2], setup_s[2], factors;
    for (const int n : {0, 1}) {
      for (const BuildRepeat& r : builds) {
        units_per_s[n].push_back(static_cast<double>(b.work_units) / cpu(r.profile, n));
        train_s[n].push_back(wall(r.train, n));
        pipeline_s[n].push_back(n ? speed_.normalized_s(r.pipeline) : r.pipeline.seconds());
      }
      for (const Interval& i : setup_) setup_s[n].push_back(n ? speed_.normalized_s(i) : i.seconds());
    }
    double cpu_s[2] = {0.0, 0.0};
    for (const auto& [window, seconds] : t.cpu) {
      cpu_s[0] += seconds;
      cpu_s[1] += seconds / speed_.cpu_factor(window);
      factors.push_back(speed_.cpu_factor(window));
    }
    for (const BuildRepeat& r : builds) factors.push_back(speed_.wall_factor(r.pipeline));
    const std::vector<SpeedSample> chunks = speed_.samples();

    const InputProperties props = input_properties(stream_);
    std::printf("host speed: %zu reference chunks, CPU factor per traffic slice, wall "
                "factor per build [%s] (1 = nominal %.2f ms chunk, no steal); every time "
                "below is raw -> normalized\n",
                chunks.size(), join(factors).c_str(), kNominalChunkS * 1e3);
    std::printf("build: %zu steps (%zu failed); per build after %d warm-up: "
                "profile_units_per_s [%s] -> "
                "[%s] train_s [%s] -> [%s] pipeline_s [%s] -> [%s]\n",
                b.steps, b.steps_failed, kWarmupBuilds, join(units_per_s[0]).c_str(),
                join(units_per_s[1]).c_str(), join(train_s[0]).c_str(),
                join(train_s[1]).c_str(), join(pipeline_s[0]).c_str(),
                join(pipeline_s[1]).c_str());
    std::printf("startups: setup_s [%s] -> [%s]\n", join(setup_s[0]).c_str(),
                join(setup_s[1]).c_str());
    std::printf("daemon cpu: %.4f s -> %.4f s over %zu timed requests\n", cpu_s[0],
                cpu_s[1], t.timed);
    std::printf("traffic: %zu requests at %.0f rps on %d connections: sent %zu ok %zu "
                "err %zu missing %zu unexpected %zu; %zu timed samples in %zu 1-s "
                "windows (smallest %zu: %zu beyond its p99)\n",
                t.requests, ctx_.spec.traffic.rate_rps, kConnections, t.sent, t.ok, t.err,
                t.missing, t.unexpected, t.timed, t.p99s.size(), t.min_window,
                t.min_window - static_cast<std::size_t>(0.99 * static_cast<double>(t.min_window)));
    // Latency is reported but not gated: host steal sets it (a run at 10-13%
    // steal read the p50 2-2.4x higher), and host stalls of several ms set
    // each window's p99.
    std::printf("latency per window (p50/p99 us): [%s] / [%s]; latency_p50_us %.1f "
                "latency_p99_us %.1f (medians over windows)\n",
                join(t.p50s).c_str(), join(t.p99s).c_str(), median(t.p50s),
                median(t.p99s));
    for (const std::string& e : t.errors) std::printf("  err reply: %s\n", e.c_str());
    std::printf("validity: host.steal_pct %.3f load.max_late_us %.1f\n", steal_pct_,
                t.max_late_us);
    std::printf("inputs: input.repeat_share %.6f input.shared_variant_share %.6f "
                "input.variants_per_req %.6f (timed %zu, first-time %zu) "
                "input.work_units %zu serialize.corpus_mb %.3f serialize.model_mb %.3f\n",
                props.repeat_share, props.shared_variant_share, props.variants_per_req,
                props.timed, props.first_time, b.work_units, b.corpus_mb, b.model_mb);
    std::printf("verify: %zu checks, %zu mismatches; oracle sample %zu (%zu advise)\n",
                verify_.checks(), verify_.mismatches(), sample_.size(), regrets_.size());
    for (const std::string& note : verify_.notes()) std::printf("  mismatch: %s\n", note.c_str());

    double ape_sum = 0.0;
    for (const double a : apes_) ape_sum += a;
    const bool offline = ctx_.spec.kind == Workload::kOfflineBuild;
    Metrics& m = o_.metrics;
    m.add("setup_s", median(setup_s[1]), "s");
    m.add("cpu_us_per_req", cpu_s[1] * 1e6 / static_cast<double>(t.timed), "us");
    m.add("peak_rss_mb", offline ? b.maxrss_mb : t.hwm_mb, "MB");
    m.add("advice_regret", geomean(regrets_), "ratio");
    m.add("predict_mape", 100.0 * ape_sum / static_cast<double>(apes_.size()), "%");
    // Builds last seconds, so there are few of them: their middle half
    // gives a steadier centre than the median of 5-7 values (0.06-0.07
    // against 0.09-0.10 IQR/median over ten serve_cold runs).
    m.add("profile_units_per_s", interquartile_mean(units_per_s[1]), "1/s");
    m.add("train_s", interquartile_mean(train_s[1]), "s");
    m.add("pipeline_s", interquartile_mean(pipeline_s[1]), "s");
  }

  const RunContext& ctx_;
  Outcome& o_;
  HostSpeed speed_;  // runs for the whole run
  Verifier verify_;
  Builder builder_;
  std::string socket_, probe_socket_, daemon_log_;
  std::vector<Interval> setup_;  // daemon start-ups
  TrafficTotals totals_;
  Stream stream_;                    // the stream the oracle sample is drawn from
  std::vector<std::size_t> sample_;  // oracle sample (indices into stream_)
  std::vector<std::string> kept_;    // replies of stream_, kept for the sample
  std::vector<double> regrets_, apes_;
  double steal_pct_ = 0.0;
};

}  // namespace

Outcome run_untraced(const RunContext& ctx) {
  Outcome o;
  Runner(ctx, o).run();
  return o;
}

}  // namespace perfbench
