// Traced run: replays the workload's inputs in-process through each layer's
// public functions, with spans recorded around every call, and reduces the
// spans, the program's phase table (util::timing_snapshot) and the serve
// counters (AdvisorServer::counters_snapshot) to the per-layer metrics.
// End-to-end numbers never come from this run.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "core/advisor_server.hpp"
#include "core/classification.hpp"
#include "core/corpus_merge.hpp"
#include "core/oc_merger.hpp"
#include "core/profile_dataset.hpp"
#include "core/regression.hpp"
#include "core/serialize.hpp"
#include "core/serve_protocol.hpp"
#include "daemon.hpp"
#include "ml/gbdt.hpp"
#include "oracle.hpp"
#include "spans.hpp"
#include "stencil/features.hpp"
#include "util/task_pool.hpp"
#include "util/timing.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace core = smart::core;
using smart::util::PhaseStats;

constexpr std::size_t kPings = 2000;
constexpr std::size_t kClosedLoopItems = 1500;
constexpr std::size_t kBatch = 8;  // the daemon's default --max-batch
constexpr double kReplaySeconds = 6.0;

using PhaseTable = std::map<std::string, PhaseStats>;

PhaseTable phases() {
  PhaseTable t;
  for (auto& [name, stats] : smart::util::timing_snapshot()) t[name] = stats;
  return t;
}

/// Growth of one phase between two snapshots.
PhaseStats delta(const PhaseTable& before, const PhaseTable& after,
                 const std::string& name) {
  PhaseStats d;
  const auto a = after.find(name);
  if (a == after.end()) return d;
  d = a->second;
  const auto b = before.find(name);
  if (b != before.end()) {
    d.wall_ms -= b->second.wall_ms;
    d.calls -= b->second.calls;
    d.tasks -= b->second.tasks;
  }
  return d;
}

double per_task(const PhaseStats& s, double scale) {
  return s.tasks == 0 ? 0.0 : s.wall_ms * scale / static_cast<double>(s.tasks);
}

double process_cpu_self_s() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
         static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec) / 1e6;
}

double ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

core::ProfileConfig corpus_config(int dims, std::uint64_t seed) {
  core::ProfileConfig c;
  c.dims = dims;
  c.num_stencils = kCorpusStencils;
  c.samples_per_oc = kCorpusSamples;
  c.seed = seed;
  return c;
}

/// The MartConfig `smartctl train` uses.
core::MartConfig train_config() {
  core::MartConfig c;
  c.regression.instance_cap = 3000;
  return c;
}

/// Adds phase-table children under `parent`, back to back from its start:
/// the table records durations, not timestamps.
void add_phase_children(SpanRecorder& rec, int parent, const PhaseTable& before,
                        const PhaseTable& after,
                        const std::vector<std::pair<const char*, const char*>>& map) {
  if (parent < 0) return;
  std::int64_t at = rec.spans()[static_cast<std::size_t>(parent)].start_ns;
  for (const auto& [phase, span] : map) {
    const auto dur = static_cast<std::int64_t>(delta(before, after, phase).wall_ms * 1e6);
    rec.add(span, at, at + dur, parent);
    at += dur;
  }
}

// ----------------------------------------------------------- build stage --

struct BuildLayers {
  double generate_ms = 0, settings_ms = 0, sweep_ms = 0, parallel_eff = 0;
  double analyze_ns = 0, evaluate_ns = 0;
  double fold_ms = 0, corpus_save_ms = 0, corpus_load_ms = 0, model_save_ms = 0;
  double merger_fit_ms = 0, classifier_fit_ms = 0, regressor_fit_ms = 0;
  double corpus_mb = 0, model_mb = 0;
  double work_units = 0;
  double stage_coverage_pct = 0;
  std::size_t stages = 0;
  std::string model;  // the 2-D artifact served afterwards
};

/// The build pipeline, as the CLI steps of the untraced run split it:
/// `profile` (build + save) of a whole corpus, shard sweeps + `merge`
/// (load + merge + save), and `train` (load + fit + save) per final corpus.
/// offline_build replays the untraced build (the golden 3-D corpus as
/// kShards shards); serve_* replays a shorter one, the golden 2-D corpus
/// trained on and also swept as 2 shards, which exercises the same layers.
BuildLayers traced_build(const RunContext& ctx, SpanRecorder& rec, Verifier& verify) {
  BuildLayers L;
  const bool offline = ctx.spec.kind == Workload::kOfflineBuild;
  const std::string dir = ctx.work + "/build";
  reset_dir(dir);
  const core::ProfileConfig whole_cfg = corpus_config(2, kGoldenSeed);
  const core::ProfileConfig shard_cfg = offline ? corpus_config(3, kGoldenSeed) : whole_cfg;
  const std::size_t shards = offline ? kShards : 2;
  const std::string whole_path = dir + "/whole.txt";
  const std::string merged_path = dir + "/merged.txt";
  const PhaseTable at_start = phases();

  const int root = rec.open("perfbench.pipeline");
  std::uint64_t whole_checksum = 0;
  {
    const SpanRecorder::Scope step(rec, "cli.profile", root, 0);
    const PhaseTable before = phases();
    const double cpu0 = process_cpu_self_s();
    const auto t0 = Clock::now();
    const int build = rec.open("profile_dataset.build_profile_dataset", step.index(), 0);
    const core::ProfileDataset ds = core::build_profile_dataset(whole_cfg);
    rec.close(build);
    const double wall = seconds_between(t0, Clock::now());
    L.parallel_eff = (process_cpu_self_s() - cpu0) /
                     (wall * static_cast<double>(smart::util::parallel_threads()));
    const PhaseTable after = phases();
    add_phase_children(rec, build, before, after,
                       {{"profile.generate", "stencil.generate"},
                        {"profile.settings", "profile_dataset.settings"},
                        {"profile.measure", "profile_dataset.sweep"}});
    L.generate_ms = delta(before, after, "profile.generate").wall_ms;
    L.settings_ms = delta(before, after, "profile.settings").wall_ms;
    L.sweep_ms = delta(before, after, "profile.measure").wall_ms;
    whole_checksum = core::dataset_checksum(ds);
    const int save = rec.open("serialize.save_dataset", step.index(), 0);
    core::save_dataset(ds, whole_path);
    rec.close(save);
    L.corpus_save_ms = ms(rec.duration_ns(save));
  }
  for (std::size_t i = 0; i < shards; ++i) {
    const SpanRecorder::Scope step(rec, "cli.profile", root, static_cast<std::int64_t>(i + 1));
    core::ProfileRunOptions run;
    run.shard = {i, shards};
    const int build = rec.open("profile_dataset.build_profile_dataset", step.index(),
                               static_cast<std::int64_t>(i + 1));
    const core::ProfileDataset ds = core::build_profile_dataset(shard_cfg, run);
    rec.close(build);
    const SpanRecorder::Scope save(rec, "serialize.save_dataset", step.index(),
                                   static_cast<std::int64_t>(i + 1));
    core::save_dataset(ds, dir + "/shard" + std::to_string(i) + ".txt");
  }
  std::uint64_t merged_checksum = 0;
  {
    const SpanRecorder::Scope step(rec, "cli.merge", root);
    std::vector<core::ProfileDataset> parts;
    std::vector<std::string> sources;
    for (std::size_t i = 0; i < shards; ++i) {
      sources.push_back(dir + "/shard" + std::to_string(i) + ".txt");
      const SpanRecorder::Scope load(rec, "serialize.load_dataset", step.index(),
                                     static_cast<std::int64_t>(i + 1));
      parts.push_back(core::load_dataset(sources.back()));
    }
    const int merge = rec.open("corpus_merge.merge_shard_corpora", step.index());
    const core::ProfileDataset merged = core::merge_shard_corpora(std::move(parts), sources);
    rec.close(merge);
    L.fold_ms = ms(rec.duration_ns(merge));
    merged_checksum = core::dataset_checksum(merged);
    const SpanRecorder::Scope save(rec, "serialize.save_dataset", step.index());
    core::save_dataset(merged, merged_path);
  }
  // serve_* trains on the whole corpus only (its merged twin is identical);
  // offline_build trains on both golden corpora.
  std::vector<std::string> corpora = {whole_path};
  if (offline) corpora.push_back(merged_path);
  for (std::size_t c = 0; c < corpora.size(); ++c) {
    const std::string model = dir + "/model" + std::to_string(c) + ".smart";
    const SpanRecorder::Scope step(rec, "cli.train", root, static_cast<std::int64_t>(c));
    const int load = rec.open("serialize.load_dataset", step.index(), static_cast<std::int64_t>(c));
    const core::ProfileDataset ds = core::load_dataset(corpora[c]);
    rec.close(load);
    core::StencilMart mart(train_config());
    {
      const SpanRecorder::Scope fit(rec, "mart.train", step.index(), static_cast<std::int64_t>(c));
      mart.train(ds);
    }
    const int save = rec.open("serialize.save_model", step.index(), static_cast<std::int64_t>(c));
    core::save_model(mart, model);
    rec.close(save);
    if (c == 0) {
      L.corpus_load_ms = ms(rec.duration_ns(load));
      L.model_save_ms = ms(rec.duration_ns(save));
      L.model = model;
    }
    L.corpus_mb += file_mb(corpora[c]);
    L.model_mb += file_mb(model);
  }
  {
    const SpanRecorder::Scope step(rec, "cli.verify", root);
    const SpanRecorder::Scope inspect(rec, "serialize.inspect_model", step.index());
    core::inspect_model(L.model);
  }
  rec.close(root);

  const PhaseTable at_end = phases();
  L.analyze_ns = per_task(delta(at_start, at_end, "profile.analyze"), 1e6);
  L.evaluate_ns = per_task(delta(at_start, at_end, "profile.evaluate"), 1e6);
  L.work_units = static_cast<double>(corpora.size() * kCorpusStencils *
                                     core::ProfileDataset::num_ocs() * kGpus.size());
  std::int64_t staged = 0;
  for (const Span& s : rec.spans()) {
    if (s.parent != root) continue;
    staged += s.end_ns - s.start_ns;
    ++L.stages;
  }
  L.stage_coverage_pct = 100.0 * static_cast<double>(staged) /
                         static_cast<double>(rec.duration_ns(root));

  verify.checksum("golden 2-D corpus", whole_checksum, kGolden2dChecksum);
  verify.checksum(offline ? "merged 3-D corpus" : "merged 2-shard 2-D corpus",
                  merged_checksum, offline ? kGolden3dChecksum : kGolden2dChecksum);

  // Fit breakdown, outside the pipeline: the steps of StencilMart::train
  // replayed through the public fit functions on the served corpus.
  {
    const int breakdown = rec.open("perfbench.fit_breakdown");
    const core::ProfileDataset ds = core::load_dataset(whole_path);
    const core::MartConfig cfg = train_config();
    core::OcMerger merger;
    int span = rec.open("oc_merger.fit", breakdown);
    merger.fit(ds);
    rec.close(span);
    L.merger_fit_ms = ms(rec.duration_ns(span));
    const smart::ml::Matrix features = core::stencil_feature_matrix(ds);
    for (std::size_t g = 0; g < ds.num_gpus(); ++g) {
      const std::vector<int> labels = core::true_groups(ds, merger, g);
      std::vector<std::size_t> rows;
      std::vector<int> y;
      for (std::size_t s = 0; s < labels.size(); ++s) {
        if (labels[s] >= 0) {
          rows.push_back(s);
          y.push_back(labels[s]);
        }
      }
      smart::ml::GbdtClassifier clf;
      span = rec.open("classification.gbdt_fit", breakdown, static_cast<std::int64_t>(g));
      clf.fit(features.gather_rows(rows), y, merger.num_groups());
      rec.close(span);
      L.classifier_fit_ms += ms(rec.duration_ns(span));
    }
    core::RegressionTask task(ds, cfg.regression);
    span = rec.open("regression.fit_full", breakdown);
    task.fit_full(cfg.regressor);
    rec.close(span);
    L.regressor_fit_ms = ms(rec.duration_ns(span));
    rec.close(breakdown);
  }
  return L;
}

// ----------------------------------------------------------- serve stage --

struct ServeLayers {
  double ping_rtt_us = 0, parse_ns = 0, format_us = 0, encode_us = 0;
  double sojourn_us = 0, sojourn_p99_us = 0, queue_wait_us = 0, batch_items = 0;
  double memo_hit_ratio = 0;
  double shed = 0, us_per_item = 0, tune_share = 0, tune_us_per_variant = 0;
  double predict_us_per_row = 0, model_load_ms = 0, max_late_us = 0;
  double overhead_pct = 0;
};

/// Median round trip of closed-loop `ping` over the daemon's socket.
double ping_rtt_us(const RunContext& ctx, const std::string& model, SpanRecorder& rec,
                   Verifier& verify) {
  const std::string socket = ctx.work + "/trace.sock";
  Daemon daemon(ctx.smartctl, model, socket, ctx.work + "/daemon.log");
  daemon.wait_healthy(60.0);
  const int fd = connect_socket(socket);
  if (fd < 0) throw std::runtime_error("cannot connect to the daemon");
  const int root = rec.open("perfbench.ping_probes");
  std::vector<double> rtt;
  std::string buf, line;
  bool ok = true;
  for (std::size_t i = 0; i < kPings && ok; ++i) {
    std::string id = "p";
    id += std::to_string(i);
    const int span = rec.open("transport.ping", root, static_cast<std::int64_t>(i));
    const auto t0 = Clock::now();
    write_all(fd, "ping " + id + "\n");
    ok = read_line(fd, buf, line, 10.0) && line == "ok " + id + " pong v1";
    rtt.push_back(seconds_between(t0, Clock::now()) * 1e6);
    rec.close(span);
  }
  rec.close(root);
  ::close(fd);
  verify.check(ok, "ping probe reply");
  verify.check(daemon.shutdown(), "daemon shutdown after ping probes");
  return median(rtt);
}

struct Replay {
  std::vector<std::int64_t> submit_ns, done_ns;
  std::vector<std::uint64_t> payload_hash;
  std::vector<char> inline_reply, ok;
};

ServeLayers traced_serve(const RunContext& ctx, const std::string& model, const Stream& stream,
                         SpanRecorder& rec, Verifier& verify, std::uint64_t& attempted) {
  ServeLayers L;
  L.ping_rtt_us = ping_rtt_us(ctx, model, rec, verify);
  attempted += kPings;

  const int load = rec.open("serialize.load_model");
  const auto mart = std::make_shared<const core::StencilMart>(core::load_model(model));
  rec.close(load);
  L.model_load_ms = ms(rec.duration_ns(load));

  // Protocol parse of every request line; equal stream keys must give equal
  // memo keys and distinct ones distinct memo keys.
  {
    std::vector<std::string> lines(stream.requests.size());
    for (std::size_t i = 0; i < lines.size(); ++i) lines[i] = stream.line(i);
    std::vector<std::string> memo(lines.size());
    std::size_t bad = 0;
    const int span = rec.open("serve_protocol.parse_request", -1,
                              static_cast<std::int64_t>(lines.size()));
    for (std::size_t i = 0; i < lines.size(); ++i) {
      auto parsed = core::serve::parse_request(lines[i]);
      if (!parsed.ok) ++bad;
      memo[i] = std::move(parsed.request.memo_key);
    }
    rec.close(span);
    L.parse_ns = static_cast<double>(rec.duration_ns(span)) / static_cast<double>(lines.size());
    std::unordered_map<std::uint64_t, std::size_t> first;
    std::unordered_set<std::string> distinct;
    std::size_t key_mismatch = 0;
    for (std::size_t i = 0; i < lines.size(); ++i) {
      const auto [it, inserted] = first.try_emplace(stream.key(i), i);
      if (inserted) {
        if (!distinct.insert(memo[i]).second) ++key_mismatch;
      } else if (memo[it->second] != memo[i]) {
        ++key_mismatch;
      }
    }
    verify.tally(lines.size(), bad, "parse_request on the stream");
    verify.tally(lines.size(), key_mismatch, "memo keys vs stream identity");
  }

  // First-time timed requests: the work the daemon computes.
  std::vector<std::size_t> fresh;
  {
    std::unordered_set<std::uint64_t> seen;
    for (std::size_t i = 0; i < stream.requests.size(); ++i) {
      if (seen.insert(stream.key(i)).second && i >= stream.warm) fresh.push_back(i);
    }
    if (fresh.size() > kClosedLoopItems) fresh.resize(kClosedLoopItems);
    if (fresh.empty()) throw std::runtime_error("no first-time requests to replay");
  }
  std::vector<smart::stencil::StencilPattern> patterns;
  patterns.reserve(fresh.size());
  for (const std::size_t i : fresh) {
    patterns.push_back(to_pattern(stream.stencils[stream.requests[i].stencil]));
  }
  {
    const int max_order = mart->config().profile.max_order;
    const int span = rec.open("stencil.extract_features", -1,
                              static_cast<std::int64_t>(patterns.size()));
    std::size_t values = 0;
    for (const auto& p : patterns) {
      values += smart::stencil::extract_features(p, max_order).to_vector().size();
    }
    rec.close(span);
    L.encode_us = static_cast<double>(rec.duration_ns(span)) / 1e3 /
                  static_cast<double>(patterns.size());
    verify.check(values > 0, "feature extraction");
  }

  // Closed-loop batches over the first-time items, in two passes. Batches
  // alternate between traced and untraced, with the parity swapped in the
  // second pass: every batch runs once each way under the same host
  // conditions, and the traced batches' extra wall time is the tracing
  // overhead.
  std::vector<core::AdviseBatchItem> items(fresh.size());
  for (std::size_t k = 0; k < fresh.size(); ++k) {
    const Request& r = stream.requests[fresh[k]];
    items[k].pattern = patterns[k];
    items[k].gpu = kGpus[r.gpu];
    items[k].recommend = r.verb == Verb::kAdvise;
  }
  double wall_off = 0.0, wall_on = 0.0, format_ns = 0.0, batch_ns = 0.0;
  std::size_t formatted = 0;
  std::vector<std::string> reference;
  const PhaseTable closed_before = phases();
  for (std::size_t pass = 0; pass < 2; ++pass) {
    const int root = rec.open("perfbench.closed_loop", -1, static_cast<std::int64_t>(pass));
    std::vector<std::string> out;
    out.reserve(items.size());
    for (std::size_t b = 0; b < items.size(); b += kBatch) {
      const bool traced = (b / kBatch + pass) % 2 == 0;
      rec.set_enabled(traced);
      const std::size_t e = std::min(items.size(), b + kBatch);
      const auto t0 = Clock::now();
      const int span = rec.open("mart.advise_batch", root, static_cast<std::int64_t>(b));
      const auto results = mart->advise_batch({items.data() + b, e - b});
      rec.close(span);
      batch_ns += static_cast<double>(rec.duration_ns(span));
      for (std::size_t k = b; k < e; ++k) {
        const auto& res = results[k - b];
        if (!res.ok() || !items[k].recommend) {
          out.push_back(res.ok() ? std::to_string(res.advice.predicted_time_ms) : res.error);
          continue;
        }
        const int f = rec.open("serve_protocol.format", root, static_cast<std::int64_t>(k));
        out.push_back(core::serve::escape_text(
            core::advise_report(items[k].pattern, items[k].gpu, res.advice, res.rec)));
        rec.close(f);
        format_ns += static_cast<double>(rec.duration_ns(f));
        if (traced) ++formatted;
      }
      (traced ? wall_on : wall_off) += seconds_between(t0, Clock::now());
    }
    rec.set_enabled(true);
    rec.close(root);
    if (reference.empty()) reference = out;
    verify.check(out == reference, "advise_batch results differ between passes");
  }
  const PhaseTable closed_after = phases();
  attempted += 2 * items.size();
  L.overhead_pct = 100.0 * (wall_on - wall_off) / wall_off;
  L.us_per_item = batch_ns / 1e3 / static_cast<double>(items.size());
  L.format_us = formatted == 0 ? 0.0 : format_ns / 1e3 / static_cast<double>(formatted);
  L.tune_us_per_variant =
      per_task(delta(closed_before, closed_after, "advisor.batch_tune"), 1e3);
  L.predict_us_per_row =
      per_task(delta(closed_before, closed_after, "infer.predict_batch"), 1e3);
  // The batch path must agree with the per-item advise path.
  for (std::size_t k = 0; k < std::min<std::size_t>(items.size(), 32); ++k) {
    const Request& r = stream.requests[fresh[k]];
    const Expected e = expected_reply(*mart, patterns[k], r.verb, kGpus[r.gpu]);
    if (r.verb == Verb::kAdvise) {
      verify.check(reference[k] == e.payload, "advise_batch report vs per-item advise");
    }
  }

  // In-process AdvisorServer replay at the workload's schedule.
  const double horizon_us =
      (ctx.spec.traffic.warm_s + std::min(ctx.spec.traffic.timed_s, kReplaySeconds)) * 1e6;
  const std::size_t n = static_cast<std::size_t>(
      std::lower_bound(stream.send_us.begin(), stream.send_us.end(), horizon_us) -
      stream.send_us.begin());
  std::vector<std::string> lines(n);
  for (std::size_t i = 0; i < n; ++i) lines[i] = stream.line(i);
  Replay rp;
  rp.submit_ns.assign(n, 0);
  rp.done_ns.assign(n, -1);
  rp.payload_hash.assign(n, 0);
  rp.inline_reply.assign(n, 0);
  rp.ok.assign(n, 0);
  core::ServeCounters counters;
  PhaseStats serve_batch{}, replay_tune{};
  {
    std::mutex done_mu;  // replies arrive on the batcher thread too
    core::AdvisorServer server(core::ModelSnapshot{mart, "in-process", "-"},
                               core::ServeConfig{});
    const PhaseTable before = phases();
    const int root = rec.open("perfbench.replay");
    const auto t0 = Clock::now() + std::chrono::milliseconds(2);
    for (std::size_t i = 0; i < n; ++i) {
      const auto due = t0 + std::chrono::nanoseconds(static_cast<std::int64_t>(stream.send_us[i] * 1e3));
      std::this_thread::sleep_until(due);
      const auto now = Clock::now();
      if (i >= stream.warm) {
        L.max_late_us = std::max(
            L.max_late_us, std::chrono::duration<double, std::micro>(now - due).count());
      }
      const auto submitter = std::this_thread::get_id();
      rp.submit_ns[i] = rec.to_ns(now);
      server.submit(lines[i], [&, i, submitter](const std::string& reply) {
        const std::int64_t t = rec.now_ns();
        const std::size_t sp = reply.find(' ', reply.find(' ') + 1);
        std::uint64_t h = 1469598103934665603ull;
        for (std::size_t c = sp + 1; c < reply.size(); ++c) {
          h = (h ^ static_cast<unsigned char>(reply[c])) * 1099511628211ull;
        }
        const std::lock_guard<std::mutex> lk(done_mu);
        rp.done_ns[i] = t;
        rp.payload_hash[i] = h;
        rp.ok[i] = reply.rfind("ok ", 0) == 0;
        rp.inline_reply[i] = std::this_thread::get_id() == submitter;
      });
    }
    server.drain();
    rec.close(root);
    const PhaseTable after = phases();
    serve_batch = delta(before, after, "serve.batch");
    replay_tune = delta(before, after, "advisor.batch_tune");
    counters = server.counters_snapshot();
    const std::lock_guard<std::mutex> lk(done_mu);
    for (std::size_t i = 0; i < n; ++i) {
      if (rp.done_ns[i] >= 0) {
        rec.add("advisor_server.request", rp.submit_ns[i], rp.done_ns[i], root,
                static_cast<std::int64_t>(i), true);
      }
    }
  }
  attempted += n;
  std::vector<double> sojourn, batched;
  std::unordered_map<std::uint64_t, std::uint64_t> first_hash;
  std::size_t not_ok = 0, repeat_mismatch = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (rp.done_ns[i] < 0 || !rp.ok[i]) {
      ++not_ok;
      continue;
    }
    const auto [it, inserted] = first_hash.try_emplace(stream.key(i), rp.payload_hash[i]);
    if (!inserted && it->second != rp.payload_hash[i]) ++repeat_mismatch;
    if (i < stream.warm) continue;
    const double us = static_cast<double>(rp.done_ns[i] - rp.submit_ns[i]) / 1e3;
    sojourn.push_back(us);
    if (!rp.inline_reply[i]) batched.push_back(us);
  }
  verify.tally(n, not_ok, "in-process replay replies");
  verify.tally(n, repeat_mismatch, "in-process replay memo repeats");
  if (sojourn.empty() || serve_batch.calls == 0) {
    throw std::runtime_error("in-process replay answered nothing");
  }
  L.sojourn_us = median(sojourn);
  L.sojourn_p99_us = percentile(sojourn, 99.0);
  const double mean_batch_us = serve_batch.wall_ms * 1e3 / static_cast<double>(serve_batch.calls);
  L.queue_wait_us = batched.empty() ? 0.0 : median(batched) - mean_batch_us;
  L.batch_items = counters.batches == 0
                      ? 0.0
                      : static_cast<double>(counters.served - counters.memo_hits) /
                            static_cast<double>(counters.batches);
  L.memo_hit_ratio = counters.served == 0 ? 0.0
                                          : static_cast<double>(counters.memo_hits) /
                                                static_cast<double>(counters.served);
  L.shed = static_cast<double>(counters.shed_busy + counters.shed_deadline);
  L.tune_share = serve_batch.wall_ms > 0 ? replay_tune.wall_ms / serve_batch.wall_ms : 0.0;
  return L;
}

}  // namespace

Outcome run_traced(const RunContext& ctx) {
  Outcome o;
  Verifier verify;
  SpanRecorder rec;
  const CpuStat host0 = read_cpu_stat();

  const BuildLayers b = traced_build(ctx, rec, verify);
  o.attempted += b.stages;
  const Stream stream = make_stream(ctx.spec.traffic, derive_seed(ctx.seed, "traffic"));
  const InputProperties props = input_properties(stream);
  const ServeLayers s = traced_serve(ctx, b.model, stream, rec, verify, o.attempted);
  const double steal = steal_pct(host0, read_cpu_stat());

  const std::string trace_path = ctx.work + "/trace.json";
  write_chrome_trace(trace_path, rec.spans());
  std::printf("trace: %zu spans written to %s\n", rec.spans().size(), trace_path.c_str());
  std::printf("self time by layer (ms):\n");
  for (const auto& [layer, self_ms] : self_time_by_layer_ms(rec.spans())) {
    std::printf("  %-20s %12.3f\n", layer.c_str(), self_ms);
  }
  std::printf("verify: %zu checks, %zu mismatches\n", verify.checks(), verify.mismatches());
  for (const std::string& note : verify.notes()) std::printf("  mismatch: %s\n", note.c_str());
  o.attempted += verify.checks();
  o.failed += verify.mismatches();
  o.correct = o.failed == 0;

  Metrics& m = o.metrics;
  m.add("transport.ping_rtt_us", s.ping_rtt_us, "us");
  m.add("serve_protocol.parse_ns", s.parse_ns, "ns");
  m.add("serve_protocol.format_us", s.format_us, "us");
  m.add("advisor_server.sojourn_us", s.sojourn_us, "us");
  m.add("advisor_server.sojourn_p99_us", s.sojourn_p99_us, "us");
  m.add("advisor_server.queue_wait_us", s.queue_wait_us, "us");
  m.add("advisor_server.batch_items", s.batch_items, "count");
  m.add("advisor_server.memo_hit_ratio", s.memo_hit_ratio, "ratio");
  m.add("advisor_server.shed", s.shed, "count");
  m.add("mart.us_per_item", s.us_per_item, "us");
  m.add("mart.tune_share", s.tune_share, "ratio");
  m.add("gpusim.tune_us_per_variant", s.tune_us_per_variant, "us");
  m.add("gpusim.analyze_ns_per_unit", b.analyze_ns, "ns");
  m.add("gpusim.evaluate_ns_per_unit", b.evaluate_ns, "ns");
  m.add("ml.encode_us", s.encode_us, "us");
  m.add("ml.predict_us_per_row", s.predict_us_per_row, "us");
  m.add("ml.merger_fit_ms", b.merger_fit_ms, "ms");
  m.add("ml.classifier_fit_ms", b.classifier_fit_ms, "ms");
  m.add("ml.regressor_fit_ms", b.regressor_fit_ms, "ms");
  m.add("stencil.generate_ms", b.generate_ms, "ms");
  m.add("profile_dataset.settings_ms", b.settings_ms, "ms");
  m.add("profile_dataset.sweep_ms", b.sweep_ms, "ms");
  m.add("task_pool.parallel_eff", b.parallel_eff, "ratio");
  m.add("corpus_merge.fold_ms", b.fold_ms, "ms");
  m.add("serialize.corpus_save_ms", b.corpus_save_ms, "ms");
  m.add("serialize.corpus_load_ms", b.corpus_load_ms, "ms");
  m.add("serialize.model_save_ms", b.model_save_ms, "ms");
  m.add("serialize.model_load_ms", s.model_load_ms, "ms");
  m.add("serialize.model_mb", b.model_mb, "MB");
  m.add("serialize.corpus_mb", b.corpus_mb, "MB");
  m.add("input.repeat_share", props.repeat_share, "ratio");
  m.add("input.shared_variant_share", props.shared_variant_share, "ratio");
  m.add("input.variants_per_req", props.variants_per_req, "count");
  m.add("input.work_units", b.work_units, "count");
  m.add("host.steal_pct", steal, "%");
  m.add("load.max_late_us", s.max_late_us, "us");
  m.add("trace.overhead_pct", s.overhead_pct, "%");
  m.add("trace.stage_coverage_pct", b.stage_coverage_pct, "%");
  return o;
}

}  // namespace perfbench
