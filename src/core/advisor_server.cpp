#include "core/advisor_server.hpp"

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <stdexcept>

#include "util/table.hpp"
#include "util/timing.hpp"

namespace smart::core {

namespace {

std::string hexfloat(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

std::uint64_t elapsed_us(std::chrono::steady_clock::time_point from,
                         std::chrono::steady_clock::time_point to) {
  const auto us =
      std::chrono::duration_cast<std::chrono::microseconds>(to - from).count();
  return us < 0 ? 0 : static_cast<std::uint64_t>(us);
}

// Shed replies are fixed strings: the determinism contract demands reply
// bytes carry no timing- or load-dependent data.
constexpr const char* kBusyError = "busy (admission queue full)";
constexpr const char* kDeadlineError = "deadline exceeded before execution";

}  // namespace

std::string advise_report(const stencil::StencilPattern& pattern,
                          const std::string& gpu, const OcAdvice& advice,
                          const GpuRecommendation& rec) {
  std::string out;
  out += "stencil " + pattern.name() + " on " + gpu + ":\n";
  out += "  group        " + advice.group_name + '\n';
  out += "  OC           " + advice.oc.name() + '\n';
  out += "  setting      " + advice.setting.to_string() + '\n';
  out += "  tuned time   " + util::format_double(advice.expected_time_ms, 3) +
         " ms (simulated)\n";
  out += "  model est.   " + util::format_double(advice.predicted_time_ms, 3) +
         " ms\n";
  out += "  fastest GPU  " + rec.fastest_gpu + '\n';
  out += "  best rental  " + rec.cheapest_gpu + '\n';
  return out;
}

AdvisorServer::AdvisorServer(const StencilMart& mart, ServeConfig config)
    : AdvisorServer(
          ModelSnapshot{std::shared_ptr<const StencilMart>(
                            &mart, [](const StencilMart*) {}),
                        "in-process", "-"},
          std::move(config), nullptr) {}

AdvisorServer::AdvisorServer(ModelSnapshot initial, ServeConfig config,
                             ModelProvider provider)
    : config_(std::move(config)),
      model_(std::move(initial)),
      provider_(std::move(provider)) {
  if (model_.mart == nullptr || !model_.mart->trained()) {
    throw std::logic_error("AdvisorServer: the model must be trained");
  }
  if (config_.max_batch < 1) {
    throw std::invalid_argument("AdvisorServer: max_batch must be >= 1");
  }
  if (config_.max_wait_us < 0) {
    throw std::invalid_argument("AdvisorServer: max_wait_us must be >= 0");
  }
  if (config_.max_queue < 1) {
    throw std::invalid_argument("AdvisorServer: max_queue must be >= 1");
  }
  if (config_.deadline_us < 0) {
    throw std::invalid_argument("AdvisorServer: deadline_us must be >= 0");
  }
  if (config_.memo_capacity == 0) config_.memo_capacity = 1;
  if (!config_.precision.empty()) {
    precision_override_.emplace(
        ml::precision_from_string(config_.precision.c_str()));
  }
  batcher_ = std::thread([this] { batcher_loop(); });
}

AdvisorServer::~AdvisorServer() {
  drain();
  {
    const std::lock_guard<std::mutex> lk(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  batcher_.join();
}

std::string AdvisorServer::healthz_payload() const {
  std::string version, checksum;
  {
    const std::lock_guard<std::mutex> lk(model_mu_);
    version = model_.version;
    checksum = model_.checksum;
  }
  return "epoch=" + std::to_string(epoch()) + " version=" + version +
         " checksum=" + checksum;
}

ModelSnapshot AdvisorServer::model_snapshot() const {
  const std::lock_guard<std::mutex> lk(model_mu_);
  return model_;
}

std::uint64_t AdvisorServer::reload() {
  // One reload at a time: the provider call (artifact read + strict
  // validation) runs outside the model lock so serving never stalls on it.
  const std::lock_guard<std::mutex> rlk(reload_mu_);
  if (!provider_) {
    throw std::runtime_error(
        "reload unavailable (not serving from a model artifact)");
  }
  ModelSnapshot fresh = provider_();
  if (fresh.mart == nullptr || !fresh.mart->trained()) {
    throw std::runtime_error("reload: provider returned an untrained model");
  }
  std::uint64_t next = 0;
  {
    const std::lock_guard<std::mutex> lk(model_mu_);
    model_ = std::move(fresh);
    next = epoch_.load(std::memory_order_relaxed) + 1;
    epoch_.store(next, std::memory_order_release);
  }
  {
    // The memo must never mix epochs: clear it and re-tag. A batch still
    // running on the old model sees memo_epoch_ != its epoch and skips its
    // inserts.
    const std::lock_guard<std::mutex> lk(memo_mu_);
    memo_.clear();
    memo_epoch_ = next;
  }
  return next;
}

bool AdvisorServer::submit(std::string_view line, const Sink& sink) {
  bool blank = true;
  for (const char c : line) {
    if (c != ' ' && c != '\t' && c != '\r') {
      blank = false;
      break;
    }
  }
  if (blank) return !shutdown_.load(std::memory_order_acquire);

  auto parsed = serve::parse_request(line);
  if (shutdown_.load(std::memory_order_acquire)) {
    sink(serve::err_reply(parsed.id, "server is shutting down"));
    {
      const std::lock_guard<std::mutex> lk(stats_mu_);
      ++errors_;
    }
    return false;
  }
  if (!parsed.ok) {
    sink(serve::err_reply(parsed.id, parsed.error));
    {
      const std::lock_guard<std::mutex> lk(stats_mu_);
      ++errors_;
    }
    return true;
  }

  serve::Request& request = parsed.request;
  switch (request.verb) {
    case serve::Verb::kPing:
      sink(serve::ok_reply(request.id, "pong v1"));
      return true;
    case serve::Verb::kHealthz:
      sink(serve::ok_reply(request.id, "healthz " + healthz_payload()));
      return true;
    case serve::Verb::kReload: {
      try {
        reload();
        sink(serve::ok_reply(request.id, "reloaded " + healthz_payload()));
      } catch (const std::exception& e) {
        sink(serve::err_reply(request.id,
                              std::string("reload failed: ") + e.what()));
        const std::lock_guard<std::mutex> lk(stats_mu_);
        ++errors_;
      }
      return true;
    }
    case serve::Verb::kStats: {
      ServeCounters counters;
      {
        const std::lock_guard<std::mutex> lk(stats_mu_);
        counters = snapshot_locked();
        // Reset-on-stats: each stats reply reports the window since the
        // previous one, so a long-lived daemon's percentiles stay current.
        latency_.reset();
        served_ = errors_ = memo_hits_ = batches_ = max_batch_seen_ = 0;
        shed_busy_ = shed_deadline_ = 0;
        window_start_ = Clock::now();
      }
      char qps[32];
      std::snprintf(qps, sizeof qps, "%.1f", counters.qps);
      std::string payload = "served=" + std::to_string(counters.served);
      payload += " errors=" + std::to_string(counters.errors);
      payload += " memo_hits=" + std::to_string(counters.memo_hits);
      payload += " batches=" + std::to_string(counters.batches);
      payload += " max_batch=" + std::to_string(counters.max_batch_seen);
      payload += " shed_busy=" + std::to_string(counters.shed_busy);
      payload += " shed_deadline=" + std::to_string(counters.shed_deadline);
      payload += " p50_us=" + std::to_string(counters.p50_us);
      payload += " p99_us=" + std::to_string(counters.p99_us);
      payload += " qps=";
      payload += qps;
      payload += " epoch=" + std::to_string(counters.epoch);
      sink(serve::ok_reply(request.id, payload));
      return true;
    }
    case serve::Verb::kShutdown: {
      shutdown_.store(true, std::memory_order_release);
      drain();  // every request submitted before the shutdown answers first
      sink(serve::ok_reply(request.id, "bye"));
      return false;
    }
    case serve::Verb::kAdvise:
    case serve::Verb::kPredict:
      break;
  }

  Pending pending;
  pending.request = std::move(request);
  pending.sink = sink;
  pending.enqueued = Clock::now();

  {
    const std::lock_guard<std::mutex> lk(memo_mu_);
    const auto it = memo_.find(pending.request.memo_key);
    if (it != memo_.end()) {
      const MemoEntry entry = it->second;
      {
        const std::lock_guard<std::mutex> slk(stats_mu_);
        ++memo_hits_;
      }
      respond(pending, entry.ok, entry.payload);
      return true;
    }
  }

  {
    const std::lock_guard<std::mutex> lk(mu_);
    // Bounded admission: shed instead of buffering without limit. The
    // size check and the push share one critical section, so concurrent
    // producers can never overshoot the bound.
    if (queue_.size() < config_.max_queue) {
      queue_.push_back(std::move(pending));
      cv_.notify_all();
      return true;
    }
  }
  shed(pending, /*deadline=*/false);
  return true;
}

void AdvisorServer::drain() {
  std::unique_lock<std::mutex> lk(mu_);
  draining_ = true;
  cv_.notify_all();
  idle_cv_.wait(lk, [&] { return queue_.empty() && !busy_; });
  draining_ = false;
}

void AdvisorServer::batcher_loop() {
  for (;;) {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [&] { return stopping_ || !queue_.empty(); });
    if (queue_.empty()) {
      if (stopping_) return;
      idle_cv_.notify_all();
      continue;
    }
    // Admission batching: flush on max_batch, on the max_wait_us age of the
    // oldest pending request, or immediately when draining.
    const auto deadline =
        queue_.front().enqueued + std::chrono::microseconds(config_.max_wait_us);
    while (queue_.size() < static_cast<std::size_t>(config_.max_batch) &&
           !draining_ && !stopping_ && Clock::now() < deadline) {
      cv_.wait_until(lk, deadline);
    }
    const std::size_t take =
        std::min(queue_.size(), static_cast<std::size_t>(config_.max_batch));
    std::vector<Pending> batch(
        std::make_move_iterator(queue_.begin()),
        std::make_move_iterator(queue_.begin() +
                                static_cast<std::ptrdiff_t>(take)));
    queue_.erase(queue_.begin(),
                 queue_.begin() + static_cast<std::ptrdiff_t>(take));
    busy_ = true;
    lk.unlock();
    execute_batch(std::move(batch));
    lk.lock();
    busy_ = false;
    if (queue_.empty()) idle_cv_.notify_all();
  }
}

void AdvisorServer::execute_batch(std::vector<Pending> batch) {
  // Expired requests are shed before any model work: their reply is the
  // fixed deadline error, not a stale computation.
  if (config_.deadline_us > 0) {
    const auto now = Clock::now();
    std::vector<Pending> kept;
    kept.reserve(batch.size());
    for (auto& pending : batch) {
      if (elapsed_us(pending.enqueued, now) >
          static_cast<std::uint64_t>(config_.deadline_us)) {
        shed(pending, /*deadline=*/true);
      } else {
        kept.push_back(std::move(pending));
      }
    }
    batch = std::move(kept);
    if (batch.empty()) return;
  }

  {
    const std::lock_guard<std::mutex> lk(stats_mu_);
    ++batches_;
    max_batch_seen_ = std::max<std::uint64_t>(max_batch_seen_, batch.size());
  }

  // Snapshot the epoch-tagged model slot: the whole batch computes on one
  // model, and a concurrent reload can neither free it (shared_ptr) nor
  // change this batch's reply bytes.
  std::shared_ptr<const StencilMart> mart;
  std::uint64_t batch_epoch = 0;
  {
    const std::lock_guard<std::mutex> lk(model_mu_);
    mart = model_.mart;
    batch_epoch = epoch_.load(std::memory_order_relaxed);
  }

  // Within-batch dedup + a second memo check (another batch may have
  // computed a key between submit() and now).
  std::unordered_map<std::string, std::size_t> unique_index;
  std::vector<AdviseBatchItem> unique_items;
  std::vector<const serve::Request*> unique_requests;
  std::vector<std::size_t> pending_unique(batch.size());
  std::vector<char> pending_done(batch.size(), 0);
  {
    const std::lock_guard<std::mutex> lk(memo_mu_);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const serve::Request& request = batch[i].request;
      const auto hit =
          memo_epoch_ == batch_epoch ? memo_.find(request.memo_key) : memo_.end();
      if (hit != memo_.end()) {
        const MemoEntry entry = hit->second;
        {
          const std::lock_guard<std::mutex> slk(stats_mu_);
          ++memo_hits_;
        }
        respond(batch[i], entry.ok, entry.payload);
        pending_done[i] = 1;
        continue;
      }
      const auto [it, inserted] =
          unique_index.try_emplace(request.memo_key, unique_items.size());
      if (inserted) {
        AdviseBatchItem item;
        item.pattern = request.pattern;
        item.gpu = request.gpu;
        item.recommend = request.verb == serve::Verb::kAdvise;
        unique_items.push_back(std::move(item));
        unique_requests.push_back(&request);
      }
      pending_unique[i] = it->second;
    }
  }
  if (unique_items.empty()) return;

  std::vector<MemoEntry> replies(unique_items.size());
  try {
    const util::PhaseTimer timer("serve.batch", batch.size());
    const auto results = mart->advise_batch(unique_items);
    for (std::size_t u = 0; u < results.size(); ++u) {
      if (!results[u].ok()) {
        replies[u] = {false, results[u].error};
        continue;
      }
      if (unique_requests[u]->verb == serve::Verb::kAdvise) {
        replies[u] = {true, serve::escape_text(advise_report(
                                unique_items[u].pattern, unique_items[u].gpu,
                                results[u].advice, results[u].rec))};
      } else {
        replies[u] = {true,
                      "predicted_ms=" +
                          hexfloat(results[u].advice.predicted_time_ms) +
                          " ms=" +
                          util::format_double(
                              results[u].advice.predicted_time_ms, 3)};
      }
    }
  } catch (const std::exception& e) {
    // advise_batch reports per-item problems in-band; reaching here means a
    // systemic failure (e.g. allocation) — answer the batch, keep serving.
    for (auto& reply : replies) reply = {false, e.what()};
  }

  {
    const std::lock_guard<std::mutex> lk(memo_mu_);
    // Inserts are valid only while the memo still belongs to this batch's
    // epoch; after a reload they would poison the fresh model's cache.
    if (memo_epoch_ == batch_epoch) {
      if (memo_.size() + replies.size() > config_.memo_capacity) memo_.clear();
      for (std::size_t u = 0; u < replies.size(); ++u) {
        memo_.emplace(unique_requests[u]->memo_key, replies[u]);
      }
    }
  }
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (pending_done[i]) continue;
    const MemoEntry& reply = replies[pending_unique[i]];
    respond(batch[i], reply.ok, reply.payload);
  }
}

void AdvisorServer::respond(const Pending& pending, bool ok,
                            const std::string& payload) {
  const std::uint64_t us = elapsed_us(pending.enqueued, Clock::now());
  {
    const std::lock_guard<std::mutex> lk(stats_mu_);
    latency_.record(us);
    if (ok) ++served_;
    else ++errors_;
  }
  pending.sink(ok ? serve::ok_reply(pending.request.id, payload)
                  : serve::err_reply(pending.request.id, payload));
}

void AdvisorServer::shed(const Pending& pending, bool deadline) {
  {
    const std::lock_guard<std::mutex> lk(stats_mu_);
    ++errors_;
    if (deadline) ++shed_deadline_;
    else ++shed_busy_;
  }
  pending.sink(serve::err_reply(pending.request.id,
                                deadline ? kDeadlineError : kBusyError));
}

ServeCounters AdvisorServer::snapshot_locked() const {
  ServeCounters counters;
  counters.served = served_;
  counters.errors = errors_;
  counters.memo_hits = memo_hits_;
  counters.batches = batches_;
  counters.max_batch_seen = max_batch_seen_;
  counters.shed_busy = shed_busy_;
  counters.shed_deadline = shed_deadline_;
  counters.p50_us = latency_.percentile(50.0);
  counters.p99_us = latency_.percentile(99.0);
  const double seconds =
      std::chrono::duration<double>(Clock::now() - window_start_).count();
  counters.qps = seconds > 0.0 ? static_cast<double>(served_) / seconds : 0.0;
  counters.epoch = epoch();
  return counters;
}

ServeCounters AdvisorServer::counters_snapshot() const {
  const std::lock_guard<std::mutex> lk(stats_mu_);
  return snapshot_locked();
}

}  // namespace smart::core
