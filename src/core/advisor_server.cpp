#include "core/advisor_server.hpp"

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <stdexcept>

#include "util/table.hpp"
#include "util/timing.hpp"

namespace smart::core {

namespace {

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

/// Response-memo entries kept before the memo is wholesale evicted (simple
/// epoch eviction; correctness never depends on what the memo holds).
constexpr std::size_t kMemoCapacity = 1 << 16;

/// Writes the advise report into `out`, escaped onto one protocol line
/// (serve::escape_text) when `escaped`. Names are escaped piece by piece
/// and the numbers need no escaping, so both forms come from one pass.
void append_report(std::string& out, const stencil::StencilPattern& pattern,
                   const std::string& gpu, const OcAdvice& advice,
                   const GpuRecommendation& rec, bool escaped) {
  const auto text = [&](std::string_view piece) {
    if (escaped) serve::append_escaped(out, piece);
    else out += piece;
  };
  const std::string_view newline = escaped ? "\\n" : "\n";
  out += "stencil ";
  text(pattern.name());
  out += " on ";
  text(gpu);
  out += ':';
  out += newline;
  out += "  group        ";
  text(advice.group_name);
  out += newline;
  out += "  OC           ";
  text(advice.oc.name());
  out += newline;
  out += "  setting      ";
  advice.setting.append_to(out);
  out += newline;
  out += "  tuned time   ";
  util::append_fixed(out, advice.expected_time_ms, 3);
  out += " ms (simulated)";
  out += newline;
  out += "  model est.   ";
  util::append_fixed(out, advice.predicted_time_ms, 3);
  out += " ms";
  out += newline;
  out += "  fastest GPU  ";
  text(rec.fastest_gpu);
  out += newline;
  out += "  best rental  ";
  text(rec.cheapest_gpu);
  out += newline;
}

/// Runs `write` on a buffer kept per thread and returns an exact-size copy:
/// the memo keeps every payload, so it must carry no slack capacity.
template <typename Write>
std::string exact_string(Write&& write) {
  thread_local std::string buffer;
  buffer.clear();
  write(buffer);
  return buffer;
}

}  // namespace

std::string advise_report(const stencil::StencilPattern& pattern,
                          const std::string& gpu, const OcAdvice& advice,
                          const GpuRecommendation& rec) {
  return exact_string([&](std::string& out) {
    append_report(out, pattern, gpu, advice, rec, /*escaped=*/false);
  });
}

std::string reply_payload(const AdviseBatchItem& item,
                          const AdviseBatchResult& result) {
  return exact_string([&](std::string& out) {
    if (item.recommend) {
      append_report(out, item.pattern, item.gpu, result.advice, result.rec,
                    /*escaped=*/true);
      return;
    }
    char hex[48];
    const int n = std::snprintf(hex, sizeof hex, "%a",
                                result.advice.predicted_time_ms);
    out += "predicted_ms=";
    out.append(hex, static_cast<std::size_t>(n));
    out += " ms=";
    util::append_fixed(out, result.advice.predicted_time_ms, 3);
  });
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
    batch_.assign(std::make_move_iterator(queue_.begin()),
                  std::make_move_iterator(queue_.begin() +
                                          static_cast<std::ptrdiff_t>(take)));
    queue_.erase(queue_.begin(),
                 queue_.begin() + static_cast<std::ptrdiff_t>(take));
    busy_ = true;
    lk.unlock();
    execute_batch(batch_);
    lk.lock();
    busy_ = false;
    if (queue_.empty()) idle_cv_.notify_all();
  }
}

void AdvisorServer::execute_batch(std::vector<Pending>& batch) {
  // Expired requests are shed before any model work: their reply is the
  // fixed deadline error, not a stale computation.
  if (config_.deadline_us > 0) {
    const auto now = Clock::now();
    std::size_t kept = 0;
    for (auto& pending : batch) {
      if (elapsed_us(pending.enqueued, now) >
          static_cast<std::uint64_t>(config_.deadline_us)) {
        shed(pending, /*deadline=*/true);
      } else {
        if (&batch[kept] != &pending) batch[kept] = std::move(pending);
        ++kept;
      }
    }
    batch.erase(batch.begin() + static_cast<std::ptrdiff_t>(kept), batch.end());
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

  // Within-batch dedup (a linear scan over the batch's distinct keys,
  // hashes first) + a second memo check (another batch may have computed
  // a key between submit() and now).
  constexpr std::size_t kAnswered = static_cast<std::size_t>(-1);
  std::size_t unique_count = 0;
  unique_requests_.clear();
  unique_hash_.clear();
  pending_unique_.assign(batch.size(), kAnswered);
  {
    const std::lock_guard<std::mutex> lk(memo_mu_);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      serve::Request& request = batch[i].request;
      const auto hit =
          memo_epoch_ == batch_epoch ? memo_.find(request.memo_key) : memo_.end();
      if (hit != memo_.end()) {
        const MemoEntry entry = hit->second;
        {
          const std::lock_guard<std::mutex> slk(stats_mu_);
          ++memo_hits_;
        }
        respond(batch[i], entry.ok, entry.payload);
        continue;
      }
      const std::size_t hash = std::hash<std::string>{}(request.memo_key);
      std::size_t u = 0;
      while (u < unique_count &&
             (unique_hash_[u] != hash ||
              unique_requests_[u]->memo_key != request.memo_key)) {
        ++u;
      }
      if (u == unique_count) {
        // Copy-assignment reuses the scratch item's pattern storage.
        if (unique_items_.size() == unique_count) unique_items_.emplace_back();
        AdviseBatchItem& item = unique_items_[unique_count];
        item.pattern = request.pattern;
        item.gpu = request.gpu;
        item.recommend = request.verb == serve::Verb::kAdvise;
        unique_requests_.push_back(&request);
        unique_hash_.push_back(hash);
        ++unique_count;
      }
      pending_unique_[i] = u;
    }
  }
  if (unique_count == 0) {
    batch.clear();
    return;
  }

  if (replies_.size() < unique_count) replies_.resize(unique_count);
  try {
    const util::PhaseTimer timer("serve.batch", batch.size());
    const auto results =
        mart->advise_batch({unique_items_.data(), unique_count});
    for (std::size_t u = 0; u < unique_count; ++u) {
      if (!results[u].ok()) {
        replies_[u] = {false, results[u].error};
        continue;
      }
      replies_[u] = {true, reply_payload(unique_items_[u], results[u])};
    }
  } catch (const std::exception& e) {
    // advise_batch reports per-item problems in-band; reaching here means a
    // systemic failure (e.g. allocation) — answer the batch, keep serving.
    for (std::size_t u = 0; u < unique_count; ++u) {
      replies_[u] = {false, e.what()};
    }
  }

  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (pending_unique_[i] == kAnswered) continue;
    const MemoEntry& reply = replies_[pending_unique_[i]];
    respond(batch[i], reply.ok, reply.payload);
  }
  {
    // Memoized after the replies went out, so keys and payloads move in.
    // Inserts are valid only while the memo still belongs to this batch's
    // epoch; after a reload they would poison the fresh model's cache.
    const std::lock_guard<std::mutex> lk(memo_mu_);
    if (memo_epoch_ == batch_epoch) {
      if (memo_.size() + unique_count > kMemoCapacity) memo_.clear();
      for (std::size_t u = 0; u < unique_count; ++u) {
        memo_.emplace(std::move(unique_requests_[u]->memo_key),
                      std::move(replies_[u]));
      }
    }
  }
  batch.clear();
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
