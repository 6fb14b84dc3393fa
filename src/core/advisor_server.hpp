// Resident advisory daemon core (the `smartctl serve` engine): one loaded
// StencilMart serves advise/predict requests arriving as protocol lines,
// coalescing concurrent arrivals into StencilMart::advise_batch calls —
// admission batching over the batched-inference layer — with a per-stencil
// response memo so repeated queries for the same (verb, stencil, GPU) never
// recompute. Transport-agnostic: the caller feeds lines in and receives
// reply lines through a per-request sink callback, so the same engine runs
// under the daemon's sessions (core/serve_daemon: stdio or a unix socket),
// the in-process tests and the bench harness.
//
// Determinism contract: a reply's BYTES depend only on the request's
// canonical (verb, stencil, GPU) key and the model EPOCH that answered it —
// never on arrival order, batch composition, `max_batch`, `max_wait_us`,
// SMART_THREADS, connection count, shedding decisions, or memo hits. That
// holds because each advise_batch result is a function of its item alone
// (core/mart.hpp; a per-variant reference in the tests pins it bit for
// bit), every cached value is the deterministic function it memoizes, the
// memo is wholesale-cleared on reload (it never mixes epochs), and shed
// replies are fixed strings. The black-box harness (tests +
// scripts/check.sh) enforces it: shuffled request sets at any batch size,
// thread count and connection count must produce response sets whose
// surviving members are byte-identical to one-shot `smartctl advise
// --model` output for their epoch.
//
// Overload: the admission queue is bounded (`max_queue`); a request that
// arrives while the queue is full is shed with a structured
// `err <id> busy (admission queue full)` reply — never buffered without
// bound, never silently dropped. An optional `deadline_us` sheds requests
// that waited longer than the deadline before their batch executed
// (`err <id> deadline exceeded before execution`). Both shed classes are
// counted separately in `stats`.
//
// Hot reload: the model lives in an epoch-tagged slot. reload() (driven by
// the `reload` verb or SIGHUP) obtains a fresh validated model from the
// ModelProvider, atomically swaps the slot and bumps the epoch; in-flight
// batches finish on the snapshot they took, and the response memo is
// cleared so no reply ever mixes epochs. A failed reload (provider throw)
// leaves the serving model untouched.
//
// Threading: submit() may be called concurrently from many producer
// threads (one transport reader per connection); replies for batched work
// are delivered on the internal batcher thread, and control-plane replies
// (ping/stats/healthz/reload/errors/memo hits/shedding) on the submitting
// thread — sinks must therefore be thread-safe. Control-plane verbs answer
// immediately and are not ordered relative to in-flight advise/predict
// work.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/mart.hpp"
#include "core/serve_protocol.hpp"
#include "util/histogram.hpp"

namespace smart::core {

/// The exact multi-line report `smartctl advise` prints for one stencil —
/// shared by the CLI and the serve daemon so their outputs cannot drift.
std::string advise_report(const stencil::StencilPattern& pattern,
                          const std::string& gpu, const OcAdvice& advice,
                          const GpuRecommendation& rec);

/// The payload of the ok reply to an answered query, formatted into one
/// buffer: with item.recommend (an advise) the advise_report escaped onto
/// one line, byte-equal to serve::escape_text(advise_report(...));
/// otherwise (a predict) "predicted_ms=<%a hexfloat> ms=<3 decimals>".
std::string reply_payload(const AdviseBatchItem& item,
                          const AdviseBatchResult& result);

struct ServeConfig {
  /// Admission batch flush thresholds: a batch executes as soon as
  /// max_batch requests are pending, or max_wait_us after the OLDEST
  /// pending request arrived, whichever comes first.
  int max_batch = 8;
  long long max_wait_us = 200;
  /// Bound on the admission queue. A request arriving while max_queue
  /// requests are already pending is shed with a structured busy error.
  std::size_t max_queue = 1024;
  /// Per-request deadline: a queued request older than this when its batch
  /// starts executing is shed with a structured deadline error. 0 disables.
  long long deadline_us = 0;
};

/// Snapshot of the serve counters (the `stats` verb payload).
struct ServeCounters {
  std::uint64_t served = 0;       // ok replies to advise/predict
  std::uint64_t errors = 0;       // err replies (parse + execution + shed)
  std::uint64_t memo_hits = 0;
  std::uint64_t batches = 0;
  std::uint64_t max_batch_seen = 0;
  std::uint64_t shed_busy = 0;     // requests shed: admission queue full
  std::uint64_t shed_deadline = 0; // requests shed: deadline expired
  std::uint64_t p50_us = 0;       // request latency percentiles
  std::uint64_t p99_us = 0;
  double qps = 0.0;               // served / seconds since last reset
  std::uint64_t epoch = 0;        // model epoch (not part of the window)
};

/// The model slot's content: a trained mart plus the artifact metadata the
/// banner / healthz report. An in-process mart (tests, bench) carries
/// version "in-process" and checksum "-".
struct ModelSnapshot {
  std::shared_ptr<const StencilMart> mart;
  std::string version = "in-process";
  std::string checksum = "-";
};

/// Produces a fresh, fully validated ModelSnapshot (e.g. re-reading the
/// artifact through the strict load_model reader). Throws on any failure;
/// a throw leaves the currently served model untouched.
using ModelProvider = std::function<ModelSnapshot()>;

class AdvisorServer {
 public:
  /// Reply sink: receives exactly one reply line (no trailing newline) per
  /// submitted non-empty request line. Must be thread-safe.
  using Sink = std::function<void(const std::string&)>;

  /// `mart` must be trained and must outlive the server. No reload support
  /// (the `reload` verb answers with an error) — the in-process ctor for
  /// tests and bench.
  AdvisorServer(const StencilMart& mart, ServeConfig config);

  /// Serves `initial.mart` (which must be trained) at epoch 1. When
  /// `provider` is set, the `reload` verb / reload() swap in whatever it
  /// returns.
  AdvisorServer(ModelSnapshot initial, ServeConfig config,
                ModelProvider provider = nullptr);

  ~AdvisorServer();
  AdvisorServer(const AdvisorServer&) = delete;
  AdvisorServer& operator=(const AdvisorServer&) = delete;

  /// Feeds one request line. Empty / all-space lines are ignored (no
  /// reply). Returns false once a shutdown request has been accepted — all
  /// requests submitted before it are answered first (drain), then the
  /// shutdown's own `ok <id> bye` reply is delivered; the caller should
  /// stop reading. Lines submitted after shutdown get an err reply.
  /// Safe to call concurrently from many producer threads.
  bool submit(std::string_view line, const Sink& sink);

  /// Blocks until every pending request has been answered (EOF/SIGTERM
  /// drain). The server stays usable afterwards.
  void drain();

  /// Validates a fresh model via the provider and atomically swaps it into
  /// the slot, bumping the epoch and clearing the response memo. In-flight
  /// batches finish on the old model. Returns the new epoch. Throws
  /// std::runtime_error when no provider is configured or the provider
  /// fails — the serving model is untouched in both cases. Thread-safe;
  /// concurrent reloads are serialized.
  std::uint64_t reload();

  /// Current model epoch (starts at 1, bumped by each successful reload).
  std::uint64_t epoch() const noexcept {
    return epoch_.load(std::memory_order_acquire);
  }

  /// Metadata of the currently served model (for the startup banner).
  ModelSnapshot model_snapshot() const;

  /// Counters + latency percentiles since the last reset. The `stats` verb
  /// replies with this snapshot and then RESETS it (documented
  /// reset-on-stats semantics; the epoch field is not windowed), so
  /// successive stats requests report disjoint windows.
  ServeCounters counters_snapshot() const;

 private:
  using Clock = std::chrono::steady_clock;

  struct Pending {
    serve::Request request;
    Sink sink;
    Clock::time_point enqueued{};
  };

  void batcher_loop();
  /// Answers `batch` and leaves it empty (its capacity is kept).
  void execute_batch(std::vector<Pending>& batch);
  /// Delivers a reply, records latency + served/error counters.
  void respond(const Pending& pending, bool ok, const std::string& payload);
  /// Delivers a structured shed error (fixed bytes) + counters.
  void shed(const Pending& pending, bool deadline);
  std::string healthz_payload() const;
  ServeCounters snapshot_locked() const;

  ServeConfig config_;

  // Epoch-tagged model slot. model_mu_ guards the snapshot; epoch_ is
  // additionally atomic so healthz/stats read it without the lock. Batches
  // copy {mart, epoch} under the lock and run on that copy — a concurrent
  // reload cannot free a model a batch still uses (shared_ptr) and cannot
  // change the bytes that batch produces.
  mutable std::mutex model_mu_;
  ModelSnapshot model_;
  std::atomic<std::uint64_t> epoch_{1};
  ModelProvider provider_;
  std::mutex reload_mu_;  // serializes whole reload() calls

  mutable std::mutex mu_;
  std::condition_variable cv_;        // queue producer -> batcher
  std::condition_variable idle_cv_;   // batcher -> drain()/shutdown waiters
  std::vector<Pending> queue_;
  bool busy_ = false;                 // a batch is executing
  bool draining_ = false;             // flush regardless of thresholds
  bool stopping_ = false;             // destructor: batcher thread exits
  std::atomic<bool> shutdown_{false}; // shutdown verb accepted

  mutable std::mutex memo_mu_;
  struct MemoEntry {
    bool ok = false;
    std::string payload;
  };
  std::unordered_map<std::string, MemoEntry> memo_;
  std::uint64_t memo_epoch_ = 1;  // epoch the memo contents belong to

  // Batcher-thread scratch, reused across batches so that a batch costs
  // no container allocations once the sizes have been seen.
  std::vector<Pending> batch_;
  std::vector<AdviseBatchItem> unique_items_;  // first unique_count_ used
  std::vector<serve::Request*> unique_requests_;
  std::vector<std::size_t> unique_hash_;       // hash of each memo key
  std::vector<std::size_t> pending_unique_;    // per batch entry, or kAnswered
  std::vector<MemoEntry> replies_;

  mutable std::mutex stats_mu_;
  util::LatencyHistogram latency_;
  std::uint64_t served_ = 0;
  std::uint64_t errors_ = 0;
  std::uint64_t memo_hits_ = 0;
  std::uint64_t batches_ = 0;
  std::uint64_t max_batch_seen_ = 0;
  std::uint64_t shed_busy_ = 0;
  std::uint64_t shed_deadline_ = 0;
  Clock::time_point window_start_ = Clock::now();

  std::thread batcher_;
};

}  // namespace smart::core
