#include "cli/cli.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <initializer_list>
#include <iostream>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <string_view>
#include <thread>

#include <pthread.h>
#include <unistd.h>

#include "codegen/cuda_codegen.hpp"
#include "core/advisor_server.hpp"
#include "core/corpus_merge.hpp"
#include "core/mart.hpp"
#include "core/serialize.hpp"
#include "core/stencilmart.hpp"
#include "ml/simd.hpp"
#include "stencil/features.hpp"
#include "stencil/tensor_repr.hpp"
#include "util/fault.hpp"
#include "util/serialize_io.hpp"
#include "util/table.hpp"
#include "util/task_pool.hpp"
#include "util/timing.hpp"
#include "util/transport.hpp"

namespace smart::cli {

namespace {

/// Rejects every option the subcommand does not read. Each subcommand calls
/// this first with the options it reads, so a typo (`--max-bach 8`) is a
/// usage error before any file is read instead of a silently ignored flag.
void known_options(const CommandLine& cmd,
                   std::initializer_list<std::string_view> keys) {
  for (const auto& [key, value] : cmd.options) {
    if (std::find(keys.begin(), keys.end(), key) == keys.end()) {
      throw std::invalid_argument(cmd.command + ": unknown option --" + key);
    }
  }
}

/// Validates the inference precision before any expensive work, so a typo
/// exits 2 instantly: SMART_PRECISION (the default) and the optional
/// --precision that overrides it. Returns --precision ("" = inherit).
std::string precision_option(const CommandLine& cmd, const char* subcommand) {
  const auto check = [subcommand](const std::string& value, const char* name) {
    if (value != "f64" && value != "f32") {
      throw std::invalid_argument(std::string(subcommand) + ": " + name +
                                  " must be f64 or f32 (got '" + value + "')");
    }
  };
  const char* env = std::getenv("SMART_PRECISION");
  if (env != nullptr && *env != '\0') check(env, "SMART_PRECISION");
  const std::string precision = cmd.get("precision", "");
  if (!precision.empty()) check(precision, "--precision");
  return precision;
}

stencil::StencilPattern shape_from_options(const CommandLine& cmd) {
  const std::string shape = cmd.get("shape", "star");
  const int dims = cmd.get_int("dims", 2);
  const int order = cmd.get_int("order", 2);
  if (shape == "box") return stencil::make_box(dims, order);
  if (shape == "cross") return stencil::make_cross(dims, order);
  if (shape == "star") return stencil::make_star(dims, order);
  throw std::invalid_argument("unknown --shape '" + shape +
                              "' (star|box|cross)");
}

int cmd_generate(const CommandLine& cmd, std::ostream& out) {
  known_options(cmd, {"dims", "order", "count", "seed"});
  stencil::GeneratorConfig config;
  config.dims = cmd.get_int("dims", 2);
  config.order = cmd.get_int("order", 4);
  const stencil::RandomStencilGenerator generator(config);
  util::Rng rng(cmd.get_u64("seed", 1));
  const int count = cmd.get_int("count", 3);
  for (int i = 0; i < count; ++i) {
    const auto pattern = generator.generate(rng);
    out << pattern.name() << "  nnz=" << pattern.size() << "  offsets:";
    for (const auto& p : pattern.offsets()) {
      out << ' ' << p.to_string(pattern.dims());
    }
    out << '\n';
  }
  return 0;
}

/// Strict `--shard i/N` grammar: two full decimal tokens around one '/',
/// N >= 1, i < N. Everything else — "2/2", "x/3", "1/3junk", "1/", "/3",
/// "-1/3", "1/0" — is a usage error (rc 2 + usage text), caught before any
/// expensive work.
core::ShardSpec parse_shard_option(const std::string& text) {
  const auto reject = [&text]() -> void {
    throw std::invalid_argument("profile: --shard must be i/N with 0 <= i < N "
                                "(got '" + text + "')");
  };
  const std::size_t slash = text.find('/');
  if (slash == std::string::npos) reject();
  std::uint64_t index = 0;
  std::uint64_t count = 0;
  if (!util::parse_u64_strict(text.substr(0, slash), index) ||
      !util::parse_u64_strict(text.substr(slash + 1), count)) {
    reject();
  }
  if (count == 0 || index >= count) reject();
  return core::ShardSpec{static_cast<std::size_t>(index),
                         static_cast<std::size_t>(count)};
}

/// `profile --shard i/N --plan`: the fleet-planning view. Runs only the
/// cheap stencil-generation stage and prints every shard's owned-unit
/// count, so operators can sanity-check partition balance before paying
/// for N real sweeps.
int shard_plan(const core::ProfileConfig& config, const core::ShardSpec& shard,
               std::ostream& out) {
  const auto counts = core::shard_unit_counts(config, shard.count);
  std::size_t total = 0;
  for (const std::size_t c : counts) total += c;
  util::Table table({"shard", "units", "share"});
  for (std::size_t i = 0; i < counts.size(); ++i) {
    std::string label = std::to_string(i) + "/" + std::to_string(shard.count);
    if (i == shard.index) label += " *";
    table.row()
        .add(label)
        .add(static_cast<long long>(counts[i]))
        .add(total > 0 ? 100.0 * static_cast<double>(counts[i]) /
                             static_cast<double>(total)
                       : 0.0,
             1);
  }
  table.print(out);
  out << "plan: " << total << " work units over " << shard.count
      << " shards (ideal " << total / shard.count
      << " per shard); no measurements were run\n";
  return 0;
}

int cmd_profile(const CommandLine& cmd, std::ostream& out) {
  known_options(cmd, {"dims", "stencils", "samples", "seed", "journal",
                      "resume", "retries", "shard", "plan", "faults",
                      "checksum", "timing", "out"});
  core::ProfileConfig config;
  config.dims = cmd.get_int("dims", 2);
  config.num_stencils = cmd.get_int("stencils", 40);
  config.samples_per_oc = cmd.get_int("samples", 4);
  config.seed = cmd.get_u64("seed", 1234);

  core::ProfileRunOptions run;
  run.journal_path = cmd.get("journal", "");
  run.resume = cmd.get_int("resume", 0) != 0;
  run.retries = cmd.get_int("retries", run.retries);
  if (cmd.has("shard")) run.shard = parse_shard_option(cmd.get("shard", ""));
  if (run.resume && run.journal_path.empty()) {
    throw std::invalid_argument("profile: --resume requires --journal FILE");
  }
  if (run.retries < 0) {
    throw std::invalid_argument("profile: --retries must be >= 0");
  }
  if (cmd.get_int("plan", 0) != 0) {
    if (!cmd.has("shard")) {
      throw std::invalid_argument("profile: --plan requires --shard i/N");
    }
    return shard_plan(config, run.shard, out);
  }
  // --faults scopes the injected schedule to this run; it overrides (and on
  // exit restores) any SMART_FAULTS environment spec.
  std::optional<util::ScopedFaultInjection> faults;
  if (cmd.has("faults")) {
    faults.emplace(util::parse_fault_spec(cmd.get("faults", "")));
  }

  const auto dataset = core::build_profile_dataset(config, run);
  out << "profiled " << dataset.stencils.size() << " stencils x "
      << core::ProfileDataset::num_ocs() << " OCs x "
      << dataset.num_gpus() << " GPUs (" << dataset.num_instances()
      << " instances, " << util::parallel_threads() << " threads)\n";
  if (run.shard.sharded()) {
    const std::size_t total = dataset.stencils.size() *
                              core::ProfileDataset::num_ocs() *
                              dataset.num_gpus();
    out << "shard " << run.shard.index << '/' << run.shard.count << ": owned "
        << dataset.owned_units << "/" << total << " units ("
        << util::format_double(total > 0 ? 100.0 *
                                               static_cast<double>(
                                                   dataset.owned_units) /
                                               static_cast<double>(total)
                                         : 0.0,
                               1)
        << "% of the sweep; ideal " << total / run.shard.count << ")\n";
  }
  if (dataset.resumed_units > 0) {
    out << "resumed " << dataset.resumed_units << " completed units from "
        << run.journal_path << '\n';
  }
  if (!dataset.quarantined.empty()) {
    out << "quarantined " << dataset.quarantined.size()
        << " units (kept as crash entries in the corpus)\n";
  }
  if (cmd.get_int("checksum", 0) != 0) {
    char digest[32];
    std::snprintf(digest, sizeof(digest), "%016llx",
                  static_cast<unsigned long long>(core::dataset_checksum(dataset)));
    out << "checksum " << digest << '\n';
  }
  if (cmd.get_int("timing", 0) != 0) out << util::timing_report();
  if (cmd.has("out")) {
    core::save_dataset(dataset, cmd.get("out", ""));
    out << "saved to " << cmd.get("out", "") << '\n';
  }
  return 0;
}

/// `smartctl merge --out FILE SHARD...`: fold shard corpora back into the
/// single-run corpus. Validation (partition completeness, run identity,
/// ownership) lives in core::merge_shard_corpora; load errors carry
/// "<file>:<line>:" context from core::load_dataset. Both surface through
/// the PR 5 exit-code contract (rc 1, one-line `smartctl: error:`).
int cmd_merge(const CommandLine& cmd, std::ostream& out) {
  known_options(cmd, {"out", "checksum", "timing"});
  if (!cmd.has("out")) {
    throw std::invalid_argument("merge: --out FILE is required");
  }
  if (cmd.positional.empty()) {
    throw std::invalid_argument(
        "merge: at least one shard corpus file is required");
  }
  std::vector<core::ProfileDataset> shards;
  shards.reserve(cmd.positional.size());
  for (const std::string& path : cmd.positional) {
    shards.push_back(core::load_dataset(path));
  }
  auto merged = core::merge_shard_corpora(std::move(shards), cmd.positional);
  core::save_dataset(merged, cmd.get("out", ""));
  out << "merged " << cmd.positional.size() << " shard"
      << (cmd.positional.size() == 1 ? "" : "s") << " -> "
      << cmd.get("out", "") << " (" << merged.stencils.size()
      << " stencils, " << merged.owned_units << " work units";
  if (!merged.quarantined.empty()) {
    out << ", " << merged.quarantined.size() << " quarantined";
  }
  out << ")\n";
  if (cmd.get_int("checksum", 0) != 0) {
    char digest[32];
    std::snprintf(digest, sizeof(digest), "%016llx",
                  static_cast<unsigned long long>(core::dataset_checksum(merged)));
    out << "checksum " << digest << '\n';
  }
  if (cmd.get_int("timing", 0) != 0) out << util::timing_report();
  return 0;
}

int cmd_ocs(const CommandLine& cmd, std::ostream& out) {
  known_options(cmd, {});
  util::Table table({"idx", "combination"});
  const auto& all = gpusim::valid_combinations();
  for (std::size_t i = 0; i < all.size(); ++i) {
    table.row().add(static_cast<long long>(i)).add(all[i].name());
  }
  table.print(out);
  return 0;
}

int cmd_gpus(const CommandLine& cmd, std::ostream& out) {
  known_options(cmd, {});
  util::Table table({"GPU", "Mem(GB)", "BW(GB/s)", "SMs", "TFLOPS", "$/hr"});
  for (const auto& gpu : gpusim::evaluation_gpus()) {
    table.row()
        .add(gpu.name)
        .add(gpu.mem_gb, 0)
        .add(gpu.mem_bw_gbs, 0)
        .add(gpu.sms)
        .add(gpu.fp64_tflops, 2)
        .add(gpu.rental_usd_hr, 2);
  }
  table.print(out);
  return 0;
}

/// The shared train/advise MartConfig: both CLI paths must agree on every
/// field (notably the regression instance cap) so a model trained by
/// `smartctl train` predicts bit-identically to an in-process `advise
/// --corpus` run over the same corpus.
core::MartConfig mart_config(const CommandLine& cmd, int dims) {
  core::MartConfig config;
  config.profile.dims = dims;
  config.profile.num_stencils = cmd.get_int("stencils", 40);
  config.profile.seed = cmd.get_u64("seed", 99);
  config.regression.instance_cap = 3000;
  return config;
}

int cmd_train(const CommandLine& cmd, std::ostream& out) {
  // stencils and seed are read by mart_config().
  known_options(cmd, {"out", "corpus", "dims", "stencils", "seed", "timing"});
  if (!cmd.has("out")) {
    throw std::invalid_argument("train: --out FILE is required");
  }
  core::MartConfig config = mart_config(cmd, cmd.get_int("dims", 2));
  core::StencilMart mart(config);
  if (cmd.has("corpus")) {
    mart.train(core::load_dataset(cmd.get("corpus", "")));
  } else {
    mart.train();
  }
  core::save_model(mart, cmd.get("out", ""));
  out << "trained " << core::to_string(mart.config().regressor) << " on "
      << mart.dataset().stencils.size() << " stencils; model saved to "
      << cmd.get("out", "") << '\n';
  if (cmd.get_int("timing", 0) != 0) out << util::timing_report();
  return 0;
}

int cmd_advise(const CommandLine& cmd, std::ostream& out) {
  // shape/dims/order are read by shape_from_options(), stencils and seed
  // by mart_config().
  known_options(cmd, {"shape", "dims", "order", "gpu", "model", "corpus",
                      "precision", "stencils", "seed", "timing"});
  const auto pattern = shape_from_options(cmd);
  if (cmd.has("model") && cmd.has("corpus")) {
    throw std::invalid_argument(
        "advise: --model and --corpus are mutually exclusive");
  }
  const std::string precision = precision_option(cmd, "advise");
  std::optional<ml::PrecisionSection> precision_section;
  if (!precision.empty()) {
    precision_section.emplace(ml::precision_from_string(precision.c_str()));
  }

  std::optional<core::StencilMart> mart;
  if (cmd.has("model")) {
    // Serve-only path: no profiling, no training — just deserialize.
    mart.emplace(core::load_model(cmd.get("model", "")));
    if (mart->config().profile.dims != pattern.dims()) {
      throw std::runtime_error(
          "advise: the model was trained for " +
          std::to_string(mart->config().profile.dims) +
          "-D stencils but the query stencil is " +
          std::to_string(pattern.dims()) + "-D");
    }
  } else {
    mart.emplace(mart_config(cmd, pattern.dims()));
    if (cmd.has("corpus")) {
      // Train on the corpus's measured times (reproducible across calls,
      // and on real hardware: no re-profiling).
      auto dataset = core::load_dataset(cmd.get("corpus", ""));
      if (dataset.config.dims != pattern.dims()) {
        throw std::invalid_argument("corpus dimensionality mismatch");
      }
      mart->train(std::move(dataset));
    } else {
      mart->train();
    }
  }

  // Deliberately the per-item advise()/recommend_gpu() pair — the serve
  // daemon goes through advise_batch(), so the serve-vs-CLI golden
  // equivalence gate compares two genuinely different code paths. Only the
  // report FORMATTER is shared (core::advise_report).
  const std::string gpu = cmd.get("gpu", "V100");
  const auto advice = mart->advise(pattern, gpu);
  const auto rec = mart->recommend_gpu(pattern);
  out << core::advise_report(pattern, gpu, advice, rec);
  if (cmd.get_int("timing", 0) != 0) out << util::timing_report();
  return 0;
}

std::atomic<bool> g_serve_stop{false};

void serve_stop_handler(int) { g_serve_stop.store(true); }

/// Installs a handler for `sig`, restoring the previous disposition on
/// destruction (commands run in-process in the unit tests; handlers must
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

/// One serve client: a line reader plus a thread-safe reply writer. Batched
/// replies are written from the batcher thread, so a write failure (the
/// peer vanished mid-reply) cannot throw there — it is captured and
/// rethrown on the reader thread, where it propagates into the PR 5
/// one-line `smartctl: error:` exit (rc 1) instead of SIGPIPE death.
class ServeConnection {
 public:
  ServeConnection(int read_fd, int write_fd)
      : reader_(read_fd), writer_(write_fd) {}

  core::AdvisorServer::Sink sink() {
    return [this](const std::string& line) { write_reply(line); };
  }

  /// Writes one reply line plus its newline in one write, through a
  /// buffer kept across replies.
  void write_reply(const std::string& line) {
    const std::lock_guard<std::mutex> lk(mu_);
    if (dead_) return;  // the peer is gone: drop further replies quietly
    try {
      out_.assign(line);
      out_ += '\n';
      writer_.write_all(out_);
    } catch (...) {
      dead_ = true;
      error_ = std::current_exception();
    }
  }

  util::LineChannel& reader() { return reader_; }
  util::LineChannel& writer() { return writer_; }

  /// Stops delivering replies (used by injected write faults to model a
  /// severed peer without tearing down the fd mid-write).
  void cut() {
    const std::lock_guard<std::mutex> lk(mu_);
    dead_ = true;
  }

  void rethrow_write_error() {
    const std::lock_guard<std::mutex> lk(mu_);
    if (error_) std::rethrow_exception(error_);
  }

 private:
  util::LineChannel reader_;
  util::LineChannel writer_;
  std::mutex mu_;
  std::string out_;  // the line being written (guarded by mu_)
  bool dead_ = false;
  std::exception_ptr error_;
};

enum class ConnEnd { kShutdown, kEof, kStop };

ConnEnd serve_connection(core::AdvisorServer& server, int read_fd,
                         int write_fd) {
  ServeConnection conn(read_fd, write_fd);
  const auto sink = conn.sink();
  std::string line;
  try {
    for (;;) {
      const auto r = conn.reader().read_line(line, &g_serve_stop);
      if (r != util::LineChannel::ReadResult::kLine) {
        // EOF or SIGTERM/SIGINT: answer everything already accepted
        // (graceful drain — no request is dropped), then leave.
        server.drain();
        conn.rethrow_write_error();
        return r == util::LineChannel::ReadResult::kEof ? ConnEnd::kEof
                                                        : ConnEnd::kStop;
      }
      const bool keep = server.submit(line, sink);
      conn.rethrow_write_error();
      if (!keep) return ConnEnd::kShutdown;
    }
  } catch (...) {
    // The server queue still holds sinks that capture `conn`; flush them
    // while it is alive (a dead peer drops replies quietly), THEN let the
    // error unwind. Without this, the batcher thread would call into a
    // destroyed connection.
    server.drain();
    throw;
  }
}

/// Per-connection limits of the multi-client accept loop.
struct ServeLimits {
  int max_inflight = 1024;
  int idle_timeout_ms = 0;   // 0 = never reap idle connections
  int write_timeout_ms = 0;  // 0 = block forever on a slow reader
};

/// Best-effort second token of a request line (the id) for cli-layer busy
/// replies; "-" when it is missing or not a protocol-legal id.
std::string line_request_id(const std::string& line) {
  std::size_t i = 0;
  while (i < line.size() && line[i] == ' ') ++i;
  while (i < line.size() && line[i] != ' ') ++i;  // skip the verb
  while (i < line.size() && line[i] == ' ') ++i;
  const std::size_t start = i;
  while (i < line.size() && line[i] != ' ') ++i;
  const std::string id = line.substr(start, i - start);
  if (id.empty() || id.size() > core::serve::kMaxIdBytes) return "-";
  for (const char c : id) {
    const bool ok = (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.' ||
                    c == ':' || c == '-';
    if (!ok) return "-";
  }
  return id;
}

bool blank_line(const std::string& line) {
  return line.find_first_not_of(" \t\r") == std::string::npos;
}

/// One socket session under the multi-client accept loop. A failing peer
/// (disconnect, write error, injected read/write fault, idle timeout) ends
/// only this session — the daemon keeps serving everyone else. Sets
/// g_serve_stop when this client's shutdown verb was accepted.
void serve_session(core::AdvisorServer& server, int fd, std::uint64_t conn_id,
                   const ServeLimits& limits) {
  ServeConnection conn(fd, fd);
  conn.reader().set_idle_timeout_ms(limits.idle_timeout_ms);
  if (limits.write_timeout_ms > 0) {
    conn.writer().set_write_timeout_ms(limits.write_timeout_ms);
  }
  // In-flight = submitted minus replied on THIS connection; the sink
  // wrapper decrements as each reply (batched, memoized, control or shed)
  // is delivered.
  // Every exit path drains the server before `conn` and `inflight` go out
  // of scope, so the sink may point at both; two pointers also fit the
  // small-object buffer of the std::function each queued request copies.
  std::atomic<int> inflight{0};
  const core::AdvisorServer::Sink sink =
      [c = &conn, n = &inflight](const std::string& line) {
        c->write_reply(line);
        n->fetch_sub(1, std::memory_order_acq_rel);
      };
  const auto& faults = util::FaultInjector::global();
  std::string line;
  int reads = 0;
  int writes = 0;
  try {
    for (;;) {
      const auto r = conn.reader().read_line(line, &g_serve_stop);
      if (r != util::LineChannel::ReadResult::kLine) {
        // EOF, idle timeout or SIGTERM/shutdown: answer everything this
        // client already submitted (graceful drain), then hang up.
        server.drain();
        conn.rethrow_write_error();
        if (r == util::LineChannel::ReadResult::kIdleTimeout) {
          std::fprintf(stderr, "serve: connection %llu: idle timeout, closing\n",
                       static_cast<unsigned long long>(conn_id));
        }
        return;
      }
      faults.inject(util::FaultSite::kRead, conn_id, reads++);
      faults.inject(util::FaultSite::kWrite, conn_id, writes++);
      if (!blank_line(line)) {
        if (inflight.load(std::memory_order_acquire) >= limits.max_inflight) {
          // Per-connection cap: shed at the edge with a structured reply
          // instead of letting one pipelining client monopolize the queue.
          conn.write_reply(core::serve::err_reply(
              line_request_id(line), "busy (connection in-flight cap)"));
          conn.rethrow_write_error();
          continue;
        }
        inflight.fetch_add(1, std::memory_order_acq_rel);
      }
      const bool keep = server.submit(line, sink);
      conn.rethrow_write_error();
      if (!keep) {
        // This client's shutdown verb was accepted (or raced another
        // client's): stop the whole daemon, once this client's queued
        // requests are answered.
        g_serve_stop.store(true);
        server.drain();
        return;
      }
    }
  } catch (const util::FaultError&) {
    // Injected read/write fault: treat as a severed peer — no further
    // replies reach it; flush the queue, hang up.
    conn.cut();
    server.drain();
  } catch (const std::exception& e) {
    // A broken peer (write error, read error) must not kill the daemon;
    // flush sinks that still capture `conn`, log, and close this session.
    server.drain();
    std::fprintf(stderr, "serve: connection %llu: %s\n",
                 static_cast<unsigned long long>(conn_id), e.what());
  }
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

int cmd_serve(const CommandLine& cmd, std::ostream& out) {
  // Every flag is validated BEFORE the model load, so usage errors are
  // instant (and exit 2) instead of surfacing after seconds of deserializing.
  known_options(cmd, {"model", "socket", "stdio", "max-batch", "max-wait-us",
                      "max-queue", "deadline-us", "max-conns", "max-inflight",
                      "idle-timeout-ms", "write-timeout-ms", "precision",
                      "faults", "timing"});
  if (!cmd.has("model")) {
    throw std::invalid_argument("serve: --model FILE is required");
  }
  const bool stdio = cmd.get_int("stdio", 0) != 0;
  if (stdio && cmd.has("socket")) {
    throw std::invalid_argument(
        "serve: --socket and --stdio are mutually exclusive");
  }
  const std::string socket_path = cmd.get("socket", "");
  core::ServeConfig config;
  config.max_batch = cmd.get_int("max-batch", 8);
  if (config.max_batch < 1 || config.max_batch > 4096) {
    throw std::invalid_argument("serve: --max-batch must be in [1, 4096]");
  }
  const int max_wait = cmd.get_int("max-wait-us", 200);
  if (max_wait < 0) {
    throw std::invalid_argument("serve: --max-wait-us must be >= 0");
  }
  config.max_wait_us = max_wait;
  const int max_queue = cmd.get_int("max-queue", 1024);
  if (max_queue < 1 || max_queue > (1 << 20)) {
    throw std::invalid_argument("serve: --max-queue must be in [1, 1048576]");
  }
  config.max_queue = static_cast<std::size_t>(max_queue);
  const int deadline_us = cmd.get_int("deadline-us", 0);
  if (deadline_us < 0) {
    throw std::invalid_argument("serve: --deadline-us must be >= 0");
  }
  config.deadline_us = deadline_us;
  const int max_conns = cmd.get_int("max-conns", 16);
  if (max_conns < 1 || max_conns > 1024) {
    throw std::invalid_argument("serve: --max-conns must be in [1, 1024]");
  }
  ServeLimits limits;
  limits.max_inflight = cmd.get_int("max-inflight", 1024);
  if (limits.max_inflight < 1 || limits.max_inflight > (1 << 20)) {
    throw std::invalid_argument(
        "serve: --max-inflight must be in [1, 1048576]");
  }
  limits.idle_timeout_ms = cmd.get_int("idle-timeout-ms", 0);
  if (limits.idle_timeout_ms < 0) {
    throw std::invalid_argument("serve: --idle-timeout-ms must be >= 0");
  }
  limits.write_timeout_ms = cmd.get_int("write-timeout-ms", 0);
  if (limits.write_timeout_ms < 0) {
    throw std::invalid_argument("serve: --write-timeout-ms must be >= 0");
  }
  config.precision = precision_option(cmd, "serve");
  // --faults scopes an injected accept/read/write fault schedule to this
  // daemon (chaos harness); it overrides and restores SMART_FAULTS.
  std::optional<util::ScopedFaultInjection> faults;
  if (cmd.has("faults")) {
    faults.emplace(util::parse_fault_spec(cmd.get("faults", "")));
  }
  const bool timing = cmd.get_int("timing", 0) != 0;

  // The provider re-validates the artifact through the strict load_model
  // reader on every (re)load; the daemon starts by loading through the same
  // path, so the banner and the reload verb can never disagree about what a
  // "valid artifact" is. Version and checksum come from the same single
  // read as the model, so they describe the model that serves even when a
  // hot swap renames a new artifact over the path mid-load.
  const std::string model_path = cmd.get("model", "");
  const core::ModelProvider provider = [model_path] {
    core::ModelSnapshot snapshot;
    core::ModelArtifactInfo info;
    snapshot.mart = std::make_shared<const core::StencilMart>(
        core::load_model(model_path, info));
    snapshot.version = std::move(info.version);
    snapshot.checksum = std::move(info.checksum);
    return snapshot;
  };
  // SIGHUP is blocked before any daemon thread exists, so every thread
  // inherits the mask and a HUP stays pending until the reload poller
  // reaps it with sigtimedwait.
  const ScopedSigblock block_hup(SIGHUP);
  core::AdvisorServer server(provider(), config, provider);

  g_serve_stop.store(false);
  const ScopedSignal on_term(SIGTERM, serve_stop_handler);
  const ScopedSignal on_int(SIGINT, serve_stop_handler);
  const ScopedSignal ignore_pipe(SIGPIPE, SIG_IGN);

  // In stdio mode stdout is the protocol stream: the startup banner (which
  // artifact is live) and the exit report go to stderr instead.
  const bool stdio_mode = stdout_is_protocol(cmd);
  std::ostream& report_out = stdio_mode ? std::cerr : out;
  {
    const auto snapshot = server.model_snapshot();
    report_out << "serve: model " << model_path
               << " version=" << snapshot.version
               << " checksum=" << snapshot.checksum
               << " epoch=" << server.epoch() << std::endl;
  }

  // SIGHUP poller: hot reload without interrupting traffic. The blocked
  // signal is reaped synchronously (sigtimedwait doubles as the poll
  // sleep), so reload latency is bounded by the timeout rather than by
  // async-handler delivery. Outcome notices go to stderr (operators watch
  // stderr; protocol stdout stays clean). A failed reload keeps the old
  // model serving.
  std::atomic<bool> poller_stop{false};
  std::thread reload_poller([&server, &poller_stop] {
    sigset_t hup;
    sigemptyset(&hup);
    sigaddset(&hup, SIGHUP);
    const timespec tick{0, 20 * 1000 * 1000};
    while (!poller_stop.load(std::memory_order_acquire)) {
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
  });
  struct PollerJoin {
    std::atomic<bool>& stop;
    std::thread& thread;
    ~PollerJoin() {
      stop.store(true, std::memory_order_release);
      if (thread.joinable()) thread.join();
    }
  } poller_join{poller_stop, reload_poller};

  if (stdio_mode) {
    serve_connection(server, STDIN_FILENO, STDOUT_FILENO);
  } else {
    const int listen_fd = util::listen_unix(socket_path);
    out << "serve: listening on " << socket_path << " (max-conns "
        << max_conns << ", max-queue " << max_queue << ")" << std::endl;
    SessionSet sessions;
    std::shared_ptr<std::atomic<int>> active =
        std::make_shared<std::atomic<int>>(0);
    std::uint64_t conn_counter = 0;
    try {
      for (;;) {
        const int fd = util::accept_unix(listen_fd, &g_serve_stop);
        if (fd < 0) break;  // stop flag: SIGTERM/SIGINT or shutdown verb
        const std::uint64_t conn_id = ++conn_counter;
        try {
          util::FaultInjector::global().inject(util::FaultSite::kAccept,
                                               conn_id);
        } catch (const util::FaultError&) {
          ::close(fd);  // injected accept fault: drop the fresh connection
          continue;
        }
        if (active->load(std::memory_order_acquire) >= max_conns) {
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
        active->fetch_add(1, std::memory_order_acq_rel);
        sessions.launch([&server, fd, conn_id, limits, active] {
          serve_session(server, fd, conn_id, limits);
          ::close(fd);
          active->fetch_sub(1, std::memory_order_acq_rel);
        });
      }
      sessions.join_all();
      server.drain();
    } catch (...) {
      g_serve_stop.store(true);
      sessions.join_all();
      ::close(listen_fd);
      ::unlink(socket_path.c_str());
      throw;
    }
    ::close(listen_fd);
    ::unlink(socket_path.c_str());
  }

  if (timing) {
    const auto counters = server.counters_snapshot();
    report_out << "serve: served=" << counters.served
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
  return 0;
}

int cmd_codegen(const CommandLine& cmd, std::ostream& out) {
  known_options(cmd, {"shape", "dims", "order", "oc", "seed"});
  const auto pattern = shape_from_options(cmd);
  const auto problem = gpusim::ProblemSize::paper_default(pattern.dims());

  gpusim::OptCombination oc;
  const std::string oc_name = cmd.get("oc", "ST");
  bool found = false;
  for (const auto& candidate : gpusim::valid_combinations()) {
    if (candidate.name() == oc_name) {
      oc = candidate;
      found = true;
      break;
    }
  }
  if (!found) throw std::invalid_argument("unknown --oc '" + oc_name + "'");

  const gpusim::ParamSpace space(oc, pattern.dims());
  util::Rng rng(cmd.get_u64("seed", 5));
  const auto setting = space.random_setting(rng);
  const codegen::CudaKernelGenerator generator;
  const auto kernel = generator.generate(pattern, oc, setting, problem);
  out << kernel.source;
  return 0;
}

int cmd_features(const CommandLine& cmd, std::ostream& out) {
  known_options(cmd, {"shape", "dims", "order"});
  const auto pattern = shape_from_options(cmd);
  constexpr int kMaxOrder = 4;
  const auto features = stencil::extract_features(pattern, kMaxOrder);
  const auto names = stencil::FeatureSet::names(kMaxOrder);
  const auto values = features.to_vector();
  util::Table table({"feature", "value"});
  for (std::size_t i = 0; i < names.size(); ++i) {
    table.row().add(names[i]).add(values[i], 4);
  }
  table.print(out);
  return 0;
}

}  // namespace

bool stdout_is_protocol(const CommandLine& cmd) {
  return cmd.command == "serve" && cmd.get("socket", "").empty();
}

std::string CommandLine::get(const std::string& key,
                             const std::string& fallback) const {
  const auto it = options.find(key);
  return it == options.end() ? fallback : it->second;
}

int CommandLine::get_int(const std::string& key, int fallback) const {
  const auto it = options.find(key);
  if (it == options.end()) return fallback;
  long long value = 0;
  if (!util::parse_i64_strict(it->second, value) ||
      value < std::numeric_limits<int>::min() ||
      value > std::numeric_limits<int>::max()) {
    throw std::invalid_argument("option --" + key + ": invalid integer '" +
                                it->second + "'");
  }
  return static_cast<int>(value);
}

std::uint64_t CommandLine::get_u64(const std::string& key,
                                   std::uint64_t fallback) const {
  const auto it = options.find(key);
  if (it == options.end()) return fallback;
  std::uint64_t value = 0;
  if (!util::parse_u64_strict(it->second, value)) {
    throw std::invalid_argument("option --" + key +
                                ": invalid unsigned integer '" + it->second +
                                "'");
  }
  return value;
}

/// Options that may appear without a value (`--resume` ≡ `--resume 1`).
/// Everything else still requires an explicit value so a forgotten argument
/// (`--out --timing 1`) stays a parse error instead of silently eating the
/// next option.
bool is_boolean_flag(const std::string& key) {
  return key == "resume" || key == "checksum" || key == "timing" ||
         key == "stdio" || key == "plan";
}

CommandLine parse_command_line(const std::vector<std::string>& args) {
  CommandLine cmd;
  if (args.empty()) return cmd;
  if (args[0].starts_with("--")) {
    throw std::invalid_argument("expected a subcommand before options");
  }
  cmd.command = args[0];
  // Only merge takes positional operands (its shard files); everywhere else
  // a bare token is a typo and must stay a loud parse error.
  const bool allow_positional = cmd.command == "merge";
  for (std::size_t i = 1; i < args.size(); ++i) {
    if (!args[i].starts_with("--")) {
      if (allow_positional) {
        cmd.positional.push_back(args[i]);
        continue;
      }
      throw std::invalid_argument("unexpected token '" + args[i] + "'");
    }
    const std::string key = args[i].substr(2);
    if (i + 1 >= args.size() || args[i + 1].starts_with("--")) {
      if (is_boolean_flag(key)) {
        cmd.options[key] = "1";
        continue;
      }
      throw std::invalid_argument("option --" + key + " needs a value");
    }
    cmd.options[key] = args[++i];
  }
  return cmd;
}

std::string usage() {
  return
      "smartctl — StencilMART command line\n"
      "  (SMART_THREADS caps the task pool; SMART_TIMING=1 prints counters;\n"
      "   SMART_PRECISION=f32 relaxed-FP inference; unknown options exit 2)\n"
      "  generate --dims D --order N --count K [--seed S]   random stencils\n"
      "  profile  --dims D --stencils N [--out FILE]        build a corpus\n"
      "           [--checksum] [--timing]                   determinism digest\n"
      "           [--journal FILE [--resume]]               checkpoint + resume\n"
      "           [--retries N] [--faults SPEC]             fault injection\n"
      "           (SPEC: seed=N;measure:transient:p=P[:fails=K];\n"
      "                  measure:permanent:p=P;worker:p=P[:fails=K];io:p=P)\n"
      "           [--shard i/N [--plan]]                     sweep shard i of N\n"
      "                                                      (--plan: counts only)\n"
      "  merge    --out FILE SHARD... [--checksum] [--timing]\n"
      "           fold N shard corpora into the bit-identical single-run corpus\n"
      "  train    --out MODEL [--corpus FILE] [--timing 1]  fit + save a model\n"
      "  advise   --shape star|box|cross --dims D --order N\n"
      "           [--gpu NAME] [--corpus FILE] [--timing 1] best-OC advice\n"
      "           [--model MODEL] [--precision f64|f32]     serve a saved model\n"
      "  serve    --model MODEL [--socket PATH | --stdio]   resident daemon\n"
      "           [--max-batch N] [--max-wait-us U] [--timing]\n"
      "           [--max-conns N] [--max-queue N]            concurrency + shedding\n"
      "           [--deadline-us U] [--max-inflight N]\n"
      "           [--idle-timeout-ms T] [--write-timeout-ms T]\n"
      "           [--faults SPEC]                            accept/read/write chaos\n"
      "           [--precision f64|f32]                      f32 = relaxed-FP inference\n"
      "           (line protocol: advise|predict|stats|ping|healthz|reload|shutdown;\n"
      "            batches concurrent requests, memoizes per stencil;\n"
      "            SIGHUP or `reload` hot-swaps the --model artifact)\n"
      "  codegen  --shape ... --dims D --order N --oc NAME  emit CUDA\n"
      "  features --shape ... --dims D --order N            Table II vector\n"
      "  ocs                                                Table I OCs\n"
      "  gpus                                               Table III GPUs\n";
}

int run_command(const CommandLine& cmd, std::ostream& out) {
  if (cmd.command == "generate") return cmd_generate(cmd, out);
  if (cmd.command == "profile") return cmd_profile(cmd, out);
  if (cmd.command == "merge") return cmd_merge(cmd, out);
  if (cmd.command == "ocs") return cmd_ocs(cmd, out);
  if (cmd.command == "gpus") return cmd_gpus(cmd, out);
  if (cmd.command == "train") return cmd_train(cmd, out);
  if (cmd.command == "advise") return cmd_advise(cmd, out);
  if (cmd.command == "serve") return cmd_serve(cmd, out);
  if (cmd.command == "codegen") return cmd_codegen(cmd, out);
  if (cmd.command == "features") return cmd_features(cmd, out);
  out << usage();
  return cmd.command.empty() || cmd.command == "help" ? 0 : 2;
}

}  // namespace smart::cli
