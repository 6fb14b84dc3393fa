// Append-only checkpoint journal for the profiling sweep.
//
// Every completed (stencil, OC, GPU) work unit is appended as one flushed
// line, so a run killed at any point — including kill -9 mid-append — can
// be resumed: replay parses only up to the last newline (a partial tail
// line is by construction the only casualty of a mid-write kill), truncates
// the tail, and reopens for append. Failed attempts and quarantines are
// journaled too, so retry budgets count across process restarts.
//
// Format (plain text, diff-friendly like the corpus format):
//
//   stencilmart-journal-v1
//   config <dims> <max_order> <num_stencils> <samples_per_oc> <seed>
//          <noise_sigma> <sim_seed> <vary_size> <vary_boundary>
//          <retries> <fault_spec|-> <shard_i/N>          (one line)
//   unit  <s> <oc> <g> <n> <t0..tn-1>     completed unit (hexfloat|crash)
//   retry <s> <oc> <g> <attempt> <kind>   failed attempt (transient|worker)
//   quar  <s> <oc> <g> <reason...>        unit withdrawn from the sweep
//
// The config line pins a resume to the exact run that wrote the journal:
// a different config, retry budget, fault spec or shard assignment would
// splice two incompatible schedules and is rejected.
#pragma once

#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/profile_dataset.hpp"

namespace smart::core {

/// State recovered from an interrupted run's journal.
struct JournalReplay {
  /// Completed unit times, keyed by ProfileJournal::unit_key.
  std::unordered_map<std::uint64_t, std::vector<double>> units;
  /// Failed attempts per unit (the next attempt index to try).
  std::unordered_map<std::uint64_t, int> attempts;
  std::vector<QuarantineRecord> quarantined;
  std::size_t replayed_lines = 0;
};

class ProfileJournal {
 public:
  /// Flat work-unit key (row-major in (stencil, oc, gpu)).
  static std::uint64_t unit_key(std::size_t s, std::size_t oc, std::size_t g,
                                std::size_t num_ocs,
                                std::size_t num_gpus) noexcept {
    return (static_cast<std::uint64_t>(s) * num_ocs + oc) * num_gpus + g;
  }

  ProfileJournal() = default;
  ~ProfileJournal() { close(); }
  ProfileJournal(const ProfileJournal&) = delete;
  ProfileJournal& operator=(const ProfileJournal&) = delete;

  /// Opens `path` fresh (truncating any previous journal) and writes the
  /// header. Throws std::runtime_error when the file cannot be created.
  void start(const std::string& path, const ProfileConfig& config,
             const ProfileRunOptions& opts, const std::string& fault_spec);

  /// Replays an existing journal at `path` (tolerating a truncated final
  /// line), validates its config line against this run's, drops the partial
  /// tail and reopens for append. A missing file degrades to start().
  /// Throws std::runtime_error on config mismatch or mid-file corruption.
  JournalReplay resume(const std::string& path, const ProfileConfig& config,
                       const ProfileRunOptions& opts,
                       const std::string& fault_spec, std::size_t num_ocs,
                       std::size_t num_gpus);

  bool active() const noexcept { return out_.is_open(); }

  // Thread-safe appends; each record is flushed before returning, so a
  // kill after the call cannot lose it.
  void record_unit(std::size_t s, std::size_t oc, std::size_t g,
                   const std::vector<double>& times);
  void record_retry(std::size_t s, std::size_t oc, std::size_t g, int attempt,
                    const char* kind);
  void record_quarantine(const QuarantineRecord& record);

  /// Flushes and records the "profile.journal" append counters (wall time +
  /// lines appended). Idempotent; the destructor calls it.
  void close();

 private:
  void append(std::string_view line);

  std::ofstream out_;
  std::mutex mu_;
  double append_ms_ = 0.0;
  std::uint64_t appended_ = 0;
};

}  // namespace smart::core
