// Lightweight per-phase timing counters for the profiling + training
// pipeline. Each instrumented phase ("profile.measure", "tuner.tune_all",
// "ml.gbdt.fit", ...) accumulates wall time, call count and task count in a
// process-wide registry; smartctl (SMART_TIMING=1 or profile --timing 1)
// and the bench harness print the registry as a table. Recording happens
// once per phase entry/exit — never per task — so the counters cost nothing
// on the hot paths they observe.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace smart::util {

struct PhaseStats {
  double wall_ms = 0.0;      // accumulated wall time across calls
  std::uint64_t calls = 0;   // times the phase was entered
  std::uint64_t tasks = 0;   // work items processed (loop trip counts)
};

/// Adds one phase invocation to the registry (thread-safe). Only the first
/// record of a phase copies its name.
void timing_record(std::string_view phase, double wall_ms,
                   std::uint64_t tasks = 0);

/// Snapshot of every recorded phase, sorted by phase name.
std::vector<std::pair<std::string, PhaseStats>> timing_snapshot();

/// Clears the registry (tests / repeated bench runs).
void timing_reset();

/// Formatted multi-line counter table; empty string when nothing recorded.
std::string timing_report();

/// RAII phase scope: accumulates the enclosed wall time on destruction.
/// `phase` is a string literal: the timer keeps the pointer, not a copy.
class PhaseTimer {
 public:
  explicit PhaseTimer(const char* phase, std::uint64_t tasks = 0)
      : phase_(phase),
        tasks_(tasks),
        start_(std::chrono::steady_clock::now()) {}
  ~PhaseTimer() {
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    timing_record(phase_,
                  std::chrono::duration<double, std::milli>(elapsed).count(),
                  tasks_);
  }
  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

 private:
  const char* phase_;
  std::uint64_t tasks_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace smart::util
