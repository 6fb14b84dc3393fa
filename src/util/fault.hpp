// Deterministic fault injection for the profiling pipeline.
//
// Real profiling sweeps die in three characteristic ways: a measurement
// fails transiently (launch timeout, ECC retry, preemption), a worker hits
// an unexpected exception (driver bug, OOM), or an artifact write fails
// mid-stream (disk full, quota). This harness injects all three at seeded
// points so every recovery path — retry, quarantine, journal resume,
// atomic-write rollback — is testable without real hardware or real luck.
//
// Determinism contract: whether a fault fires is a pure function of
// (spec seed, site, identity hash, attempt index). No global RNG state is
// consumed, so injected faults never perturb measured values — a run that
// retries through transient faults produces measurements bit-identical to a
// fault-free run — and the fault schedule is independent of thread count
// and of process restarts (the attempt index is persisted by the profiling
// journal across resumes).
//
// Spec grammar (SMART_FAULTS env var or `smartctl profile --faults`):
//
//   spec    := element (';' element)*
//   element := 'seed=' uint
//            | 'measure:transient:p=' float [':fails=' uint]
//            | 'measure:permanent:p=' float
//            | 'worker:p=' float [':fails=' uint]
//            | 'io:p=' float
//
// `p` is the probability that a given identity is faulty at all; `fails`
// (default 1) is how many leading attempts a faulty transient/worker
// identity fails before succeeding. Permanent and io faults fail every
// attempt.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

namespace smart::util {

enum class FaultSite { kMeasure, kWorker, kIo };

const char* to_string(FaultSite site) noexcept;

struct FaultRule {
  FaultSite site = FaultSite::kMeasure;
  bool permanent = false;  // fails every attempt (measure:permanent, io)
  double p = 0.0;          // probability an identity is faulty
  int fails = 1;           // leading attempts a faulty identity fails
};

struct FaultSpec {
  std::uint64_t seed = 0;
  std::vector<FaultRule> rules;

  bool empty() const noexcept { return rules.empty(); }
  /// Canonical text form; parse_fault_spec(to_string()) == *this. Used by
  /// the profiling journal to pin a resume to the original fault schedule.
  std::string to_string() const;
};

/// Parses the spec grammar above. Throws std::invalid_argument naming the
/// offending element on malformed input (unknown site, p outside [0, 1],
/// unparsable number). An empty string yields an empty (disabled) spec.
FaultSpec parse_fault_spec(const std::string& text);

/// Injected transient/permanent measurement failures. The retry loop in the
/// corpus sweep catches these: transient() faults are retried within the
/// budget, everything else quarantines the work unit.
class FaultError : public std::runtime_error {
 public:
  FaultError(const std::string& what, bool transient)
      : std::runtime_error(what), transient_(transient) {}
  bool transient() const noexcept { return transient_; }

 private:
  bool transient_;
};

/// Injected unexpected worker exception. Deliberately NOT a FaultError:
/// it models a crash the sweep does not know how to handle, so it escapes
/// the retry loop, aborts the run through the task pool, and exercises the
/// journal + --resume recovery path.
class WorkerCrashError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class FaultInjector {
 public:
  FaultInjector() = default;
  explicit FaultInjector(FaultSpec spec) : spec_(std::move(spec)) {}

  bool enabled() const noexcept { return !spec_.empty(); }
  const FaultSpec& spec() const noexcept { return spec_; }

  /// Pure decision: the first rule for `site` that fires at
  /// (identity, attempt), or nullptr. Thread-safe, consumes no RNG state.
  const FaultRule* check(FaultSite site, std::uint64_t identity,
                         int attempt) const noexcept;

  /// Throws the fault matched by check(): FaultError for measure sites
  /// (transient or permanent), WorkerCrashError for worker, FaultError
  /// (permanent) for io. No-op when nothing fires.
  void inject(FaultSite site, std::uint64_t identity, int attempt = 0) const;

  /// The process-wide injector. First use parses SMART_FAULTS (empty /
  /// unset = disabled); set_global replaces it (CLI --faults, tests).
  static const FaultInjector& global();
  static void set_global(FaultSpec spec);

 private:
  FaultSpec spec_;
};

/// RAII for tests: installs `spec` as the global injector and restores the
/// previous global on destruction.
class ScopedFaultInjection {
 public:
  explicit ScopedFaultInjection(FaultSpec spec);
  explicit ScopedFaultInjection(const std::string& spec_text);
  ~ScopedFaultInjection();
  ScopedFaultInjection(const ScopedFaultInjection&) = delete;
  ScopedFaultInjection& operator=(const ScopedFaultInjection&) = delete;

 private:
  FaultSpec previous_;
};

}  // namespace smart::util
