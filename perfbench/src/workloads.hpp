// The three workloads and the fixed settings every run uses.
//
// Every workload has the same three phases, weighted differently:
//   build    — corpus profiling and model training through the smartctl CLI;
//   start-up — daemon launch to first healthz reply, repeated;
//   traffic  — open-loop Poisson requests over the daemon's AF_UNIX socket.
// Every workload builds the golden 2-D and 3-D corpora and their models the
// same way. serve_cold and serve_hot spend most of their measured seconds in
// traffic and interleave kServeBuilds builds with it; offline_build spends
// them in repeated builds, each followed by start-ups on, and a 1.5-s cold
// stream against, its 2-D artifact.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "bench.hpp"

namespace perfbench {

enum class Workload { kServeCold, kServeHot, kOfflineBuild };

struct WorkloadSpec {
  Workload kind = Workload::kServeCold;
  std::string name;
  StreamSpec traffic;  // offline_build: the artifact-verification stream
};

/// Throws std::invalid_argument for an unknown workload name.
WorkloadSpec workload_spec(std::string_view name, double seconds);

// Pinned for every process the benchmark starts: daemon pool threads plus
// the two load-generator threads stay within a 4-CPU host.
inline constexpr int kSmartThreads = 2;
inline constexpr int kConnections = 2;       // load-generator connections
inline constexpr int kMaxInflight = 1024;    // daemon --max-inflight
inline constexpr int kInflightLimit = 896;   // generator stays below the cap
// Serve workloads: timed traffic for this share of the measured seconds,
// cut into kServeBuilds - 1 slices, with a build before the first slice and
// after each one. Several builds, because one build's times spread by
// 0.1-0.2 (IQR/median) even at the nominal host speed. The first build of
// every workload is a warm-up, left out of the build metrics.
inline constexpr double kServeTrafficShare = 0.6;
inline constexpr int kServeBuilds = 8;
inline constexpr int kWarmupBuilds = 1;
inline constexpr int kMinBuilds = 4;         // offline_build's minimum repeats
inline constexpr int kMaxBuilds = 16;

// Corpora: 500 stencils x 30 OCs x 4 GPUs, 4 sampled settings per OC.
inline constexpr int kCorpusStencils = 500;
inline constexpr int kCorpusSamples = 4;
inline constexpr std::uint64_t kGoldenSeed = 20220530;
inline constexpr const char* kGolden2dChecksum = "2e5c80a812ebd0f9";
// Single-process `smartctl profile --dims 3` of the golden seed; the merged
// shard corpus must equal it.
inline constexpr const char* kGolden3dChecksum = "16a57136dc61c3c4";
inline constexpr int kShards = 4;

// Oracle sample of every serve run.
inline constexpr std::size_t kAdviseSample = 768;
inline constexpr std::size_t kPredictSample = 64;

struct RunContext {
  WorkloadSpec spec;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string smartctl;  // path of the CLI under test
  std::string work;      // this run's scratch directory
};

struct Outcome {
  Metrics metrics;
  bool correct = false;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

Outcome run_untraced(const RunContext& ctx);
Outcome run_traced(const RunContext& ctx);

}  // namespace perfbench
