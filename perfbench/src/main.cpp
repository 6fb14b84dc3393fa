// perfbench: the repository benchmark's runner (started by perfbench/run.py).
//
//   perfbench --workload serve_cold|serve_hot|offline_build --seed N
//             --seconds S --trace 0|1 --smartctl PATH --work DIR
//
// Prints a report and, as its last line, the result object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1.
#include <sys/prctl.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "daemon.hpp"
#include "workloads.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --smartctl PATH --work DIR\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, smartctl, work;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], value = argv[i + 1];
    if (key == "--workload") workload = value;
    else if (key == "--seed") seed = std::stoull(value);
    else if (key == "--seconds") seconds = std::stod(value);
    else if (key == "--trace") trace = std::stoi(value);
    else if (key == "--smartctl") smartctl = value;
    else if (key == "--work") work = value;
    else return usage(("unknown option " + key).c_str());
  }
  if (argc % 2 == 0) return usage("options come in --key value pairs");
  if (workload.empty() || smartctl.empty() || work.empty() || seconds <= 0.0 ||
      (trace != 0 && trace != 1)) {
    return usage("missing or invalid option");
  }

  // The only environment the program under test sees from the benchmark:
  // a pinned pool size and no inference or instrumentation knobs.
  setenv("SMART_THREADS", std::to_string(perfbench::kSmartThreads).c_str(), 1);
  for (const char* knob : {"SMART_SIMD", "SMART_PRECISION", "SMART_TIMING",
                           "SMART_FAULTS", "SMART_SCALE"}) {
    unsetenv(knob);
  }
  // Sub-50-µs sleep precision for the open-loop sender.
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);

  try {
    perfbench::RunContext ctx;
    ctx.spec = perfbench::workload_spec(workload, seconds);
    ctx.seed = seed;
    ctx.seconds = seconds;
    ctx.smartctl = smartctl;
    ctx.work = work;
    std::filesystem::create_directories(work);
    std::string flags;
    for (const std::string& f : perfbench::Daemon::flags()) flags += " " + f;
    std::printf("run: workload %s seed %llu seconds %g trace %d SMART_THREADS=%d "
                "daemon flags:%s\n",
                workload.c_str(), static_cast<unsigned long long>(seed), seconds,
                trace, perfbench::kSmartThreads, flags.c_str());
    std::fflush(stdout);
    const perfbench::Outcome o =
        trace == 1 ? perfbench::run_traced(ctx) : perfbench::run_untraced(ctx);
    std::printf("%s", o.metrics.table().c_str());
    std::printf("%s\n", perfbench::result_json(o.correct, o.attempted, o.failed,
                                               o.metrics)
                            .c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 1;
  }
}
