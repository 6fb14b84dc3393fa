// Host-speed reference for the end-to-end times.
//
// The benchmark runs on a few cores of a shared host whose speed drifts by
// tens of percent within a minute (the neighbours' load), and every time the
// program takes drifts with it: over one set of ten seeds the raw train and
// pipeline medians spread by 0.4 (IQR/median), CPU per request by 0.25.
// A background thread of the runner therefore runs a fixed kernel of the
// benchmark's own (a sort and a square-root pass over 32 Ki integers, about
// 3 ms of CPU) every ~20 ms for the whole untraced run, and records each
// chunk's thread CPU time and the host's /proc/stat counters. A CPU time of
// the program is divided by the CPU factor around it: the median chunk CPU
// time within 0.5 s of the interval ÷ the nominal chunk time. A wall time
// is divided by the wall factor: the CPU factor ÷ (1 - the share of host
// CPU time stolen by the hypervisor over the same window). End-to-end times
// are thus seconds at the nominal host speed with no steal; a change to the
// program moves them, the host's drift mostly not. The kernel never calls
// the program, so no change to it can move either factor.
//
// Steal from /proc/stat, not the chunks' wall time: one thread's chunks run
// on one vCPU, and their wall time measures that vCPU's stolen and
// scheduling time, not the program's (a run read a wall-time factor of 1.7
// over builds that ran at their usual speed). A run at 13-17% steal read
// its train steps 1.15-1.2 times slower, as 1 / (1 - steal) predicts.
#pragma once

#include <atomic>
#include <mutex>
#include <thread>
#include <vector>

#include "bench.hpp"

namespace perfbench {

/// Median chunk CPU time of the reference kernel on the host the bounds
/// were recorded on (4-vCPU Xeon VM, AVX-512), seconds.
inline constexpr double kNominalChunkS = 3.1e-3;

/// One chunk of the reference kernel.
struct SpeedSample {
  Clock::time_point end;
  double cpu_s = 0.0;  // thread CPU time
  CpuStat host;        // /proc/stat counters when it ended
};

/// Median cpu_s of the samples that ended within `pad_s` of [from, to];
/// when fewer than `min_samples` did, of the min_samples samples that ended
/// nearest the interval's midpoint. Throws on an empty sample.
double window_median(const std::vector<SpeedSample>& samples, Clock::time_point from,
                     Clock::time_point to, double pad_s = 0.5,
                     std::size_t min_samples = 8);
/// Share of host CPU time stolen between the first and the last sample that
/// ended within `pad_s` of [from, to]; 0 with fewer than two such samples.
double window_steal(const std::vector<SpeedSample>& samples, Clock::time_point from,
                    Clock::time_point to, double pad_s = 0.5);

class HostSpeed {
 public:
  HostSpeed();   // starts the reference thread
  ~HostSpeed();  // stops and joins it
  HostSpeed(const HostSpeed&) = delete;
  HostSpeed& operator=(const HostSpeed&) = delete;

  /// Median chunk CPU time around `i` ÷ kNominalChunkS: above 1 when the
  /// host's cores ran slower than nominal. For CPU times of the program.
  double cpu_factor(const Interval& i) const;
  /// cpu_factor ÷ (1 - the steal share around `i`). For wall times.
  double wall_factor(const Interval& i) const;
  /// Wall seconds of `i` at the nominal host speed with no steal.
  double normalized_s(const Interval& i) const { return i.seconds() / wall_factor(i); }
  /// Every chunk recorded so far.
  std::vector<SpeedSample> samples() const;

 private:
  void loop();

  mutable std::mutex mu_;
  std::vector<SpeedSample> samples_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

}  // namespace perfbench
