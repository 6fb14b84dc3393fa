// Shared pieces of the repository benchmark: the seeded input generators
// (stencils, request streams, arrival schedules), the statistics every
// metric is reduced with, /proc readers, child-process helpers and the
// result printer.
//
// The inputs are generated here, not by the program under test, so a change
// to the program's own stencil generator or RNG can never change what the
// benchmark sends: a stream is a pure function of (workload, seed).
#pragma once

#include <sys/types.h>

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point from, Clock::time_point to);

/// A timed interval.
struct Interval {
  Clock::time_point from, to;
  double seconds() const { return seconds_between(from, to); }
};

// ---------------------------------------------------------------- inputs --

/// splitmix64 stream. Owned by the benchmark so its draws never depend on
/// the program's util::Rng.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  double uniform();                       // [0, 1)
  std::uint64_t below(std::uint64_t n);   // [0, n), n > 0

 private:
  std::uint64_t state_;
};

/// Independent sub-seed for one use of the workload seed.
std::uint64_t derive_seed(std::uint64_t seed, std::string_view tag);

using Offset = std::array<int, 2>;

/// A 2-D stencil in canonical form: sorted, unique offsets including the
/// centre. `spec` is its protocol spelling (`x,y;x,y;...`), so two stencils
/// are equal exactly when their specs are.
struct Stencil {
  std::vector<Offset> offsets;
  std::string spec;
};

/// Draws one 2-D stencil of order 1..4, grown order by order as in the
/// paper's Algorithm 1: each order-k point neighbours an order-(k-1) one.
Stencil random_stencil(Rng& rng);

/// The evaluation GPUs, as the protocol names them.
inline constexpr std::array<const char*, 4> kGpus = {"P100", "V100", "2080Ti",
                                                     "A100"};

enum class Verb : std::uint8_t { kAdvise, kPredict };

struct Request {
  Verb verb = Verb::kAdvise;
  std::uint8_t gpu = 0;
  std::uint32_t stencil = 0;
};

/// One workload's traffic: every request with its scheduled send time.
/// Requests [0, warm) are the warm-up; the rest are timed.
struct Stream {
  std::vector<Stencil> stencils;
  std::vector<Request> requests;
  std::vector<double> send_us;  // offset from the start of the traffic
  std::size_t warm = 0;

  /// Protocol line of request i (no newline); its id is "r<i>".
  std::string line(std::size_t i) const;
  /// Memo identity of request i: equal for two requests exactly when the
  /// daemon must answer them with equal payloads.
  std::uint64_t key(std::size_t i) const;
};

enum class Mix {
  kCold,  // every request a distinct stencil; 3 advise : 1 predict; GPUs in rotation
  kHot,   // Zipf-skewed draws from a stencil pool; both verbs, random GPU
};

struct StreamSpec {
  Mix mix = Mix::kCold;
  double rate_rps = 2000.0;
  double warm_s = 1.0;
  double timed_s = 10.0;
  std::size_t pool = 2000;  // kHot only
  double zipf_s = 1.1;      // kHot only
  std::size_t burst = 1;    // requests per arrival, sent back to back
};

/// Poisson arrival offsets (µs) covering [0, seconds).
std::vector<double> poisson_schedule(Rng& rng, double rate_rps, double seconds);

/// Builds the stream of `spec` from `seed` (a pure function of both).
Stream make_stream(const StreamSpec& spec, std::uint64_t seed);

/// Exact properties of the timed part of a stream: what a cache or format
/// change could at most save.
struct InputProperties {
  std::size_t timed = 0;
  std::size_t first_time = 0;         // timed requests whose key is new
  double repeat_share = 0.0;          // timed requests whose key was seen before
  double shared_variant_share = 0.0;  // variants of first-time requests seen before
  double variants_per_req = 0.0;      // (stencil, GPU) variants per first-time request
};
InputProperties input_properties(const Stream& stream);

// ------------------------------------------------------------ statistics --

/// Nearest-rank percentile (p in (0, 100]) of a non-empty sample.
double percentile(std::vector<double> values, double p);
double median(std::vector<double> values);
/// Mean of the middle half of a non-empty sample: the lowest and the
/// highest floor(n/4) values are dropped.
double interquartile_mean(std::vector<double> values);
double geomean(const std::vector<double>& values);

// ------------------------------------------------------------------ /proc --

struct CpuStat {
  unsigned long long steal = 0;
  unsigned long long total = 0;
};
CpuStat read_cpu_stat();
/// Share of host CPU time stolen by the hypervisor between two snapshots.
double steal_pct(const CpuStat& from, const CpuStat& to);
/// user + system CPU seconds of a live process (all its threads).
double process_cpu_s(pid_t pid);
/// Peak resident set (VmHWM) of a live process, in MB.
double process_hwm_mb(pid_t pid);

// -------------------------------------------------------- child processes --

/// Starts argv[0] (a path) with stdout and stderr appended to `log`.
/// Throws std::runtime_error when the process cannot be started.
pid_t spawn(const std::vector<std::string>& argv, const std::string& log);

struct ChildResult {
  bool ok = false;        // exited with status 0
  Interval timed;         // spawn to exit
  double cpu_s = 0.0;     // user + system CPU seconds of the child
  double maxrss_mb = 0.0; // ru_maxrss of the child
};
/// Runs a child to completion (kills it after `timeout_s`).
ChildResult run_child(const std::vector<std::string>& argv,
                      const std::string& log, double timeout_s = 120.0);

/// Waits for `pid` up to `timeout_s`, then SIGKILLs and reaps it. Returns
/// true when it exited on its own with status 0.
bool reap(pid_t pid, double timeout_s);

// ----------------------------------------------------------------- files --

std::string read_file(const std::string& path);
double file_mb(const std::string& path);
/// Removes `dir` recursively and creates it empty.
void reset_dir(const std::string& dir);

// ---------------------------------------------------------------- output --

/// Metrics of one run, printed in insertion order.
class Metrics {
 public:
  void add(std::string name, double value, std::string unit);
  /// `{"name": {"value": v, "unit": "u"}, ...}` with every digit of v.
  std::string json() const;
  /// One human-readable line per metric.
  std::string table() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// The run's result object, the last line of standard output.
std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed, const Metrics& metrics);

/// Round-trip decimal spelling of a double (all digits).
std::string full_digits(double value);

}  // namespace perfbench
