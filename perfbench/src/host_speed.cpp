#include "host_speed.hpp"

#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>

namespace perfbench {

namespace {

constexpr std::size_t kChunkInts = 32768;
constexpr auto kChunkGap = std::chrono::milliseconds(20);

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// One chunk of the reference kernel, identical work on every call: a
/// sort of 32 Ki pseudo-random integers (128 KiB) and a square-root pass
/// over them. Of the kernels tried (this, a DRAM pointer chase, a streaming
/// sum, printing and parsing doubles), it tracked the drift of the train
/// steps and of the daemon's CPU per request best.
double reference_chunk(std::vector<std::uint32_t>& v) {
  std::uint64_t s = 0x2545f4914f6cdd1dull;
  for (std::uint32_t& x : v) {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    x = static_cast<std::uint32_t>(s);
  }
  std::sort(v.begin(), v.end());
  double acc = 0.0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    acc += std::sqrt(static_cast<double>(v[i] & 1023u) + static_cast<double>(i));
  }
  return acc;
}

}  // namespace

double window_median(const std::vector<SpeedSample>& samples, Clock::time_point from,
                     Clock::time_point to, double pad_s, std::size_t min_samples) {
  if (samples.empty()) throw std::runtime_error("no host-speed samples");
  const auto pad = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(pad_s));
  std::vector<double> in;
  for (const SpeedSample& s : samples) {
    if (s.end >= from - pad && s.end <= to + pad) in.push_back(s.cpu_s);
  }
  if (in.size() < min_samples) {
    const Clock::time_point mid = from + (to - from) / 2;
    std::vector<SpeedSample> near = samples;
    const auto distance = [mid](const SpeedSample& s) {
      return s.end > mid ? s.end - mid : mid - s.end;
    };
    std::sort(near.begin(), near.end(), [&](const SpeedSample& a, const SpeedSample& b) {
      return distance(a) < distance(b);
    });
    near.resize(std::min(min_samples, near.size()));
    in.clear();
    for (const SpeedSample& s : near) in.push_back(s.cpu_s);
  }
  return median(std::move(in));
}

double window_steal(const std::vector<SpeedSample>& samples, Clock::time_point from,
                    Clock::time_point to, double pad_s) {
  const auto pad = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(pad_s));
  const SpeedSample* first = nullptr;
  const SpeedSample* last = nullptr;
  for (const SpeedSample& s : samples) {
    if (s.end < from - pad || s.end > to + pad) continue;
    if (first == nullptr) first = &s;
    last = &s;
  }
  return first == last ? 0.0 : steal_pct(first->host, last->host) / 100.0;
}

HostSpeed::HostSpeed() : thread_([this] { loop(); }) {}

HostSpeed::~HostSpeed() {
  stop_.store(true, std::memory_order_relaxed);
  thread_.join();
}

void HostSpeed::loop() {
  std::vector<std::uint32_t> data(kChunkInts);
  volatile double sink = 0.0;
  while (!stop_.load(std::memory_order_relaxed)) {
    const double cpu0 = thread_cpu_s();
    sink = sink + reference_chunk(data);
    const double cpu_s = thread_cpu_s() - cpu0;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      samples_.push_back({Clock::now(), cpu_s, read_cpu_stat()});
    }
    std::this_thread::sleep_for(kChunkGap);
  }
}

double HostSpeed::cpu_factor(const Interval& i) const {
  return window_median(samples(), i.from, i.to) / kNominalChunkS;
}

double HostSpeed::wall_factor(const Interval& i) const {
  const std::vector<SpeedSample> s = samples();
  return window_median(s, i.from, i.to) / kNominalChunkS /
         (1.0 - window_steal(s, i.from, i.to));
}

std::vector<SpeedSample> HostSpeed::samples() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return samples_;
}

}  // namespace perfbench
