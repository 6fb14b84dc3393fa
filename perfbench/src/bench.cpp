#include "bench.hpp"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <unordered_set>

extern char** environ;

namespace perfbench {

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

// ---------------------------------------------------------------- inputs --

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double Rng::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::uint64_t Rng::below(std::uint64_t n) { return next() % n; }

std::uint64_t derive_seed(std::uint64_t seed, std::string_view tag) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a over the tag
  for (const char c : tag) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  Rng mix(seed ^ h);
  return mix.next();
}

Stencil random_stencil(Rng& rng) {
  constexpr double kKeep = 0.45;
  const int order = 1 + static_cast<int>(rng.below(4));
  std::set<Offset> selected{{0, 0}};
  std::vector<Offset> frontier{{0, 0}};
  for (int k = 1; k <= order; ++k) {
    std::set<Offset> candidates;
    for (const Offset& p : frontier) {
      for (int dx = -1; dx <= 1; ++dx) {
        for (int dy = -1; dy <= 1; ++dy) {
          const Offset q{p[0] + dx, p[1] + dy};
          if (std::max(std::abs(q[0]), std::abs(q[1])) == k) candidates.insert(q);
        }
      }
    }
    std::vector<Offset> kept;
    for (int attempt = 0; attempt < 64 && kept.empty(); ++attempt) {
      for (const Offset& q : candidates) {
        if (rng.uniform() < kKeep) kept.push_back(q);
      }
    }
    if (kept.empty()) {
      kept.push_back(*std::next(candidates.begin(),
                                static_cast<long>(rng.below(candidates.size()))));
    }
    selected.insert(kept.begin(), kept.end());
    frontier = std::move(kept);
  }
  Stencil s;
  s.offsets.assign(selected.begin(), selected.end());
  for (const Offset& p : s.offsets) {
    if (!s.spec.empty()) s.spec += ';';
    s.spec += std::to_string(p[0]) + ',' + std::to_string(p[1]);
  }
  return s;
}

std::string Stream::line(std::size_t i) const {
  const Request& r = requests[i];
  std::string out = r.verb == Verb::kAdvise ? "advise r" : "predict r";
  out += std::to_string(i);
  out += " gpu=";
  out += kGpus[r.gpu];
  out += " offsets=";
  out += stencils[r.stencil].spec;
  return out;
}

std::uint64_t Stream::key(std::size_t i) const {
  const Request& r = requests[i];
  return (static_cast<std::uint64_t>(r.stencil) << 8) |
         (static_cast<std::uint64_t>(r.gpu) << 1) |
         static_cast<std::uint64_t>(r.verb);
}

std::vector<double> poisson_schedule(Rng& rng, double rate_rps, double seconds) {
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(rate_rps * seconds * 1.1) + 16);
  const double horizon_us = seconds * 1e6;
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng.uniform()) / rate_rps * 1e6;
    if (t >= horizon_us) break;
    out.push_back(t);
  }
  return out;
}

Stream make_stream(const StreamSpec& spec, std::uint64_t seed) {
  Stream s;
  Rng schedule_rng(derive_seed(seed, "schedule"));
  for (const double t : poisson_schedule(schedule_rng,
                                         spec.rate_rps / static_cast<double>(spec.burst),
                                         spec.warm_s + spec.timed_s)) {
    s.send_us.insert(s.send_us.end(), spec.burst, t);
  }
  s.warm = static_cast<std::size_t>(
      std::lower_bound(s.send_us.begin(), s.send_us.end(), spec.warm_s * 1e6) -
      s.send_us.begin());
  const std::size_t n = s.send_us.size();

  Rng stencil_rng(derive_seed(seed, "stencils"));
  Rng mix_rng(derive_seed(seed, "mix"));
  std::unordered_set<std::string> seen;
  const auto draw_distinct = [&] {
    for (;;) {
      Stencil st = random_stencil(stencil_rng);
      if (seen.insert(st.spec).second) return st;
    }
  };
  s.requests.resize(n);
  if (spec.mix == Mix::kCold) {
    s.stencils.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      s.stencils.push_back(draw_distinct());
      Request& r = s.requests[i];
      r.stencil = static_cast<std::uint32_t>(i);
      r.gpu = static_cast<std::uint8_t>(i % kGpus.size());
      r.verb = mix_rng.below(4) == 0 ? Verb::kPredict : Verb::kAdvise;
    }
    return s;
  }
  s.stencils.reserve(spec.pool);
  for (std::size_t k = 0; k < spec.pool; ++k) s.stencils.push_back(draw_distinct());
  std::vector<double> cdf(spec.pool);
  double total = 0.0;
  for (std::size_t k = 0; k < spec.pool; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), spec.zipf_s);
    cdf[k] = total;
  }
  for (std::size_t i = 0; i < n; ++i) {
    Request& r = s.requests[i];
    const double u = mix_rng.uniform() * total;
    const auto rank = static_cast<std::size_t>(
        std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    r.stencil = static_cast<std::uint32_t>(std::min(rank, spec.pool - 1));
    r.verb = mix_rng.below(4) == 0 ? Verb::kPredict : Verb::kAdvise;
    r.gpu = static_cast<std::uint8_t>(mix_rng.below(kGpus.size()));
  }
  return s;
}

InputProperties input_properties(const Stream& stream) {
  InputProperties p;
  std::unordered_set<std::uint64_t> keys;
  std::unordered_set<std::uint64_t> variants;
  std::size_t repeats = 0, variants_needed = 0, variants_shared = 0;
  for (std::size_t i = 0; i < stream.requests.size(); ++i) {
    const Request& r = stream.requests[i];
    const bool timed = i >= stream.warm;
    const bool first = keys.insert(stream.key(i)).second;
    if (timed) ++p.timed;
    if (!first) {
      if (timed) ++repeats;
      continue;  // answered from the reply memo: no variant work
    }
    // advise needs its own (stencil, GPU) variant plus the rental
    // recommendation's variant on every GPU; predict needs its own only.
    const std::size_t lo = r.verb == Verb::kAdvise ? 0 : r.gpu;
    const std::size_t hi = r.verb == Verb::kAdvise ? kGpus.size() : r.gpu + 1u;
    for (std::size_t g = lo; g < hi; ++g) {
      const bool fresh =
          variants.insert(static_cast<std::uint64_t>(r.stencil) * 8 + g).second;
      if (timed) {
        ++variants_needed;
        if (!fresh) ++variants_shared;
      }
    }
    if (timed) ++p.first_time;
  }
  const auto share = [](std::size_t a, std::size_t b) {
    return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
  };
  p.repeat_share = share(repeats, p.timed);
  p.shared_variant_share = share(variants_shared, variants_needed);
  p.variants_per_req = share(variants_needed, p.first_time);
  return p;
}

// ------------------------------------------------------------ statistics --

double percentile(std::vector<double> values, double p) {
  if (values.empty()) throw std::invalid_argument("percentile of an empty sample");
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<std::size_t>(rank, 1, values.size());
  return values[rank - 1];
}

double median(std::vector<double> values) { return percentile(std::move(values), 50.0); }

double interquartile_mean(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("interquartile mean of an empty sample");
  std::sort(values.begin(), values.end());
  const std::size_t drop = values.size() / 4;
  double sum = 0.0;
  for (std::size_t i = drop; i < values.size() - drop; ++i) sum += values[i];
  return sum / static_cast<double>(values.size() - 2 * drop);
}

double geomean(const std::vector<double>& values) {
  if (values.empty()) throw std::invalid_argument("geomean of an empty sample");
  double log_sum = 0.0;
  for (const double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

// ------------------------------------------------------------------ /proc --

CpuStat read_cpu_stat() {
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;  // "cpu": the all-CPU line comes first
  CpuStat s;
  unsigned long long field = 0;
  // user nice system idle iowait irq softirq steal (guest time is already
  // counted in user/nice)
  for (int i = 0; i < 8 && (in >> field); ++i) {
    s.total += field;
    if (i == 7) s.steal = field;
  }
  return s;
}

double steal_pct(const CpuStat& from, const CpuStat& to) {
  const double total = static_cast<double>(to.total - from.total);
  return total > 0 ? 100.0 * static_cast<double>(to.steal - from.steal) / total
                   : 0.0;
}

double process_cpu_s(pid_t pid) {
  const std::string stat = read_file("/proc/" + std::to_string(pid) + "/stat");
  // Fields after the parenthesised command name start at field 3 (state);
  // utime and stime are fields 14 and 15.
  std::istringstream in(stat.substr(stat.rfind(')') + 2));
  std::string token;
  unsigned long long utime = 0, stime = 0;
  for (int field = 3; field <= 15 && (in >> token); ++field) {
    if (field == 14) utime = std::stoull(token);
    if (field == 15) stime = std::stoull(token);
  }
  return static_cast<double>(utime + stime) /
         static_cast<double>(sysconf(_SC_CLK_TCK));
}

double process_hwm_mb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("no VmHWM for pid " + std::to_string(pid));
}

// -------------------------------------------------------- child processes --

pid_t spawn(const std::vector<std::string>& argv, const std::string& log) {
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, log.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);
  posix_spawn_file_actions_addopen(&actions, STDIN_FILENO, "/dev/null",
                                   O_RDONLY, 0);
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  pid_t pid = -1;
  const int rc =
      posix_spawn(&pid, args[0], &actions, nullptr, args.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    throw std::runtime_error("cannot start " + argv[0] + ": " +
                             std::strerror(rc));
  }
  return pid;
}

ChildResult run_child(const std::vector<std::string>& argv,
                      const std::string& log, double timeout_s) {
  ChildResult r;
  const auto start = Clock::now();
  r.timed.from = start;
  const pid_t pid = spawn(argv, log);
  int status = 0;
  rusage usage{};
  for (;;) {
    const pid_t got = wait4(pid, &status, WNOHANG, &usage);
    if (got == pid) break;
    if (got < 0 && errno != EINTR) throw std::runtime_error("wait4 failed");
    if (seconds_between(start, Clock::now()) > timeout_s) {
      kill(pid, SIGKILL);
      wait4(pid, &status, 0, &usage);
      return r;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  r.timed.to = Clock::now();
  r.ok = WIFEXITED(status) && WEXITSTATUS(status) == 0;
  r.maxrss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;  // kB
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  r.cpu_s = seconds(usage.ru_utime) + seconds(usage.ru_stime);
  return r;
}

bool reap(pid_t pid, double timeout_s) {
  const auto start = Clock::now();
  int status = 0;
  for (;;) {
    const pid_t got = waitpid(pid, &status, WNOHANG);
    if (got == pid) return WIFEXITED(status) && WEXITSTATUS(status) == 0;
    if (got < 0 && errno != EINTR) return false;
    if (seconds_between(start, Clock::now()) > timeout_s) {
      kill(pid, SIGKILL);
      waitpid(pid, &status, 0);
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

// ----------------------------------------------------------------- files --

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

double file_mb(const std::string& path) {
  return static_cast<double>(std::filesystem::file_size(path)) / 1e6;
}

void reset_dir(const std::string& dir) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
}

// ---------------------------------------------------------------- output --

std::string full_digits(double value) {
  if (!std::isfinite(value)) throw std::invalid_argument("non-finite metric");
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, value);
  return std::string(buf, res.ptr);
}

void Metrics::add(std::string name, double value, std::string unit) {
  entries_.push_back({std::move(name), value, std::move(unit)});
}

std::string Metrics::json() const {
  std::string out = "{";
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (i > 0) out += ", ";
    out += '"' + entries_[i].name + "\": {\"value\": " +
           full_digits(entries_[i].value) + ", \"unit\": \"" +
           entries_[i].unit + "\"}";
  }
  return out + "}";
}

std::string Metrics::table() const {
  std::string out;
  for (const Entry& e : entries_) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "  %-34s %14.4f %s\n", e.name.c_str(),
                  e.value, e.unit.c_str());
    out += buf;
  }
  return out;
}

std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed, const Metrics& metrics) {
  return std::string("{\"correct\": ") + (correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(attempted) +
         ", \"failed\": " + std::to_string(failed) +
         ", \"metrics\": " + metrics.json() + "}";
}

}  // namespace perfbench
