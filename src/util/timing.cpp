#include "util/timing.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <mutex>

namespace smart::util {

namespace {

std::mutex& registry_mutex() {
  static std::mutex mu;
  return mu;
}

// std::less<> looks phases up by string_view, without a std::string.
using Registry = std::map<std::string, PhaseStats, std::less<>>;

Registry& registry() {
  static Registry phases;
  return phases;
}

}  // namespace

void timing_record(std::string_view phase, double wall_ms,
                   std::uint64_t tasks) {
  const std::lock_guard<std::mutex> lock(registry_mutex());
  Registry& phases = registry();
  auto it = phases.find(phase);
  if (it == phases.end()) {
    it = phases.emplace(std::string(phase), PhaseStats{}).first;
  }
  PhaseStats& stats = it->second;
  stats.wall_ms += wall_ms;
  stats.calls += 1;
  stats.tasks += tasks;
}

std::vector<std::pair<std::string, PhaseStats>> timing_snapshot() {
  const std::lock_guard<std::mutex> lock(registry_mutex());
  return {registry().begin(), registry().end()};  // std::map is name-sorted
}

void timing_reset() {
  const std::lock_guard<std::mutex> lock(registry_mutex());
  registry().clear();
}

std::string timing_report() {
  const auto phases = timing_snapshot();
  if (phases.empty()) return {};
  std::size_t name_width = 5;  // "phase"
  for (const auto& [name, stats] : phases) {
    name_width = std::max(name_width, name.size());
  }
  std::string out = "-- timing counters --\n";
  char line[256];
  std::snprintf(line, sizeof(line), "%-*s %12s %8s %10s\n",
                static_cast<int>(name_width), "phase", "wall_ms", "calls",
                "tasks");
  out += line;
  for (const auto& [name, stats] : phases) {
    std::snprintf(line, sizeof(line), "%-*s %12.3f %8llu %10llu\n",
                  static_cast<int>(name_width), name.c_str(), stats.wall_ms,
                  static_cast<unsigned long long>(stats.calls),
                  static_cast<unsigned long long>(stats.tasks));
    out += line;
  }
  return out;
}

}  // namespace smart::util
