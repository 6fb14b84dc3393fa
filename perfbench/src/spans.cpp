#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <utility>

namespace perfbench {

int SpanRecorder::open(const char* name, int parent, std::int64_t id) {
  if (!enabled_) return -1;
  const std::int64_t now = now_ns();
  spans_.push_back({name, now, now, parent, id, false});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanRecorder::close(int index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
}

int SpanRecorder::add(const char* name, std::int64_t start_ns,
                      std::int64_t end_ns, int parent, std::int64_t id,
                      bool async) {
  if (!enabled_) return -1;
  spans_.push_back({name, start_ns, end_ns, parent, id, async});
  return static_cast<int>(spans_.size()) - 1;
}

std::int64_t SpanRecorder::duration_ns(int index) const {
  if (index < 0) return 0;
  const Span& s = spans_[static_cast<std::size_t>(index)];
  return s.end_ns - s.start_ns;
}

std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> covered(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    if (static_cast<std::size_t>(s.parent) >= spans.size()) {
      throw std::invalid_argument("span parent out of range");
    }
    const Span& p = spans[static_cast<std::size_t>(s.parent)];
    const std::int64_t lo = std::max(s.start_ns, p.start_ns);
    const std::int64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) covered[static_cast<std::size_t>(s.parent)].push_back({lo, hi});
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = covered[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t union_ns = 0;
    std::int64_t cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) union_ns += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) union_ns += cur_hi - cur_lo;
    self[i] = (spans[i].end_ns - spans[i].start_ns) - union_ns;
  }
  return self;
}

std::string layer_of(const char* name) {
  const std::string s(name);
  return s.substr(0, s.find('.'));
}

std::map<std::string, double> self_time_by_layer_ms(const std::vector<Span>& spans) {
  const auto self = self_times_ns(spans);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    out[layer_of(spans[i].name)] += static_cast<double>(self[i]) / 1e6;
  }
  return out;
}

void write_chrome_trace(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write " + path);
  const auto self = self_times_ns(spans);
  out << "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n";
  char buf[512];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const std::string layer = layer_of(s.name);
    const double ts = static_cast<double>(s.start_ns) / 1e3;
    const double dur = static_cast<double>(s.end_ns - s.start_ns) / 1e3;
    const char* sep = i + 1 < spans.size() ? ",\n" : "\n";
    if (s.async) {
      // Requests in flight overlap one another: async begin/end pairs.
      std::snprintf(buf, sizeof buf,
                    "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"b\", "
                    "\"id\": %lld, \"ts\": %.3f, \"pid\": 1, \"tid\": 2, "
                    "\"args\": {\"parent\": %d}},\n"
                    "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"e\", "
                    "\"id\": %lld, \"ts\": %.3f, \"pid\": 1, \"tid\": 2}%s",
                    s.name, layer.c_str(), static_cast<long long>(s.id), ts,
                    s.parent, s.name, layer.c_str(),
                    static_cast<long long>(s.id), ts + dur, sep);
    } else {
      std::snprintf(buf, sizeof buf,
                    "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                    "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": 1, "
                    "\"args\": {\"id\": %lld, \"parent\": %d, "
                    "\"self_us\": %.3f}}%s",
                    s.name, layer.c_str(), ts, dur,
                    static_cast<long long>(s.id), s.parent,
                    static_cast<double>(self[i]) / 1e3, sep);
    }
    out << buf;
  }
  out << "]}\n";
}

}  // namespace perfbench
