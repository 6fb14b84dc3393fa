// Span recorder of the traced run. Spans are recorded by the benchmark
// around its calls into the program's public functions (the program itself
// is not instrumented), kept in memory, and written at the end as Chrome
// trace-event JSON (viewable in Perfetto or chrome://tracing).
//
// A span's name is "<layer>.<operation>", where the layer is one of the
// repository's modules (serve_protocol, mart, corpus_merge, ...). A span's
// self time is its duration minus the part of its interval that its direct
// children cover; summing self time by layer says where the time went.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";       // "<layer>.<operation>", static storage
  std::int64_t start_ns = 0;   // since the recorder's origin
  std::int64_t end_ns = 0;
  int parent = -1;             // index of the parent span; -1 for a root
  std::int64_t id = -1;        // request or stage id; -1 when none
  bool async = false;          // may overlap its siblings (a request in flight)
};

class SpanRecorder {
 public:
  using Clock = std::chrono::steady_clock;

  SpanRecorder() : origin_(Clock::now()) {}

  /// A disabled recorder reads no clock and stores nothing (the untraced
  /// pass of the overhead measurement).
  void set_enabled(bool enabled) { enabled_ = enabled; }

  std::int64_t now_ns() const { return to_ns(Clock::now()); }
  std::int64_t to_ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  }

  /// Opens a span now; returns its index, or -1 when disabled.
  int open(const char* name, int parent = -1, std::int64_t id = -1);
  void close(int index);
  /// Adds a finished span; returns its index, or -1 when disabled.
  int add(const char* name, std::int64_t start_ns, std::int64_t end_ns,
          int parent = -1, std::int64_t id = -1, bool async = false);

  const std::vector<Span>& spans() const noexcept { return spans_; }
  std::int64_t duration_ns(int index) const;

  /// RAII open/close.
  class Scope {
   public:
    Scope(SpanRecorder& rec, const char* name, int parent = -1,
          std::int64_t id = -1)
        : rec_(rec), index_(rec.open(name, parent, id)) {}
    ~Scope() { rec_.close(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    int index() const noexcept { return index_; }

   private:
    SpanRecorder& rec_;
    int index_;
  };

 private:
  Clock::time_point origin_;
  bool enabled_ = true;
  std::vector<Span> spans_;
};

/// Self time of every span (same order as `spans`): duration minus the
/// union of its direct children's intervals, clipped to the span.
std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans);

/// Self time summed per layer (span name up to the first '.'), in ms.
std::map<std::string, double> self_time_by_layer_ms(const std::vector<Span>& spans);

/// Layer of a span name: the text before the first '.'.
std::string layer_of(const char* name);

/// Writes the spans as Chrome trace-event JSON.
void write_chrome_trace(const std::string& path, const std::vector<Span>& spans);

}  // namespace perfbench
