// Fixed thread pool with chunked, self-scheduling parallel loops — the
// parallel substrate for the profiling + training pipeline (replaces the
// OpenMP-only parallel.hpp shim).
//
// Determinism contract:
//  * parallel_for invokes body(i) exactly once per index and requires
//    disjoint writes per index, so outputs are bit-identical for any
//    thread count (including SMART_THREADS=1). A sum across indices is
//    folded by the caller, serially and in index order, after the loop.
//  * Randomized parallel work must derive one generator per index via
//    util::Rng::split (rng.hpp) instead of sharing a sequential stream.
//
// Scheduling: loops are split into ~8 chunks per participating thread and
// claimed through an atomic cursor, so threads that finish early steal the
// remaining tail from slow ones. The calling thread always participates,
// which also makes nested parallel_for safe (an inner loop completes on
// its caller even when every pool worker is busy in the outer loop).
//
// Exceptions: the first exception thrown by any body is rethrown on the
// caller once the loop drains; remaining chunks are skipped (their bodies
// may never run), so state touched by a throwing loop is unspecified.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace smart::util {

/// RAII guard: while any SerialSection is alive on a thread, every parallel
/// loop issued from that thread runs inline on it. This is how the
/// determinism tests (and scripts/check.sh) obtain a 1-thread run without
/// restarting the process with SMART_THREADS=1, and how the concurrent
/// model fits of StencilMart::fit_models keep their short inner loops off
/// the pool.
class SerialSection {
 public:
  SerialSection() noexcept { ++depth_; }
  ~SerialSection() { --depth_; }
  SerialSection(const SerialSection&) = delete;
  SerialSection& operator=(const SerialSection&) = delete;
  static bool active() noexcept { return depth_ > 0; }

 private:
  // Inline so every TU accesses the TLS slot directly; an out-of-line
  // definition makes GCC route access through a TLS wrapper call that
  // UBSan flags as a potential null dereference (GCC bug 84250).
  static inline thread_local int depth_ = 0;
};

class TaskPool {
 public:
  /// Thread count the pool starts for `requested`: a positive request wins,
  /// otherwise the SMART_THREADS env var, otherwise hardware concurrency.
  static int decide_threads(int requested = 0);

  /// The process-wide pool (sized by decide_threads(0) at first use).
  static TaskPool& global();

  explicit TaskPool(int threads = 0);
  ~TaskPool();
  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  /// Threads participating in a loop: pool workers + the calling thread.
  int num_threads() const noexcept {
    return static_cast<int>(workers_.size()) + 1;
  }

  /// Invokes body(i) exactly once for every i in [0, n). Bodies must write
  /// disjoint state per index. The first exception is rethrown here.
  template <typename Body>
  void for_each(std::size_t n, Body&& body) {
    if (n == 0) return;
    if (workers_.empty() || n == 1 || SerialSection::active()) {
      for (std::size_t i = 0; i < n; ++i) body(i);
      return;
    }
    const std::function<void(std::size_t, std::size_t)> range =
        [&body](std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) body(i);
        };
    run_chunked(n, range);
  }

 private:
  struct Task;

  void run_chunked(std::size_t n,
                   const std::function<void(std::size_t, std::size_t)>& range);
  void work_on(Task& task);
  void worker_loop();

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::shared_ptr<Task>> queue_;
  bool stop_ = false;
};

/// Threads the global pool's loops use.
inline int parallel_threads() { return TaskPool::global().num_threads(); }

/// Global-pool frontends — the common call sites.
template <typename Body>
void parallel_for(std::size_t n, Body&& body) {
  TaskPool::global().for_each(n, std::forward<Body>(body));
}

}  // namespace smart::util
