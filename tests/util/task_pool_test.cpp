#include "util/task_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace smart::util {
namespace {

/// Restores (or removes) an env var when the test scope ends.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) {
      had_old_ = true;
      old_ = old;
    }
    if (value == nullptr) {
      ::unsetenv(name);
    } else {
      ::setenv(name, value, 1);
    }
  }
  ~ScopedEnv() {
    if (had_old_) {
      ::setenv(name_.c_str(), old_.c_str(), 1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }

 private:
  std::string name_;
  std::string old_;
  bool had_old_ = false;
};

TEST(TaskPool, ZeroIterationsIsNoop) {
  TaskPool pool(4);
  std::atomic<int> calls{0};
  pool.for_each(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(TaskPool, SingleIterationRunsInlineOnCaller) {
  TaskPool pool(4);
  std::thread::id ran_on;
  pool.for_each(1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    ran_on = std::this_thread::get_id();
  });
  EXPECT_EQ(ran_on, std::this_thread::get_id());
}

TEST(TaskPool, CoversEveryIndexExactlyOnceWhenNFarExceedsThreads) {
  TaskPool pool(3);
  std::vector<int> hits(100000, 0);  // disjoint writes, read after the loop
  pool.for_each(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i], 1) << "index " << i;
  }
}

TEST(TaskPool, ExceptionPropagatesToCaller) {
  TaskPool pool(4);
  EXPECT_THROW(pool.for_each(10000,
                             [&](std::size_t i) {
                               if (i == 1234) throw std::runtime_error("boom");
                             }),
               std::runtime_error);
  // The pool must stay usable after a throwing loop.
  std::atomic<int> calls{0};
  pool.for_each(1000, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 1000);
}

TEST(TaskPool, ExceptionFromEveryIndexStillPropagatesExactlyOne) {
  TaskPool pool(4);
  try {
    pool.for_each(512, [&](std::size_t i) {
      throw std::runtime_error("idx " + std::to_string(i));
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_TRUE(std::string(e.what()).starts_with("idx "));
  }
}

TEST(TaskPool, SerialRunStopsAtTheFirstThrowingIndex) {
  // With no workers the loop runs inline, so "first exception wins" is
  // exact: indices after the throwing one never execute.
  TaskPool pool(1);
  std::atomic<int> executed{0};
  try {
    pool.for_each(1000, [&](std::size_t i) {
      ++executed;
      if (i >= 123) throw std::invalid_argument("idx " + std::to_string(i));
    });
    FAIL() << "expected an exception";
  } catch (const std::invalid_argument& e) {
    // The exception type AND message survive the pool boundary.
    EXPECT_STREQ(e.what(), "idx 123");
  }
  EXPECT_EQ(executed.load(), 124);
}

TEST(TaskPool, FailedLoopDrainsWithoutRunningEveryBody) {
  // Once a chunk fails, unclaimed chunks are skipped: with every body
  // throwing, the executed count is bounded by the chunk count (at most one
  // body per started chunk), far below n.
  TaskPool pool(4);
  constexpr std::size_t kN = 10000;
  const std::size_t max_chunks =
      8 * static_cast<std::size_t>(pool.num_threads());
  std::atomic<std::size_t> executed{0};
  EXPECT_THROW(pool.for_each(kN,
                             [&](std::size_t) {
                               ++executed;
                               throw std::runtime_error("every body fails");
                             }),
               std::runtime_error);
  EXPECT_GE(executed.load(), 1u);
  EXPECT_LE(executed.load(), max_chunks);
  EXPECT_LT(executed.load(), kN);
}

TEST(TaskPool, PoolStaysUsableAcrossRepeatedFailedLoops) {
  TaskPool pool(4);
  for (int round = 0; round < 3; ++round) {
    EXPECT_THROW(pool.for_each(5000,
                               [&](std::size_t i) {
                                 if (i % 7 == 3) {
                                   throw std::runtime_error("boom");
                                 }
                               }),
                 std::runtime_error);
    // A clean loop right after the failed one must cover every index.
    std::vector<int> hits(2048, 0);
    pool.for_each(hits.size(), [&](std::size_t i) { ++hits[i]; });
    for (int h : hits) ASSERT_EQ(h, 1);
  }
}

TEST(TaskPool, NestedParallelForCompletes) {
  TaskPool pool(4);
  constexpr std::size_t kOuter = 8;
  constexpr std::size_t kInner = 64;
  std::vector<std::vector<int>> hits(kOuter, std::vector<int>(kInner, 0));
  pool.for_each(kOuter, [&](std::size_t o) {
    pool.for_each(kInner, [&](std::size_t i) { ++hits[o][i]; });
  });
  for (const auto& row : hits) {
    for (int h : row) EXPECT_EQ(h, 1);
  }
}

TEST(TaskPool, OneThreadAndEightThreadsBitIdentical) {
  const auto run = [](TaskPool& pool) {
    std::vector<double> out(4096);
    pool.for_each(out.size(), [&](std::size_t i) {
      out[i] = std::sin(static_cast<double>(i)) * 1.0001 +
               std::sqrt(static_cast<double>(i) + 0.5);
    });
    return out;
  };
  TaskPool one(1);
  TaskPool eight(8);
  const auto a = run(one);
  const auto b = run(eight);
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << "index " << i;  // bitwise, not approx
  }
}

TEST(TaskPool, SerialSectionForcesInlineExecution) {
  TaskPool pool(8);
  EXPECT_FALSE(SerialSection::active());
  {
    SerialSection serial;
    EXPECT_TRUE(SerialSection::active());
    const std::thread::id caller = std::this_thread::get_id();
    pool.for_each(1000, [&](std::size_t) {
      EXPECT_EQ(std::this_thread::get_id(), caller);
    });
  }
  EXPECT_FALSE(SerialSection::active());
}

TEST(TaskPool, DecideThreadsExplicitRequestWins) {
  const ScopedEnv env("SMART_THREADS", "3");
  EXPECT_EQ(TaskPool::decide_threads(5), 5);
  EXPECT_EQ(TaskPool::decide_threads(1), 1);
}

TEST(TaskPool, DecideThreadsReadsSmartThreadsEnv) {
  const ScopedEnv env("SMART_THREADS", "3");
  EXPECT_EQ(TaskPool::decide_threads(0), 3);
}

TEST(TaskPool, DecideThreadsClampsToSaneRange) {
  {
    const ScopedEnv env("SMART_THREADS", "100000");
    EXPECT_EQ(TaskPool::decide_threads(0), 256);
  }
  {
    const ScopedEnv env("SMART_THREADS", nullptr);
    EXPECT_GE(TaskPool::decide_threads(0), 1);
    EXPECT_LE(TaskPool::decide_threads(0), 256);
  }
  EXPECT_EQ(TaskPool::decide_threads(-4), TaskPool::decide_threads(0));
}

TEST(TaskPool, SmartThreadsOneEquivalentToDefault) {
  // The satellite contract: results do not depend on the thread budget.
  const ScopedEnv env("SMART_THREADS", nullptr);
  const auto run = [](int threads) {
    TaskPool pool(threads);
    std::vector<double> out(2048);
    pool.for_each(out.size(), [&](std::size_t i) {
      out[i] = std::cos(static_cast<double>(i) * 0.01);
    });
    return out;
  };
  const auto one = run(1);
  const auto dflt = run(0);  // env unset -> hardware concurrency
  EXPECT_EQ(one, dflt);
}

TEST(Parallel, GlobalFrontendsDelegateToGlobalPool) {
  EXPECT_GE(parallel_threads(), 1);
  std::vector<int> hits(512, 0);
  parallel_for(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

}  // namespace
}  // namespace smart::util
