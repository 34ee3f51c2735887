// Tests for Summary, SimClock/Stopwatch, thread pool, and logging.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/clock.h"
#include "util/log.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace pkb::util {
namespace {

TEST(Summary, EmptyIsZero) {
  Summary s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.percentile(50), 0.0);
}

TEST(Summary, BasicMoments) {
  Summary s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.percentile(0), 2.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 9.0);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(Summary, SingleSampleIsItsOwnMedian) {
  Summary s;
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.median(), 3.0);
}

TEST(Summary, PercentileInterpolates) {
  Summary s;
  for (double x : {10.0, 20.0, 30.0, 40.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.percentile(0), 10.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 40.0);
  EXPECT_DOUBLE_EQ(s.median(), 25.0);
  EXPECT_DOUBLE_EQ(s.percentile(50.0 / 3.0 * 2.0), 20.0);
}

TEST(Summary, PercentileClampsOutOfRangeQ) {
  Summary s;
  s.add(1.0);
  s.add(2.0);
  EXPECT_DOUBLE_EQ(s.percentile(-5), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(300), 2.0);
}

TEST(SimClock, AdvanceAccumulates) {
  SimClock c;
  EXPECT_DOUBLE_EQ(c.now(), 0.0);
  c.advance(10.5);
  c.advance(4.5);
  EXPECT_DOUBLE_EQ(c.now(), 15.0);
}

TEST(SimClock, AdvanceNegativeThrows) {
  SimClock c;
  EXPECT_THROW(c.advance(-1.0), std::invalid_argument);
}

// Advances are one CAS loop, not a lock: racing advances must still all
// land. Each thread keeps advancing until every thread has made many
// advances, so the threads overlap however late each one starts. Every
// step is a power of two and every partial sum a multiple of the smallest,
// so each intermediate value is exact and the total does not depend on the
// interleaving.
TEST(SimClock, ConcurrentAdvancesLoseNoTime) {
  constexpr int kThreads = 4;
  constexpr std::uint64_t kMinAdvancesPerThread = 100000;
  SimClock c;
  std::atomic<bool> stop{false};
  std::vector<std::atomic<std::uint64_t>> advances(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    const double step = 1.0 / static_cast<double>(2 << t);  // 1/2 .. 1/16
    threads.emplace_back([&c, &stop, &done = advances[t], step] {
      std::uint64_t n = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        c.advance(step);
        done.store(++n, std::memory_order_relaxed);
      }
    });
  }
  const auto all_made_enough = [&] {
    for (const std::atomic<std::uint64_t>& n : advances) {
      if (n.load(std::memory_order_relaxed) < kMinAdvancesPerThread) {
        return false;
      }
    }
    return true;
  };
  while (!all_made_enough()) std::this_thread::yield();
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& th : threads) th.join();

  double expected = 0.0;
  for (int t = 0; t < kThreads; ++t) {
    expected += static_cast<double>(advances[t].load()) /
                static_cast<double>(2 << t);
  }
  EXPECT_EQ(c.now(), expected);
}

TEST(SimClock, TimestampFormat) {
  SimClock c;
  c.advance(86400.0 + 3600.0 + 61.0);  // day 1, 01:01:01
  EXPECT_EQ(c.timestamp(), "day 1 01:01:01");
  EXPECT_EQ(SimClock::format(0.0), "day 0 00:00:00");
}

TEST(Stopwatch, MeasuresNonNegativeTime) {
  Stopwatch w;
  volatile double sink = 0;
  for (int i = 0; i < 10000; ++i) sink = sink + i;
  EXPECT_GE(w.seconds(), 0.0);
  EXPECT_GE(w.millis(), 0.0);
  w.reset();
  EXPECT_GE(w.seconds(), 0.0);
}

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(2);
  EXPECT_EQ(pool.size(), 2u);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 20; ++i) {
    futures.push_back(pool.submit([&counter] { ++counter; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 20);
}

TEST(ThreadPool, PropagatesExceptionsThroughFutures) {
  ThreadPool pool(1);
  auto fut = pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(fut.get(), std::runtime_error);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(500);
  parallel_for(0, hits.size(), [&](std::size_t i) { ++hits[i]; }, 8);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, EmptyAndSingletonRanges) {
  std::atomic<int> n{0};
  parallel_for(5, 5, [&](std::size_t) { ++n; });
  EXPECT_EQ(n.load(), 0);
  parallel_for(7, 8, [&](std::size_t i) {
    EXPECT_EQ(i, 7u);
    ++n;
  });
  EXPECT_EQ(n.load(), 1);
}

TEST(ParallelFor, PropagatesFirstException) {
  EXPECT_THROW(
      parallel_for(
          0, 1000,
          [](std::size_t i) {
            if (i == 137) throw std::runtime_error("bad index");
          },
          4),
      std::runtime_error);
}

TEST(Log, LevelThresholdGates) {
  const LogLevel old = log_level();
  set_log_level(LogLevel::Error);
  EXPECT_EQ(log_level(), LogLevel::Error);
  // Emitting below the threshold must be a no-op (no crash, no output check
  // needed — exercised for coverage).
  PKB_LOG(Debug, "test") << "suppressed " << 42;
  set_log_level(old);
}

}  // namespace
}  // namespace pkb::util
