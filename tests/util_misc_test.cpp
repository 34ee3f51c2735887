// Tests for Summary/Histogram, SimClock/Stopwatch, thread pool, and logging.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>

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
  EXPECT_DOUBLE_EQ(s.min(), 0.0);
  EXPECT_DOUBLE_EQ(s.max(), 0.0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.percentile(50), 0.0);
}

TEST(Summary, BasicMoments) {
  Summary s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
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

TEST(Summary, MinMaxAvgFormat) {
  Summary s;
  s.add(0.16);
  s.add(3.11);
  s.add(0.44 * 3 - 0.16 - 3.11);  // force avg 0.44 over 3 samples
  EXPECT_EQ(s.min_max_avg(2), "-1.95 / 3.11 / 0.44");
}

TEST(Histogram, BinningAndClamping) {
  Histogram h(0.0, 10.0, 5);
  h.add(0.5);   // bin 0
  h.add(9.99);  // bin 4
  h.add(-3);    // clamps to bin 0
  h.add(42);    // clamps to bin 4
  h.add(5.0);   // bin 2
  EXPECT_EQ(h.count(0), 2u);
  EXPECT_EQ(h.count(2), 1u);
  EXPECT_EQ(h.count(4), 2u);
  EXPECT_EQ(h.total(), 5u);
  EXPECT_DOUBLE_EQ(h.bin_lo(1), 2.0);
}

TEST(Histogram, InvalidConstruction) {
  EXPECT_THROW(Histogram(1.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
  Histogram h(0.0, 1.0, 2);
  EXPECT_THROW(h.count(2), std::out_of_range);
}

TEST(Histogram, RenderContainsCounts) {
  Histogram h(0.0, 4.0, 4);
  h.add(0.1);
  h.add(0.2);
  h.add(3.5);
  const std::string art = h.render(10);
  EXPECT_NE(art.find("(2)"), std::string::npos);
  EXPECT_NE(art.find("(1)"), std::string::npos);
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

TEST(SimClock, AdvanceToOnlyMovesForward) {
  SimClock c(100.0);
  c.advance_to(50.0);
  EXPECT_DOUBLE_EQ(c.now(), 100.0);
  c.advance_to(150.0);
  EXPECT_DOUBLE_EQ(c.now(), 150.0);
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
