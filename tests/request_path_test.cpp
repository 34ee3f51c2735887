// The request path never waits on util::global_pool(). Each test parks
// every global-pool worker on a latch and then runs one request-path call
// (flat scan, CrossScore rerank) under a watchdog: the call
// must return while the pool is still parked. A call that farmed work out
// to the pool would block until the latch opens. The RequestPathOffPool
// suite is part of the scripts/run_tsan.sh filter.

#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <future>
#include <latch>
#include <string>
#include <vector>

#include "rerank/cross_score.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "vectordb/vector_store.h"

namespace {

using namespace pkb;
using embed::Vector;
using vectordb::VectorStore;

constexpr std::chrono::seconds kWatchdog{5};

/// Occupies every util::global_pool() worker until release() or
/// destruction, so no task submitted meanwhile can start.
class ParkedPool {
 public:
  ParkedPool()
      : parked_(static_cast<std::ptrdiff_t>(util::global_pool().size())) {
    for (std::size_t i = 0; i < util::global_pool().size(); ++i) {
      workers_.push_back(util::global_pool().submit([this] {
        parked_.count_down();
        release_.wait();
      }));
    }
    parked_.wait();
  }
  ParkedPool(const ParkedPool&) = delete;
  ParkedPool& operator=(const ParkedPool&) = delete;
  ~ParkedPool() {
    release();
    for (std::future<void>& w : workers_) w.wait();
  }

  void release() {
    if (!released_) {
      released_ = true;
      release_.count_down();
    }
  }

 private:
  std::latch parked_;
  std::latch release_{1};
  bool released_ = false;
  std::vector<std::future<void>> workers_;
};

/// Runs `call` on its own thread while the global pool is parked and
/// expects it to finish within the watchdog. The pool is released on every
/// path, so a call that does wait on it still completes before return.
void expect_returns_while_pool_parked(const std::function<void()>& call,
                                      const std::string& what) {
  ParkedPool parked;
  std::future<void> done = std::async(std::launch::async, call);
  const bool returned =
      done.wait_for(kWatchdog) == std::future_status::ready;
  parked.release();
  done.get();
  EXPECT_TRUE(returned) << what << " waited on util::global_pool()";
}

VectorStore random_store(std::size_t n, std::size_t dim, std::uint64_t seed) {
  util::Rng rng(seed);
  VectorStore store;
  for (std::size_t i = 0; i < n; ++i) {
    Vector v(dim);
    for (float& x : v) x = static_cast<float>(rng.normal());
    store.add(std::move(v));
  }
  return store;
}

TEST(RequestPathOffPool, FlatScanRunsOnTheCallingThread) {
  const VectorStore store = random_store(1024, 16, 1);
  const VectorStore query_store = random_store(1, 16, 2);
  const Vector q(query_store.vec(0).begin(), query_store.vec(0).end());
  std::size_t hits = 0;
  expect_returns_while_pool_parked(
      [&] { hits = store.similarity_search(q, 8).size(); },
      "similarity_search");
  EXPECT_EQ(hits, 8u);
}

TEST(RequestPathOffPool, CrossScoreRerankRunsOnTheCallingThread) {
  std::vector<text::Document> docs(8);
  for (std::size_t i = 0; i < docs.size(); ++i) {
    docs[i].id = "doc-" + std::to_string(i);
    docs[i].text = "KSPSolve solves the linear system with preconditioner " +
                   std::to_string(i);
  }
  const auto analysis = lexical::CorpusAnalysis::build(docs);
  rerank::CrossScoreReranker reranker;
  std::vector<rerank::RerankCandidate> candidates;
  for (std::size_t i = 0; i < docs.size(); ++i) {
    candidates.push_back({&docs[i], i, 0.0f});
  }
  std::size_t kept = 0;
  expect_returns_while_pool_parked(
      [&] {
        kept = reranker
                   .rerank(text::analyze(
                               "which preconditioner does KSPSolve use"),
                           *analysis, candidates, 4)
                   .size();
      },
      "CrossScoreReranker::rerank");
  EXPECT_EQ(kept, 4u);
}

}  // namespace
