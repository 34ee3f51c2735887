#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "corpus/generator.h"
#include "corpus/questions.h"
#include "obs/trace.h"
#include "rag/knowledge_base.h"
#include "rag/workflow.h"
#include "serve/bounded_queue.h"
#include "serve/lru_cache.h"
#include "serve/server.h"

namespace pkb::serve {
namespace {

// --- BoundedQueue ---------------------------------------------------------

TEST(BoundedQueue, FifoOrderAndCapacity) {
  BoundedQueue<int> q(3);
  EXPECT_EQ(q.capacity(), 3u);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_TRUE(q.try_push(3));
  EXPECT_FALSE(q.try_push(4));  // full
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.pop().value(), 1);
  EXPECT_EQ(q.pop().value(), 2);
  EXPECT_EQ(q.pop().value(), 3);
}

TEST(BoundedQueue, ZeroCapacityIsClampedToOne) {
  BoundedQueue<int> q(0);
  EXPECT_EQ(q.capacity(), 1u);
  EXPECT_TRUE(q.try_push(7));
  EXPECT_FALSE(q.try_push(8));
}

TEST(BoundedQueue, CloseDrainsPendingThenSignalsShutdown) {
  BoundedQueue<int> q(4);
  ASSERT_TRUE(q.push(1));
  ASSERT_TRUE(q.push(2));
  q.close();
  EXPECT_TRUE(q.closed());
  EXPECT_FALSE(q.push(3));      // no new items after close
  EXPECT_FALSE(q.try_push(3));
  EXPECT_EQ(q.pop().value(), 1);  // pending items still drain
  EXPECT_EQ(q.pop().value(), 2);
  EXPECT_FALSE(q.pop().has_value());  // drained + closed -> shutdown
}

TEST(BoundedQueue, PushBlocksUntilRoomAndPopBlocksUntilItem) {
  BoundedQueue<int> q(1);
  ASSERT_TRUE(q.push(1));

  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    ASSERT_TRUE(q.push(2));  // blocks: queue is full
    pushed = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(pushed.load());  // still blocked on the full queue
  EXPECT_EQ(q.pop().value(), 1);
  producer.join();
  EXPECT_TRUE(pushed.load());
  EXPECT_EQ(q.pop().value(), 2);

  std::atomic<bool> popped{false};
  std::thread consumer([&] {
    EXPECT_EQ(q.pop().value(), 3);  // blocks: queue is empty
    popped = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(popped.load());
  ASSERT_TRUE(q.push(3));
  consumer.join();
  EXPECT_TRUE(popped.load());
}

TEST(BoundedQueue, CloseWakesBlockedProducer) {
  BoundedQueue<int> q(1);
  ASSERT_TRUE(q.push(1));
  std::thread producer([&] { EXPECT_FALSE(q.push(2)); });  // blocks: full
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.close();
  producer.join();
  EXPECT_EQ(q.pop().value(), 1);  // the pre-close item still drains
  EXPECT_FALSE(q.pop().has_value());
}

TEST(BoundedQueue, CloseWakesBlockedConsumer) {
  BoundedQueue<int> q(1);
  std::thread consumer([&] { EXPECT_FALSE(q.pop().has_value()); });  // empty
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.close();
  consumer.join();
}

// --- ShardedLruCache ------------------------------------------------------

TEST(ShardedLruCache, EvictsLeastRecentlyUsedInOrder) {
  LruCacheOptions opts;
  opts.capacity = 3;
  opts.shards = 1;  // single shard -> strict global LRU order
  ShardedLruCache<std::string, int> cache(opts);
  EXPECT_EQ(cache.put("a", 1), 0u);
  EXPECT_EQ(cache.put("b", 2), 0u);
  EXPECT_EQ(cache.put("c", 3), 0u);
  EXPECT_EQ(cache.get("a").value(), 1);  // refresh a: b is now LRU
  EXPECT_EQ(cache.put("d", 4), 1u);      // evicts b
  EXPECT_FALSE(cache.get("b").has_value());
  EXPECT_TRUE(cache.get("a").has_value());
  EXPECT_TRUE(cache.get("c").has_value());
  EXPECT_TRUE(cache.get("d").has_value());
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(ShardedLruCache, PutOverwritesWithoutEviction) {
  LruCacheOptions opts;
  opts.capacity = 2;
  opts.shards = 1;
  ShardedLruCache<std::string, int> cache(opts);
  cache.put("a", 1);
  EXPECT_EQ(cache.put("a", 10), 0u);  // overwrite, no eviction
  EXPECT_EQ(cache.get("a").value(), 10);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ShardedLruCache, TtlExpiresEntriesLazily) {
  double fake_now = 0.0;
  LruCacheOptions opts;
  opts.capacity = 8;
  opts.shards = 1;
  opts.clock = [&fake_now] { return fake_now; };
  ShardedLruCache<std::string, int> cache(opts);

  cache.put_with_ttl("a", 1, 10.0);
  fake_now = 5.0;
  EXPECT_EQ(cache.get("a").value(), 1);  // within TTL
  fake_now = 15.1;                       // 15.1 - 0 > 10 from insertion...
  cache.put_with_ttl("b", 2, 10.0);      // b stamped at 15.1
  EXPECT_FALSE(cache.get("a").has_value());  // expired -> miss + eviction
  EXPECT_EQ(cache.get("b").value(), 2);
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 1u);

  // Re-inserting refreshes the stamp: the entry lives a fresh TTL.
  cache.put_with_ttl("a", 3, 10.0);
  fake_now = 20.0;
  EXPECT_EQ(cache.get("a").value(), 3);
}

TEST(ShardedLruCache, ZeroCapacityDisablesCaching) {
  LruCacheOptions opts;
  opts.capacity = 0;
  ShardedLruCache<std::string, int> cache(opts);
  EXPECT_FALSE(cache.enabled());
  EXPECT_EQ(cache.put("a", 1), 0u);
  EXPECT_FALSE(cache.get("a").has_value());
  EXPECT_EQ(cache.size(), 0u);
}

TEST(ShardedLruCache, ShardedCapacityAndStatsAggregation) {
  LruCacheOptions opts;
  opts.capacity = 16;
  opts.shards = 4;
  ShardedLruCache<std::string, int> cache(opts);
  EXPECT_EQ(cache.shard_count(), 4u);
  EXPECT_EQ(cache.shard_capacity(0), 4u);
  EXPECT_EQ(cache.total_capacity(), 16u);
  for (int i = 0; i < 100; ++i) {
    cache.put("key-" + std::to_string(i), i);
  }
  // No shard exceeds its capacity.
  EXPECT_LE(cache.size(), 16u);
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, cache.size());
  EXPECT_GE(stats.evictions, 100u - 16u);
}

// Regression: capacity / shards used to truncate (100/8 -> 12 per shard ->
// 96 total), silently shrinking the cache. Capacities must now sum to
// exactly the configured capacity, never exceeding max(capacity, shards).
TEST(ShardedLruCache, CapacityDistributionIsExact) {
  LruCacheOptions opts;
  opts.capacity = 100;
  opts.shards = 8;
  ShardedLruCache<std::string, int> cache(opts);
  EXPECT_EQ(cache.shard_count(), 8u);
  EXPECT_EQ(cache.total_capacity(), 100u);
  std::size_t sum = 0;
  for (std::size_t i = 0; i < cache.shard_count(); ++i) {
    EXPECT_GE(cache.shard_capacity(i), 12u);
    EXPECT_LE(cache.shard_capacity(i), 13u);
    sum += cache.shard_capacity(i);
  }
  EXPECT_EQ(sum, 100u);
  EXPECT_LE(sum, std::max<std::size_t>(opts.capacity, opts.shards));
}

// Regression: capacity < shards used to over-provision to one entry per
// shard (capacity 3, shards 8 -> up to 8 resident entries). The shard count
// now shrinks so every shard holds >= 1 entry and the total stays exact.
TEST(ShardedLruCache, CapacitySmallerThanShardsDoesNotOverProvision) {
  LruCacheOptions opts;
  opts.capacity = 3;
  opts.shards = 8;
  ShardedLruCache<std::string, int> cache(opts);
  EXPECT_EQ(cache.shard_count(), 3u);
  EXPECT_EQ(cache.total_capacity(), 3u);
  for (std::size_t i = 0; i < cache.shard_count(); ++i) {
    EXPECT_EQ(cache.shard_capacity(i), 1u);
  }
  for (int i = 0; i < 64; ++i) {
    cache.put("key-" + std::to_string(i), i);
  }
  EXPECT_LE(cache.size(), 3u);
  EXPECT_LE(cache.size(),
            std::max<std::size_t>(opts.capacity, opts.shards));
}

// The resident-entry invariant holds across a sweep of shapes: fill well
// past capacity and assert the cache never holds more than configured (and
// can actually reach it when keys spread across shards).
TEST(ShardedLruCache, ResidentEntriesNeverExceedConfiguredCapacity) {
  for (const auto& [capacity, shards] :
       std::vector<std::pair<std::size_t, std::size_t>>{
           {1, 1}, {1, 8}, {5, 8}, {8, 2}, {17, 4}, {100, 8}, {64, 64}}) {
    LruCacheOptions opts;
    opts.capacity = capacity;
    opts.shards = shards;
    ShardedLruCache<std::string, int> cache(opts);
    EXPECT_EQ(cache.total_capacity(), capacity)
        << "capacity=" << capacity << " shards=" << shards;
    for (int i = 0; i < 500; ++i) {
      cache.put("key-" + std::to_string(i), i);
    }
    EXPECT_LE(cache.size(), capacity)
        << "capacity=" << capacity << " shards=" << shards;
    EXPECT_LE(cache.size(), std::max(capacity, shards));
  }
}

// --- Server ---------------------------------------------------------------

// The database build is the expensive part; share one across the suite.
class ServeServerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const auto tree = pkb::corpus::generate_corpus();
    db_ = new rag::KnowledgeBase(rag::KnowledgeBase::build(tree));
    workflow_ = new rag::AugmentedWorkflow(*db_, rag::PipelineArm::RagRerank,
                                           llm::model_config("sim-gpt-4o"));
  }
  static std::vector<std::string> questions(std::size_t n) {
    std::vector<std::string> qs;
    const auto& bench = pkb::corpus::krylov_benchmark();
    for (std::size_t i = 0; i < n; ++i) {
      qs.push_back(bench[i % bench.size()].question);
    }
    return qs;
  }
  static void expect_same_content(const rag::WorkflowOutcome& a,
                                  const rag::WorkflowOutcome& b,
                                  const std::string& what) {
    EXPECT_EQ(a.response.text, b.response.text) << what;
    EXPECT_EQ(a.prompt, b.prompt) << what;
    EXPECT_EQ(a.processed.html, b.processed.html) << what;
    ASSERT_EQ(a.retrieval.contexts.size(), b.retrieval.contexts.size())
        << what;
    for (std::size_t i = 0; i < a.retrieval.contexts.size(); ++i) {
      EXPECT_EQ(a.retrieval.contexts[i].doc->id,
                b.retrieval.contexts[i].doc->id)
          << what << " context " << i;
    }
  }
  static rag::KnowledgeBase* db_;
  static rag::AugmentedWorkflow* workflow_;
};

rag::KnowledgeBase* ServeServerTest::db_ = nullptr;
rag::AugmentedWorkflow* ServeServerTest::workflow_ = nullptr;

TEST_F(ServeServerTest, SingleAskMatchesSerialWorkflow) {
  ServerOptions opts;
  opts.workers = 2;
  Server server(*workflow_, opts);
  const std::string q = questions(1)[0];
  const rag::WorkflowOutcome serial = workflow_->ask(q);
  const rag::WorkflowOutcome served = server.ask(q);
  expect_same_content(serial, served, "single ask");
}

TEST_F(ServeServerTest, CachedAnswerIsIdenticalAndSkipsPipeline) {
  ServerOptions opts;
  opts.workers = 2;
  Server server(*workflow_, opts);
  const std::string q = questions(1)[0];
  const rag::WorkflowOutcome first = server.ask(q);
  const rag::WorkflowOutcome second = server.ask(q);
  expect_same_content(first, second, "cache hit");
  const Server::Stats stats = server.stats();
  EXPECT_EQ(stats.computed, 1u);  // second answer came from the cache
  EXPECT_GE(stats.answer_cache.hits, 1u);
}

TEST_F(ServeServerTest, ConcurrentClientsMatchSerialContent) {
  constexpr std::size_t kClients = 4;
  constexpr std::size_t kQuestions = 10;  // repeats hit the answer cache
  const std::vector<std::string> qs = questions(kQuestions);
  std::vector<rag::WorkflowOutcome> serial;
  serial.reserve(qs.size());
  for (const std::string& q : qs) serial.push_back(workflow_->ask(q));

  ServerOptions opts;
  opts.workers = 4;
  opts.queue_capacity = 8;  // smaller than the offered load: backpressure
  Server server(*workflow_, opts);

  std::vector<std::vector<rag::WorkflowOutcome>> got(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&server, &got, &qs, c] {
      // Each client walks the questions from a different offset so the
      // same question is in flight from several clients at once.
      for (std::size_t i = 0; i < qs.size(); ++i) {
        got[c].push_back(server.ask(qs[(i + c) % qs.size()]));
      }
    });
  }
  for (std::thread& t : clients) t.join();

  for (std::size_t c = 0; c < kClients; ++c) {
    for (std::size_t i = 0; i < qs.size(); ++i) {
      expect_same_content(serial[(i + c) % qs.size()], got[c][i],
                          "client " + std::to_string(c) + " q" +
                              std::to_string(i));
    }
  }
  const Server::Stats stats = server.stats();
  EXPECT_EQ(stats.submitted, kClients * kQuestions);
  EXPECT_EQ(stats.rejected, 0u);
  // At most one computation per unique question... plus any duplicates that
  // raced past the submit-side cache check before the first answer landed.
  EXPECT_GE(stats.computed, kQuestions / 2);
  EXPECT_GE(stats.answer_cache.hits + stats.answer_cache.misses,
            kClients * kQuestions - kQuestions);
}

// A batch of submit() calls repeated after warm-up is answered entirely
// from the answer cache.
TEST_F(ServeServerTest, BatchAfterWarmupServesFromCache) {
  const std::vector<std::string> qs = questions(5);
  ServerOptions opts;
  opts.workers = 2;
  Server server(*workflow_, opts);
  auto answer_all = [&server, &qs] {
    std::vector<std::future<rag::WorkflowOutcome>> futures;
    for (const std::string& q : qs) futures.push_back(server.submit(q));
    std::vector<rag::WorkflowOutcome> out;
    for (auto& f : futures) out.push_back(f.get());
    return out;
  };
  const std::vector<rag::WorkflowOutcome> cold = answer_all();
  const std::uint64_t computed_after_cold = server.stats().computed;
  const std::vector<rag::WorkflowOutcome> warm = answer_all();
  EXPECT_EQ(server.stats().computed, computed_after_cold);  // all cached
  for (std::size_t i = 0; i < qs.size(); ++i) {
    expect_same_content(cold[i], warm[i], "warm slot " + std::to_string(i));
  }
}

// A full answer carries no TTL: only a newer KnowledgeBase generation
// retires it, so any clock advance still serves the cached outcome.
TEST_F(ServeServerTest, FullAnswersNeverExpire) {
  double fake_now = 0.0;
  ServerOptions opts;
  opts.workers = 1;
  opts.cache_clock = [&fake_now] { return fake_now; };
  Server server(*workflow_, opts);
  const std::string q = questions(1)[0];
  const rag::WorkflowOutcome first = server.ask(q);
  ASSERT_FALSE(first.degraded());
  fake_now = 1e6;
  const rag::WorkflowOutcome second = server.ask(q);
  expect_same_content(first, second, "long-lived cache hit");
  EXPECT_EQ(server.stats().computed, 1u);
}

TEST_F(ServeServerTest, StopDrainsThenRejectsLateSubmissions) {
  ServerOptions opts;
  opts.workers = 2;
  Server server(*workflow_, opts);
  const std::vector<std::string> qs = questions(4);
  std::vector<std::future<rag::WorkflowOutcome>> futures;
  futures.reserve(qs.size());
  for (const std::string& q : qs) futures.push_back(server.submit(q));
  server.stop();
  for (auto& f : futures) {
    EXPECT_FALSE(f.get().response.text.empty());  // accepted work completed
  }
  auto late = server.submit("too late?");
  EXPECT_THROW((void)late.get(), std::runtime_error);
  // A blocking ask of an *uncached* question is rejected too (a cached one
  // would legitimately be served from the cache without the queue).
  EXPECT_THROW((void)server.ask("never seen A?"), std::runtime_error);
  EXPECT_EQ(server.stats().rejected, 2u);
  server.stop();  // idempotent
}

// Every submission of a batch sent to a stopped server fails with the
// clean runtime_error (never std::future_error/broken_promise), and only
// actually-accepted requests count as submitted.
TEST_F(ServeServerTest, BatchOnStoppedServerFailsCleanlyAndCountsExactly) {
  ServerOptions opts;
  opts.workers = 2;
  Server server(*workflow_, opts);
  server.stop();
  const std::vector<std::string> qs = {"never seen A?", "never seen B?",
                                       "never seen C?"};
  for (const std::string& q : qs) {
    std::future<rag::WorkflowOutcome> f = server.submit(q);
    try {
      (void)f.get();
      FAIL() << "expected std::runtime_error for " << q;
    } catch (const std::future_error& err) {
      FAIL() << "broken promise leaked out of submit: " << err.what();
    } catch (const std::runtime_error& err) {
      EXPECT_STREQ(err.what(), "serve::Server is stopped");
    }
  }
  const Server::Stats stats = server.stats();
  EXPECT_EQ(stats.submitted, 0u);  // nothing was accepted
  EXPECT_EQ(stats.rejected, qs.size());
  EXPECT_EQ(stats.computed, 0u);
}

// A stop() racing a batch of submissions must leave every future either
// answered or failed with the clean runtime_error, and the accounting
// exact: each submission counts as submitted xor rejected.
TEST_F(ServeServerTest, StopRacingBatchNeverBreaksPromises) {
  for (int round = 0; round < 4; ++round) {
    ServerOptions opts;
    opts.workers = 2;
    opts.answer_cache_capacity = 0;  // force every request through the queue
    Server server(*workflow_, opts);
    std::thread stopper([&server, round] {
      std::this_thread::sleep_for(std::chrono::milliseconds(round * 2));
      server.stop();
    });
    constexpr std::size_t kRequests = 8;
    std::vector<std::future<rag::WorkflowOutcome>> futures;
    for (std::size_t i = 0; i < kRequests; ++i) {
      futures.push_back(server.submit("stop-race question " +
                                      std::to_string(round) + "-" +
                                      std::to_string(i) + "?"));
    }
    bool broken_promise = false;
    for (auto& f : futures) {
      try {
        (void)f.get();
      } catch (const std::future_error&) {
        broken_promise = true;
      } catch (const std::runtime_error&) {
        // Expected when stop() wins the race for this request.
      }
    }
    stopper.join();
    EXPECT_FALSE(broken_promise) << "round " << round;
    const Server::Stats stats = server.stats();
    EXPECT_EQ(stats.submitted + stats.rejected, kRequests)
        << "round " << round;
  }
}

// A computed request is one ask() on a worker: its trace is the documented
// serve_request > ask > retrieve tree (docs/OBSERVABILITY.md).
TEST_F(ServeServerTest, ComputedRequestTraceNestsAskUnderServeRequest) {
  ServerOptions opts;
  opts.workers = 1;
  Server server(*workflow_, opts);
  obs::global_tracer().clear();
  (void)server.ask("Which span tree does a served KSPSolve question get?");
  server.stop();  // joins the worker, so its serve_request span has closed
  const std::optional<obs::Trace> trace = obs::global_tracer().latest();
  ASSERT_TRUE(trace.has_value());
  const obs::SpanData& root = trace->root;
  EXPECT_EQ(root.name, "serve_request");
  ASSERT_EQ(root.children.size(), 1u);
  const obs::SpanData& ask = root.children[0];
  EXPECT_EQ(ask.name, "ask");
  ASSERT_FALSE(ask.children.empty());
  EXPECT_EQ(ask.children[0].name, "retrieve");
  EXPECT_EQ(ask.children.back().name, "postprocess");
}

TEST_F(ServeServerTest, QuestionServiceInterfaceServesAnswers) {
  ServerOptions opts;
  opts.workers = 1;
  Server server(*workflow_, opts);
  const rag::QuestionService& service = server;
  const std::string q = questions(1)[0];
  expect_same_content(workflow_->ask(q), service.answer(q),
                      "QuestionService::answer");
}

TEST_F(ServeServerTest, LlmLatencyScaleRealizesStallOnlyOnMisses) {
  ServerOptions opts;
  opts.workers = 1;
  opts.llm_latency_scale = 0.002;  // ~10-30 ms per uncached answer
  Server server(*workflow_, opts);
  const std::string q = questions(1)[0];

  const auto t0 = std::chrono::steady_clock::now();
  const rag::WorkflowOutcome first = server.ask(q);
  const auto miss_elapsed = std::chrono::steady_clock::now() - t0;

  const auto t1 = std::chrono::steady_clock::now();
  (void)server.ask(q);
  const auto hit_elapsed = std::chrono::steady_clock::now() - t1;

  const auto scaled = std::chrono::duration<double>(
      first.response.latency_seconds * opts.llm_latency_scale);
  EXPECT_GE(miss_elapsed, scaled);  // the stall really happened
  EXPECT_LT(hit_elapsed, scaled);   // the cache hit skipped it
}

}  // namespace
}  // namespace pkb::serve
