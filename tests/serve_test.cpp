#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "corpus/generator.h"
#include "corpus/questions.h"
#include "obs/trace.h"
#include "rag/knowledge_base.h"
#include "rag/workflow.h"
#include "serve/bounded_queue.h"
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
    EXPECT_EQ(a.processed.plain_text, b.processed.plain_text) << what;
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

TEST_F(ServeServerTest, ConcurrentClientsMatchSerialContent) {
  constexpr std::size_t kClients = 4;
  constexpr std::size_t kQuestions = 10;
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
  EXPECT_EQ(stats.computed, stats.submitted);  // every request computes
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
  // A blocking ask is rejected too.
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
  const std::optional<obs::Trace> before = obs::global_tracer().latest();
  const std::uint64_t last_id = before.has_value() ? before->id : 0;
  (void)server.ask("Which span tree does a served KSPSolve question get?");
  server.stop();  // joins the worker, so its serve_request span has closed
  const std::optional<obs::Trace> trace = obs::global_tracer().latest();
  ASSERT_TRUE(trace.has_value());
  ASSERT_GT(trace->id, last_id) << "the request finished no trace";
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

// Every computed answer stalls, a repeat of the same question included:
// the server keeps no answers, so there is nothing to skip the stall.
TEST_F(ServeServerTest, LlmLatencyScaleRealizesStallOnlyOnMisses) {
  ServerOptions opts;
  opts.workers = 1;
  opts.llm_latency_scale = 0.002;  // ~10-30 ms per answer
  Server server(*workflow_, opts);
  const std::string q = questions(1)[0];

  const auto t0 = std::chrono::steady_clock::now();
  const rag::WorkflowOutcome first = server.ask(q);
  const auto first_elapsed = std::chrono::steady_clock::now() - t0;

  const auto t1 = std::chrono::steady_clock::now();
  const rag::WorkflowOutcome repeat = server.ask(q);
  const auto repeat_elapsed = std::chrono::steady_clock::now() - t1;

  const auto scaled = std::chrono::duration<double>(
      first.response.latency_seconds * opts.llm_latency_scale);
  EXPECT_GE(first_elapsed, scaled);  // the stall really happened
  EXPECT_GE(repeat_elapsed, scaled);  // and again for the repeat
  expect_same_content(first, repeat, "repeat");
  EXPECT_EQ(server.stats().computed, 2u);
}

}  // namespace
}  // namespace pkb::serve
