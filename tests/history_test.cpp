#include <gtest/gtest.h>

#include <set>
#include <thread>
#include <vector>

#include "history/store.h"

namespace pkb::history {
namespace {

InteractionRecord make_record(const std::string& question,
                              const std::string& pipeline) {
  InteractionRecord r;
  r.timestamp = 100.0;
  r.question = question;
  r.response = "answer to " + question;
  r.model = "sim-gpt-4o";
  r.embedding_model = "sim-embed-3-large";
  r.reranker = "sim-flashrank";
  r.pipeline = pipeline;
  r.prompt = "prompt for " + question;
  r.context_ids = {"a#0", "b#1"};
  r.latency_seconds = 9.5;
  return r;
}

TEST(HistoryStore, AddAssignsSequentialIds) {
  HistoryStore store;
  EXPECT_EQ(store.add(make_record("q1", "rag")), 1u);
  EXPECT_EQ(store.add(make_record("q2", "rag")), 2u);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.records()[0].id, 1u);
  EXPECT_EQ(store.records()[0].question, "q1");
  EXPECT_EQ(store.records()[1].id, 2u);
}

TEST(HistoryStore, SearchIsCaseInsensitiveOverQandA) {
  HistoryStore store;
  store.add(make_record("How do I use KSPLSQR?", "rag"));
  store.add(make_record("GMRES restart question", "rag"));
  EXPECT_EQ(store.search("ksplsqr").size(), 1u);
  EXPECT_EQ(store.search("ANSWER").size(), 2u);  // matches responses
  EXPECT_TRUE(store.search("nothing-here").empty());
}

TEST(HistoryStore, ByPipelineFilters) {
  HistoryStore store;
  store.add(make_record("q1", "baseline"));
  store.add(make_record("q2", "rag+rerank"));
  store.add(make_record("q3", "rag+rerank"));
  EXPECT_EQ(store.by_pipeline("rag+rerank").size(), 2u);
  EXPECT_EQ(store.by_pipeline("baseline").size(), 1u);
  EXPECT_TRUE(store.by_pipeline("nope").empty());
}

TEST(HistoryStore, BlindBatchAnonymizesAndShuffles) {
  HistoryStore store;
  for (int i = 0; i < 20; ++i) {
    store.add(make_record("question " + std::to_string(i), "rag"));
  }
  const auto batch = store.blind_batch("rag", 42);
  ASSERT_EQ(batch.size(), 20u);
  // Shuffled: some item is out of insertion order.
  bool out_of_order = false;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (batch[i].record_id != i + 1) out_of_order = true;
  }
  EXPECT_TRUE(out_of_order);
  // Deterministic for the same seed.
  const auto batch2 = store.blind_batch("rag", 42);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(batch[i].record_id, batch2[i].record_id);
  }
}

TEST(HistoryStore, ScoringWorkflow) {
  HistoryStore store;
  const auto id = store.add(make_record("q", "rag"));
  EXPECT_FALSE(store.mean_score(id).has_value());
  EXPECT_TRUE(store.record_score(id, {"alice", 4, "ideal"}));
  EXPECT_TRUE(store.record_score(id, {"bob", 2, "partial"}));
  EXPECT_DOUBLE_EQ(store.mean_score(id).value(), 3.0);
  // Range and id validation.
  EXPECT_FALSE(store.record_score(id, {"carol", 5, ""}));
  EXPECT_FALSE(store.record_score(id, {"carol", -1, ""}));
  EXPECT_FALSE(store.record_score(999, {"carol", 3, ""}));
}

TEST(HistoryStore, ConcurrentAppendsAndReadsAreSafe) {
  HistoryStore store;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50;
  std::vector<std::vector<std::uint64_t>> ids(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&store, &ids, t] {
      for (int i = 0; i < kPerThread; ++i) {
        std::string question = "q";
        question += std::to_string(t);
        question += '-';
        question += std::to_string(i);
        const auto id = store.add(
            make_record(question, t % 2 == 0 ? "rag" : "rag+rerank"));
        ids[t].push_back(id);
        // Interleave reads with the appends: pointers stay valid because
        // the store's backing deque never relocates records.
        bool found = false;
        for (const InteractionRecord* r : store.search(question)) {
          found = found || r->id == id;
        }
        EXPECT_TRUE(found);
        (void)store.size();
        (void)store.by_pipeline("rag").size();
      }
    });
  }
  for (std::thread& t : threads) t.join();

  // Every id was assigned exactly once, densely from 1.
  std::set<std::uint64_t> all;
  for (const auto& per_thread : ids) {
    all.insert(per_thread.begin(), per_thread.end());
  }
  EXPECT_EQ(all.size(), static_cast<std::size_t>(kThreads * kPerThread));
  EXPECT_EQ(*all.begin(), 1u);
  EXPECT_EQ(*all.rbegin(), static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(store.size(), static_cast<std::size_t>(kThreads * kPerThread));
}

}  // namespace
}  // namespace pkb::history
