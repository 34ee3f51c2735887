// The committed replay corpus (tests/data/traces/) pinned bit for bit at
// the retrieval stages. Each trace was recorded on the default corpus with
// the headline embedder (bench/bench_common.h); rebuilding that knowledge
// base and re-running Embed, Retrieve and Rerank on the recorded question
// must reproduce the recorded query vector byte for byte, the first-pass
// candidates in id, provenance and order, and the reranked contexts in id,
// order and exact score. First-pass scores are not compared: the AVX2 dot
// product re-associates, so they may differ in the last bits across
// kernel builds.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "corpus/generator.h"
#include "rag/knowledge_base.h"
#include "rag/retriever.h"
#include "replay/trace.h"

namespace {

using namespace pkb;

TEST(ReplayCorpus, CommittedTracesReproduceRetrievalBitForBit) {
  const std::vector<std::uint64_t> ids =
      replay::TraceRecorder::list(PKB_TRACE_DIR);
  ASSERT_FALSE(ids.empty()) << "no traces in " << PKB_TRACE_DIR;

  rag::KnowledgeBaseOptions opts;
  opts.embedder = "sim-embed-3-large";
  const rag::KnowledgeBase kb =
      rag::KnowledgeBase::build(corpus::generate_corpus(), opts);
  const rag::SnapshotPtr snap = kb.snapshot();

  for (const std::uint64_t id : ids) {
    const rag::StageTrace recorded = replay::TraceRecorder::load(
        replay::TraceRecorder::trace_path(PKB_TRACE_DIR, id));
    SCOPED_TRACE("trace " + std::to_string(id) + ": " + recorded.question);
    ASSERT_EQ(recorded.embed.embedder, snap->embedder->name());

    rag::RetrieverOptions ropts;
    ropts.reranker = recorded.reranker;
    ropts.first_pass_k = recorded.first_pass_k;
    ropts.final_l = recorded.final_l;
    const rag::Retriever retriever(kb, ropts);
    rag::RetrievalResult result;
    result.snapshot = snap;
    retriever.embed_stage(*snap, recorded.question, result);
    const auto hits =
        retriever.search_stage(*snap, *result.query_embedding, result);
    retriever.augment_stage(*snap, recorded.question, hits, result);
    retriever.rerank_stage(*snap, recorded.question, result);

    const embed::Vector& vec = *result.query_embedding;
    ASSERT_EQ(vec.size(), recorded.embed.query_vec.size());
    EXPECT_EQ(std::memcmp(vec.data(), recorded.embed.query_vec.data(),
                          vec.size() * sizeof(float)),
              0);

    ASSERT_EQ(result.first_pass.size(), recorded.retrieve.candidates.size());
    for (std::size_t i = 0; i < result.first_pass.size(); ++i) {
      EXPECT_EQ(result.first_pass[i].doc->id,
                recorded.retrieve.candidates[i].id);
      EXPECT_EQ(result.first_pass[i].via,
                recorded.retrieve.candidates[i].via);
    }

    ASSERT_FALSE(result.rerank_degraded);
    ASSERT_EQ(result.contexts.size(), recorded.rerank.contexts.size());
    for (std::size_t i = 0; i < result.contexts.size(); ++i) {
      EXPECT_EQ(result.contexts[i].doc->id, recorded.rerank.contexts[i].id);
      EXPECT_EQ(result.contexts[i].score, recorded.rerank.contexts[i].score);
    }
  }
}

}  // namespace
