// Micro-benchmarks of the rerankers: the lightweight FlashRanker vs the heavy
// cross-scoring reranker, on the candidate sets the Rerank stage sees. The
// docs knowledge base's rag+rerank pipeline (K = 8 plus keyword hits) runs
// Embed and Retrieve once for each of the 37 Krylov benchmark questions,
// prefixed "variant 1.<i>: " as perfbench's question stream prefixes them;
// each iteration reranks all 37 first passes down to L = 4, as the Rerank
// stage does (per-request cost = time / 37).
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "corpus/generator.h"
#include "corpus/questions.h"
#include "llm/model_config.h"
#include "rag/knowledge_base.h"
#include "rag/stage_graph.h"
#include "rag/workflow.h"
#include "rerank/cross_score.h"
#include "rerank/flashranker.h"

namespace {

/// One request as the Rerank stage receives it.
struct RerankInput {
  std::shared_ptr<const pkb::text::QueryAnalysis> query;
  pkb::rag::SnapshotPtr snapshot;
  std::vector<pkb::rerank::RerankCandidate> candidates;
};

const std::vector<RerankInput>& captured_inputs() {
  static const auto* inputs = [] {
    const pkb::rag::KnowledgeBase kb(
        pkb::rag::KnowledgeBase::build(pkb::corpus::generate_corpus()));
    pkb::rag::RetrieverOptions ropts;
    ropts.reranker = "sim-flashrank";
    const pkb::rag::AugmentedWorkflow workflow(
        kb, pkb::rag::PipelineArm::RagRerank,
        pkb::llm::model_config("sim-gpt-4o"), ropts);
    auto* out = new std::vector<RerankInput>();
    const auto& questions = pkb::corpus::krylov_benchmark();
    for (std::size_t i = 0; i < questions.size(); ++i) {
      const std::string question =
          "variant 1." + std::to_string(i) + ": " + questions[i].question;
      pkb::rag::StageState st;
      st.wf = &workflow;
      st.question = question;
      pkb::rag::global_stage_graph().run_range(
          st, pkb::rag::StageKind::Embed, pkb::rag::StageKind::Retrieve);
      const pkb::rag::RetrievalResult& r = st.outcome.retrieval;
      RerankInput in{r.query_analysis, r.snapshot, {}};
      for (const pkb::rag::RetrievedContext& ctx : r.first_pass) {
        in.candidates.push_back(
            {ctx.doc, ctx.row, static_cast<float>(ctx.score)});
      }
      out->push_back(std::move(in));
    }
    return out;
  }();
  return *inputs;
}

template <typename Ranker>
void run_rerank(benchmark::State& state) {
  const Ranker ranker;
  const auto& inputs = captured_inputs();
  std::size_t candidates = 0;
  for (const RerankInput& in : inputs) candidates += in.candidates.size();
  for (auto _ : state) {
    for (const RerankInput& in : inputs) {
      auto ranked =
          ranker.rerank(*in.query, *in.snapshot->analysis, in.candidates, 4);
      benchmark::DoNotOptimize(ranked.data());
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(inputs.size()));
  state.counters["candidates_per_request"] =
      static_cast<double>(candidates) / static_cast<double>(inputs.size());
}

void BM_FlashRanker(benchmark::State& state) {
  run_rerank<pkb::rerank::FlashRanker>(state);
}

void BM_CrossScoreReranker(benchmark::State& state) {
  run_rerank<pkb::rerank::CrossScoreReranker>(state);
}

}  // namespace

BENCHMARK(BM_FlashRanker);
BENCHMARK(BM_CrossScoreReranker);

BENCHMARK_MAIN();
