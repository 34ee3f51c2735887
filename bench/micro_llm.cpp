// Micro-benchmark of the Generate stage: SimLlm::complete on the grounded
// path, over the requests the docs knowledge base's rag+rerank pipeline
// builds for the 37 Krylov benchmark questions (sim-flashrank, L = 4, the
// model perfbench serves). The requests are captured once by running the
// stage graph up to Prompt; each iteration completes all of them.
#include <benchmark/benchmark.h>

#include "corpus/generator.h"
#include "corpus/questions.h"
#include "llm/model_config.h"
#include "llm/sim_llm.h"
#include "rag/knowledge_base.h"
#include "rag/stage_graph.h"
#include "rag/workflow.h"

namespace {

const std::vector<pkb::llm::LlmRequest>& captured_requests() {
  static const auto* requests = [] {
    const pkb::rag::KnowledgeBase kb(
        pkb::rag::KnowledgeBase::build(pkb::corpus::generate_corpus()));
    pkb::rag::RetrieverOptions ropts;
    ropts.reranker = "sim-flashrank";
    const pkb::rag::AugmentedWorkflow workflow(
        kb, pkb::rag::PipelineArm::RagRerank,
        pkb::llm::model_config("sim-gpt-4o"), ropts);
    auto* out = new std::vector<pkb::llm::LlmRequest>();
    for (const auto& q : pkb::corpus::krylov_benchmark()) {
      pkb::rag::StageState st;
      st.wf = &workflow;
      st.question = q.question;
      pkb::rag::global_stage_graph().run_range(
          st, pkb::rag::StageKind::Embed, pkb::rag::StageKind::Prompt);
      out->push_back(st.request);
    }
    return out;
  }();
  return *requests;
}

void BM_SimLlmGrounded(benchmark::State& state) {
  const pkb::llm::SimLlm llm(pkb::llm::model_config("sim-gpt-4o"));
  const auto& requests = captured_requests();
  for (auto _ : state) {
    for (const pkb::llm::LlmRequest& req : requests) {
      pkb::llm::LlmResponse resp = llm.complete(req);
      benchmark::DoNotOptimize(resp.text.data());
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(requests.size()));
}

}  // namespace

BENCHMARK(BM_SimLlmGrounded);

BENCHMARK_MAIN();
