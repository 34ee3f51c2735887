#include "rag/stage_graph.h"

#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "rag/prompts.h"

namespace pkb::rag {

namespace {

namespace res = pkb::resilience;

void count_degraded(res::DegradationLevel level) {
  obs::global_metrics()
      .counter(obs::kResilienceDegradedTotal,
               {{"level", std::string(res::to_string(level))}})
      .inc();
}

ContextRef to_ref(const RetrievedContext& ctx) {
  ContextRef ref;
  ref.id = ctx.doc->id;
  ref.score = ctx.score;
  ref.via = ctx.via;
  ref.first_pass_rank = ctx.first_pass_rank;
  return ref;
}

}  // namespace

std::string_view to_string(StageKind kind) {
  switch (kind) {
    case StageKind::Embed:
      return "embed";
    case StageKind::Retrieve:
      return "retrieve";
    case StageKind::Rerank:
      return "rerank";
    case StageKind::Prompt:
      return "prompt";
    case StageKind::Generate:
      return "generate";
    case StageKind::Postprocess:
      return "postprocess";
  }
  return "?";
}

std::optional<StageKind> stage_from_name(std::string_view name) {
  for (int i = 0; i < kStageCount; ++i) {
    const auto kind = static_cast<StageKind>(i);
    if (name == to_string(kind)) return kind;
  }
  return std::nullopt;
}

void append_recalled_contexts(std::vector<llm::ContextDoc> contexts,
                              llm::LlmRequest& request) {
  for (llm::ContextDoc& ctx : contexts) {
    request.contexts.push_back(std::move(ctx));
  }
  if (!request.contexts.empty() && request.system.empty()) {
    request.system = PromptLibrary::qa_system_prompt();
  }
}

/// Pin the snapshot, open the umbrella `retrieve` span, embed the query.
class EmbedStage final : public Stage {
 public:
  [[nodiscard]] StageKind kind() const override { return StageKind::Embed; }
  void run(StageState& st) const override {
    const Retriever* retriever = st.wf->retriever_.get();
    if (retriever == nullptr) return;  // Baseline arm: no retrieval stages
    obs::global_metrics().counter(obs::kRetrieveRequestsTotal).inc();
    st.snapshot = retriever->kb().snapshot();
    if (st.open_retrieve_span) {
      st.retrieve_span = std::make_unique<obs::Span>(obs::global_tracer(),
                                                     obs::kSpanRetrieve);
      st.retrieve_span->set_attr("k", retriever->options().first_pass_k);
      st.retrieve_span->set_attr("l", retriever->options().final_l);
      st.retrieve_span->set_attr("generation", st.snapshot->generation);
    }
    st.outcome.retrieval.snapshot = st.snapshot;
    retriever->embed_stage(*st.snapshot, st.question, st.outcome.retrieval);
  }
};

/// First-pass vector search + keyword augmentation into `first_pass`.
class RetrieveStage final : public Stage {
 public:
  [[nodiscard]] StageKind kind() const override { return StageKind::Retrieve; }
  void run(StageState& st) const override {
    const Retriever* retriever = st.wf->retriever_.get();
    if (retriever == nullptr) return;
    RetrievalResult& result = st.outcome.retrieval;
    const std::vector<vectordb::SearchResult> hits = retriever->search_stage(
        *result.snapshot, *result.query_embedding, result);
    retriever->augment_stage(*result.snapshot, st.question, hits, result);
  }
};

/// Rerank first_pass down to the final context list; close the umbrella
/// `retrieve` span and observe the retrieval histograms.
class RerankStage final : public Stage {
 public:
  [[nodiscard]] StageKind kind() const override { return StageKind::Rerank; }
  void run(StageState& st) const override {
    const Retriever* retriever = st.wf->retriever_.get();
    if (retriever == nullptr) return;
    RetrievalResult& result = st.outcome.retrieval;
    retriever->rerank_stage(*result.snapshot, st.question, result);
    if (st.retrieve_span != nullptr) {
      st.retrieve_span->set_attr("candidates", result.first_pass.size());
      st.retrieve_span->set_attr("kept", result.contexts.size());
      st.close_retrieve_span();
    }
    retriever->observe_retrieval_metrics(result);
  }
};

/// Assemble the LLM request: generation stamp, budget charge, document
/// contexts, session history, prompt render.
class PromptStage final : public Stage {
 public:
  [[nodiscard]] StageKind kind() const override { return StageKind::Prompt; }
  void run(StageState& st) const override {
    const AugmentedWorkflow& wf = *st.wf;
    WorkflowOutcome& outcome = st.outcome;
    // Stamp the generation the answer reflects — the one place this
    // happens. Baseline outcomes read no corpus and stay 0: they can never
    // go stale.
    outcome.generation = outcome.retrieval.generation();
    if (st.ctx != nullptr) {
      // Retrieval's wall time comes off the budget.
      st.ctx->budget.charge(outcome.retrieval.rag_seconds());
      if (outcome.retrieval.rerank_degraded) {
        st.ctx->degrade(res::DegradationLevel::Unreranked);
      }
    }
    llm::LlmRequest& request = st.request;
    request.question = std::string(st.question);
    SessionPromptContext* session = st.session;
    if (wf.retriever_ != nullptr) {
      // Session retrieval memory: a chunk this session has already seen is
      // dropped from the prompt — but only while the memory's generation
      // matches the turn's pinned generation. A mid-session publish may
      // have re-ingested any chunk, so a mismatched memory is unsafe to
      // apply: dedup is skipped and memory_stale tells the session layer
      // to reset.
      bool dedup = false;
      if (session != nullptr && session->seen_context_ids != nullptr) {
        dedup = session->memory_generation == outcome.retrieval.generation();
        session->memory_stale = !dedup;
      }
      for (const RetrievedContext& ctx : outcome.retrieval.contexts) {
        if (dedup && session->seen_context_ids->count(ctx.doc->id) > 0) {
          ++session->deduped;
          continue;
        }
        request.contexts.push_back(
            llm::ContextDoc{ctx.doc->id, std::string(ctx.doc->meta("title")),
                            ctx.doc->text, ctx.score});
        if (session != nullptr) {
          session->attached_context_ids.push_back(ctx.doc->id);
        }
      }
      request.system = PromptLibrary::qa_system_prompt();
    } else {
      request.system = PromptLibrary::baseline_system_prompt();
    }
    if (session != nullptr && session->history_contexts != nullptr) {
      // Conversation history goes after the documents, competing for the
      // tail of the attention window (append_recalled_contexts).
      session->history_attached = session->history_contexts->size();
      append_recalled_contexts(*session->history_contexts, request);
    }
    if (st.max_attended_override.has_value()) {
      request.max_attended_contexts = *st.max_attended_override;
    }
    {
      obs::Span prompt_span(obs::global_tracer(), obs::kSpanPromptBuild);
      outcome.prompt =
          PromptLibrary::render_user_prompt(st.question, request.contexts);
      prompt_span.set_attr("contexts", request.contexts.size());
      prompt_span.set_attr("chars", outcome.prompt.size());
    }
  }
};

/// The (resilient) LLM completion.
class GenerateStage final : public Stage {
 public:
  [[nodiscard]] StageKind kind() const override { return StageKind::Generate; }
  void run(StageState& st) const override {
    const AugmentedWorkflow& wf = *st.wf;
    WorkflowOutcome& outcome = st.outcome;
    if (st.ctx != nullptr && st.ctx->engine != nullptr) {
      outcome.response = wf.complete_resilient(st.request, *st.ctx);
      outcome.degradation = st.ctx->level;
      if (st.ctx->degraded()) count_degraded(st.ctx->level);
      obs::global_metrics()
          .histogram(obs::kResilienceBudgetSpentSeconds)
          .observe(st.ctx->budget.spent_seconds());
    } else {
      outcome.response = wf.llm_.complete(st.request);
    }
  }
};

/// Box 4: postprocess the raw response.
class PostprocessStage final : public Stage {
 public:
  [[nodiscard]] StageKind kind() const override {
    return StageKind::Postprocess;
  }
  void run(StageState& st) const override {
    obs::Span post_span(obs::global_tracer(), obs::kSpanPostprocess);
    st.outcome.processed =
        post::postprocess_llm_output(st.outcome.response.text);
    post_span.set_attr("code_blocks",
                       st.outcome.processed.code_reports.size());
    post_span.set_attr("all_code_ok", st.outcome.processed.all_code_ok);
  }
};

StageGraph::StageGraph() {
  stages_[static_cast<int>(StageKind::Embed)] =
      std::make_unique<EmbedStage>();
  stages_[static_cast<int>(StageKind::Retrieve)] =
      std::make_unique<RetrieveStage>();
  stages_[static_cast<int>(StageKind::Rerank)] =
      std::make_unique<RerankStage>();
  stages_[static_cast<int>(StageKind::Prompt)] =
      std::make_unique<PromptStage>();
  stages_[static_cast<int>(StageKind::Generate)] =
      std::make_unique<GenerateStage>();
  stages_[static_cast<int>(StageKind::Postprocess)] =
      std::make_unique<PostprocessStage>();
}

void StageGraph::run_range(StageState& st, StageKind first,
                           StageKind last) const {
  for (int i = static_cast<int>(first); i <= static_cast<int>(last); ++i) {
    stages_[i]->run(st);
  }
}

const StageGraph& global_stage_graph() {
  static const StageGraph graph;
  return graph;
}

void capture_stage_trace(const StageState& st, StageTrace& trace) {
  const AugmentedWorkflow& wf = *st.wf;
  trace.question = std::string(st.question);
  trace.arm = std::string(to_string(wf.arm()));
  trace.model = wf.model().name;
  if (wf.retriever() != nullptr) {
    const RetrieverOptions& opts = wf.retriever()->options();
    trace.reranker = opts.reranker;
    trace.first_pass_k = opts.first_pass_k;
    trace.final_l = opts.final_l;
  }

  const RetrievalResult& retrieval = st.outcome.retrieval;
  trace.generation = st.outcome.generation;
  trace.degradation = std::string(res::to_string(st.outcome.degradation));
  trace.history_id = st.outcome.history_id;
  trace.embed_seconds = retrieval.embed_seconds;
  trace.search_seconds = retrieval.search_seconds;
  trace.rerank_seconds = retrieval.rerank_seconds;

  trace.embed.embedder =
      retrieval.snapshot != nullptr ? retrieval.snapshot->embedder->name() : "";
  trace.embed.query_vec = retrieval.query_embedding != nullptr
                              ? *retrieval.query_embedding
                              : embed::Vector{};

  trace.retrieve.candidates.clear();
  for (const RetrievedContext& ctx : retrieval.first_pass) {
    trace.retrieve.candidates.push_back(to_ref(ctx));
  }

  trace.rerank.contexts.clear();
  for (const RetrievedContext& ctx : retrieval.contexts) {
    trace.rerank.contexts.push_back(to_ref(ctx));
  }
  trace.rerank.rerank_degraded = retrieval.rerank_degraded;

  trace.prompt.system = st.request.system;
  trace.prompt.contexts = st.request.contexts;
  trace.prompt.max_attended = st.request.max_attended_contexts;
  trace.prompt.prompt = st.outcome.prompt;

  trace.generate.response = st.outcome.response;

  trace.post.plain_text = st.outcome.processed.plain_text;
  trace.post.all_code_ok = st.outcome.processed.all_code_ok;
  trace.post.code_blocks = st.outcome.processed.code_reports.size();
  trace.post.sources = st.outcome.processed.sources;
}

}  // namespace pkb::rag
