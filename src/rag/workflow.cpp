#include "rag/workflow.h"

#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rag/prompts.h"
#include "rag/stage_graph.h"
#include "text/tokenizer.h"
#include "util/clock.h"

namespace pkb::rag {

namespace {

namespace res = pkb::resilience;

// Virtual cost charged for composing a degraded (extractive or stub) answer.
constexpr double kExtractiveLatencySeconds = 0.05;

/// The extractive fallback (ladder level Extractive): the lead sentence of
/// each attended context, stitched in retrieval order. No model involved,
/// so it works with the LLM stage entirely lost.
std::string extractive_answer(const llm::LlmRequest& request) {
  std::string text =
      "[degraded] The assistant is temporarily answering from retrieved "
      "documentation excerpts:";
  const std::size_t limit =
      std::min(request.contexts.size(), request.max_attended_contexts);
  for (std::size_t i = 0; i < limit; ++i) {
    const llm::ContextDoc& ctx = request.contexts[i];
    const auto sentences = text::split_sentences(ctx.text);
    text += "\n- ";
    if (!ctx.title.empty()) {
      text += ctx.title;
      text += ": ";
    }
    text += sentences.empty() ? std::string_view(ctx.text)
                              : sentences.front();
  }
  return text;
}

}  // namespace

std::string_view to_string(PipelineArm arm) {
  switch (arm) {
    case PipelineArm::Baseline:
      return "baseline";
    case PipelineArm::Rag:
      return "rag";
    case PipelineArm::RagRerank:
      return "rag+rerank";
  }
  return "?";
}

std::optional<PipelineArm> arm_from_string(std::string_view name) {
  if (name == "baseline") return PipelineArm::Baseline;
  if (name == "rag") return PipelineArm::Rag;
  if (name == "rag+rerank") return PipelineArm::RagRerank;
  return std::nullopt;
}

AugmentedWorkflow::AugmentedWorkflow(const KnowledgeBase& kb, PipelineArm arm,
                                     llm::LlmConfig model,
                                     RetrieverOptions retriever_opts)
    : kb_(kb), arm_(arm), llm_(std::move(model)) {
  if (arm_ != PipelineArm::Baseline) {
    if (arm_ == PipelineArm::Rag) {
      // Plain RAG is the vanilla LangChain-style pipeline: embedding
      // retrieval only. Keyword augmentation (§III-C) and reranking
      // (§III-D) are the PETSc-specific enhancements of the rerank arm.
      retriever_opts.reranker.clear();
      retriever_opts.use_keyword_search = false;
    }
    retriever_ = std::make_unique<Retriever>(kb_, std::move(retriever_opts));
  }
}

void AugmentedWorkflow::attach_history(history::HistoryStore* store,
                                       pkb::util::SimClock* clock) {
  history_ = store;
  clock_ = clock;
}

void AugmentedWorkflow::set_fault_plan(const resilience::FaultPlan* plan) {
  llm_.set_fault_plan(plan);
  if (retriever_ != nullptr) retriever_->set_fault_plan(plan);
}

WorkflowOutcome AugmentedWorkflow::ask(std::string_view question,
                                       resilience::RequestContext* ctx,
                                       StageTrace* trace,
                                       SessionPromptContext* session) const {
  const std::string arm_name(to_string(arm_));
  obs::global_metrics()
      .counter(obs::kWorkflowRequestsTotal, {{"arm", arm_name}})
      .inc();
  pkb::util::Stopwatch ask_watch;
  obs::Span span(obs::global_tracer(), obs::kSpanAsk);
  span.set_attr("arm", arm_name);
  span.set_attr("model", llm_.config().name);

  StageState st;
  st.wf = this;
  st.question = question;
  st.ctx = ctx;
  st.session = session;
  const StageGraph& graph = global_stage_graph();
  if (ctx != nullptr) {
    try {
      graph.run_range(st, StageKind::Embed, StageKind::Rerank);
    } catch (const res::FaultError&) {
      // Second rung: retrieval lost entirely (hedges exhausted). The LLM
      // still answers, parametrically, from an empty context list. The
      // umbrella retrieve span must close here so the tail stages don't
      // nest under it.
      st.close_retrieve_span();
      ctx->degrade(res::DegradationLevel::NoRetrieval);
      st.outcome.retrieval = RetrievalResult{};
    }
  } else {
    graph.run_range(st, StageKind::Embed, StageKind::Rerank);
  }
  graph.run_range(st, StageKind::Prompt, StageKind::Postprocess);
  record_history(st);
  if (trace != nullptr) capture_stage_trace(st, *trace);
  WorkflowOutcome outcome = std::move(st.outcome);
  obs::global_metrics()
      .histogram(obs::kWorkflowAskSeconds, {{"arm", arm_name}})
      .observe(ask_watch.seconds());
  return outcome;
}

void AugmentedWorkflow::record_history(StageState& st) const {
  if (history_ == nullptr) return;
  WorkflowOutcome& outcome = st.outcome;
  obs::Span record_span(obs::global_tracer(), obs::kSpanHistoryRecord);
  history::InteractionRecord record;
  record.timestamp = clock_ != nullptr ? clock_->now() : 0.0;
  record.question = std::string(st.question);
  record.response = outcome.response.text;
  record.model = llm_.config().name;
  if (retriever_ != nullptr) {
    // EmbedStage pinned st.snapshot before any search fault; a lost
    // retrieval resets outcome.retrieval but not the pin.
    record.embedding_model = st.snapshot->embedder->name();
    record.reranker = retriever_->options().reranker;
  }
  record.pipeline = std::string(to_string(arm_));
  record.prompt = outcome.prompt;
  for (const llm::ContextDoc& ctx : st.request.contexts) {
    record.context_ids.push_back(ctx.id);
  }
  record.latency_seconds =
      outcome.retrieval.rag_seconds() + outcome.response.latency_seconds;
  outcome.history_id = history_->add(std::move(record));
  record_span.set_attr("record_id", outcome.history_id);
  if (clock_ != nullptr) {
    clock_->advance(outcome.retrieval.rag_seconds() +
                    outcome.response.latency_seconds);
  }
}

llm::LlmResponse AugmentedWorkflow::complete_resilient(
    const llm::LlmRequest& request, resilience::RequestContext& ctx) const {
  obs::MetricsRegistry& metrics = obs::global_metrics();
  res::CircuitBreaker& breaker = ctx.engine->breaker();
  const res::ResilienceOptions& opts = ctx.engine->options();
  std::string lost_reason;

  for (std::uint32_t attempt = 1;; ++attempt) {
    if (ctx.budget.exhausted()) {
      lost_reason = "deadline";
      ctx.deadline_exceeded = true;
      metrics
          .counter(obs::kResilienceDeadlineExceededTotal, {{"stage", "llm"}})
          .inc();
      break;
    }
    if (!breaker.allow()) {
      // Fail fast: the breaker is open, don't even attempt the stage.
      lost_reason = "breaker_open";
      ctx.breaker_short_circuit = true;
      break;
    }
    try {
      ++ctx.llm_attempts;
      llm::LlmResponse resp = llm_.complete(request);
      if (resp.latency_seconds > ctx.budget.remaining_seconds()) {
        // Natural timeout: the (virtual) completion would have landed past
        // the deadline, so the caller abandons it at the deadline.
        ctx.budget.exhaust();
        ctx.deadline_exceeded = true;
        lost_reason = "deadline";
        metrics
            .counter(obs::kResilienceDeadlineExceededTotal,
                     {{"stage", "llm"}})
            .inc();
        breaker.record_failure();
        break;
      }
      ctx.budget.charge(resp.latency_seconds);
      breaker.record_success();
      return resp;
    } catch (const res::TimeoutError&) {
      // An injected hang: the call sits on the wire until the request's
      // deadline fires, taking the whole remaining budget with it.
      breaker.record_failure();
      ctx.budget.exhaust();
      ctx.deadline_exceeded = true;
      lost_reason = "timeout";
      metrics
          .counter(obs::kResilienceDeadlineExceededTotal, {{"stage", "llm"}})
          .inc();
      break;
    } catch (const res::PermanentError&) {
      breaker.record_failure();
      lost_reason = "permanent_error";
      break;
    } catch (const res::TransientError&) {
      breaker.record_failure();
      if (attempt >= opts.llm_retry.max_attempts) {
        lost_reason = "retries_exhausted";
        break;
      }
      const double backoff =
          opts.llm_retry.backoff_seconds(attempt, ctx.jitter_seed);
      if (backoff > ctx.budget.remaining_seconds()) {
        ctx.budget.exhaust();
        ctx.deadline_exceeded = true;
        lost_reason = "deadline";
        metrics
            .counter(obs::kResilienceDeadlineExceededTotal,
                     {{"stage", "llm"}})
            .inc();
        break;
      }
      // The wait is virtual: charged to the budget, never slept.
      ctx.budget.charge(backoff);
      ++ctx.retries;
      metrics.counter(obs::kResilienceRetriesTotal, {{"stage", "llm"}}).inc();
      metrics.histogram(obs::kResilienceBackoffSeconds).observe(backoff);
      obs::Span retry_span(obs::global_tracer(), obs::kSpanRetry);
      retry_span.set_attr("stage", "llm");
      retry_span.set_attr("attempt", static_cast<std::uint64_t>(attempt));
      retry_span.set_attr("backoff_s", backoff);
    }
  }

  // The LLM stage is lost — walk the remaining ladder. With contexts in
  // hand the answer is stitched extractively; without, a stub.
  llm::LlmResponse resp;
  const bool have_contexts = !request.contexts.empty();
  if (have_contexts) {
    ctx.degrade(res::DegradationLevel::Extractive);
    resp.text = extractive_answer(request);
    resp.mode = "degraded-extractive";
    const std::size_t limit =
        std::min(request.contexts.size(), request.max_attended_contexts);
    for (std::size_t i = 0; i < limit; ++i) {
      resp.used_context_ids.push_back(request.contexts[i].id);
    }
  } else {
    ctx.degrade(res::DegradationLevel::Unavailable);
    resp.text =
        "[degraded] The assistant is temporarily unavailable; please retry "
        "shortly.";
    resp.mode = "degraded-unavailable";
  }
  resp.latency_seconds =
      std::min(kExtractiveLatencySeconds, ctx.budget.remaining_seconds());
  ctx.budget.charge(resp.latency_seconds);
  resp.completion_tokens = text::approx_llm_tokens(resp.text);

  obs::Span span(obs::global_tracer(), obs::kSpanDegradedAnswer);
  span.set_attr("level", res::to_string(ctx.level));
  span.set_attr("reason", lost_reason);
  span.set_attr("attempts", static_cast<std::uint64_t>(ctx.llm_attempts));
  return resp;
}

}  // namespace pkb::rag
