#pragma once
// The augmented PETSc LLM workflow — boxes 1-4 of Fig 3 wired together:
// retrieve (1) -> rerank (2) -> LLM (3) -> postprocess (4), with every
// interaction recorded into the shared history (§III-F).
//
// The pipeline body is an explicit composition of six typed stages
// (rag/stage_graph.h): ask() pins a snapshot and runs Embed..Postprocess.
// It is the one definition of the pipeline — the serve layer's workers run
// it for requests and session turns. Passing a StageTrace captures every
// stage's serializable artifact for the record/replay subsystem (src/replay/).

#include <memory>
#include <optional>
#include <string>

#include "history/store.h"
#include "llm/sim_llm.h"
#include "util/clock.h"
#include "post/postprocessor.h"
#include "rag/retriever.h"
#include "resilience/resilience.h"

namespace pkb::rag {

struct StageTrace;           // rag/stages.h
struct StageState;           // rag/stage_graph.h
struct SessionPromptContext;  // rag/stages.h

/// Pipeline arm selector.
enum class PipelineArm {
  Baseline,    ///< no retrieval: parametric LLM only
  Rag,         ///< embedding retrieval + keyword augmentation
  RagRerank,   ///< retrieval + reranking (the paper's best configuration)
};

[[nodiscard]] std::string_view to_string(PipelineArm arm);

/// Inverse of to_string(); nullopt for an unknown name. (The replay engine
/// reconstructs workflows from recorded trace headers through this.)
[[nodiscard]] std::optional<PipelineArm> arm_from_string(
    std::string_view name);

/// The outcome of one question through the workflow.
struct WorkflowOutcome {
  llm::LlmResponse response;
  RetrievalResult retrieval;        ///< empty contexts for Baseline
  post::ProcessedOutput processed;  ///< box-4 postprocessing of the response
  std::string prompt;               ///< the full prompt sent to the model
  std::uint64_t history_id = 0;     ///< record id when history is attached
  /// How much of the full pipeline this answer reflects (the degradation
  /// ladder; Full when no resilience context was active or nothing failed).
  resilience::DegradationLevel degradation = resilience::DegradationLevel::Full;
  [[nodiscard]] bool degraded() const {
    return degradation != resilience::DegradationLevel::Full;
  }
  /// KnowledgeBase generation the answer was computed against (0 for the
  /// Baseline arm, which reads no corpus). Stamped in exactly one place —
  /// PromptStage. retrieval.snapshot keeps the generation's documents alive
  /// for as long as the outcome is held.
  std::uint64_t generation = 0;
};

/// Anything that can answer one question end to end: the workflow itself,
/// or a front end wrapped around it (serve::Server). Consumers like the
/// chat bot depend on this interface so they can be pointed at either.
class QuestionService {
 public:
  virtual ~QuestionService() = default;
  [[nodiscard]] virtual WorkflowOutcome answer(
      std::string_view question) const = 0;
};

/// One arm of the workflow: a retriever (or none) plus a model.
class AugmentedWorkflow : public QuestionService {
 public:
  /// `arm` selects retrieval behaviour; `retriever_opts.reranker` is
  /// overridden to "" for the Rag arm and kept for RagRerank. The knowledge
  /// base may keep publishing new generations; each ask() pins the
  /// then-current snapshot for its whole pipeline run.
  AugmentedWorkflow(const KnowledgeBase& kb, PipelineArm arm,
                    llm::LlmConfig model, RetrieverOptions retriever_opts = {});

  /// Attach a history store; subsequent ask() calls append records. The
  /// store must outlive the workflow. `clock` (optional) supplies record
  /// timestamps and advances by the simulated latency of each call.
  void attach_history(history::HistoryStore* store,
                      pkb::util::SimClock* clock = nullptr);

  /// Attach a chaos plan: forwarded to the simulated LLM and the retriever
  /// (which hands it to its rerankers and consults it for vector search
  /// with hedged re-attempts). Setup-time only.
  void set_fault_plan(const resilience::FaultPlan* plan);

  /// Run one question end to end. With a non-null `ctx` (minted by a
  /// resilience::Resilience engine, which rides along in ctx->engine),
  /// stage costs are charged to the context's deadline budget and failures
  /// walk the degradation ladder instead of propagating — the outcome then
  /// carries ctx->level in `degradation` and an extractive or stub answer
  /// when the LLM stage was lost. A non-null `trace` captures every
  /// stage's artifact for the record/replay subsystem. A non-null `session`
  /// (the session serving layer's per-turn hooks) dedups already-seen
  /// contexts and appends conversation history during prompt assembly.
  [[nodiscard]] WorkflowOutcome ask(std::string_view question,
                                    resilience::RequestContext* ctx = nullptr,
                                    StageTrace* trace = nullptr,
                                    SessionPromptContext* session =
                                        nullptr) const;

  /// QuestionService: answer == ask. ask() is const and runs against an
  /// immutable pinned snapshot, so concurrent calls are safe even while
  /// ingestion publishes new generations (the history store, when attached,
  /// serializes its own appends).
  [[nodiscard]] WorkflowOutcome answer(
      std::string_view question) const override {
    return ask(question);
  }

  [[nodiscard]] PipelineArm arm() const { return arm_; }
  [[nodiscard]] const llm::LlmConfig& model() const { return llm_.config(); }
  [[nodiscard]] const Retriever* retriever() const { return retriever_.get(); }
  [[nodiscard]] const KnowledgeBase& kb() const { return kb_; }

 private:
  friend class EmbedStage;
  friend class RetrieveStage;
  friend class RerankStage;
  friend class PromptStage;
  friend class GenerateStage;
  friend class PostprocessStage;

  /// Append the finished request to the shared history (§III-F). Not a
  /// pipeline stage: replayed requests must never append (the replay
  /// engine builds workflows without a history store).
  void record_history(StageState& st) const;

  /// The LLM stage under the resilience policies: breaker gate, bounded
  /// retries with budget-charged backoff, virtual-latency deadline checks.
  /// On loss of the stage, returns the extractive (or stub) fallback answer
  /// and records the ladder level in `ctx`.
  [[nodiscard]] llm::LlmResponse complete_resilient(
      const llm::LlmRequest& request, resilience::RequestContext& ctx) const;

  const KnowledgeBase& kb_;
  PipelineArm arm_;
  llm::SimLlm llm_;
  std::unique_ptr<Retriever> retriever_;
  history::HistoryStore* history_ = nullptr;
  pkb::util::SimClock* clock_ = nullptr;
};

}  // namespace pkb::rag
