#pragma once
// The executable stage graph over rag/stages.h: six Stage objects that,
// run in order against one StageState, reproduce AugmentedWorkflow::ask()
// content-identically (the parity suite in tests/stage_test.cpp gates
// this). The graph exists so the record/replay subsystem (src/replay/) can
// enter the pipeline at any cut point: seed the state with recorded
// artifacts for stages before `from`, then run_range(from, Postprocess).
//
// The stages are stateless (all per-request data lives in StageState), so
// one process-global graph serves every workflow and every thread.

#include <memory>
#include <optional>
#include <string_view>

#include "obs/trace.h"
#include "rag/stages.h"
#include "rag/workflow.h"

namespace pkb::rag {

/// The mutable state of one request moving through the graph. Everything a
/// stage reads or writes lives here; the workflow pointer supplies the
/// immutable configuration (retriever, model, history hooks).
struct StageState {
  const AugmentedWorkflow* wf = nullptr;
  std::string_view question;
  resilience::RequestContext* ctx = nullptr;

  /// The generation pinned by EmbedStage (or seeded by replay); documents
  /// referenced from `outcome` point into it.
  SnapshotPtr snapshot;
  WorkflowOutcome outcome;
  /// The LLM request assembled by PromptStage (kept here so history
  /// recording and trace capture can read the final context list).
  llm::LlmRequest request;

  /// The umbrella `retrieve` span covering Embed..Rerank. Held by pointer
  /// because obs::Span is RAII-only: EmbedStage opens it, RerankStage (or
  /// the fault handler in ask()) closes it. Replay runs with
  /// `open_retrieve_span = false` — each replayed stage gets its own
  /// `replay_stage` span instead, and an umbrella across separately
  /// wrapped stages would nest incorrectly.
  std::unique_ptr<obs::Span> retrieve_span;
  bool open_retrieve_span = true;

  /// Replay override for LlmRequest::max_attended_contexts (the context
  /// budget); applied by PromptStage after request assembly.
  std::optional<std::size_t> max_attended_override;

  /// Session hooks (serve/session.h): cross-turn context dedup and
  /// conversation-history append in PromptStage. Null for sessionless
  /// requests — the stage then behaves exactly as before.
  SessionPromptContext* session = nullptr;

  void close_retrieve_span() { retrieve_span.reset(); }
};

/// One pipeline stage: pure function of StageState (plus the workflow's
/// immutable configuration). run() may throw resilience::FaultError — the
/// caller owns degradation-ladder handling, exactly as ask() always has.
class Stage {
 public:
  virtual ~Stage() = default;
  [[nodiscard]] virtual StageKind kind() const = 0;
  virtual void run(StageState& st) const = 0;
};

/// The six stages in pipeline order. Stateless and immutable after
/// construction; access through global_stage_graph().
class StageGraph {
 public:
  StageGraph();
  [[nodiscard]] const Stage& stage(StageKind kind) const {
    return *stages_[static_cast<int>(kind)];
  }
  /// Run stages [first, last] in order. Stages guard themselves against
  /// configurations they don't apply to (Embed/Retrieve/Rerank are no-ops
  /// for a workflow without a retriever).
  void run_range(StageState& st, StageKind first, StageKind last) const;

 private:
  std::unique_ptr<Stage> stages_[kStageCount];
};

/// The process-global graph (stages are stateless, so one instance serves
/// every workflow).
[[nodiscard]] const StageGraph& global_stage_graph();

/// Capture every artifact of a completed (or seeded) StageState into a
/// StageTrace: configuration header from the workflow, stage artifacts from
/// the state. Used by ask() when recording and by the replay engine to
/// describe the replayed run.
void capture_stage_trace(const StageState& st, StageTrace& trace);

}  // namespace pkb::rag
