#pragma once
// The time-travel half of the record/replay subsystem: re-execute a
// recorded request (replay/trace.h) from any stage cut point, optionally
// with overridden pipeline parameters, without redoing the work upstream of
// the cut.
//
// The engine seeds a rag::StageState with the recorded artifacts of every
// stage before `from`, then runs [from, Postprocess] through the same
// global stage graph the live pipeline uses — so a replayed stage is the
// production code path, not a reimplementation. Replaying from
// GenerateStage performs zero embed/retrieve/rerank work and, because the
// simulated LLM is a pure function of (config, request), reproduces the
// recorded answer bit for bit; overriding a parameter (say first_pass_k)
// moves the effective cut upstream to the earliest stage the override
// invalidates and the diff report shows what changed downstream.

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "rag/stages.h"
#include "rag/workflow.h"

namespace pkb::replay {

/// What to change relative to the recorded run. Each override pulls the
/// effective start stage upstream at least to the stage it invalidates:
/// first_pass_k -> Retrieve; final_l / reranker -> Rerank; max_attended ->
/// Prompt; model -> Generate.
struct ReplayOverrides {
  /// Requested cut point: stages before it are seeded from the recording.
  rag::StageKind from = rag::StageKind::Generate;
  std::optional<std::size_t> first_pass_k;
  std::optional<std::size_t> final_l;
  std::optional<std::string> reranker;   ///< "" disables reranking
  std::optional<std::size_t> max_attended;
  std::optional<std::string> model;      ///< llm::model_config registry name
};

/// What changed between the recorded run and the replay. Sections upstream
/// of the effective cut are seeded from the recording and never diff; the
/// flags only compare what the replay actually recomputed.
struct ReplayDiff {
  std::vector<std::string> contexts_added;    ///< ids new in the replay
  std::vector<std::string> contexts_removed;  ///< recorded ids now absent
  bool context_order_changed = false;  ///< same set, different order
  bool prompt_changed = false;
  bool answer_changed = false;
  bool mode_changed = false;
  bool generation_changed = false;  ///< KB moved on since the recording
  /// Recorded context ids that no longer resolve against the live snapshot
  /// (the chunk was dropped by a later generation) — these explain context
  /// diffs, so tooling treats them as expected drift.
  std::vector<std::string> unresolved_contexts;
  std::string recorded_answer;
  std::string replayed_answer;
  std::string recorded_mode;
  std::string replayed_mode;

  [[nodiscard]] bool any() const {
    return !contexts_added.empty() || !contexts_removed.empty() ||
           context_order_changed || prompt_changed || answer_changed ||
           mode_changed || generation_changed;
  }
  /// Multi-line human-readable report (the pkb_cli `:rdiff` output).
  [[nodiscard]] std::string summary() const;
};

/// One replay's outcome.
struct ReplayResult {
  rag::WorkflowOutcome outcome;
  /// Full stage trace of the replayed run (same shape as the recording, so
  /// a replay can itself be saved and re-replayed).
  rag::StageTrace trace;
  /// The effective cut point (<= overrides.from when an override moved it).
  rag::StageKind from = rag::StageKind::Generate;
  ReplayDiff diff;
};

/// Re-executes recorded traces against a knowledge base. Thread-safe; the
/// workflows it builds (one per distinct trace-header + override
/// configuration) are cached and have no history store attached — replays
/// never append to the shared history.
class ReplayEngine {
 public:
  explicit ReplayEngine(const rag::KnowledgeBase& kb);

  /// Replay `recorded` from `overrides.from` (pulled upstream as overrides
  /// require). Emits pkb_replay_replays_total / stages_run / stages_skipped
  /// / diffs_total and a replay_stage span per executed stage. Throws
  /// std::runtime_error for an unknown arm/stage name in the trace header.
  [[nodiscard]] ReplayResult replay(const rag::StageTrace& recorded,
                                    const ReplayOverrides& overrides = {}) const;

 private:
  [[nodiscard]] const rag::AugmentedWorkflow& workflow_for(
      const rag::StageTrace& recorded, const ReplayOverrides& ov) const;

  const rag::KnowledgeBase& kb_;
  mutable std::mutex mu_;
  mutable std::map<std::string, std::unique_ptr<rag::AugmentedWorkflow>>
      workflows_;
};

}  // namespace pkb::replay
