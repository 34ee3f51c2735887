#pragma once
// The stage vocabulary of the Fig-3 pipeline and its serializable
// artifacts — the data half of the stage-graph refactor (the executable
// half lives in rag/stage_graph.h).
//
// Every ask() is the composition of six typed stages:
//
//   Embed -> Retrieve -> Rerank -> Prompt -> Generate -> Postprocess
//
// Each stage's output is an artifact plain enough to persist: no Document
// pointers, no snapshot handles — ids, scores, and strings only. A
// StageTrace bundles the artifacts of one request together with the
// pipeline configuration that produced them, which is exactly what the
// record/replay subsystem (src/replay/) persists and re-executes from:
// seeding the artifacts of stages [0, from) and running [from, end] gives
// time-travel debugging without redoing upstream work.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "embed/embedder.h"
#include "llm/types.h"

namespace pkb::rag {

/// The six stages, in pipeline order. Values are contiguous so ranges of
/// stages can be iterated ([Embed, Postprocess] is one full ask()).
enum class StageKind : int {
  Embed = 0,        ///< query embedding against the pinned snapshot
  Retrieve = 1,     ///< first-pass vector search + keyword augmentation
  Rerank = 2,       ///< cross-scoring K candidates down to L (or pass-through)
  Prompt = 3,       ///< LLM request assembly: contexts, session history, render
  Generate = 4,     ///< the (resilient) LLM completion
  Postprocess = 5,  ///< box 4: markdown/JSON postprocessing of the response
};

inline constexpr int kStageCount = 6;

[[nodiscard]] std::string_view to_string(StageKind kind);

/// Parse a stage name ("embed", ..., "postprocess"); nullopt when unknown.
[[nodiscard]] std::optional<StageKind> stage_from_name(std::string_view name);

/// Output of EmbedStage: which embedder ran and the query vector it
/// produced.
struct EmbedArtifact {
  std::string embedder;
  embed::Vector query_vec;
};

/// One retrieved candidate by reference: the chunk id plus provenance, the
/// serializable shadow of RetrievedContext (replay resolves ids back to
/// documents against a pinned snapshot).
struct ContextRef {
  std::string id;
  double score = 0.0;
  std::string via;
  std::uint64_t first_pass_rank = 0;
};

/// Output of RetrieveStage: the first-pass candidate set (vector + keyword,
/// pre-rerank).
struct RetrieveArtifact {
  std::vector<ContextRef> candidates;
};

/// Output of RerankStage: the final context list, best first.
struct RerankArtifact {
  std::vector<ContextRef> contexts;
  bool rerank_degraded = false;
};

/// Output of PromptStage: the fully assembled LLM request (document +
/// history contexts with their text, so replay needs no resolution) and the
/// rendered user prompt.
struct PromptArtifact {
  std::string system;
  std::vector<llm::ContextDoc> contexts;
  std::uint64_t max_attended = 4;
  std::string prompt;
};

/// Output of GenerateStage: the full LLM response.
struct GenerateArtifact {
  llm::LlmResponse response;
};

/// Output of PostprocessStage: the answer-facing summary of the processed
/// output (the full ProcessedOutput is derivable from the response text).
struct PostprocessArtifact {
  std::string plain_text;
  bool all_code_ok = true;
  std::uint64_t code_blocks = 0;
  std::vector<std::string> sources;
};

/// Per-turn session hooks threaded into PromptStage by the session serving
/// layer (serve/session.h). Prior turns are appended AFTER the document
/// contexts (they compete for the tail of the attention window), and the
/// session's retrieval memory drops chunks the session has already seen
/// from the prompt. The retrieval stages still run in full — replay traces
/// and retrieval metrics are unaffected; only prompt assembly changes.
struct SessionPromptContext {
  // --- inputs (owned by the session layer, alive for the whole turn) ------
  /// Chunk ids already shown to this session. Null (or absent ids)
  /// disables dedup — the session layer passes null for a fresh memory so
  /// an empty set is never mistaken for a stale one.
  const std::unordered_set<std::string>* seen_context_ids = nullptr;
  /// KnowledgeBase generation the memory was recorded under. Dedup applies
  /// only while the turn's pinned generation matches: after a mid-session
  /// publish any chunk may carry re-ingested content, so "already seen" no
  /// longer holds and the full context list is shown again (`memory_stale`
  /// reports the mismatch so the session layer resets its memory).
  std::uint64_t memory_generation = 0;
  /// Prior conversation turns, oldest first; appended after the document
  /// contexts.
  const std::vector<llm::ContextDoc>* history_contexts = nullptr;

  // --- outputs (filled by PromptStage) ------------------------------------
  std::size_t deduped = 0;           ///< document contexts dropped as seen
  std::size_t history_attached = 0;  ///< conversation contexts appended
  bool memory_stale = false;         ///< generation mismatch; dedup skipped
  /// Ids of the document contexts actually placed in the prompt — what the
  /// session layer records into its retrieval memory for the next turn.
  std::vector<std::string> attached_context_ids;
};

/// Everything one recorded request needs to be replayed from any stage:
/// the pipeline configuration header plus the six stage artifacts.
/// Persisted by replay::TraceRecorder (versioned binary, util/binio.h).
struct StageTrace {
  /// Request id, assigned by the recorder at persist time (0 = unsaved).
  std::uint64_t id = 0;

  // --- configuration header (what the workflow was built with) ------------
  std::string question;
  std::string arm;       ///< rag::to_string(PipelineArm)
  std::string model;     ///< llm::LlmConfig::name
  std::string reranker;  ///< RetrieverOptions::reranker ("" = plain RAG)
  std::uint64_t first_pass_k = 8;
  std::uint64_t final_l = 4;

  // --- outcome header -----------------------------------------------------
  std::uint64_t generation = 0;
  std::string degradation;  ///< resilience::to_string(DegradationLevel)
  std::uint64_t history_id = 0;
  double embed_seconds = 0.0;
  double search_seconds = 0.0;
  double rerank_seconds = 0.0;

  // --- per-stage artifacts ------------------------------------------------
  EmbedArtifact embed;
  RetrieveArtifact retrieve;
  RerankArtifact rerank;
  PromptArtifact prompt;
  GenerateArtifact generate;
  PostprocessArtifact post;
};

}  // namespace pkb::rag
