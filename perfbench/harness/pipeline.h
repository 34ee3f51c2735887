#pragma once
// The system under test as the harness drives it: knowledge-base set-up
// with its cost split, the six stages called through their public entry
// points (the traced path), the session state a SessionManager lane keeps,
// curated Q&A for the ingest writer, and the serial reference answers.

#include <deque>
#include <map>
#include <memory>
#include <string>
#include <unordered_set>

#include "common.h"
#include "ingest/ingestor.h"
#include "rag/stages.h"
#include "serve/session.h"
#include "spans.h"

namespace pkb::perfbench {

/// The corpus and index a workload serves from.
struct KbConfig {
  bool mailing_list_archive = false;
  std::size_t archive_threads = 800;  ///< petsc-users threads when included
  bool hnsw = false;
};

/// One built knowledge base and what each set-up step cost.
struct BuiltKb {
  std::unique_ptr<rag::KnowledgeBase> kb;
  double corpus_seconds = 0.0;  ///< corpus::generate_corpus
  double kb_seconds = 0.0;      ///< KnowledgeBase::build (flat)
  double index_seconds = 0.0;   ///< Snapshot::attach_indexes (vectordb::build_index)
  [[nodiscard]] double total() const {
    return corpus_seconds + kb_seconds + index_seconds;
  }
};

/// Set up at least `min_repeats` times and until `min_seconds` have passed
/// (each repeat replacing the last) and keep the last KB; the per-step
/// times of every repeat are returned for medians.
struct SetupSplit {
  std::vector<double> total, corpus, kb, index;
};
[[nodiscard]] BuiltKb build_kb_repeated(const KbConfig& cfg, int min_repeats,
                                        double min_seconds, SetupSplit& split);

/// The paper's headline arm over `kb`: RagRerank, sim-gpt-4o,
/// sim-flashrank, K=8 -> L=4.
[[nodiscard]] std::unique_ptr<rag::AugmentedWorkflow> headline_workflow(
    const rag::KnowledgeBase& kb);

/// One request through the stage entry points, bypassing the serve layer:
/// Retriever::{embed,search,augment,rerank}_stage, then the stage graph's
/// Prompt, Generate and Postprocess. With `spans` non-null each call gets a
/// span under one Request span. `llm_latency_scale` > 0 realizes the
/// simulated LLM latency as a sleep, as serve::Server does.
[[nodiscard]] rag::WorkflowOutcome run_stages(
    const rag::AugmentedWorkflow& wf, std::string_view question,
    SpanBuffer* spans, std::uint64_t request,
    rag::SessionPromptContext* session = nullptr,
    double llm_latency_scale = 0.0);

/// The per-session state a SessionManager lane keeps (retrieval memory and
/// conversation history), replayed outside the manager so a session's
/// turns can run through run_stages() or a serial AugmentedWorkflow::ask
/// with the same prompts a manager with default options builds.
class SessionReplica {
 public:
  explicit SessionReplica(std::string id) : id_(std::move(id)) {}

  /// Run one turn: `run(ctx)` executes the pipeline with the session hooks
  /// in `ctx`; the replica then records memory and history exactly as the
  /// manager does.
  template <typename RunFn>
  rag::WorkflowOutcome turn(const std::string& question, RunFn&& run) {
    rag::SessionPromptContext ctx;
    std::vector<llm::ContextDoc> history;
    prepare(ctx, history);
    rag::WorkflowOutcome out = std::forward<RunFn>(run)(ctx);
    record(question, ctx, out);
    return out;
  }

 private:
  void prepare(rag::SessionPromptContext& ctx,
               std::vector<llm::ContextDoc>& history) const;
  void record(const std::string& question, rag::SessionPromptContext& ctx,
              const rag::WorkflowOutcome& out);

  std::string id_;
  const serve::SessionOptions opts_;
  std::uint64_t turns_ = 0;
  std::unordered_set<std::string> seen_;
  std::deque<std::string> seen_order_;
  std::uint64_t memory_generation_ = 0;
  std::deque<llm::ContextDoc> history_;
};

/// Curated Q&A number `n` of the writer's seeded sequence, ingested through
/// Ingestor::ingest_qa (blocks until published).
rag::SnapshotPtr ingest_curated(ingest::Ingestor& ingestor,
                                std::uint64_t seed, std::uint64_t n);

/// Serial AugmentedWorkflow::ask against a pinned generation: one reference
/// workflow per snapshot, built on first use.
class Reference {
 public:
  [[nodiscard]] const rag::AugmentedWorkflow& on(const rag::SnapshotPtr& snap);

 private:
  struct Entry {
    std::unique_ptr<rag::KnowledgeBase> kb;
    std::unique_ptr<rag::AugmentedWorkflow> wf;
  };
  std::map<const rag::Snapshot*, Entry> by_snapshot_;
};

}  // namespace pkb::perfbench
