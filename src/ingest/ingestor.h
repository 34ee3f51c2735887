#pragma once
// Live knowledge-base ingestion — the paper's central curation loop (§II,
// §V): resolved conversations and new documentation flow back into the
// corpus so the next question retrieves from a richer knowledge base,
// without a process restart.
//
// The Ingestor builds the *next* generation off to the side of serving
// traffic: it pins the current Snapshot as its base, chunks the incoming
// documents with the base's splitter options, merges them with the retained
// base chunks (upsert by "source": re-ingesting a source replaces its old
// chunks), analyses only what is new (lexical::CorpusAnalysis::next), embeds
// it from those analyses, rebuilds the symbol index, and publishes the
// result through KnowledgeBase::publish() — one pointer swap.
//
// Embedder lifecycle: a delta build reuses the base's fitted embedder. Each
// retained row is copied once: its chunk into the next chunk list, its
// vector bit-identically from the base store's packed block
// (VectorStore::add_prenormalized), so existing chunks score exactly as
// before; only the new chunks are embedded. When the chunk list has
// drifted more than `refit_drift_threshold` since the embedder was last
// fitted, the build refits on the analyses of the full merged corpus and
// re-embeds everything — retrieval quality tracks the corpus at a bounded
// cost.
//
// Observable as the ingest_build span, the pkb_ingest_* counters and
// histogram, and the knowledge base's own generation gauge and kb_swap span
// (docs/OBSERVABILITY.md).

#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "rag/knowledge_base.h"
#include "resilience/fault_plan.h"

namespace pkb::ingest {

struct IngestorOptions {
  /// Fractional chunk-count growth since the last embedder fit that
  /// triggers a full refit + re-embed instead of a delta merge.
  double refit_drift_threshold = 0.25;
};

/// Builds and publishes knowledge-base generations. All entry points are
/// serialized internally, so concurrent callers (the chat bot's resolution
/// hook, a docs watcher) cannot race a build; readers of the KnowledgeBase
/// are never blocked.
class Ingestor {
 public:
  /// `kb` must outlive the ingestor.
  explicit Ingestor(rag::KnowledgeBase& kb, IngestorOptions opts = {});

  /// Ingest Markdown files: chunk, merge (upsert by path), publish. Returns
  /// the published snapshot, or nullptr when `files` is empty.
  rag::SnapshotPtr ingest_files(const text::VirtualDir& files);

  /// Ingest one resolved Q&A exchange as a synthetic Markdown document with
  /// path `source_id` (re-ingesting the same id updates it in place).
  rag::SnapshotPtr ingest_qa(std::string_view source_id,
                             std::string_view title, std::string_view question,
                             std::string_view answer);

  /// Seconds spent inside each publish's swap critical section, in publish
  /// order.
  [[nodiscard]] std::vector<double> swap_history() const;

  /// Attach a chaos plan (Stage::Ingest). A transient fault earns the build
  /// one immediate retry; a permanent or timeout fault aborts the build —
  /// the base generation stays published and the entry point returns
  /// nullptr (counted in pkb_resilience_ingest_aborts_total). Setup-time
  /// only; the plan must outlive the ingestor.
  void set_fault_plan(const resilience::FaultPlan* plan) {
    fault_plan_ = plan;
  }

  [[nodiscard]] const rag::KnowledgeBase& kb() const { return kb_; }
  [[nodiscard]] const IngestorOptions& options() const { return opts_; }

 private:
  rag::KnowledgeBase& kb_;
  IngestorOptions opts_;
  const resilience::FaultPlan* fault_plan_ = nullptr;
  mutable std::mutex mu_;  ///< serializes builds and guards the state below
  std::vector<double> swap_seconds_;
};

}  // namespace pkb::ingest
