#pragma once
// Generational retrieval substrate — the vector database of §III-A as an
// RCU-style sequence of immutable generations.
//
// A `Snapshot` is one immutable generation of the knowledge base: chunked
// corpus + per-chunk text analyses and term statistics (built first: the
// embedder fits on and embeds from them, the rerankers score against them)
// + fitted embedder + vector store + symbol index, stamped with a
// monotonically increasing generation id. `KnowledgeBase` holds a
// shared_ptr to the current snapshot: readers pin a generation with
// snapshot() (one short lock to copy the pointer) and keep using it for as
// long as they hold the pointer, while the ingest subsystem (src/ingest/)
// builds the next generation off to the side and publish()es it with a
// single pointer swap. In-flight queries are never torn across generations,
// and a publish holds readers up for no longer than that swap.
//
// This is how the paper's central loop — resolved conversations curated
// back into the corpus so the next question retrieves from a richer KB
// (§II, §V) — runs without a process restart.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "embed/embedder.h"
#include "lexical/keyword_search.h"
#include "lexical/term_stats.h"
#include "text/loader.h"
#include "text/splitter.h"
#include "vectordb/index.h"
#include "vectordb/vector_store.h"

namespace pkb::rag {

/// Build configuration, shared by the initial build and every later
/// ingest-built generation (carried inside each Snapshot).
struct KnowledgeBaseOptions {
  /// Embedding model registry name.
  std::string embedder = "sim-embed-3-large";
  /// Glob selecting corpus files.
  std::string file_pattern = "**/*.md";
  /// Chunking parameters (LangChain-style defaults scaled to manual pages).
  text::SplitterOptions splitter = {.chunk_size = 700,
                                    .chunk_overlap = 100,
                                    .separators = {"\n\n", "\n", " ", ""},
                                    .keep_separator = false};
  /// Search path for the snapshot's searches (vectordb/index.h): the flat
  /// scan or HNSW over fp32 rows. The default (flat) builds no index and
  /// keeps the exact scan. Rebuilt per generation on every ingest publish.
  vectordb::IndexSpec index;
};

/// One immutable generation: everything retrieval needs, bundled. Invariant:
/// store row i embeds `chunks[i]`; the store holds no documents, so
/// `chunks` is the generation's only document list. `symbols` and
/// `analysis->chunks` index into `chunks` too. Never mutated after
/// publish — share freely across threads via SnapshotPtr.
struct Snapshot {
  /// Monotonic generation id; the initial build is generation 1.
  std::uint64_t generation = 0;
  KnowledgeBaseOptions opts;
  /// The chunked corpus; search hits resolve to `&chunks[hit.index]`.
  std::vector<text::Document> chunks;
  /// Fitted embedder. Shared between delta generations; replaced only by a
  /// full refit (see embedder_fit_generation).
  std::shared_ptr<const embed::Embedder> embedder;
  vectordb::VectorStore store;
  /// HNSW index over `store` per opts.index (null for the flat spec). The
  /// retriever routes first-pass searches through it when present.
  std::shared_ptr<const vectordb::HnswIndex> ann;
  std::shared_ptr<const lexical::SymbolIndex> symbols;
  /// Each chunk analysed once plus the term statistics over them: the
  /// embedder fits on and embeds from the analyses, the rerankers score
  /// against both. Built first with the generation, never per request.
  std::shared_ptr<const lexical::CorpusAnalysis> analysis;
  /// Number of source documents that contributed to `chunks`.
  std::size_t source_count = 0;
  /// Generation at which `embedder` was last fitted: delta generations
  /// (same embedder) keep their base's value, a refit sets its own.
  std::uint64_t embedder_fit_generation = 0;
  /// Chunk count at the last embedder fit; the ingestor's drift check
  /// compares growth since then against its refit threshold.
  std::size_t chunks_at_fit = 0;

  /// (Re)build `ann` from `store` per opts.index (null for the flat spec).
  /// Called by build() and by the ingestor after assembling a new
  /// generation.
  void attach_indexes();
};

using SnapshotPtr = std::shared_ptr<const Snapshot>;

/// The generational knowledge base: the current-snapshot pointer plus the
/// publish protocol. A reader waits at most for one pointer copy or swap;
/// a reader's pinned snapshot stays fully usable (and alive) across any
/// number of publishes.
/// Every reader pins snapshot() once and reads from that generation.
class KnowledgeBase {
 public:
  /// Build generation 1 from an in-memory corpus tree.
  static KnowledgeBase build(const text::VirtualDir& corpus,
                             KnowledgeBaseOptions opts = {});

  /// Adopt an already-assembled snapshot as the current generation.
  explicit KnowledgeBase(SnapshotPtr snap);

  /// Move-constructible (factory return, test fixtures); moving while other
  /// threads use the source is undefined, as for any container.
  KnowledgeBase(KnowledgeBase&& other) noexcept;
  KnowledgeBase(const KnowledgeBase&) = delete;
  KnowledgeBase& operator=(const KnowledgeBase&) = delete;

  /// Pin the current generation. The returned snapshot (and every pointer
  /// into it) stays valid for as long as the caller holds the SnapshotPtr,
  /// regardless of later publishes.
  [[nodiscard]] SnapshotPtr snapshot() const {
    std::lock_guard<std::mutex> lock(snap_mu_);
    return snap_;
  }

  /// Current generation id without pinning.
  [[nodiscard]] std::uint64_t generation() const {
    return gen_.load(std::memory_order_acquire);
  }

  /// Publish `next` as the current generation: one pointer swap.
  /// In-flight readers keep their pinned snapshot; new snapshot() calls see
  /// `next`. Requires next->generation > generation() (publishers are
  /// serialized internally; a stale build throws std::logic_error).
  /// Returns the seconds spent inside the swap critical section (what
  /// perfbench's live_ingest reports as ingest.swap_us).
  double publish(SnapshotPtr next);

 private:
  // A mutex, not std::atomic<SnapshotPtr>: libstdc++ 12's atomic shared_ptr
  // load() releases its internal lock with relaxed order, so its read of the
  // pointer is not ordered before a later store's write (ThreadSanitizer
  // reports it under PublishUnderReads.*). The lock is held only to copy or
  // swap the pointer.
  mutable std::mutex snap_mu_;
  SnapshotPtr snap_;
  std::atomic<std::uint64_t> gen_{0};
  mutable std::mutex publish_mu_;  ///< serializes publishers only
};

}  // namespace pkb::rag
