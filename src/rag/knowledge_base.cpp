#include "rag/knowledge_base.h"

#include <stdexcept>
#include <utility>

#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/clock.h"
#include "util/log.h"

namespace pkb::rag {

namespace {

void publish_kb_gauges(const Snapshot& snap) {
  obs::MetricsRegistry& metrics = obs::global_metrics();
  metrics.gauge(obs::kKbGeneration).set(static_cast<double>(snap.generation));
  metrics.gauge(obs::kKbChunks).set(static_cast<double>(snap.chunks.size()));
}

}  // namespace

KnowledgeBase KnowledgeBase::build(const text::VirtualDir& corpus,
                                   KnowledgeBaseOptions opts) {
  auto snap = std::make_shared<Snapshot>();
  snap->generation = 1;
  snap->opts = std::move(opts);

  const text::DirectoryLoader dir_loader(snap->opts.file_pattern);
  const text::MarkdownLoader md_loader(text::MarkdownMode::Single,
                                       /*drop_headings=*/true);
  const std::vector<text::Document> docs =
      md_loader.load(dir_loader.load(corpus));
  snap->source_count = docs.size();

  const text::RecursiveCharacterTextSplitter splitter(snap->opts.splitter);
  snap->chunks = splitter.split_documents(docs);

  // Analyse each chunk once; the embedder fits on and embeds from the
  // analyses, and the rerankers score against them.
  snap->analysis = lexical::CorpusAnalysis::build(snap->chunks);
  std::unique_ptr<embed::Embedder> embedder =
      embed::make_embedder(snap->opts.embedder);
  embedder->fit(snap->analysis->chunks);
  snap->store =
      vectordb::VectorStore::from_analyses(snap->analysis->chunks, *embedder);
  snap->embedder = std::move(embedder);
  snap->symbols = std::make_shared<lexical::SymbolIndex>(snap->chunks);
  snap->embedder_fit_generation = 1;
  snap->chunks_at_fit = snap->chunks.size();
  snap->attach_indexes();

  PKB_LOG(Info, "rag") << "knowledge base built: generation 1, "
                       << snap->source_count << " documents, "
                       << snap->chunks.size() << " chunks, embedder "
                       << snap->embedder->name() << " (dim "
                       << snap->embedder->dimension() << ")";
  return KnowledgeBase(std::move(snap));
}

KnowledgeBase::KnowledgeBase(SnapshotPtr snap) {
  if (snap == nullptr) {
    throw std::invalid_argument("KnowledgeBase: null snapshot");
  }
  gen_.store(snap->generation, std::memory_order_release);
  publish_kb_gauges(*snap);
  snap_ = std::move(snap);
}

KnowledgeBase::KnowledgeBase(KnowledgeBase&& other) noexcept
    : snap_(other.snapshot()) {
  gen_.store(other.gen_.load(std::memory_order_acquire),
             std::memory_order_release);
}

void Snapshot::attach_indexes() {
  ann = vectordb::build_index(store, opts.index);
}

double KnowledgeBase::publish(SnapshotPtr next) {
  if (next == nullptr) {
    throw std::invalid_argument("KnowledgeBase::publish: null snapshot");
  }
  std::lock_guard<std::mutex> lock(publish_mu_);
  const SnapshotPtr cur = snapshot();
  if (next->generation <= cur->generation) {
    throw std::logic_error(
        "KnowledgeBase::publish: generation must increase (current " +
        std::to_string(cur->generation) + ", got " +
        std::to_string(next->generation) + ")");
  }

  obs::Span span(obs::global_tracer(), obs::kSpanKbSwap);
  span.set_attr("from", cur->generation);
  span.set_attr("to", next->generation);
  pkb::util::Stopwatch watch;
  const std::uint64_t generation = next->generation;
  publish_kb_gauges(*next);
  {
    std::lock_guard<std::mutex> lock(snap_mu_);
    snap_.swap(next);  // `next` now holds the superseded generation
  }
  gen_.store(generation, std::memory_order_release);
  const double seconds = watch.seconds();
  obs::global_metrics().histogram(obs::kKbSwapSeconds).observe(seconds);
  return seconds;
}

}  // namespace pkb::rag
