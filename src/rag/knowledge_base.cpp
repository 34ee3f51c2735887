#include "rag/knowledge_base.h"

#include <fstream>
#include <stdexcept>
#include <utility>

#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/binio.h"
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
  snap_.store(std::move(snap), std::memory_order_release);
}

KnowledgeBase::KnowledgeBase(KnowledgeBase&& other) noexcept {
  snap_.store(other.snap_.load(std::memory_order_acquire),
              std::memory_order_release);
  gen_.store(other.gen_.load(std::memory_order_acquire),
             std::memory_order_release);
}

KnowledgeBase& KnowledgeBase::operator=(KnowledgeBase&& other) noexcept {
  if (this != &other) {
    snap_.store(other.snap_.load(std::memory_order_acquire),
                std::memory_order_release);
    gen_.store(other.gen_.load(std::memory_order_acquire),
               std::memory_order_release);
  }
  return *this;
}

void Snapshot::attach_indexes() {
  ann = vectordb::build_index(store, opts.index);
}

double KnowledgeBase::publish(SnapshotPtr next) {
  if (next == nullptr) {
    throw std::invalid_argument("KnowledgeBase::publish: null snapshot");
  }
  std::lock_guard<std::mutex> lock(publish_mu_);
  const SnapshotPtr cur = snap_.load(std::memory_order_acquire);
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
  snap_.store(std::move(next), std::memory_order_release);
  gen_.store(generation, std::memory_order_release);
  const double seconds = watch.seconds();
  obs::global_metrics().histogram(obs::kKbSwapSeconds).observe(seconds);
  return seconds;
}

// ---------------------------------------------------------------------------
// Snapshot persistence.
//
// Layout: magic "PKBS" | u32 version | u64 generation |
//         u64 embedder_fit_generation | u64 chunks_at_fit | u64 source_count
//         | options (embedder, file_pattern, splitter fields, IndexSpec)
//         | VectorStore blob (its own magic/version; count, dim, raw rows)
//         | chunk section "CHNK": u64 count, then per chunk its id, text and
//           metadata (u64 count, key/value strings).
//
// Store row i embeds chunk record i; the chunk section is the file's only
// copy of the documents. The symbol index and the chunk analyses are
// rebuilt and the embedder refitted from the chunks — all deterministic, so
// the reloaded generation resolves keywords, reranks and embeds queries
// identically.
// ---------------------------------------------------------------------------

namespace {

constexpr char kSnapshotMagic[4] = {'P', 'K', 'B', 'S'};
constexpr char kChunkSectionMagic[4] = {'C', 'H', 'N', 'K'};
// Only the current version loads; no older snapshots are deployed, so an
// older file fails with "unsupported version" instead of being migrated.
// The options block ends with the IndexSpec: kind, then the HNSW options.
constexpr std::uint32_t kSnapshotVersion = 8;

void read_magic(std::istream& in, const char (&expect)[4], const char* what) {
  char magic[4] = {};
  pkb::util::read_bytes(in, magic, sizeof magic, what);
  if (std::string_view(magic, 4) != std::string_view(expect, 4)) {
    throw std::runtime_error(std::string("Snapshot::load: bad magic for ") +
                             what);
  }
}

void write_chunk(std::ostream& out, const text::Document& chunk) {
  namespace bin = pkb::util;
  bin::write_str(out, chunk.id);
  bin::write_str(out, chunk.text);
  bin::write_u64(out, chunk.metadata.size());
  for (const auto& [key, value] : chunk.metadata) {
    bin::write_str(out, key);
    bin::write_str(out, value);
  }
}

text::Document read_chunk(std::istream& in) {
  namespace bin = pkb::util;
  text::Document chunk;
  chunk.id = bin::read_str(in, "chunk id");
  chunk.text = bin::read_str(in, "chunk text");
  const std::uint64_t meta_count = bin::read_count(in, "metadata count");
  for (std::uint64_t m = 0; m < meta_count; ++m) {
    std::string key = bin::read_str(in, "metadata key");
    std::string value = bin::read_str(in, "metadata value");
    chunk.metadata.emplace(std::move(key), std::move(value));
  }
  return chunk;
}

}  // namespace

void Snapshot::save(const std::string& path) const {
  namespace bin = pkb::util;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw std::runtime_error("Snapshot::save: cannot open " + path);
  }
  out.write(kSnapshotMagic, sizeof kSnapshotMagic);
  bin::write_u32(out, kSnapshotVersion);
  bin::write_u64(out, generation);
  bin::write_u64(out, embedder_fit_generation);
  bin::write_u64(out, chunks_at_fit);
  bin::write_u64(out, source_count);
  bin::write_str(out, opts.embedder);
  bin::write_str(out, opts.file_pattern);
  bin::write_u64(out, opts.splitter.chunk_size);
  bin::write_u64(out, opts.splitter.chunk_overlap);
  bin::write_u32(out, opts.splitter.keep_separator ? 1 : 0);
  bin::write_u64(out, opts.splitter.separators.size());
  for (const std::string& sep : opts.splitter.separators) {
    bin::write_str(out, sep);
  }
  bin::write_u32(out, static_cast<std::uint32_t>(opts.index.kind));
  bin::write_u64(out, opts.index.hnsw.m);
  bin::write_u64(out, opts.index.hnsw.ef_construction);
  bin::write_u64(out, opts.index.hnsw.ef_search);
  bin::write_u64(out, opts.index.hnsw.seed);

  store.save(out);

  out.write(kChunkSectionMagic, sizeof kChunkSectionMagic);
  bin::write_u64(out, chunks.size());
  for (const text::Document& chunk : chunks) write_chunk(out, chunk);
  if (!out) {
    throw std::runtime_error("Snapshot::save: write failed for " + path);
  }
}

SnapshotPtr Snapshot::load(const std::string& path) {
  namespace bin = pkb::util;
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("Snapshot::load: cannot open " + path);
  }
  read_magic(in, kSnapshotMagic, "snapshot header");
  const std::uint32_t version = bin::read_u32(in, "snapshot version");
  if (version != kSnapshotVersion) {
    throw std::runtime_error("Snapshot::load: unsupported version " +
                             std::to_string(version));
  }
  auto snap = std::make_shared<Snapshot>();
  snap->generation = bin::read_u64(in, "generation");
  snap->embedder_fit_generation = bin::read_u64(in, "embedder_fit_generation");
  snap->chunks_at_fit = bin::read_count(in, "chunks_at_fit");
  snap->source_count = bin::read_count(in, "source_count");
  snap->opts.embedder = bin::read_str(in, "embedder name");
  snap->opts.file_pattern = bin::read_str(in, "file pattern");
  snap->opts.splitter.chunk_size = bin::read_count(in, "chunk_size");
  snap->opts.splitter.chunk_overlap = bin::read_count(in, "chunk_overlap");
  snap->opts.splitter.keep_separator =
      bin::read_u32(in, "keep_separator") != 0;
  const std::uint64_t n_separators =
      bin::read_count(in, "separator count", /*max=*/1024);
  snap->opts.splitter.separators.clear();
  for (std::uint64_t i = 0; i < n_separators; ++i) {
    snap->opts.splitter.separators.push_back(bin::read_str(in, "separator"));
  }
  const std::uint32_t kind = bin::read_u32(in, "index kind");
  if (kind != static_cast<std::uint32_t>(vectordb::IndexKind::Flat) &&
      kind != static_cast<std::uint32_t>(vectordb::IndexKind::Hnsw)) {
    throw std::runtime_error("Snapshot::load: unknown index kind " +
                             std::to_string(kind));
  }
  snap->opts.index.kind = static_cast<vectordb::IndexKind>(kind);
  snap->opts.index.hnsw.m =
      bin::read_count(in, "hnsw m", vectordb::kHnswMaxM);
  snap->opts.index.hnsw.ef_construction =
      bin::read_count(in, "hnsw ef_construction");
  snap->opts.index.hnsw.ef_search = bin::read_count(in, "hnsw ef_search");
  snap->opts.index.hnsw.seed = bin::read_u64(in, "hnsw seed");

  snap->store = vectordb::VectorStore::load(in);

  read_magic(in, kChunkSectionMagic, "chunk section");
  const std::uint64_t chunk_count = bin::read_count(in, "chunk count");
  if (chunk_count != snap->store.size()) {
    throw std::runtime_error(
        "Snapshot::load: chunk section disagrees with vector store size");
  }
  snap->chunks.reserve(chunk_count);
  for (std::uint64_t i = 0; i < chunk_count; ++i) {
    snap->chunks.push_back(read_chunk(in));
  }

  snap->symbols = std::make_shared<lexical::SymbolIndex>(snap->chunks);
  snap->analysis = lexical::CorpusAnalysis::build(snap->chunks);

  std::unique_ptr<embed::Embedder> embedder =
      embed::make_embedder(snap->opts.embedder);
  embedder->fit(snap->analysis->chunks);
  if (snap->embedder_fit_generation == snap->generation) {
    // The saved embedder was fitted on exactly this chunk list; refitting
    // reproduces it, so the stored vectors are kept bit-exact.
    if (!snap->chunks.empty() &&
        embedder->dimension() != snap->store.dimension()) {
      throw std::runtime_error(
          "Snapshot::load: refitted embedder dimension disagrees with "
          "stored vectors");
    }
  } else {
    // Delta generation: its embedder was fitted on an older chunk list that
    // the file does not carry. Reload as a refit generation — re-embed the
    // chunks with the freshly fitted embedder so store and queries agree.
    snap->store =
        vectordb::VectorStore::from_analyses(snap->analysis->chunks, *embedder);
    snap->embedder_fit_generation = snap->generation;
    snap->chunks_at_fit = snap->chunks.size();
  }
  snap->embedder = std::move(embedder);
  snap->attach_indexes();

  PKB_LOG(Info, "rag") << "snapshot loaded: generation " << snap->generation
                       << ", " << snap->chunks.size() << " chunks from "
                       << path;
  return snap;
}

}  // namespace pkb::rag
