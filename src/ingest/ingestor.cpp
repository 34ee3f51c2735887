#include "ingest/ingestor.h"

#include <cmath>
#include <span>
#include <string>
#include <unordered_set>
#include <utility>

#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/clock.h"
#include "util/log.h"

namespace pkb::ingest {

Ingestor::Ingestor(rag::KnowledgeBase& kb, IngestorOptions opts)
    : kb_(kb), opts_(opts) {}

rag::SnapshotPtr Ingestor::ingest_qa(std::string_view source_id,
                                     std::string_view title,
                                     std::string_view question,
                                     std::string_view answer) {
  text::VirtualFile file;
  file.path = std::string(source_id);
  file.content = "# " + std::string(title) + "\n\n## Question\n\n" +
                 std::string(question) + "\n\n## Answer\n\n" +
                 std::string(answer) + "\n";
  return ingest_files({std::move(file)});
}

rag::SnapshotPtr Ingestor::ingest_files(const text::VirtualDir& files) {
  if (files.empty()) return nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  obs::MetricsRegistry& metrics = obs::global_metrics();

  // Chaos gate: a transient fault earns one immediate retry; a permanent or
  // timeout fault aborts this build — readers keep the base generation.
  if (fault_plan_ != nullptr) {
    const auto abort_build = [this](const char* reason) -> rag::SnapshotPtr {
      obs::global_metrics()
          .counter(obs::kResilienceIngestAbortsTotal, {{"reason", reason}})
          .inc();
      PKB_LOG(Warn, "ingest")
          << "build aborted (" << reason << " fault); base generation kept";
      return nullptr;
    };
    bool retried = false;
    for (;;) {
      try {
        resilience::consult(fault_plan_, resilience::Stage::Ingest);
        break;
      } catch (const resilience::TransientError&) {
        if (!retried) {
          retried = true;
          continue;
        }
        return abort_build("transient");
      } catch (const resilience::TimeoutError&) {
        return abort_build("timeout");
      } catch (const resilience::PermanentError&) {
        return abort_build("permanent");
      }
    }
  }

  const rag::SnapshotPtr base = kb_.snapshot();

  obs::Span span(obs::global_tracer(), obs::kSpanIngestBuild);
  span.set_attr("base_generation", base->generation);
  span.set_attr("files", files.size());
  pkb::util::Stopwatch watch;

  // Chunk the incoming documents exactly as the initial build did.
  const text::MarkdownLoader md_loader(text::MarkdownMode::Single,
                                       /*drop_headings=*/true);
  const std::vector<text::Document> docs = md_loader.load(files);
  const text::RecursiveCharacterTextSplitter splitter(base->opts.splitter);
  std::vector<text::Document> new_chunks = splitter.split_documents(docs);

  // Upsert semantics: a re-ingested source replaces its previous chunks.
  std::unordered_set<std::string_view> new_sources;
  for (const text::VirtualFile& file : files) new_sources.insert(file.path);

  auto next = std::make_shared<rag::Snapshot>();
  next->generation = base->generation + 1;
  next->opts = base->opts;

  std::vector<std::size_t> retained;
  retained.reserve(base->chunks.size());
  for (std::size_t i = 0; i < base->chunks.size(); ++i) {
    if (!new_sources.contains(base->chunks[i].meta("source"))) {
      retained.push_back(i);
    }
  }
  next->chunks.reserve(retained.size() + new_chunks.size());
  for (std::size_t i : retained) next->chunks.push_back(base->chunks[i]);
  for (text::Document& chunk : new_chunks) {
    next->chunks.push_back(std::move(chunk));
  }
  const std::size_t n_new = next->chunks.size() - retained.size();

  // Retained chunks keep the base generation's analyses; only the new
  // chunks are analysed, and the term statistics follow the delta.
  next->analysis = lexical::CorpusAnalysis::next(
      *base->analysis, retained,
      std::span<const text::Document>(next->chunks).last(n_new));

  // Refit when the chunk list has drifted too far from the corpus the
  // embedder was fitted on; otherwise delta-merge with the base embedder.
  const double drift =
      base->chunks_at_fit == 0
          ? 1.0
          : std::abs(static_cast<double>(next->chunks.size()) -
                     static_cast<double>(base->chunks_at_fit)) /
                static_cast<double>(base->chunks_at_fit);
  const bool refit = drift > opts_.refit_drift_threshold;
  span.set_attr("refit", refit);
  if (refit) {
    std::unique_ptr<embed::Embedder> embedder =
        embed::make_embedder(next->opts.embedder);
    embedder->fit(next->analysis->chunks);
    next->store = vectordb::VectorStore::from_analyses(next->analysis->chunks,
                                                       *embedder);
    next->embedder = std::move(embedder);
    next->embedder_fit_generation = next->generation;
    next->chunks_at_fit = next->chunks.size();
    metrics.counter(obs::kIngestRefitsTotal).inc();
  } else {
    // Retained rows are copied once, bit-identically, from the base's
    // packed block — old chunks score exactly as they did in the base
    // generation. The new chunks are embedded in place. The row count is
    // known, so the packed block is allocated once at its exact size.
    next->store = vectordb::VectorStore(base->store.dimension());
    next->store.reserve(retained.size() + n_new);
    for (std::size_t i : retained) {
      next->store.add_prenormalized(base->store.vec(i));
    }
    if (n_new > 0) {
      for (embed::Vector& vec : base->embedder->embed_batch(
               std::span<const text::AnalysisPtr>(next->analysis->chunks)
                   .last(n_new))) {
        next->store.add(std::move(vec));
      }
    }
    next->embedder = base->embedder;
    next->embedder_fit_generation = base->embedder_fit_generation;
    next->chunks_at_fit = base->chunks_at_fit;
  }
  next->symbols = std::make_shared<lexical::SymbolIndex>(next->chunks);
  // The new generation carries its own ANN index (built before publish, so
  // no reader ever sees a snapshot without one).
  next->attach_indexes();

  std::unordered_set<std::string_view> sources;
  for (const text::Document& chunk : next->chunks) {
    sources.insert(chunk.meta("source"));
  }
  next->source_count = sources.size();

  const double build_seconds = watch.seconds();
  metrics.histogram(obs::kIngestBuildSeconds).observe(build_seconds);
  metrics.counter(obs::kIngestBuildsTotal).inc();
  metrics.counter(obs::kIngestDocsTotal).inc(docs.size());
  metrics.counter(obs::kIngestChunksTotal).inc(n_new);
  span.set_attr("generation", next->generation);
  span.set_attr("chunks", next->chunks.size());
  span.set_attr("new_chunks", n_new);

  const double swap_seconds = kb_.publish(next);
  swap_seconds_.push_back(swap_seconds);

  PKB_LOG(Info, "ingest") << "published generation " << next->generation
                          << ": " << docs.size() << " docs, " << n_new
                          << " new chunks, " << next->chunks.size()
                          << " total" << (refit ? ", embedder refit" : "")
                          << " (build " << build_seconds << "s, swap "
                          << swap_seconds << "s)";
  return next;
}

std::vector<double> Ingestor::swap_history() const {
  std::lock_guard<std::mutex> lock(mu_);
  return swap_seconds_;
}

}  // namespace pkb::ingest
