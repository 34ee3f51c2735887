// Micro-benchmarks of the embedding substrate: fit and per-query embedding
// throughput for every embedder family. The chunks are analysed once, as a
// snapshot build does, so fit and batch embedding read those analyses; a
// query embedding analyses the query first, as the Embed stage does.
#include <benchmark/benchmark.h>

#include <map>
#include <memory>

#include "corpus/generator.h"
#include "embed/embedder.h"
#include "lexical/term_stats.h"
#include "text/loader.h"
#include "text/splitter.h"

namespace {

using pkb::embed::Embedder;

const std::vector<pkb::text::Document>& corpus_chunks() {
  static const auto* chunks = [] {
    const auto tree = pkb::corpus::generate_corpus();
    const pkb::text::MarkdownLoader loader(pkb::text::MarkdownMode::Single,
                                           /*drop_headings=*/true);
    const pkb::text::RecursiveCharacterTextSplitter splitter;
    return new std::vector<pkb::text::Document>(
        splitter.split_documents(loader.load(tree)));
  }();
  return *chunks;
}

const pkb::text::Analyses& chunk_analyses() {
  static const auto analysis =
      pkb::lexical::CorpusAnalysis::build(corpus_chunks());
  return analysis->chunks;
}

const Embedder& fitted(const std::string& name) {
  static std::map<std::string, std::unique_ptr<Embedder>> cache;
  auto it = cache.find(name);
  if (it == cache.end()) {
    auto embedder = pkb::embed::make_embedder(name);
    embedder->fit(chunk_analyses());
    it = cache.emplace(name, std::move(embedder)).first;
  }
  return *it->second;
}

constexpr const char* kQuery =
    "Can I use KSP to solve a system where the matrix is not square, only "
    "rectangular?";

void BM_EmbedderFit(benchmark::State& state, const std::string& name) {
  const auto& chunks = chunk_analyses();
  for (auto _ : state) {
    auto embedder = pkb::embed::make_embedder(name);
    embedder->fit(chunks);
    benchmark::DoNotOptimize(embedder->dimension());
  }
  state.counters["chunks"] = static_cast<double>(chunks.size());
}

void BM_EmbedQuery(benchmark::State& state, const std::string& name) {
  const Embedder& embedder = fitted(name);
  for (auto _ : state) {
    auto vec = embedder.embed(pkb::text::analyze(kQuery));
    benchmark::DoNotOptimize(vec.data());
  }
  state.counters["dim"] = static_cast<double>(embedder.dimension());
}

void BM_EmbedBatch(benchmark::State& state, const std::string& name) {
  const Embedder& embedder = fitted(name);
  const auto& chunks = chunk_analyses();
  for (auto _ : state) {
    auto vecs = embedder.embed_batch(chunks);
    benchmark::DoNotOptimize(vecs.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(chunks.size()));
}

}  // namespace

BENCHMARK_CAPTURE(BM_EmbedderFit, tfidf, std::string("sim-tfidf"));
BENCHMARK_CAPTURE(BM_EmbedderFit, lsa32, std::string("sim-lsa-32"));
BENCHMARK_CAPTURE(BM_EmbedderFit, blend, std::string("sim-embed-3-large"));
BENCHMARK_CAPTURE(BM_EmbedQuery, tfidf, std::string("sim-tfidf"));
BENCHMARK_CAPTURE(BM_EmbedQuery, hash512, std::string("sim-hash-512"));
BENCHMARK_CAPTURE(BM_EmbedQuery, lsa32, std::string("sim-lsa-32"));
BENCHMARK_CAPTURE(BM_EmbedQuery, charngram, std::string("sim-charngram-512"));
BENCHMARK_CAPTURE(BM_EmbedQuery, blend, std::string("sim-embed-3-large"));
BENCHMARK_CAPTURE(BM_EmbedBatch, blend, std::string("sim-embed-3-large"));

BENCHMARK_MAIN();
