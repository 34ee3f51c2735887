#include "rag/retriever.h"

#include <algorithm>
#include <unordered_map>

#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/clock.h"

namespace pkb::rag {

namespace {

/// Hedged re-attempts of a faulted vector search before the fault stands.
constexpr std::uint32_t kSearchHedges = 1;

}  // namespace

void Retriever::observe_retrieval_metrics(const RetrievalResult& result) const {
  obs::MetricsRegistry& metrics = obs::global_metrics();
  metrics.histogram(obs::kRetrieveEmbedSeconds).observe(result.embed_seconds);
  metrics.histogram(obs::kRetrieveSearchSeconds)
      .observe(result.search_seconds);
  metrics.histogram(obs::kRetrieveRagSeconds).observe(result.rag_seconds());
}

Retriever::Retriever(const KnowledgeBase& kb, RetrieverOptions opts)
    : kb_(kb), opts_(std::move(opts)) {
  if (!opts_.reranker.empty()) {
    reranker_ = rerank::make_reranker(opts_.reranker);
  }
}

void Retriever::set_fault_plan(const pkb::resilience::FaultPlan* plan) {
  fault_plan_ = plan;
  if (reranker_ != nullptr) reranker_->set_fault_plan(plan);
}

std::vector<vectordb::SearchResult> Retriever::first_pass_hits(
    const Snapshot& snap, const embed::Vector& query_vec) const {
  namespace res = pkb::resilience;
  for (std::uint32_t attempt = 0;; ++attempt) {
    try {
      res::consult(fault_plan_, res::Stage::VectorSearch);
      std::vector<vectordb::SearchResult> hits =
          snap.ann != nullptr
              ? snap.ann->search(query_vec, opts_.first_pass_k)
              : snap.store.similarity_search(query_vec, opts_.first_pass_k);
      if (attempt > 0) {
        obs::global_metrics()
            .counter(obs::kResilienceHedgeWinsTotal,
                     {{"stage", "vector_search"}})
            .inc();
      }
      return hits;
    } catch (const res::FaultError&) {
      if (attempt >= kSearchHedges) throw;
      obs::global_metrics()
          .counter(obs::kResilienceHedgesTotal, {{"stage", "vector_search"}})
          .inc();
      obs::Span span(obs::global_tracer(), obs::kSpanHedge);
      span.set_attr("stage", "vector_search");
      span.set_attr("attempt", static_cast<std::uint64_t>(attempt) + 1);
    }
  }
}

void Retriever::embed_stage(const Snapshot& snap, std::string_view query,
                            RetrievalResult& result) const {
  pkb::util::Stopwatch watch;
  auto vec = std::make_shared<embed::Vector>();
  std::shared_ptr<const text::QueryAnalysis> analysis;
  {
    obs::Span embed_span(obs::global_tracer(), obs::kSpanEmbedQuery);
    analysis =
        std::make_shared<const text::QueryAnalysis>(text::analyze(query));
    *vec = snap.embedder->embed(*analysis);
    embed_span.set_attr("embedder", snap.embedder->name());
    embed_span.set_attr("dim", vec->size());
  }
  result.query_analysis = std::move(analysis);
  result.query_embedding = std::move(vec);
  result.embed_seconds = watch.seconds();
}

std::vector<vectordb::SearchResult> Retriever::search_stage(
    const Snapshot& snap, const embed::Vector& query_vec,
    RetrievalResult& result) const {
  pkb::util::Stopwatch watch;
  std::vector<vectordb::SearchResult> vector_hits;
  {
    obs::Span search_span(obs::global_tracer(), obs::kSpanVectorSearch);
    vector_hits = first_pass_hits(snap, query_vec);
    search_span.set_attr("hits", vector_hits.size());
  }
  result.search_seconds = watch.seconds();
  return vector_hits;
}

void Retriever::augment_stage(
    const Snapshot& snap, std::string_view /*query*/,
    const std::vector<vectordb::SearchResult>& vector_hits,
    RetrievalResult& result) const {
  obs::MetricsRegistry& metrics = obs::global_metrics();
  pkb::util::Stopwatch watch;

  // --- First pass 2/2: PETSc keyword augmentation (§III-C). ---
  // Vector hits and keyword hits both resolve to rows of the snapshot's
  // chunk list; candidates dedup by chunk id. They are built in place as the
  // result's first pass.
  std::vector<RetrievedContext>& candidates = result.first_pass;
  candidates.clear();
  std::unordered_map<std::string_view, std::size_t> pos;
  for (const vectordb::SearchResult& hit : vector_hits) {
    RetrievedContext ctx;
    ctx.doc = &snap.chunks[hit.index];
    ctx.row = hit.index;
    ctx.score = hit.score;
    ctx.via = "vector";
    ctx.first_pass_rank = candidates.size();
    pos.emplace(ctx.doc->id, candidates.size());
    candidates.push_back(std::move(ctx));
  }
  if (opts_.use_keyword_search) {
    obs::Span keyword_span(obs::global_tracer(), obs::kSpanKeywordAugment);
    std::size_t added = 0;
    std::size_t merged = 0;
    for (const lexical::KeywordHit& hit :
         snap.symbols->lookup(result.query_analysis->symbols)) {
      for (std::size_t chunk_index : hit.chunks) {
        const text::Document* doc = &snap.chunks[chunk_index];
        auto it = pos.find(std::string_view(doc->id));
        if (it != pos.end()) {
          if (candidates[it->second].via == "vector") ++merged;
          candidates[it->second].via = "vector+keyword";
          continue;
        }
        RetrievedContext ctx;
        ctx.doc = doc;
        ctx.row = chunk_index;
        ctx.score = 0.0;  // keyword hits carry no embedding score
        ctx.via = "keyword";
        ctx.first_pass_rank = candidates.size();
        pos.emplace(std::string_view(doc->id), candidates.size());
        candidates.push_back(std::move(ctx));
        ++added;
      }
    }
    keyword_span.set_attr("added", added);
    keyword_span.set_attr("merged", merged);
  }
  result.search_seconds += watch.seconds();

  // Candidate provenance counters (one registry lookup per label value).
  {
    std::size_t by_via[3] = {0, 0, 0};
    for (const RetrievedContext& ctx : candidates) {
      if (ctx.via == "vector") ++by_via[0];
      else if (ctx.via == "keyword") ++by_via[1];
      else ++by_via[2];
    }
    static constexpr std::string_view kVia[3] = {"vector", "keyword",
                                                 "vector+keyword"};
    for (int i = 0; i < 3; ++i) {
      if (by_via[i] > 0) {
        metrics
            .counter(obs::kRetrieveCandidatesTotal,
                     {{"via", std::string(kVia[i])}})
            .inc(by_via[i]);
      }
    }
  }
}

void Retriever::rerank_stage(const Snapshot& snap,
                             std::string_view /*query*/,
                             RetrievalResult& result) const {
  // --- Second pass: reranking K (+ keyword extras) down to L (§III-D). ---
  const std::vector<RetrievedContext>& candidates = result.first_pass;
  if (reranker_ != nullptr) {
    pkb::util::Stopwatch watch;
    obs::Span rerank_span(obs::global_tracer(), obs::kSpanRerank);
    rerank_span.set_attr("reranker", reranker_->name());
    rerank_span.set_attr("in", candidates.size());
    std::vector<rerank::RerankCandidate> rc;
    rc.reserve(candidates.size());
    for (const RetrievedContext& ctx : candidates) {
      rc.push_back(rerank::RerankCandidate{ctx.doc, ctx.row,
                                           static_cast<float>(ctx.score)});
    }
    try {
      const auto reranked =
          reranker_->rerank(*result.query_analysis, *snap.analysis, rc,
                            opts_.final_l);
      result.contexts.clear();
      for (const rerank::RerankResult& rr : reranked) {
        RetrievedContext ctx = candidates[rr.original_rank];
        ctx.score = rr.score;
        result.contexts.push_back(std::move(ctx));
      }
    } catch (const pkb::resilience::FaultError&) {
      // First rung of the degradation ladder: a failed/timed-out rerank
      // serves the first-pass order instead of failing the request.
      result.contexts = candidates;
      result.rerank_degraded = true;
      rerank_span.set_attr("degraded", true);
    }
    rerank_span.set_attr("out", result.contexts.size());
    result.rerank_seconds = watch.seconds();
  } else {
    // Plain RAG: first-pass order, unreranked. All candidates are passed on;
    // the model's attention window (L) decides what is actually read.
    result.contexts = candidates;
  }
}

}  // namespace pkb::rag
