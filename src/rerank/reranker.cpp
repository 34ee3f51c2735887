#include "rerank/reranker.h"

#include <algorithm>
#include <stdexcept>

#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "rerank/cross_score.h"
#include "rerank/flashranker.h"
#include "util/clock.h"

namespace pkb::rerank {

std::vector<RerankResult> Reranker::rerank(
    const text::QueryAnalysis& query, const lexical::CorpusAnalysis& corpus,
    const std::vector<RerankCandidate>& candidates, std::size_t top_l) const {
  const pkb::util::Stopwatch watch;
  pkb::resilience::consult(fault_plan_, pkb::resilience::Stage::Rerank);
  const std::vector<double> scores = score(query, corpus, candidates);
  std::vector<RerankResult> out;
  out.reserve(candidates.size());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    out.push_back(RerankResult{candidates[i].doc, scores[i], i});
  }
  std::sort(out.begin(), out.end(),
            [](const RerankResult& a, const RerankResult& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.original_rank < b.original_rank;
            });
  if (out.size() > top_l) out.resize(top_l);
  const obs::LabelSet label{{"reranker", name()}};
  obs::MetricsRegistry& metrics = obs::global_metrics();
  metrics.counter(obs::kRerankRequestsTotal, label).inc();
  metrics.counter(obs::kRerankCandidatesTotal, label).inc(candidates.size());
  metrics.histogram(obs::kRerankSeconds, label).observe(watch.seconds());
  return out;
}

std::unique_ptr<Reranker> make_reranker(std::string_view name) {
  if (name == "sim-flashrank") return std::make_unique<FlashRanker>();
  if (name == "sim-nv-cross") return std::make_unique<CrossScoreReranker>();
  throw std::invalid_argument("unknown reranker: " + std::string(name));
}

std::vector<std::string> reranker_registry() {
  return {"sim-flashrank", "sim-nv-cross"};
}

}  // namespace pkb::rerank
