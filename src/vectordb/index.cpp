#include "vectordb/index.h"

#include <utility>

#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/clock.h"

namespace pkb::vectordb {

std::string IndexSpec::name() const {
  switch (kind) {
    case IndexKind::Ivf:
      return "ivf";
    case IndexKind::Hnsw:
      return "hnsw";
    case IndexKind::Flat:
      break;
  }
  return "flat";
}

namespace {

/// Instrumentation shell over one concrete strategy: counts searches, times
/// them, and opens the ann_search span around the strategy's search().
template <typename Strategy>
class InstrumentedIndex final : public AnnIndex {
 public:
  template <typename Options>
  InstrumentedIndex(std::string name, const VectorStore& store,
                    const Options& opts)
      : name_(std::move(name)), strategy_(store, opts) {
    obs::global_metrics()
        .gauge(obs::kAnnIndexEntries)
        .set(static_cast<double>(store.size()));
  }

  [[nodiscard]] std::string_view name() const override { return name_; }

  [[nodiscard]] const Strategy& strategy() const { return strategy_; }

  [[nodiscard]] std::vector<SearchResult> search(
      const embed::Vector& query, std::size_t k) const override {
    obs::MetricsRegistry& metrics = obs::global_metrics();
    metrics.counter(obs::kAnnSearchesTotal).inc();
    pkb::util::Stopwatch watch;
    obs::Span span(obs::global_tracer(), obs::kSpanAnnSearch);
    span.set_attr("index", name_);
    span.set_attr("k", static_cast<std::uint64_t>(k));
    std::vector<SearchResult> hits = strategy_.search(query, k);
    span.set_attr("hits", static_cast<std::uint64_t>(hits.size()));
    metrics.histogram(obs::kAnnSearchSeconds).observe(watch.seconds());
    return hits;
  }

 private:
  std::string name_;
  Strategy strategy_;
};

}  // namespace

std::shared_ptr<const AnnIndex> build_index(const VectorStore& store,
                                            const IndexSpec& spec) {
  if (spec.kind == IndexKind::Flat || store.empty()) return nullptr;
  pkb::util::Stopwatch watch;
  std::shared_ptr<const AnnIndex> index;
  if (spec.kind == IndexKind::Ivf) {
    index = std::make_shared<InstrumentedIndex<IvfIndex>>(spec.name(), store,
                                                          spec.ivf);
  } else {
    auto hnsw = std::make_shared<InstrumentedIndex<HnswIndex>>(
        spec.name(), store, spec.hnsw);
    obs::global_metrics()
        .gauge(obs::kAnnGraphEdges)
        .set(static_cast<double>(hnsw->strategy().edge_count()));
    index = std::move(hnsw);
  }
  obs::global_metrics()
      .histogram(obs::kAnnBuildSeconds)
      .observe(watch.seconds());
  return index;
}

}  // namespace pkb::vectordb
