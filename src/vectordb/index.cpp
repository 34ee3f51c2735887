#include "vectordb/index.h"

#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "util/clock.h"

namespace pkb::vectordb {

std::string IndexSpec::name() const {
  return kind == IndexKind::Hnsw ? "hnsw" : "flat";
}

std::shared_ptr<const HnswIndex> build_index(const VectorStore& store,
                                             const IndexSpec& spec) {
  if (spec.kind == IndexKind::Flat || store.empty()) return nullptr;
  pkb::util::Stopwatch watch;
  auto index = std::make_shared<const HnswIndex>(store, spec.hnsw);
  obs::MetricsRegistry& metrics = obs::global_metrics();
  metrics.gauge(obs::kAnnIndexEntries).set(static_cast<double>(store.size()));
  metrics.gauge(obs::kAnnGraphEdges)
      .set(static_cast<double>(index->edge_count()));
  metrics.histogram(obs::kAnnBuildSeconds).observe(watch.seconds());
  return index;
}

}  // namespace pkb::vectordb
