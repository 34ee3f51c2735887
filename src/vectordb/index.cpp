#include "vectordb/index.h"

#include <optional>
#include <utility>

#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/clock.h"

namespace pkb::vectordb {

std::string IndexSpec::name() const {
  std::string base;
  switch (kind) {
    case IndexKind::Flat:
      base = "flat";
      break;
    case IndexKind::Ivf:
      base = "ivf";
      break;
    case IndexKind::Hnsw:
      base = "hnsw";
      break;
  }
  switch (quant) {
    case Quantizer::None:
      break;
    case Quantizer::Int8:
      base += "_int8";
      break;
    case Quantizer::Pq:
      base += "_pq";
      break;
  }
  return base;
}

namespace {

/// Shared instrumentation shell: counts searches, times them, and opens the
/// ann_search span around the concrete strategy.
class InstrumentedIndex : public AnnIndex {
 public:
  InstrumentedIndex(std::string name, std::size_t entries)
      : name_(std::move(name)), entries_(entries) {
    obs::global_metrics()
        .gauge(obs::kAnnIndexEntries)
        .set(static_cast<double>(entries_));
  }

  [[nodiscard]] std::string_view name() const final { return name_; }

  [[nodiscard]] std::size_t scan_bytes_per_vector() const final {
    return scan_bytes_;
  }

  [[nodiscard]] std::vector<SearchResult> search(const embed::Vector& query,
                                                 std::size_t k) const final {
    obs::MetricsRegistry& metrics = obs::global_metrics();
    metrics.counter(obs::kAnnSearchesTotal).inc();
    pkb::util::Stopwatch watch;
    obs::Span span(obs::global_tracer(), obs::kSpanAnnSearch);
    span.set_attr("index", name_);
    span.set_attr("k", static_cast<std::uint64_t>(k));
    std::vector<SearchResult> hits = do_search(query, k);
    span.set_attr("hits", static_cast<std::uint64_t>(hits.size()));
    metrics.histogram(obs::kAnnSearchSeconds).observe(watch.seconds());
    return hits;
  }

 protected:
  [[nodiscard]] virtual std::vector<SearchResult> do_search(
      const embed::Vector& query, std::size_t k) const = 0;

  /// Derived ctors record the scan footprint once their codes exist.
  void set_scan_bytes(std::size_t bytes) { scan_bytes_ = bytes; }

 private:
  std::string name_;
  std::size_t entries_;
  std::size_t scan_bytes_ = 0;
};

std::size_t fp32_scan_bytes(const VectorStore& store) {
  return store.packed().stride() * sizeof(float);
}

std::size_t int8_scan_bytes(const Int8Codes& codes) {
  // Padded code row plus the per-row dequantization scale.
  return codes.packed().stride() + sizeof(float);
}

/// Shared quantization state for a spec: at most one of int8 / PQ.
struct QuantState {
  std::optional<Int8Codes> int8;
  std::optional<PqCodebook> pq_book;
  std::optional<PqCodes> pq_codes;

  static QuantState build(const VectorStore& store, const IndexSpec& spec) {
    QuantState q;
    switch (spec.quant) {
      case Quantizer::None:
        break;
      case Quantizer::Int8:
        q.int8 = Int8Codes::build(store);
        break;
      case Quantizer::Pq:
        q.pq_book = PqCodebook::train(store, spec.pq);
        q.pq_codes = PqCodes::encode(store, *q.pq_book);
        break;
    }
    return q;
  }

  [[nodiscard]] std::size_t scan_bytes(const VectorStore& store) const {
    if (int8) return int8_scan_bytes(*int8);
    if (pq_codes) return pq_codes->stride();
    return fp32_scan_bytes(store);
  }
};

/// Flat scan over quantized codes with exact re-rank (kind=Flat,
/// quant=Int8|Pq).
class FlatQuantIndex final : public InstrumentedIndex {
 public:
  FlatQuantIndex(const VectorStore& store, const IndexSpec& spec)
      : InstrumentedIndex(spec.name(), store.size()),
        store_(store),
        quant_(QuantState::build(store, spec)),
        rerank_(spec.rerank_factor) {
    set_scan_bytes(quant_.scan_bytes(store));
  }

 private:
  [[nodiscard]] std::vector<SearchResult> do_search(
      const embed::Vector& query, std::size_t k) const override {
    if (quant_.int8) {
      return quantized_search(store_, *quant_.int8, query, k, rerank_);
    }
    return pq_search(store_, *quant_.pq_book, *quant_.pq_codes, query, k,
                     rerank_);
  }

  const VectorStore& store_;
  QuantState quant_;
  std::size_t rerank_;
};

/// IVF probing; optionally scans the probe set on int8 or PQ codes with
/// exact re-rank instead of fp32.
class IvfAnnIndex final : public InstrumentedIndex {
 public:
  IvfAnnIndex(const VectorStore& store, const IndexSpec& spec)
      : InstrumentedIndex(spec.name(), store.size()),
        store_(store),
        ivf_(store, spec.ivf),
        quant_(QuantState::build(store, spec)),
        rerank_(spec.rerank_factor) {
    set_scan_bytes(quant_.scan_bytes(store));
  }

 private:
  [[nodiscard]] std::vector<SearchResult> do_search(
      const embed::Vector& query, std::size_t k) const override {
    if (!quant_.int8 && !quant_.pq_codes) return ivf_.search(query, k);
    // Normalize only for bucket probing; the quantized searches normalize
    // the raw query themselves, and handing them a pre-normalized copy
    // would re-normalize it — an ulp off the flat scan's query, breaking
    // exact-score parity with similarity_search.
    embed::Vector q = query;
    embed::l2_normalize(q);
    if (quant_.int8) {
      return quantized_search(store_, *quant_.int8, query, k, rerank_,
                              ivf_.probe_candidates(q));
    }
    return pq_search(store_, *quant_.pq_book, *quant_.pq_codes, query, k,
                     rerank_, ivf_.probe_candidates(q));
  }

  const VectorStore& store_;
  IvfIndex ivf_;
  QuantState quant_;
  std::size_t rerank_;
};

/// HNSW traversal; quantized modes traverse on int8 or ADC scores and
/// re-rank the beam exactly.
class HnswAnnIndex final : public InstrumentedIndex {
 public:
  HnswAnnIndex(const VectorStore& store, const IndexSpec& spec)
      : InstrumentedIndex(spec.name(), store.size()),
        quant_(QuantState::build(store, spec)) {
    set_scan_bytes(quant_.scan_bytes(store));
    hnsw_ = std::make_unique<HnswIndex>(
        store, spec.hnsw, quant_.int8 ? &*quant_.int8 : nullptr,
        quant_.pq_book ? &*quant_.pq_book : nullptr,
        quant_.pq_codes ? &*quant_.pq_codes : nullptr);
    obs::global_metrics()
        .gauge(obs::kAnnGraphEdges)
        .set(static_cast<double>(hnsw_->edge_count()));
  }

 private:
  [[nodiscard]] std::vector<SearchResult> do_search(
      const embed::Vector& query, std::size_t k) const override {
    return hnsw_->search(query, k);
  }

  QuantState quant_;  ///< must outlive hnsw_
  std::unique_ptr<HnswIndex> hnsw_;
};

}  // namespace

std::shared_ptr<const AnnIndex> build_index(const VectorStore& store,
                                            const IndexSpec& spec) {
  if (spec.is_flat_fp32() || store.empty()) return nullptr;
  pkb::util::Stopwatch watch;
  std::shared_ptr<const AnnIndex> index;
  switch (spec.kind) {
    case IndexKind::Flat:
      index = std::make_shared<FlatQuantIndex>(store, spec);
      break;
    case IndexKind::Ivf:
      index = std::make_shared<IvfAnnIndex>(store, spec);
      break;
    case IndexKind::Hnsw:
      index = std::make_shared<HnswAnnIndex>(store, spec);
      break;
  }
  obs::global_metrics()
      .histogram(obs::kAnnBuildSeconds)
      .observe(watch.seconds());
  return index;
}

}  // namespace pkb::vectordb
