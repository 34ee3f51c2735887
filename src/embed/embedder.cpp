#include "embed/embedder.h"

#include <cmath>
#include <stdexcept>

#include "embed/blend.h"
#include "embed/hashing.h"
#include "embed/lsa.h"
#include "embed/tfidf.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "util/clock.h"
#include "util/strings.h"
#include "util/thread_pool.h"

namespace pkb::embed {

float norm(const Vector& v) {
  double acc = 0.0;
  for (float x : v) acc += static_cast<double>(x) * x;
  return static_cast<float>(std::sqrt(acc));
}

void l2_normalize(Vector& v) {
  const float n = norm(v);
  if (n <= 0.0f) return;
  const float inv = 1.0f / n;
  for (float& x : v) x *= inv;
}

std::vector<Vector> Embedder::embed_batch(
    std::span<const text::AnalysisPtr> docs) const {
  pkb::util::Stopwatch watch;
  std::vector<Vector> out(docs.size());
  pkb::util::parallel_for(
      0, docs.size(), [&](std::size_t i) { out[i] = embed(*docs[i]); },
      /*min_block=*/4);
  obs::MetricsRegistry& metrics = obs::global_metrics();
  const obs::LabelSet model_label{{"model", name()}};
  metrics.counter(obs::kEmbedBatchDocsTotal, model_label).inc(docs.size());
  metrics.histogram(obs::kEmbedBatchSeconds, model_label)
      .observe(watch.seconds());
  return out;
}

namespace {

/// Parse the numeric suffix of "sim-lsa-64" style names; 0 when malformed.
std::size_t parse_suffix(std::string_view name, std::string_view prefix) {
  if (!name.starts_with(prefix)) return 0;
  const std::string_view digits = name.substr(prefix.size());
  if (digits.empty()) return 0;
  std::size_t value = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') return 0;
    value = value * 10 + static_cast<std::size_t>(c - '0');
  }
  return value;
}

}  // namespace

std::unique_ptr<Embedder> make_embedder(std::string_view name) {
  if (name == "sim-tfidf") return std::make_unique<TfidfEmbedder>();
  // Paper-flavored aliases: "3-large" is the strongest semantic model of the
  // sweep (dense semantics + exact-term residual), "3-small" a
  // lower-capacity one, "ada" the legacy model.
  if (name == "sim-embed-3-large") {
    return std::make_unique<BlendEmbedder>(32, 256, 0.10);
  }
  if (name == "sim-embed-3-small") {
    return std::make_unique<BlendEmbedder>(16, 128, 0.2);
  }
  if (name == "sim-embed-ada") return std::make_unique<HashEmbedder>(256);
  if (name.starts_with("sim-blend-")) {
    // "sim-blend-<rank>-<dim>-w<pct>", e.g. "sim-blend-32-256-w25".
    const auto parts = pkb::util::split(name, '-');
    if (parts.size() == 5 && parts[4].size() > 1 && parts[4][0] == 'w') {
      auto to_num = [](std::string_view digits) -> std::size_t {
        std::size_t value = 0;
        for (char c : digits) {
          if (c < '0' || c > '9') return 0;
          value = value * 10 + static_cast<std::size_t>(c - '0');
        }
        return value;
      };
      const std::size_t rank = to_num(parts[2]);
      const std::size_t dim = to_num(parts[3]);
      const std::size_t pct = to_num(parts[4].substr(1));
      if (rank > 0 && dim > 0 && pct <= 100) {
        return std::make_unique<BlendEmbedder>(
            rank, dim, static_cast<double>(pct) / 100.0);
      }
    }
    throw std::invalid_argument("bad blend spec: " + std::string(name));
  }
  if (const std::size_t rank = parse_suffix(name, "sim-lsa-"); rank > 0) {
    return std::make_unique<LsaEmbedder>(rank);
  }
  if (const std::size_t dim = parse_suffix(name, "sim-hash-"); dim > 0) {
    return std::make_unique<HashEmbedder>(dim);
  }
  if (const std::size_t dim = parse_suffix(name, "sim-charngram-"); dim > 0) {
    return std::make_unique<CharNgramEmbedder>(dim);
  }
  throw std::invalid_argument("unknown embedder: " + std::string(name));
}

}  // namespace pkb::embed
