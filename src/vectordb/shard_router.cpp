#include "vectordb/shard_router.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/clock.h"

namespace pkb::vectordb {

namespace res = pkb::resilience;

ShardRouter::Shard ShardRouter::make_shard(VectorStore store) const {
  Shard shard;
  shard.store = std::make_shared<const VectorStore>(std::move(store));
  // Each shard gets its own index over its slice (null for the identity
  // spec). with_shard_replaced calls back in here for the replacement
  // shard only, so a rolling swap rebuilds exactly one index.
  shard.index = build_index(*shard.store, opts_.index);
  shard.breaker = std::make_shared<res::CircuitBreaker>(opts_.breaker,
                                                        opts_.breaker_clock);
  shard.dead = std::make_shared<std::atomic<bool>>(false);
  return shard;
}

void ShardRouter::rebuild_offsets() {
  offsets_.resize(shards_.size());
  total_ = 0;
  dim_ = 0;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    offsets_[i] = total_;
    total_ += shards_[i].store->size();
    if (dim_ == 0) dim_ = shards_[i].store->dimension();
  }
}

std::shared_ptr<ShardRouter> ShardRouter::partition(const VectorStore& store,
                                                    std::size_t shards,
                                                    ShardRouterOptions opts) {
  if (shards == 0) {
    throw std::invalid_argument("ShardRouter::partition: shards must be >= 1");
  }
  auto router = std::shared_ptr<ShardRouter>(new ShardRouter());
  router->opts_ = std::move(opts);

  // Contiguous balanced slices: shard i covers global indices
  // [offset, offset + size), sizes differing by at most one. Vectors are
  // copied pre-normalized so per-shard scores stay bit-identical.
  const std::size_t n = store.size();
  const std::size_t base = n / shards;
  const std::size_t rem = n % shards;
  std::size_t next = 0;
  router->shards_.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    const std::size_t count = base + (s < rem ? 1 : 0);
    VectorStore slice(store.dimension());
    for (std::size_t i = next; i < next + count; ++i) {
      slice.add_prenormalized(store.doc(i), store.vec(i));
    }
    next += count;
    router->shards_.push_back(router->make_shard(std::move(slice)));
  }
  router->rebuild_offsets();

  obs::global_metrics()
      .gauge(obs::kShardCount)
      .set(static_cast<double>(shards));
  return router;
}

std::shared_ptr<ShardRouter> ShardRouter::with_shard_replaced(
    std::size_t shard, VectorStore replacement) const {
  if (shard >= shards_.size()) {
    throw std::invalid_argument(
        "ShardRouter::with_shard_replaced: shard out of range");
  }
  if (!replacement.empty() && dim_ != 0 &&
      replacement.dimension() != dim_) {
    throw std::invalid_argument(
        "ShardRouter::with_shard_replaced: dimension mismatch");
  }
  auto router = std::shared_ptr<ShardRouter>(new ShardRouter());
  router->opts_ = opts_;
  router->shards_ = shards_;  // shares untouched stores/breakers/dead flags
  router->shards_[shard] = make_shard(std::move(replacement));
  router->rebuild_offsets();
  return router;
}

const VectorStore& ShardRouter::shard(std::size_t i) const {
  return *shards_.at(i).store;
}

std::size_t ShardRouter::shard_offset(std::size_t i) const {
  return offsets_.at(i);
}

void ShardRouter::kill_shard(std::size_t i) {
  shards_.at(i).dead->store(true, std::memory_order_release);
}

void ShardRouter::revive_shard(std::size_t i) {
  shards_.at(i).dead->store(false, std::memory_order_release);
}

bool ShardRouter::shard_dead(std::size_t i) const {
  return shards_.at(i).dead->load(std::memory_order_acquire);
}

res::CircuitBreaker::State ShardRouter::breaker_state(std::size_t i) const {
  return shards_.at(i).breaker->state();
}

bool ShardRouter::scan_shard(std::size_t shard, const embed::Vector& query,
                             std::size_t k, const MetadataFilter* filter,
                             const res::FaultPlan* plan,
                             std::vector<SearchResult>& out) const {
  const Shard& sh = shards_[shard];
  obs::MetricsRegistry& metrics = obs::global_metrics();
  if (!sh.breaker->allow()) {
    metrics
        .counter(obs::kShardScanFailuresTotal, {{"reason", "breaker"}})
        .inc();
    return false;
  }
  for (std::uint32_t attempt = 0;; ++attempt) {
    metrics.counter(obs::kShardScansTotal).inc();
    try {
      if (sh.dead->load(std::memory_order_acquire)) {
        throw res::TransientError(
            res::Stage::VectorSearch,
            "shard " + std::to_string(shard) + " is dead");
      }
      res::consult(plan, res::Stage::VectorSearch);
      // Route through the shard's ANN index when one exists; metadata
      // filters force the exact scan (candidate sets are not filter-aware).
      const bool filtered = filter != nullptr && *filter;
      out = sh.index != nullptr && !filtered
                ? sh.index->search(query, k)
                : sh.store->similarity_search(query, k, filter);
      sh.breaker->record_success();
      // Map shard-local hit indices back into the global index space; the
      // merge's (score desc, global index asc) order is then exactly the
      // monolithic select_top_k order.
      for (SearchResult& hit : out) hit.index += offsets_[shard];
      return true;
    } catch (const res::FaultError&) {
      sh.breaker->record_failure();
      if (attempt >= res::kSearchHedges) {
        metrics
            .counter(obs::kShardScanFailuresTotal, {{"reason", "fault"}})
            .inc();
        return false;
      }
      obs::Span span(obs::global_tracer(), obs::kSpanHedge);
      span.set_attr("stage", "shard_scan");
      span.set_attr("shard", shard);
      span.set_attr("attempt", static_cast<std::uint64_t>(attempt) + 1);
    }
  }
}

Scatter ShardRouter::search(const embed::Vector& query, std::size_t k,
                            const MetadataFilter* filter,
                            const res::FaultPlan* plan) const {
  Scatter out;
  out.shards_total = shards_.size();
  if (k == 0 || total_ == 0) return out;
  if (query.size() != dim_) {
    throw std::invalid_argument("ShardRouter::search: dimension mismatch");
  }

  obs::MetricsRegistry& metrics = obs::global_metrics();
  metrics.counter(obs::kShardQueriesTotal).inc();

  // --- scatter: shards 0..N-1 scan the query in order on the calling
  // thread, so fault-plan ordinals are consumed in shard order and each
  // shard's ann_search / hedge spans nest under shard_scatter. Surviving
  // shards' top-k lists are collected into out.hits.
  pkb::util::Stopwatch watch;
  {
    obs::Span span(obs::global_tracer(), obs::kSpanShardScatter);
    span.set_attr("shards", shards_.size());
    span.set_attr("k", k);
    std::vector<SearchResult> shard_hits;
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      if (!scan_shard(s, query, k, filter, plan, shard_hits)) {
        ++out.shards_failed;
        continue;
      }
      out.hits.insert(out.hits.end(), shard_hits.begin(), shard_hits.end());
    }
    span.set_attr("failed", out.shards_failed);
  }
  metrics.histogram(obs::kShardScatterSeconds).observe(watch.seconds());
  if (out.partial()) metrics.counter(obs::kShardPartialResultsTotal).inc();

  // --- gather: order the surviving shards' hits with the monolithic
  // comparator and truncate to k. The global top-k is a subset of the union
  // of per-shard top-k lists, so this reproduces the monolithic result
  // bit-for-bit when no shard failed.
  watch.reset();
  {
    obs::Span span(obs::global_tracer(), obs::kSpanShardMerge);
    std::sort(out.hits.begin(), out.hits.end(),
              [](const SearchResult& a, const SearchResult& b) {
                if (a.score != b.score) return a.score > b.score;
                return a.index < b.index;
              });
    if (out.hits.size() > k) out.hits.resize(k);
  }
  metrics.histogram(obs::kShardMergeSeconds).observe(watch.seconds());
  return out;
}

}  // namespace pkb::vectordb
