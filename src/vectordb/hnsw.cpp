#include "vectordb/hnsw.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/clock.h"
#include "util/rng.h"

namespace pkb::vectordb {

namespace {

/// Hard cap on graph height; levels are geometric so this is never reached
/// in practice, it just bounds the arena math.
constexpr std::size_t kMaxLevel = 24;

static_assert(2 * kHnswMaxM <= std::numeric_limits<std::uint16_t>::max(),
              "layer 0's 2m links must fit Links::cap");

using Scored = std::pair<float, std::uint32_t>;

/// priority_queue comparator: top() = best (highest score, lowest id).
struct BestFirst {
  bool operator()(const Scored& a, const Scored& b) const {
    if (a.first != b.first) return a.first < b.first;
    return a.second > b.second;
  }
};

/// priority_queue comparator: top() = worst (lowest score, highest id) —
/// evicting the top keeps the lowest ids among score ties, matching the
/// flat scan's lower-index tie-break.
struct WorstFirst {
  bool operator()(const Scored& a, const Scored& b) const {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  }
};

void sort_best_first(std::vector<Scored>& v) {
  std::sort(v.begin(), v.end(), [](const Scored& a, const Scored& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  });
}

/// Largest store whose build memoizes pair scores. The lower-triangular
/// table holds n(n-1)/2 floats, at most 32 MiB at this bound. Larger builds
/// score every pair directly: there most prunes fall on lists whose table
/// entries went cold while other rows were inserted, and a cold lookup
/// costs more than the dot it saves (docs/PERFORMANCE.md).
constexpr std::size_t kMemoRows = 4096;

}  // namespace

/// Scores between two stored rows, each computed at most once per build of
/// at most kMemoRows rows. The prune of an overfull list re-scores that
/// list, and its diversity check re-scores the same neighbour pairs on
/// every prune; without the memo a build computes each pair ~20 times. An
/// entry holds exactly the float dot_f32 returns, and the dot is symmetric
/// bit for bit on every backend (float×float products are exact in double,
/// and the FMA is commutative in its multiplicands). So a lookup returns
/// what recomputing would, and the graph does not change.
class HnswIndex::PairScores {
 public:
  explicit PairScores(const kernels::PackedF32& packed) : packed_(packed) {
    const std::size_t n = packed.rows();
    if (n <= kMemoRows) {
      table_.assign(n * (n - 1) / 2, std::numeric_limits<float>::quiet_NaN());
    }
  }

  float operator()(std::uint32_t a, std::uint32_t b) {
    if (table_.empty() || a == b) return dot(a, b);
    const std::uint32_t lo = std::min(a, b);
    const std::uint32_t hi = std::max(a, b);
    float& slot = table_[std::size_t{hi} * (hi - 1) / 2 + lo];
    if (std::isnan(slot)) slot = dot(a, b);  // NaN = not computed yet
    return slot;
  }

 private:
  float dot(std::uint32_t a, std::uint32_t b) const {
    return kernels::dot_f32(packed_.row(a), packed_.row(b), packed_.stride());
  }

  const kernels::PackedF32& packed_;
  std::vector<float> table_;  ///< pair (hi, lo), hi > lo, at hi(hi-1)/2 + lo
};

HnswIndex::HnswIndex(const VectorStore& store, HnswOptions opts)
    : store_(store), opts_(opts) {
  if (store_.empty()) {
    throw std::invalid_argument("HnswIndex: empty store");
  }
  if (opts_.m > kHnswMaxM) {
    throw std::invalid_argument("HnswIndex: m " + std::to_string(opts_.m) +
                                " exceeds " + std::to_string(kHnswMaxM));
  }
  opts_.m = std::max<std::size_t>(2, opts_.m);
  opts_.ef_construction = std::max(opts_.ef_construction, opts_.m + 1);
  opts_.ef_search = std::max<std::size_t>(1, opts_.ef_search);
  build();
}

std::uint32_t HnswIndex::greedy_step(const float* packed_query,
                                     std::uint32_t entry,
                                     std::size_t layer) const {
  std::uint32_t cur = entry;
  float cur_score = store_.kernel_score(packed_query, cur);
  bool moved = true;
  while (moved) {
    moved = false;
    const Links& links = links_[cur][layer];
    for (std::uint16_t e = 0; e < links.count; ++e) {
      const std::uint32_t nb = links.nbr[e];
      const float s = store_.kernel_score(packed_query, nb);
      if (s > cur_score) {
        cur_score = s;
        cur = nb;
        moved = true;
      }
    }
  }
  return cur;
}

std::vector<Scored> HnswIndex::search_layer(const float* packed_query,
                                            std::uint32_t entry,
                                            std::size_t ef,
                                            std::size_t layer) const {
  std::vector<char> visited(store_.size(), 0);
  std::priority_queue<Scored, std::vector<Scored>, BestFirst> cand;
  std::priority_queue<Scored, std::vector<Scored>, WorstFirst> best;

  const float es = store_.kernel_score(packed_query, entry);
  visited[entry] = 1;
  cand.push({es, entry});
  best.push({es, entry});

  while (!cand.empty()) {
    const Scored c = cand.top();
    if (best.size() >= ef && c.first < best.top().first) break;
    cand.pop();
    const Links& links = links_[c.second][layer];
    for (std::uint16_t e = 0; e < links.count; ++e) {
      const std::uint32_t nb = links.nbr[e];
      if (visited[nb]) continue;
      visited[nb] = 1;
      const float s = store_.kernel_score(packed_query, nb);
      if (best.size() < ef || WorstFirst{}(Scored{s, nb}, best.top())) {
        cand.push({s, nb});
        best.push({s, nb});
        if (best.size() > ef) best.pop();
      }
    }
  }

  std::vector<Scored> out;
  out.reserve(best.size());
  while (!best.empty()) {
    out.push_back(best.top());
    best.pop();
  }
  sort_best_first(out);
  return out;
}

void HnswIndex::select_neighbors(const std::vector<Scored>& candidates,
                                 std::size_t cap, Links& out,
                                 PairScores& pairs) const {
  // The HNSW paper's diversity heuristic (Algorithm 4): walk the
  // candidates best-first and keep one only if it is closer to the base
  // point than to every already-kept neighbor. Naive nearest-m selection
  // links redundant near-duplicates and recall collapses on high-dim data;
  // the heuristic keeps the links spread, which is what makes the graph
  // navigable. Rejected candidates backfill any spare capacity so nodes
  // are not left under-connected.
  out.count = 0;
  std::vector<std::uint32_t> rejected;
  for (const Scored& c : candidates) {
    if (out.count >= cap) break;
    bool diverse = true;
    for (std::uint16_t s = 0; s < out.count; ++s) {
      if (pairs(c.second, out.nbr[s]) > c.first) {
        diverse = false;
        break;
      }
    }
    if (diverse) {
      out.nbr[out.count++] = c.second;
    } else {
      rejected.push_back(c.second);
    }
  }
  for (std::size_t r = 0; out.count < cap && r < rejected.size(); ++r) {
    out.nbr[out.count++] = rejected[r];
  }
}

void HnswIndex::insert(std::size_t node, std::size_t level,
                       const float* packed_query, PairScores& pairs) {
  const auto id = static_cast<std::uint32_t>(node);
  if (node == 0) {
    entry_ = id;
    max_level_ = level;
    return;
  }

  std::uint32_t cur = entry_;
  // Greedy descent through layers above the node's level.
  for (std::size_t layer = max_level_; layer > level; --layer) {
    cur = greedy_step(packed_query, cur, layer);
  }

  // Beam search and bidirectional linking on layers min(level, max) .. 0.
  for (std::size_t layer = std::min(level, max_level_) + 1; layer-- > 0;) {
    const std::vector<Scored> beam =
        search_layer(packed_query, cur, opts_.ef_construction, layer);
    Links& mine = links_[node][layer];
    select_neighbors(beam, mine.cap, mine, pairs);
    // Link back; prune overful neighbor lists with the same heuristic.
    for (std::uint16_t e = 0; e < mine.count; ++e) {
      const std::uint32_t nb = mine.nbr[e];
      Links& theirs = links_[nb][layer];
      if (theirs.count < theirs.cap) {
        theirs.nbr[theirs.count++] = id;
        continue;
      }
      std::vector<Scored> scored;
      scored.reserve(theirs.count + 1U);
      scored.push_back({pairs(nb, id), id});
      for (std::uint16_t t = 0; t < theirs.count; ++t) {
        scored.push_back({pairs(nb, theirs.nbr[t]), theirs.nbr[t]});
      }
      sort_best_first(scored);
      select_neighbors(scored, theirs.cap, theirs, pairs);
    }
    if (!beam.empty()) cur = beam.front().second;
  }

  if (level > max_level_) {
    entry_ = id;
    max_level_ = level;
  }
}

void HnswIndex::build() {
  const std::size_t n = store_.size();
  const kernels::PackedF32& packed = store_.packed();
  util::Rng rng(opts_.seed);
  const double mult = 1.0 / std::log(static_cast<double>(opts_.m));

  // Assign levels, then carve all adjacency lists up front from one slab
  // of exactly their size (arena pointers never move, so linking can run
  // over partially built nodes).
  const auto list_bytes = [](std::size_t cap) {
    return util::align_up(cap * sizeof(std::uint32_t), util::kArenaAlignment);
  };
  std::vector<std::size_t> levels(n);
  std::size_t bytes = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double u = 1.0 - rng.uniform();  // (0, 1]
    levels[i] = std::min(kMaxLevel,
                         static_cast<std::size_t>(-std::log(u) * mult));
    bytes += list_bytes(2 * opts_.m) + levels[i] * list_bytes(opts_.m);
  }
  arena_ = util::Arena(bytes);
  links_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    links_[i].resize(levels[i] + 1);
    for (std::size_t layer = 0; layer <= levels[i]; ++layer) {
      const std::size_t cap = layer == 0 ? 2 * opts_.m : opts_.m;
      links_[i][layer].nbr = arena_.alloc_array<std::uint32_t>(cap);
      links_[i][layer].cap = static_cast<std::uint16_t>(cap);
    }
  }

  PairScores pairs(packed);
  for (std::size_t i = 0; i < n; ++i) {
    insert(i, levels[i], packed.row(i), pairs);
  }
}

std::vector<SearchResult> HnswIndex::search(const embed::Vector& query,
                                            std::size_t k) const {
  obs::MetricsRegistry& metrics = obs::global_metrics();
  metrics.counter(obs::kAnnSearchesTotal).inc();
  pkb::util::Stopwatch watch;
  obs::Span span(obs::global_tracer(), obs::kSpanAnnSearch);
  span.set_attr("index", "hnsw");
  span.set_attr("k", static_cast<std::uint64_t>(k));
  std::vector<SearchResult> hits = search_beam(query, k);
  span.set_attr("hits", static_cast<std::uint64_t>(hits.size()));
  metrics.histogram(obs::kAnnSearchSeconds).observe(watch.seconds());
  return hits;
}

std::vector<SearchResult> HnswIndex::search_beam(const embed::Vector& query,
                                                 std::size_t k) const {
  if (k == 0) return {};
  if (query.size() != store_.dimension()) {
    throw std::invalid_argument("HnswIndex::search: dimension mismatch");
  }
  const std::size_t ef = std::max(opts_.ef_search, k);
  embed::Vector q = query;
  embed::l2_normalize(q);

  const kernels::PackedF32& packed = store_.packed();
  pkb::util::AlignedBuffer qbuf(packed.stride() * sizeof(float));
  packed.pack_query(q.data(), qbuf.as<float>());

  // Greedy descent to layer 1, then a beam on layer 0.
  const float* packed_query = qbuf.as<float>();
  std::uint32_t cur = entry_;
  for (std::size_t layer = max_level_; layer > 0; --layer) {
    cur = greedy_step(packed_query, cur, layer);
  }
  const std::vector<Scored> beam = search_layer(packed_query, cur, ef, 0);

  // The beam is best-first (score descending, lower id on ties — the flat
  // scan's order) and its scores are the store's kernel scores.
  const std::size_t keep = std::min(k, beam.size());
  std::vector<SearchResult> hits;
  hits.reserve(keep);
  for (std::size_t i = 0; i < keep; ++i) {
    hits.push_back(SearchResult{beam[i].second, beam[i].first});
  }
  return hits;
}

double HnswIndex::recall_at_k(const std::vector<embed::Vector>& queries,
                              std::size_t k) const {
  if (queries.empty() || k == 0) return 1.0;
  std::size_t found = 0;
  std::size_t total = 0;
  for (const embed::Vector& q : queries) {
    const auto exact = store_.similarity_search(q, k);
    const auto approx = search(q, k);
    for (const SearchResult& e : exact) {
      ++total;
      for (const SearchResult& a : approx) {
        if (a.index == e.index) {
          ++found;
          break;
        }
      }
    }
  }
  return total == 0 ? 1.0
                    : static_cast<double>(found) / static_cast<double>(total);
}

std::size_t HnswIndex::edge_count() const {
  std::size_t edges = 0;
  for (const auto& node : links_) {
    for (const Links& l : node) edges += l.count;
  }
  return edges;
}

}  // namespace pkb::vectordb
