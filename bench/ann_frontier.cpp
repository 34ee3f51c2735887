// ANN frontier bench: sweeps the flat scan and HNSW over ef_search against
// one seeded corpus and reports recall@k vs latency vs throughput per
// operating point. Both scan fp32 rows. Reports land in BENCH_ann.json.
//
// Gates make this a regression test, not just a chart:
//   flat_exact     — the build_index contract: every HNSW hit's score must
//                    be bit-equal to the flat scan's score for the same row
//                    (VectorStore::similarity_search over every row);
//   default_recall — recall@k at the default operating point (HNSW with
//                    ef_search = 64) must be >= 0.95.
// Any gate failure exits nonzero so bench_smoke.sh / CI catch kernel or
// index regressions.
//
// Usage: ann_frontier [--docs N] [--dim D] [--queries Q] [--k K]
//                     [--ef LIST] [--seed S] [--output PATH]
//   --ef         comma-separated HNSW beam widths   (default 16,32,64,128)

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "util/clock.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/stats.h"
#include "vectordb/hnsw.h"
#include "vectordb/index.h"
#include "vectordb/kernels.h"
#include "vectordb/vector_store.h"

namespace {

using pkb::embed::Vector;
using pkb::vectordb::SearchResult;
using pkb::vectordb::VectorStore;

VectorStore random_store(std::size_t n, std::size_t dim, std::uint64_t seed) {
  pkb::util::Rng rng(seed);
  VectorStore store;
  for (std::size_t i = 0; i < n; ++i) {
    Vector v(dim);
    for (float& x : v) x = static_cast<float>(rng.normal());
    store.add(std::move(v));
  }
  return store;
}

std::vector<Vector> random_queries(std::size_t n, std::size_t dim,
                                   std::uint64_t seed) {
  pkb::util::Rng rng(seed);
  std::vector<Vector> queries;
  for (std::size_t q = 0; q < n; ++q) {
    Vector v(dim);
    for (float& x : v) x = static_cast<float>(rng.normal());
    queries.push_back(std::move(v));
  }
  return queries;
}

double recall_against(const std::vector<std::vector<SearchResult>>& truth,
                      const std::vector<std::vector<SearchResult>>& approx) {
  std::size_t found = 0, total = 0;
  for (std::size_t q = 0; q < truth.size(); ++q) {
    for (const SearchResult& e : truth[q]) {
      ++total;
      for (const SearchResult& a : approx[q]) {
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

/// One measured operating point of the frontier.
struct FrontierPoint {
  std::string index;   ///< "flat" | "hnsw"
  std::size_t param;   ///< ef_search; 0 for flat
  double recall = 0.0;
  double p50 = 0.0, p99 = 0.0;
  double qps = 0.0;
  double build_seconds = 0.0;
  std::vector<std::vector<SearchResult>> hits;  ///< per pool query
};

/// Closed-loop single-thread sweep of the query pool through `search`,
/// recording per-query latency and the hits for recall/exactness checks.
template <typename SearchFn>
FrontierPoint measure(std::string index, std::size_t param,
                      const std::vector<Vector>& pool, SearchFn&& search) {
  FrontierPoint pt;
  pt.index = std::move(index);
  pt.param = param;
  pt.hits.reserve(pool.size());
  pkb::util::Summary latency;
  pkb::util::Stopwatch wall;
  for (const Vector& q : pool) {
    pkb::util::Stopwatch per_query;
    pt.hits.push_back(search(q));
    latency.add(per_query.seconds());
  }
  const double wall_seconds = wall.seconds();
  pt.p50 = latency.percentile(50.0);
  pt.p99 = latency.percentile(99.0);
  pt.qps = static_cast<double>(pool.size()) / wall_seconds;
  return pt;
}

pkb::util::Json point_json(const FrontierPoint& pt) {
  using pkb::util::Json;
  Json j = Json::object();
  j.set("index", Json(pt.index));
  j.set("param", Json(pt.param));
  j.set("recall_at_k", Json(pt.recall));
  j.set("p50_seconds", Json(pt.p50));
  j.set("p99_seconds", Json(pt.p99));
  j.set("qps", Json(pt.qps));
  j.set("build_seconds", Json(pt.build_seconds));
  return j;
}

std::vector<std::size_t> parse_list(const std::string& list) {
  std::vector<std::size_t> out;
  for (std::size_t pos = 0; pos < list.size();) {
    const std::size_t comma = list.find(',', pos);
    const std::string tok = list.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    const std::size_t n =
        static_cast<std::size_t>(std::strtoull(tok.c_str(), nullptr, 10));
    if (n > 0) out.push_back(n);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t docs = 20000;
  std::size_t dim = 64;
  std::size_t queries = 200;
  std::size_t k = 10;
  std::uint64_t seed = 42;
  std::string ef_list = "16,32,64,128";
  std::string output = "BENCH_ann.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--docs") == 0 && i + 1 < argc) {
      docs = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--dim") == 0 && i + 1 < argc) {
      dim = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--queries") == 0 && i + 1 < argc) {
      queries = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--k") == 0 && i + 1 < argc) {
      k = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--ef") == 0 && i + 1 < argc) {
      ef_list = argv[++i];
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--output") == 0 && i + 1 < argc) {
      output = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: ann_frontier [--docs N] [--dim D] [--queries Q] "
                   "[--k K] [--ef LIST] [--seed S] [--output PATH]\n");
      return 2;
    }
  }
  if (docs == 0) docs = 1;
  if (dim == 0) dim = 1;
  if (queries == 0) queries = 1;
  if (k == 0) k = 1;

  const std::vector<std::size_t> efs = parse_list(ef_list);
  if (efs.empty()) {
    std::fprintf(stderr, "ann_frontier: empty --ef sweep\n");
    return 2;
  }

  const std::string backend(pkb::vectordb::kernels::backend_name());
  std::printf("ann frontier: %zu docs x dim %zu, %zu queries, k=%zu, "
              "seed %llu, kernels=%s\n",
              docs, dim, queries, k,
              static_cast<unsigned long long>(seed), backend.c_str());

  const VectorStore store = random_store(docs, dim, seed);
  const std::vector<Vector> pool = random_queries(queries, dim, seed + 1);

  using pkb::util::Json;
  using pkb::vectordb::IndexKind;
  using pkb::vectordb::IndexSpec;

  std::vector<FrontierPoint> points;

  // flat — the exact SIMD scan everything else is judged against.
  FrontierPoint flat_pt =
      measure("flat", 0, pool,
              [&](const Vector& q) { return store.similarity_search(q, k); });
  flat_pt.recall = 1.0;  // ground truth by definition
  // Copy the truth set out: points grows below and would invalidate any
  // reference into it.
  const std::vector<std::vector<SearchResult>> truth = flat_pt.hits;
  points.push_back(std::move(flat_pt));

  // The sweep: every spec goes through build_index so the bench exercises
  // the exact objects the KB serves from. ef_search is baked into the built
  // object by IndexSpec, so every point builds its own index — seeded
  // builds keep the sweep deterministic, and build_seconds lands in the
  // report.
  for (const std::size_t ef : efs) {
    IndexSpec spec;
    spec.kind = IndexKind::Hnsw;
    spec.hnsw.ef_search = ef;
    spec.hnsw.seed = seed;
    pkb::util::Stopwatch build;
    const std::shared_ptr<const pkb::vectordb::HnswIndex> index =
        pkb::vectordb::build_index(store, spec);
    const double build_seconds = build.seconds();
    if (index == nullptr) {
      std::fprintf(stderr, "ann_frontier: build_index returned null\n");
      return 1;
    }
    FrontierPoint pt =
        measure(spec.name(), ef, pool,
                [&](const Vector& q) { return index->search(q, k); });
    pt.build_seconds = build_seconds;
    pt.recall = recall_against(truth, pt.hits);
    points.push_back(std::move(pt));
  }

  // Gate 1: every index hit carries the flat scan's score for its row. The
  // full flat scan ranks every row, so its hits give each row's score.
  bool flat_exact = true;
  std::vector<float> row_score(store.size());
  for (std::size_t q = 0; q < pool.size(); ++q) {
    for (const SearchResult& r :
         store.similarity_search(pool[q], store.size())) {
      row_score[r.index] = r.score;
    }
    for (const FrontierPoint& pt : points) {
      for (const SearchResult& hit : pt.hits[q]) {
        if (hit.score != row_score[hit.index]) flat_exact = false;
      }
    }
  }

  // Gate 2: recall floor at the default operating point (hnsw, ef = 64 —
  // falls back to the largest swept ef when 64 is not in the sweep).
  std::size_t default_ef = efs.back();
  for (const std::size_t ef : efs) {
    if (ef == 64) default_ef = 64;
  }
  bool default_recall_ok = true;
  for (const FrontierPoint& pt : points) {
    if (pt.index == "hnsw" && pt.param == default_ef && pt.recall < 0.95) {
      default_recall_ok = false;
    }
  }

  Json results = Json::array();
  for (const FrontierPoint& pt : points) {
    std::printf("  %-4s param=%-4zu recall@%zu %.3f | p50 %8.3f us "
                "p99 %8.3f us | %9.0f QPS\n",
                pt.index.c_str(), pt.param, k, pt.recall,
                pt.p50 * 1e6, pt.p99 * 1e6, pt.qps);
    results.push_back(point_json(pt));
  }

  Json config = Json::object();
  config.set("docs", Json(docs));
  config.set("dim", Json(dim));
  config.set("queries", Json(queries));
  config.set("k", Json(k));
  config.set("seed", Json(static_cast<double>(seed)));
  config.set("backend", Json(backend));
  Json gates = Json::object();
  gates.set("flat_exact", Json(flat_exact));
  gates.set("default_recall", Json(default_recall_ok));
  const bool all_ok = flat_exact && default_recall_ok;
  gates.set("ok", Json(all_ok));
  Json report = Json::object();
  report.set("config", std::move(config));
  report.set("gates", std::move(gates));
  report.set("results", std::move(results));

  std::ofstream out(output);
  out << report.dump(2) << "\n";
  std::printf("wrote %s\n", output.c_str());
  if (!out.good()) return 1;
  if (!flat_exact) {
    std::fprintf(stderr,
                 "ann_frontier: exactness gate FAILED — an index hit's "
                 "score differs from the flat scan's score for its row\n");
    return 1;
  }
  if (!default_recall_ok) {
    std::fprintf(stderr,
                 "ann_frontier: recall gate FAILED — recall@%zu < 0.95 at "
                 "the default operating point (hnsw ef=%zu)\n",
                 k, default_ef);
    return 1;
  }
  return 0;
}
