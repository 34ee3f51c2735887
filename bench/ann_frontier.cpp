// ANN frontier bench: sweeps {flat, IVF, HNSW} x {fp32, int8, pq} over
// their tuning knobs (nprobe for IVF, ef_search for HNSW) against one
// seeded corpus and reports recall@k vs latency vs throughput vs
// bytes/vector per operating point. Reports land in BENCH_ann.json.
//
// Gates make this a regression test, not just a chart:
//   flat_exact     — the flat/fp32 row is VectorStore::similarity_search
//                    (the ground truth), and the flat/int8 row (quantized
//                    scan + exact re-rank) must reproduce the flat top-k
//                    bit-for-bit at the configured rerank factor;
//   default_recall — recall@k at the default operating point (HNSW with
//                    ef_search = 64, fp32 + int8) must be >= 0.95;
//   pq_recall      — PQ recall@k at its default operating points (flat_pq
//                    candidate scan and hnsw_pq at ef = 64) must be >= 0.90;
//   pq_memory      — every PQ point's measured scan bytes/vector must be
//                    <= 0.25x the fp32 row;
//   build_speedup  — the parallel SIMD IVF+PQ build (coarse k-means + sub
//                    codebooks + row encode) must be >= 2x faster than the
//                    single-thread scalar reference (kmeans_cluster_reference
//                    + PqCodebook::train_reference + PqCodes::encode_reference).
//                    Skipped (reported, not enforced) on the scalar backend
//                    or corpora under 5000 docs, where the comparison is
//                    noise.
// Any gate failure exits nonzero so bench_smoke.sh / CI catch kernel or
// index regressions.
//
// Usage: ann_frontier [--docs N] [--dim D] [--queries Q] [--k K]
//                     [--rerank R] [--ef LIST] [--nprobe LIST] [--seed S]
//                     [--build-only] [--output PATH]
//   --ef         comma-separated HNSW beam widths   (default 16,32,64,128)
//   --nprobe     comma-separated IVF probe counts   (default 1,2,4,8,16)
//   --build-only skip the query sweep; measure and gate only the IVF+PQ
//                build speedup (bench_smoke runs this at the tier where the
//                gate applies without paying for graph builds)

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <cmath>

#include "util/clock.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/stats.h"
#include "vectordb/hnsw.h"
#include "vectordb/index.h"
#include "vectordb/kernels.h"
#include "vectordb/kmeans.h"
#include "vectordb/pq.h"
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
    pkb::text::Document doc;
    doc.id = "doc-" + std::to_string(i);
    store.add(std::move(doc), std::move(v));
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

bool hits_equal(const std::vector<SearchResult>& a,
                const std::vector<SearchResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].index != b[i].index) return false;
    if (a[i].score != b[i].score) return false;  // bit-identical
  }
  return true;
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
  std::string index;   ///< "flat" | "ivf" | "hnsw"
  std::string quant;   ///< "fp32" | "int8" | "pq"
  std::size_t param;   ///< nprobe / ef_search; 0 for flat
  double recall = 0.0;
  double p50 = 0.0, p99 = 0.0;
  double qps = 0.0;
  double build_seconds = 0.0;
  std::size_t bytes = 0;  ///< scan bytes per vector (AnnIndex contract)
  std::vector<std::vector<SearchResult>> hits;  ///< per pool query
};

/// Closed-loop single-thread sweep of the query pool through `search`,
/// recording per-query latency and the hits for recall/exactness checks.
template <typename SearchFn>
FrontierPoint measure(std::string index, std::string quant, std::size_t param,
                      const std::vector<Vector>& pool, SearchFn&& search) {
  FrontierPoint pt;
  pt.index = std::move(index);
  pt.quant = std::move(quant);
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
  j.set("quant", Json(pt.quant));
  j.set("param", Json(pt.param));
  j.set("recall_at_k", Json(pt.recall));
  j.set("p50_seconds", Json(pt.p50));
  j.set("p99_seconds", Json(pt.p99));
  j.set("qps", Json(pt.qps));
  j.set("build_seconds", Json(pt.build_seconds));
  j.set("bytes_per_vector", Json(pt.bytes));
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
  std::size_t rerank = 4;
  std::uint64_t seed = 42;
  std::string ef_list = "16,32,64,128";
  std::string nprobe_list = "1,2,4,8,16";
  std::string output = "BENCH_ann.json";
  bool build_only = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--docs") == 0 && i + 1 < argc) {
      docs = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--dim") == 0 && i + 1 < argc) {
      dim = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--queries") == 0 && i + 1 < argc) {
      queries = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--k") == 0 && i + 1 < argc) {
      k = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--rerank") == 0 && i + 1 < argc) {
      rerank = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--ef") == 0 && i + 1 < argc) {
      ef_list = argv[++i];
    } else if (std::strcmp(argv[i], "--nprobe") == 0 && i + 1 < argc) {
      nprobe_list = argv[++i];
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--output") == 0 && i + 1 < argc) {
      output = argv[++i];
    } else if (std::strcmp(argv[i], "--build-only") == 0) {
      build_only = true;
    } else {
      std::fprintf(stderr,
                   "usage: ann_frontier [--docs N] [--dim D] [--queries Q] "
                   "[--k K] [--rerank R] [--ef LIST] [--nprobe LIST] "
                   "[--seed S] [--build-only] [--output PATH]\n");
      return 2;
    }
  }
  if (docs == 0) docs = 1;
  if (dim == 0) dim = 1;
  if (queries == 0) queries = 1;
  if (k == 0) k = 1;
  if (rerank == 0) rerank = 1;

  const std::vector<std::size_t> efs = parse_list(ef_list);
  const std::vector<std::size_t> nprobes = parse_list(nprobe_list);
  if (efs.empty() || nprobes.empty()) {
    std::fprintf(stderr, "ann_frontier: empty --ef or --nprobe sweep\n");
    return 2;
  }

  const std::string backend(pkb::vectordb::kernels::backend_name());
  std::printf("ann frontier: %zu docs x dim %zu, %zu queries, k=%zu, "
              "rerank=%zu, seed %llu, kernels=%s\n",
              docs, dim, queries, k, rerank,
              static_cast<unsigned long long>(seed), backend.c_str());

  const VectorStore store = random_store(docs, dim, seed);
  const std::vector<Vector> pool = random_queries(queries, dim, seed + 1);

  using pkb::vectordb::AnnIndex;
  using pkb::vectordb::IndexKind;
  using pkb::vectordb::IndexSpec;
  using pkb::vectordb::Quantizer;

  const std::size_t fp32_bytes = store.packed().stride() * sizeof(float);

  // Build-speedup measurement (gate 5): the production IVF+PQ codebook
  // build (packed SIMD kernels + thread pool) vs the single-thread scalar
  // reference trainers on the same data and options. Enforced only where
  // the comparison means something: a SIMD backend and a non-tiny corpus.
  pkb::util::Stopwatch simd_build;
  pkb::vectordb::KmeansOptions ko;
  ko.k = static_cast<std::size_t>(
      std::ceil(std::sqrt(static_cast<double>(docs))));
  ko.iters = 10;
  ko.seed = seed;
  ko.metric = pkb::vectordb::KmeansMetric::Cosine;
  const pkb::vectordb::KmeansResult km_simd =
      pkb::vectordb::kmeans_cluster(store.packed(), ko);
  pkb::vectordb::PqOptions pq_opts;
  pq_opts.seed = seed;
  const pkb::vectordb::PqCodebook book =
      pkb::vectordb::PqCodebook::train(store, pq_opts);
  const pkb::vectordb::PqCodes codes =
      pkb::vectordb::PqCodes::encode(store, book);
  const double simd_build_seconds = simd_build.seconds();

  pkb::util::Stopwatch ref_build;
  const pkb::vectordb::KmeansResult km_ref =
      pkb::vectordb::kmeans_cluster_reference(store.packed(), ko);
  const pkb::vectordb::PqCodebook book_ref =
      pkb::vectordb::PqCodebook::train_reference(store, pq_opts);
  const pkb::vectordb::PqCodes codes_ref =
      pkb::vectordb::PqCodes::encode_reference(store, book_ref);
  const double ref_build_seconds = ref_build.seconds();
  if (book_ref.m() != book.m() || codes_ref.rows() != codes.rows() ||
      km_ref.counts.size() != km_simd.counts.size()) {
    std::fprintf(stderr, "ann_frontier: reference build disagrees on shape\n");
    return 1;
  }
  const double build_speedup =
      simd_build_seconds > 0.0 ? ref_build_seconds / simd_build_seconds : 0.0;
  const bool build_gate_applies = backend != "scalar" && docs >= 5000;
  const bool build_speedup_ok = !build_gate_applies || build_speedup >= 2.0;
  std::printf(
      "  build: ivf+pq simd %.3f s | scalar reference %.3f s | %.2fx "
      "(clusters=%zu/%zu, pq m=%zu, codes=%zu rows)%s\n",
      simd_build_seconds, ref_build_seconds, build_speedup,
      km_simd.counts.size(), km_ref.counts.size(), book.m(), codes.rows(),
      build_gate_applies ? "" : " [gate skipped: tiny corpus or scalar]");

  using pkb::util::Json;
  Json build = Json::object();
  build.set("ivf_pq_simd_seconds", Json(simd_build_seconds));
  build.set("scalar_reference_seconds", Json(ref_build_seconds));
  build.set("speedup", Json(build_speedup));
  build.set("gate_applies", Json(build_gate_applies));

  if (build_only) {
    Json config = Json::object();
    config.set("docs", Json(docs));
    config.set("dim", Json(dim));
    config.set("seed", Json(static_cast<double>(seed)));
    config.set("backend", Json(backend));
    config.set("build_only", Json(true));
    Json gates = Json::object();
    gates.set("build_speedup", Json(build_speedup_ok));
    gates.set("ok", Json(build_speedup_ok));
    Json report = Json::object();
    report.set("config", std::move(config));
    report.set("gates", std::move(gates));
    report.set("build", std::move(build));
    std::ofstream out(output);
    out << report.dump(2) << "\n";
    std::printf("wrote %s\n", output.c_str());
    if (!out.good()) return 1;
    if (!build_speedup_ok) {
      std::fprintf(stderr,
                   "ann_frontier: build_speedup gate FAILED — parallel SIMD "
                   "IVF+PQ build only %.2fx the scalar reference (need >= "
                   "2x)\n",
                   build_speedup);
      return 1;
    }
    return 0;
  }

  std::vector<FrontierPoint> points;

  // flat / fp32 — the exact SIMD scan everything else is judged against.
  FrontierPoint flat_pt =
      measure("flat", "fp32", 0, pool,
              [&](const Vector& q) { return store.similarity_search(q, k); });
  flat_pt.recall = 1.0;  // ground truth by definition
  flat_pt.bytes = fp32_bytes;
  // Copy the truth set out: points grows below and would invalidate any
  // reference into it.
  const std::vector<std::vector<SearchResult>> truth = flat_pt.hits;
  points.push_back(std::move(flat_pt));

  bool flat_exact = true;  // cleared by the flat/int8 check below

  // The sweep: every non-identity spec goes through build_index so the
  // bench exercises the exact objects the KB serves from.
  struct SpecPoint {
    IndexSpec spec;
    std::string index;
    std::string quant;
    std::size_t param;
  };
  const auto quant_name = [](Quantizer q) {
    switch (q) {
      case Quantizer::Int8:
        return "int8";
      case Quantizer::Pq:
        return "pq";
      default:
        return "fp32";
    }
  };
  std::vector<SpecPoint> sweep;
  for (const Quantizer quant : {Quantizer::Int8, Quantizer::Pq}) {
    IndexSpec s;
    s.kind = IndexKind::Flat;
    s.quant = quant;
    s.rerank_factor = rerank;
    s.pq.seed = seed;
    sweep.push_back({s, "flat", quant_name(quant), 0});
  }
  for (const Quantizer quant :
       {Quantizer::None, Quantizer::Int8, Quantizer::Pq}) {
    for (const std::size_t nprobe : nprobes) {
      IndexSpec s;
      s.kind = IndexKind::Ivf;
      s.quant = quant;
      s.rerank_factor = rerank;
      s.ivf.nprobe = nprobe;
      s.ivf.seed = seed;
      s.pq.seed = seed;
      sweep.push_back({s, "ivf", quant_name(quant), nprobe});
    }
    for (const std::size_t ef : efs) {
      IndexSpec s;
      s.kind = IndexKind::Hnsw;
      s.quant = quant;
      s.rerank_factor = rerank;
      s.hnsw.ef_search = ef;
      s.hnsw.seed = seed;
      s.pq.seed = seed;
      sweep.push_back({s, "hnsw", quant_name(quant), ef});
    }
  }

  // The swept knobs (ef_search, nprobe) are baked into the built object by
  // IndexSpec, so every point builds its own index — seeded builds keep the
  // sweep deterministic, and build_seconds lands in the report.
  for (const SpecPoint& sp : sweep) {
    pkb::util::Stopwatch build;
    const std::shared_ptr<const AnnIndex> index =
        pkb::vectordb::build_index(store, sp.spec);
    const double build_seconds = build.seconds();
    if (index == nullptr) {
      std::fprintf(stderr, "ann_frontier: build_index returned null for %s\n",
                   sp.spec.name().c_str());
      return 1;
    }
    FrontierPoint pt =
        measure(sp.index, sp.quant, sp.param, pool,
                [&](const Vector& q) { return index->search(q, k); });
    pt.build_seconds = build_seconds;
    pt.recall = recall_against(truth, pt.hits);
    pt.bytes = index->scan_bytes_per_vector();
    points.push_back(std::move(pt));
  }

  // Gate 1: flat/int8 must reproduce the flat top-k bit-for-bit.
  for (const FrontierPoint& pt : points) {
    if (pt.index != "flat" || pt.quant != "int8") continue;
    for (std::size_t q = 0; q < pool.size(); ++q) {
      if (!hits_equal(truth[q], pt.hits[q])) flat_exact = false;
    }
  }

  // Gate 2: recall floor at the default operating point (hnsw, ef = 64 —
  // falls back to the largest swept ef when 64 is not in the sweep). PQ
  // cells have their own floor below.
  std::size_t default_ef = efs.back();
  for (const std::size_t ef : efs) {
    if (ef == 64) default_ef = 64;
  }
  bool default_recall_ok = true;
  for (const FrontierPoint& pt : points) {
    if (pt.index == "hnsw" && pt.quant != "pq" && pt.param == default_ef &&
        pt.recall < 0.95) {
      default_recall_ok = false;
    }
  }

  // Gate 3: PQ recall floor at its default operating points — the flat
  // ADC scan (pure candidate-generation quality at k x rerank survivors)
  // and hnsw_pq at the default ef.
  bool pq_recall_ok = true;
  for (const FrontierPoint& pt : points) {
    if (pt.quant != "pq") continue;
    const bool at_default = (pt.index == "flat") ||
                            (pt.index == "hnsw" && pt.param == default_ef);
    if (at_default && pt.recall < 0.90) pq_recall_ok = false;
  }

  // Gate 4: PQ memory — the measured scan footprint must be <= 0.25x the
  // fp32 row (it should be ~16x smaller; 4x is the int8 point).
  bool pq_memory_ok = true;
  for (const FrontierPoint& pt : points) {
    if (pt.quant == "pq" &&
        static_cast<double>(pt.bytes) >
            0.25 * static_cast<double>(fp32_bytes)) {
      pq_memory_ok = false;
    }
  }

  Json results = Json::array();
  for (const FrontierPoint& pt : points) {
    std::printf("  %-4s %-4s param=%-4zu recall@%zu %.3f | p50 %8.3f us "
                "p99 %8.3f us | %9.0f QPS\n",
                pt.index.c_str(), pt.quant.c_str(), pt.param, k, pt.recall,
                pt.p50 * 1e6, pt.p99 * 1e6, pt.qps);
    results.push_back(point_json(pt));
  }

  Json config = Json::object();
  config.set("docs", Json(docs));
  config.set("dim", Json(dim));
  config.set("queries", Json(queries));
  config.set("k", Json(k));
  config.set("rerank_factor", Json(rerank));
  config.set("seed", Json(static_cast<double>(seed)));
  config.set("backend", Json(backend));
  Json gates = Json::object();
  gates.set("flat_exact", Json(flat_exact));
  gates.set("default_recall", Json(default_recall_ok));
  gates.set("pq_recall", Json(pq_recall_ok));
  gates.set("pq_memory", Json(pq_memory_ok));
  gates.set("build_speedup", Json(build_speedup_ok));
  const bool all_ok = flat_exact && default_recall_ok && pq_recall_ok &&
                      pq_memory_ok && build_speedup_ok;
  gates.set("ok", Json(all_ok));
  Json report = Json::object();
  report.set("config", std::move(config));
  report.set("gates", std::move(gates));
  report.set("build", std::move(build));
  report.set("results", std::move(results));

  std::ofstream out(output);
  out << report.dump(2) << "\n";
  std::printf("wrote %s\n", output.c_str());
  if (!out.good()) return 1;
  if (!flat_exact) {
    std::fprintf(stderr,
                 "ann_frontier: exactness gate FAILED — flat/fp32 or the "
                 "int8 re-rank diverged from the exact scan\n");
    return 1;
  }
  if (!default_recall_ok) {
    std::fprintf(stderr,
                 "ann_frontier: recall gate FAILED — recall@%zu < 0.95 at "
                 "the default operating point (hnsw ef=%zu)\n",
                 k, default_ef);
    return 1;
  }
  if (!pq_recall_ok) {
    std::fprintf(stderr,
                 "ann_frontier: pq_recall gate FAILED — PQ recall@%zu < "
                 "0.90 at a default operating point (flat_pq / hnsw_pq "
                 "ef=%zu)\n",
                 k, default_ef);
    return 1;
  }
  if (!pq_memory_ok) {
    std::fprintf(stderr,
                 "ann_frontier: pq_memory gate FAILED — a PQ point scans "
                 "more than 0.25x the fp32 bytes/vector (%zu)\n",
                 fp32_bytes);
    return 1;
  }
  if (!build_speedup_ok) {
    std::fprintf(stderr,
                 "ann_frontier: build_speedup gate FAILED — parallel SIMD "
                 "IVF+PQ build only %.2fx the scalar reference (need >= "
                 "2x)\n",
                 build_speedup);
    return 1;
  }
  return 0;
}
