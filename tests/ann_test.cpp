// ANN hot-path tests: kernel backend consistency, the int8 + exact-re-rank
// bit-identity property, HNSW recall and determinism, the deterministic
// parallel k-means trainer, PQ/ADC search and codebook builds, IndexSpec
// routing through Snapshot/Retriever/ShardRouter, and snapshot persistence
// v3/v4. Suite names (Kernels*, Quantize*, Hnsw*, Kmeans*, Pq*, AnnIndex*,
// AnnKnowledgeBase*) are part of the scripts/run_tsan.sh filter.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "rag/knowledge_base.h"
#include "rag/retriever.h"
#include "util/arena.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "vectordb/hnsw.h"
#include "vectordb/index.h"
#include "vectordb/ivf.h"
#include "vectordb/kmeans.h"
#include "vectordb/pq.h"
#include "vectordb/quantize.h"
#include "vectordb/shard_router.h"
#include "vectordb/vector_store.h"

namespace {

using namespace pkb;
using embed::Vector;
using vectordb::HnswIndex;
using vectordb::HnswOptions;
using vectordb::IndexKind;
using vectordb::IndexSpec;
using vectordb::Int8Codes;
using vectordb::KmeansMetric;
using vectordb::KmeansOptions;
using vectordb::KmeansResult;
using vectordb::PqCodebook;
using vectordb::PqCodes;
using vectordb::PqOptions;
using vectordb::Quantizer;
using vectordb::SearchResult;
using vectordb::ShardRouter;
using vectordb::ShardRouterOptions;
using vectordb::VectorStore;

VectorStore random_store(std::size_t n, std::size_t dim, std::uint64_t seed) {
  pkb::util::Rng rng(seed);
  VectorStore store;
  for (std::size_t i = 0; i < n; ++i) {
    Vector v(dim);
    for (float& x : v) x = static_cast<float>(rng.normal());
    text::Document doc;
    doc.id = "doc-" + std::to_string(i);
    store.add(std::move(doc), std::move(v));
  }
  return store;
}

std::vector<Vector> random_queries(std::size_t n, std::size_t dim,
                                   std::uint64_t seed) {
  pkb::util::Rng rng(seed);
  std::vector<Vector> queries;
  queries.reserve(n);
  for (std::size_t q = 0; q < n; ++q) {
    Vector v(dim);
    for (float& x : v) x = static_cast<float>(rng.normal());
    queries.push_back(std::move(v));
  }
  return queries;
}

void expect_hits_equal(const std::vector<SearchResult>& a,
                       const std::vector<SearchResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].index, b[i].index) << "rank " << i;
    EXPECT_EQ(a[i].score, b[i].score) << "rank " << i;  // bit-identical
  }
}

// --- util/arena.h ----------------------------------------------------------

TEST(KernelsArena, AlignedBufferIsAlignedAndZeroFilled) {
  util::AlignedBuffer buf(100);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(buf.data()) %
                util::kArenaAlignment,
            0u);
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(std::to_integer<int>(buf.data()[i]), 0);
  }
  buf.as<float>()[0] = 1.5f;
  buf.resize(100000);  // grow preserves contents, zeroes the rest
  EXPECT_EQ(buf.as<float>()[0], 1.5f);
  EXPECT_EQ(std::to_integer<int>(buf.data()[99999]), 0);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(buf.data()) %
                util::kArenaAlignment,
            0u);
}

TEST(KernelsArena, ArenaAllocationsAreAlignedAndStable) {
  util::Arena arena(/*slab_bytes=*/256);
  float* first = arena.alloc_array<float>(10);
  first[0] = 42.0f;
  // Force several new slabs; earlier pointers must stay valid.
  for (int i = 0; i < 50; ++i) {
    auto* p = arena.alloc_array<std::uint32_t>(17);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % util::kArenaAlignment, 0u);
    EXPECT_EQ(p[0], 0u);  // zeroed
  }
  EXPECT_EQ(first[0], 42.0f);
  EXPECT_GT(arena.footprint(), 0u);
}

// --- kernels ---------------------------------------------------------------

TEST(Kernels, BackendNameIsKnown) {
  const std::string_view name = vectordb::kernels::backend_name();
  EXPECT_TRUE(name == "avx2" || name == "neon" || name == "scalar") << name;
}

TEST(Kernels, PaddedDotEqualsSelfConsistentAcrossCalls) {
  // The same (query, row) pair must score identically via dot_f32 on the
  // padded row and via PackedF32::score_range — the in-process consistency
  // contract every equivalence gate relies on.
  pkb::util::Rng rng(123);
  for (std::size_t dim : {3u, 8u, 17u, 64u, 100u}) {
    vectordb::kernels::PackedF32 packed(dim);
    std::vector<float> row(dim);
    for (float& x : row) x = static_cast<float>(rng.normal());
    packed.append(row.data());

    std::vector<float> query(dim);
    for (float& x : query) x = static_cast<float>(rng.normal());
    util::AlignedBuffer qbuf(packed.stride() * sizeof(float));
    packed.pack_query(query.data(), qbuf.as<float>());

    const float via_dot = vectordb::kernels::dot_f32(
        qbuf.as<float>(), packed.row(0), packed.stride());
    float via_range = 0.0f;
    packed.score_range(qbuf.as<float>(), 0, 1, &via_range);
    EXPECT_EQ(via_dot, via_range);
  }
}

TEST(Kernels, Int8DotIsExactIntegerMath) {
  std::vector<std::int8_t> a(70), b(70);
  pkb::util::Rng rng(7);
  std::int32_t expect = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = static_cast<std::int8_t>(rng.range(-127, 127));
    b[i] = static_cast<std::int8_t>(rng.range(-127, 127));
    expect += static_cast<std::int32_t>(a[i]) * b[i];
  }
  EXPECT_EQ(vectordb::kernels::dot_i8(a.data(), b.data(), a.size()), expect);
}

// --- quantize: the bit-identity property -----------------------------------

TEST(Quantize, RerankIsBitIdenticalToFlatAcrossSeedsAndDims) {
  // Property: int8 candidate scan + exact fp32 re-rank returns the exact
  // flat-search top-k — indices AND scores — whenever the survivor set
  // covers the true top-k (rerank_factor 4 is ample on random data).
  for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    for (std::size_t dim : {8u, 32u, 64u, 100u}) {
      const VectorStore store = random_store(300, dim, seed);
      const Int8Codes codes = Int8Codes::build(store);
      const auto queries = random_queries(10, dim, seed * 7919 + 17);
      for (const Vector& q : queries) {
        const auto flat = store.similarity_search(q, 10);
        const auto reranked =
            vectordb::quantized_search(store, codes, q, 10, 4);
        expect_hits_equal(flat, reranked);
      }
    }
  }
}

TEST(Quantize, RerankFactorOneStillReturnsKHits) {
  const VectorStore store = random_store(100, 16, 9);
  const Int8Codes codes = Int8Codes::build(store);
  const auto q = random_queries(1, 16, 10)[0];
  const auto hits = vectordb::quantized_search(store, codes, q, 5, 1);
  EXPECT_EQ(hits.size(), 5u);
}

TEST(Quantize, StaleCodesThrow) {
  VectorStore store = random_store(10, 8, 11);
  const Int8Codes codes = Int8Codes::build(store);
  text::Document doc;
  doc.id = "late";
  store.add(std::move(doc), random_queries(1, 8, 12)[0]);
  EXPECT_THROW(vectordb::quantized_search(store, codes,
                                          random_queries(1, 8, 13)[0], 3, 2),
               std::invalid_argument);
}

// --- HNSW ------------------------------------------------------------------

TEST(Hnsw, RecallFloorOnTenThousandVectors) {
  const std::size_t n = 10000;
  const std::size_t dim = 32;
  const VectorStore store = random_store(n, dim, 21);
  const HnswIndex index(store, HnswOptions{});
  const auto queries = random_queries(50, dim, 22);
  const double recall = index.recall_at_k(queries, 10);
  EXPECT_GE(recall, 0.95) << "recall@10 on " << n << " vectors";
}

TEST(Hnsw, BuildIsDeterministic) {
  const VectorStore store = random_store(500, 16, 31);
  const HnswIndex a(store, HnswOptions{});
  const HnswIndex b(store, HnswOptions{});
  EXPECT_EQ(a.edge_count(), b.edge_count());
  EXPECT_EQ(a.max_level(), b.max_level());
  for (const Vector& q : random_queries(10, 16, 32)) {
    expect_hits_equal(a.search(q, 5), b.search(q, 5));
  }
}

TEST(Hnsw, ScoresAreFlatScanExact) {
  // HNSW hit scores must be bit-identical to the flat scan's score for the
  // same entry (membership may differ; scores may not).
  const VectorStore store = random_store(2000, 24, 41);
  const HnswIndex index(store, HnswOptions{});
  for (const Vector& q : random_queries(10, 24, 42)) {
    const auto exact = store.similarity_search(q, 50);
    const auto approx = index.search(q, 10);
    for (const SearchResult& hit : approx) {
      for (const SearchResult& e : exact) {
        if (e.index == hit.index) EXPECT_EQ(e.score, hit.score);
      }
    }
  }
}

TEST(Hnsw, Int8TraversalKeepsExactScores) {
  const VectorStore store = random_store(2000, 24, 51);
  const Int8Codes codes = Int8Codes::build(store);
  const HnswIndex index(store, HnswOptions{}, &codes);
  const auto queries = random_queries(30, 24, 52);
  EXPECT_GE(index.recall_at_k(queries, 10), 0.9);
  for (const Vector& q : queries) {
    const auto exact = store.similarity_search(q, 50);
    for (const SearchResult& hit : index.search(q, 10)) {
      for (const SearchResult& e : exact) {
        if (e.index == hit.index) EXPECT_EQ(e.score, hit.score);
      }
    }
  }
}

TEST(Hnsw, EmptyStoreThrows) {
  const VectorStore store;
  EXPECT_THROW(HnswIndex{store}, std::invalid_argument);
}

// --- deterministic parallel k-means ----------------------------------------

vectordb::kernels::PackedF32 random_packed(std::size_t n, std::size_t dim,
                                           std::uint64_t seed) {
  pkb::util::Rng rng(seed);
  vectordb::kernels::PackedF32 data(dim);
  std::vector<float> row(dim);
  for (std::size_t i = 0; i < n; ++i) {
    for (float& x : row) x = static_cast<float>(rng.normal());
    data.append(row.data());
  }
  return data;
}

void expect_kmeans_equal(const KmeansResult& a, const KmeansResult& b) {
  ASSERT_EQ(a.centroids.rows(), b.centroids.rows());
  const std::size_t bytes = a.centroids.dim() * sizeof(float);
  for (std::size_t c = 0; c < a.centroids.rows(); ++c) {
    EXPECT_EQ(std::memcmp(a.centroids.row(c), b.centroids.row(c), bytes), 0)
        << "centroid " << c;
  }
  EXPECT_EQ(a.assign, b.assign);
  EXPECT_EQ(a.counts, b.counts);
}

TEST(Kmeans, BuildIsByteIdenticalAcrossWorkerCounts) {
  // n is large enough for several chunks (kMinChunk = 1024), so 2- and
  // 8-worker pools genuinely interleave chunk execution; the merged result
  // must not care.
  const auto data = random_packed(2600, 8, 7);
  for (KmeansMetric metric : {KmeansMetric::Cosine, KmeansMetric::L2}) {
    KmeansOptions opts;
    opts.k = 24;
    opts.iters = 4;
    opts.seed = 99;
    opts.metric = metric;
    util::ThreadPool one(1);
    opts.pool = &one;
    const KmeansResult a = vectordb::kmeans_cluster(data, opts);
    util::ThreadPool two(2);
    opts.pool = &two;
    const KmeansResult b = vectordb::kmeans_cluster(data, opts);
    util::ThreadPool eight(8);
    opts.pool = &eight;
    const KmeansResult c = vectordb::kmeans_cluster(data, opts);
    expect_kmeans_equal(a, b);
    expect_kmeans_equal(a, c);
  }
}

TEST(Kmeans, DegenerateReseedPicksFreshRows) {
  // 8 distinct values, each duplicated 40×, k = 8: k-means++ rounds hit the
  // zero-weight walk and re-seeds must land on rows distinct from every
  // chosen centroid, so all 8 clusters end up populated with 8 distinct
  // centroids — the cluster-wasting regression the old in-line IVF k-means
  // had.
  pkb::util::Rng rng(13);
  std::vector<std::vector<float>> base(8, std::vector<float>(6));
  for (auto& row : base) {
    for (float& x : row) x = static_cast<float>(rng.normal());
  }
  vectordb::kernels::PackedF32 data(6);
  for (std::size_t i = 0; i < 8 * 40; ++i) data.append(base[i % 8].data());

  KmeansOptions opts;
  opts.k = 8;
  opts.iters = 3;
  opts.metric = KmeansMetric::L2;
  const KmeansResult res = vectordb::kmeans_cluster(data, opts);
  ASSERT_EQ(res.counts.size(), 8u);
  for (std::size_t c = 0; c < 8; ++c) {
    EXPECT_GT(res.counts[c], 0u) << "cluster " << c << " wasted";
    for (std::size_t o = c + 1; o < 8; ++o) {
      EXPECT_NE(std::memcmp(res.centroids.row(c), res.centroids.row(o),
                            6 * sizeof(float)),
                0)
          << "duplicate centroids " << c << "/" << o;
    }
  }
}

TEST(Kmeans, FindFreshRowSkipsCentroidDuplicates) {
  vectordb::kernels::PackedF32 data(2);
  const float rows[4][2] = {{1, 0}, {1, 0}, {0, 1}, {1, 0}};
  for (const auto& r : rows) data.append(r);
  vectordb::kernels::PackedF32 centroids(2);
  centroids.append(rows[0]);  // {1, 0} is taken
  // Every start lands on the only fresh row, index 2.
  for (std::uint64_t start = 0; start < 8; ++start) {
    EXPECT_EQ(vectordb::find_fresh_row(data, centroids, start), 2u);
  }
  centroids.append(rows[2]);  // now everything duplicates a centroid
  EXPECT_EQ(vectordb::find_fresh_row(data, centroids, 3), 3u);  // start row
}

// --- product quantization --------------------------------------------------

TEST(Pq, RerankIsBitIdenticalToFlatWhenSurvivorsCoverAll) {
  // With k × rerank_factor ≥ n every row survives the ADC scan, so the
  // exact re-rank must reproduce the flat scan bit-for-bit — indices and
  // scores — for any seed and sub-quantizer split.
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const VectorStore store = random_store(200, 16, seed);
    PqOptions po;
    po.m = 4;
    po.seed = seed;
    const PqCodebook book = PqCodebook::train(store, po);
    const PqCodes codes = PqCodes::encode(store, book);
    for (const Vector& q : random_queries(8, 16, seed * 31 + 5)) {
      expect_hits_equal(store.similarity_search(q, 10),
                        vectordb::pq_search(store, book, codes, q, 10, 20));
    }
  }
}

TEST(Pq, CodesAreByteIdenticalAcrossWorkerCounts) {
  const VectorStore store = random_store(2600, 16, 17);
  PqOptions po;
  po.m = 4;
  po.kmeans_iters = 3;
  util::ThreadPool one(1);
  util::ThreadPool eight(8);
  const PqCodebook book1 = PqCodebook::train(store, po, &one);
  const PqCodebook book8 = PqCodebook::train(store, po, &eight);
  ASSERT_EQ(book1.m(), book8.m());
  ASSERT_EQ(book1.centers(), book8.centers());

  // Codebooks compare through their observable outputs: every code byte and
  // every LUT float must match.
  const PqCodes codes1 = PqCodes::encode(store, book1, &one);
  const PqCodes codes8 = PqCodes::encode(store, book8, &eight);
  ASSERT_EQ(codes1.rows(), codes8.rows());
  for (std::size_t i = 0; i < codes1.rows(); ++i) {
    EXPECT_EQ(std::memcmp(codes1.row(i), codes8.row(i), codes1.m()), 0)
        << "row " << i;
  }
  std::vector<float> lut1(book1.lut_size());
  std::vector<float> lut8(book8.lut_size());
  for (const Vector& q : random_queries(4, 16, 18)) {
    Vector nq = q;
    embed::l2_normalize(nq);
    book1.build_lut(nq.data(), lut1.data());
    book8.build_lut(nq.data(), lut8.data());
    EXPECT_EQ(std::memcmp(lut1.data(), lut8.data(),
                          lut1.size() * sizeof(float)),
              0);
  }
}

TEST(Pq, ReferenceTrainerMatchesShape) {
  const VectorStore store = random_store(300, 12, 23);
  PqOptions po;
  po.m = 3;
  po.kmeans_iters = 2;
  const PqCodebook book = PqCodebook::train(store, po);
  const PqCodebook ref = PqCodebook::train_reference(store, po);
  EXPECT_EQ(book.m(), ref.m());
  EXPECT_EQ(book.dim(), ref.dim());
  EXPECT_EQ(book.centers(), ref.centers());
}

TEST(Pq, StaleCodesOrBookThrow) {
  VectorStore store = random_store(50, 8, 29);
  const PqCodebook book = PqCodebook::train(store, PqOptions{});
  const PqCodes codes = PqCodes::encode(store, book);
  const Vector q = random_queries(1, 8, 30)[0];
  text::Document doc;
  doc.id = "late";
  store.add(std::move(doc), random_queries(1, 8, 31)[0]);
  EXPECT_THROW(vectordb::pq_search(store, book, codes, q, 3, 2),
               std::invalid_argument);
}

TEST(Pq, HnswPqTraversalKeepsExactScores) {
  const VectorStore store = random_store(2000, 24, 57);
  PqOptions po;
  const PqCodebook book = PqCodebook::train(store, po);
  const PqCodes codes = PqCodes::encode(store, book);
  const HnswIndex index(store, HnswOptions{}, nullptr, &book, &codes);
  const auto queries = random_queries(30, 24, 58);
  EXPECT_GE(index.recall_at_k(queries, 10), 0.85);
  for (const Vector& q : queries) {
    const auto exact = store.similarity_search(q, 50);
    for (const SearchResult& hit : index.search(q, 10)) {
      for (const SearchResult& e : exact) {
        if (e.index == hit.index) {
          EXPECT_EQ(e.score, hit.score);
        }
      }
    }
  }
}

// --- IndexSpec / build_index ----------------------------------------------

TEST(AnnIndex, IdentitySpecBuildsNothing) {
  const VectorStore store = random_store(50, 8, 61);
  EXPECT_EQ(vectordb::build_index(store, IndexSpec{}), nullptr);
  IndexSpec int8;
  int8.quant = Quantizer::Int8;
  EXPECT_NE(vectordb::build_index(store, int8), nullptr);
}

TEST(AnnIndex, SpecNamesAreStable) {
  IndexSpec spec;
  EXPECT_EQ(spec.name(), "flat");
  spec.quant = Quantizer::Int8;
  EXPECT_EQ(spec.name(), "flat_int8");
  spec.kind = IndexKind::Ivf;
  EXPECT_EQ(spec.name(), "ivf_int8");
  spec.kind = IndexKind::Hnsw;
  spec.quant = Quantizer::None;
  EXPECT_EQ(spec.name(), "hnsw");
  spec.quant = Quantizer::Pq;
  EXPECT_EQ(spec.name(), "hnsw_pq");
  spec.kind = IndexKind::Flat;
  EXPECT_EQ(spec.name(), "flat_pq");
}

TEST(AnnIndex, FlatPqMatchesFlatScanWithFullRerank) {
  const VectorStore store = random_store(200, 16, 73);
  IndexSpec spec;
  spec.quant = Quantizer::Pq;
  spec.rerank_factor = 20;  // 10 × 20 ≥ n: survivors cover everything
  const auto index = vectordb::build_index(store, spec);
  ASSERT_NE(index, nullptr);
  EXPECT_EQ(index->name(), "flat_pq");
  EXPECT_LE(index->scan_bytes_per_vector(), 8u);  // m=8 codes at dim 16
  for (const Vector& q : random_queries(10, 16, 74)) {
    expect_hits_equal(store.similarity_search(q, 10), index->search(q, 10));
  }
}

TEST(AnnIndex, IvfPqComposesProbeAndRerank) {
  const VectorStore store = random_store(400, 16, 83);
  IndexSpec spec;
  spec.kind = IndexKind::Ivf;
  spec.quant = Quantizer::Pq;
  spec.ivf.nprobe = 64;     // probe everything
  spec.rerank_factor = 40;  // 10 × 40 ≥ n: result must equal flat scan
  const auto index = vectordb::build_index(store, spec);
  ASSERT_NE(index, nullptr);
  EXPECT_EQ(index->name(), "ivf_pq");
  for (const Vector& q : random_queries(5, 16, 84)) {
    expect_hits_equal(store.similarity_search(q, 10), index->search(q, 10));
  }
}

TEST(AnnIndex, FlatInt8MatchesFlatScan) {
  const VectorStore store = random_store(200, 16, 71);
  IndexSpec spec;
  spec.quant = Quantizer::Int8;
  spec.rerank_factor = 4;
  const auto index = vectordb::build_index(store, spec);
  ASSERT_NE(index, nullptr);
  for (const Vector& q : random_queries(10, 16, 72)) {
    expect_hits_equal(store.similarity_search(q, 10), index->search(q, 10));
  }
}

TEST(AnnIndex, IvfInt8ComposesProbeAndRerank) {
  const VectorStore store = random_store(400, 16, 81);
  IndexSpec spec;
  spec.kind = IndexKind::Ivf;
  spec.quant = Quantizer::Int8;
  spec.ivf.nprobe = 64;  // probe everything: result must equal flat scan
  const auto index = vectordb::build_index(store, spec);
  ASSERT_NE(index, nullptr);
  for (const Vector& q : random_queries(5, 16, 82)) {
    expect_hits_equal(store.similarity_search(q, 10), index->search(q, 10));
  }
}

// --- per-shard indexes -----------------------------------------------------

TEST(AnnIndex, ShardedFlatInt8MergesBitIdentical) {
  // Per-shard flat_int8 indexes re-rank exactly, so the scatter-merge must
  // reproduce the monolithic flat scan bit-for-bit.
  const VectorStore store = random_store(240, 16, 101);
  ShardRouterOptions opts;
  opts.index.quant = Quantizer::Int8;
  opts.index.rerank_factor = 4;
  const auto router = ShardRouter::partition(store, 4, opts);
  for (const Vector& q : random_queries(10, 16, 102)) {
    const auto mono = store.similarity_search(q, 10);
    const auto sc = router->search(q, 10);
    EXPECT_FALSE(sc.partial());
    expect_hits_equal(mono, sc.hits);
  }
}

TEST(AnnIndex, ShardedHnswReturnsExactScores) {
  const VectorStore store = random_store(1200, 16, 111);
  ShardRouterOptions opts;
  opts.index.kind = IndexKind::Hnsw;
  const auto router = ShardRouter::partition(store, 3, opts);
  for (const Vector& q : random_queries(5, 16, 112)) {
    const auto exact = store.similarity_search(q, 60);
    const auto sc = router->search(q, 10);
    EXPECT_EQ(sc.hits.size(), 10u);
    for (const SearchResult& hit : sc.hits) {
      for (const SearchResult& e : exact) {
        if (e.index == hit.index) EXPECT_EQ(e.score, hit.score);
      }
    }
  }
}

// --- generational wiring ---------------------------------------------------

text::VirtualDir tiny_corpus() {
  text::VirtualDir corpus;
  for (int i = 0; i < 12; ++i) {
    corpus.push_back(
        {"doc" + std::to_string(i) + ".md",
         "# VecSetValues topic " + std::to_string(i) +
             "\n\nPETSc manual page about VecSetValues and "
             "MatAssemblyBegin, section " +
             std::to_string(i) +
             ". Use KSPSolve with a preconditioner. More prose so the "
             "splitter has something to chunk across paragraphs.\n"});
  }
  return corpus;
}

TEST(AnnKnowledgeBase, SnapshotBuildsConfiguredIndex) {
  rag::KnowledgeBaseOptions opts;
  opts.index.kind = IndexKind::Hnsw;
  const rag::KnowledgeBase kb = rag::KnowledgeBase::build(tiny_corpus(), opts);
  const rag::SnapshotPtr snap = kb.snapshot();
  ASSERT_NE(snap->ann, nullptr);
  EXPECT_EQ(snap->ann->name(), "hnsw");
  EXPECT_EQ(snap->shards, nullptr);

  // Retrieval routes through the index and still returns results.
  const rag::Retriever retriever(kb);
  const auto result = retriever.retrieve("How do I use VecSetValues?");
  EXPECT_FALSE(result.contexts.empty());
}

TEST(AnnKnowledgeBase, ShardedSnapshotKeepsAnnNull) {
  rag::KnowledgeBaseOptions opts;
  opts.shards = 2;
  opts.index.quant = Quantizer::Int8;
  const rag::KnowledgeBase kb = rag::KnowledgeBase::build(tiny_corpus(), opts);
  const rag::SnapshotPtr snap = kb.snapshot();
  EXPECT_EQ(snap->ann, nullptr);  // per-shard indexes live in the router
  ASSERT_NE(snap->shards, nullptr);
  EXPECT_EQ(snap->shards->shard_count(), 2u);
}

TEST(AnnKnowledgeBase, PersistenceV3RoundTripsIndexSpec) {
  rag::KnowledgeBaseOptions opts;
  opts.index.kind = IndexKind::Hnsw;
  opts.index.quant = Quantizer::Int8;
  opts.index.rerank_factor = 6;
  opts.index.hnsw.ef_search = 48;
  opts.index.ivf.nprobe = 7;
  const rag::KnowledgeBase kb = rag::KnowledgeBase::build(tiny_corpus(), opts);

  const std::string path =
      (std::filesystem::temp_directory_path() / "pkb_ann_snapshot_v3.bin")
          .string();
  kb.snapshot()->save(path);
  const rag::SnapshotPtr loaded = rag::Snapshot::load(path);
  std::remove(path.c_str());

  EXPECT_EQ(loaded->opts.index, kb.snapshot()->opts.index);
  ASSERT_NE(loaded->ann, nullptr);
  EXPECT_EQ(loaded->ann->name(), "hnsw_int8");
}

TEST(AnnKnowledgeBase, PersistenceV4RoundTripsPqSpec) {
  // The v4 snapshot carries the quantizer enum and PqOptions; a PQ-indexed
  // KB must reload with the same spec and rebuild the same index kind.
  rag::KnowledgeBaseOptions opts;
  opts.index.kind = IndexKind::Ivf;
  opts.index.quant = Quantizer::Pq;
  opts.index.pq.m = 2;
  opts.index.pq.kmeans_iters = 3;
  opts.index.pq.seed = 77;
  opts.index.rerank_factor = 8;
  const rag::KnowledgeBase kb = rag::KnowledgeBase::build(tiny_corpus(), opts);

  const std::string path =
      (std::filesystem::temp_directory_path() / "pkb_ann_snapshot_v4.bin")
          .string();
  kb.snapshot()->save(path);
  const rag::SnapshotPtr loaded = rag::Snapshot::load(path);
  std::remove(path.c_str());

  EXPECT_EQ(loaded->opts.index, kb.snapshot()->opts.index);
  EXPECT_EQ(loaded->opts.index.pq.seed, 77u);
  ASSERT_NE(loaded->ann, nullptr);
  EXPECT_EQ(loaded->ann->name(), "ivf_pq");

  // The reloaded index still serves retrieval.
  const rag::Retriever retriever(kb);
  EXPECT_FALSE(retriever.retrieve("VecSetValues usage").contexts.empty());
}

}  // namespace
