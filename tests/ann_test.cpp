// ANN hot-path tests: kernel backend consistency, HNSW recall, determinism
// and option bounds, the exact-score contract of build_index, IndexSpec
// routing through Snapshot/Retriever, and snapshot persistence of the
// spec. Suite names (Kernels*, Hnsw*, AnnIndex*, AnnKnowledgeBase*) are
// part of the scripts/run_tsan.sh filter.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "llm/model_config.h"
#include "rag/knowledge_base.h"
#include "rag/workflow.h"
#include "util/arena.h"
#include "util/rng.h"
#include "vectordb/hnsw.h"
#include "vectordb/index.h"
#include "vectordb/vector_store.h"

namespace {

using namespace pkb;
using embed::Vector;
using vectordb::HnswIndex;
using vectordb::HnswOptions;
using vectordb::IndexKind;
using vectordb::IndexSpec;
using vectordb::SearchResult;
using vectordb::VectorStore;

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

TEST(Hnsw, EmptyStoreThrows) {
  const VectorStore store;
  EXPECT_THROW(HnswIndex{store}, std::invalid_argument);
}

TEST(Hnsw, MIsBoundedByLinkCapacity) {
  // Layer 0 holds 2m links in a uint16_t capacity: m = kHnswMaxM is the
  // largest that fits and still links the graph; one more is rejected
  // rather than wrapping to a zero-capacity graph.
  const VectorStore store = random_store(40, 8, 51);
  const HnswIndex widest(store, HnswOptions{.m = vectordb::kHnswMaxM});
  EXPECT_GT(widest.edge_count(), 0u);
  for (const Vector& q : random_queries(3, 8, 52)) {
    EXPECT_EQ(widest.search(q, 8).size(), 8u);
  }
  EXPECT_THROW(HnswIndex(store, HnswOptions{.m = vectordb::kHnswMaxM + 1}),
               std::invalid_argument);
}

// --- IndexSpec / build_index ----------------------------------------------

TEST(AnnIndex, IdentitySpecBuildsNothing) {
  const VectorStore store = random_store(50, 8, 61);
  EXPECT_EQ(vectordb::build_index(store, IndexSpec{}), nullptr);
  IndexSpec hnsw;
  hnsw.kind = IndexKind::Hnsw;
  EXPECT_NE(vectordb::build_index(store, hnsw), nullptr);
  EXPECT_EQ(vectordb::build_index(VectorStore{}, hnsw), nullptr);
}

TEST(AnnIndex, SpecNamesAreStable) {
  IndexSpec spec;
  EXPECT_EQ(spec.name(), "flat");
  spec.kind = IndexKind::Hnsw;
  EXPECT_EQ(spec.name(), "hnsw");
}

TEST(AnnIndex, HitScoresAreFlatScanExact) {
  // The build_index contract: every HNSW hit's score is bit-equal to the
  // flat scan's score for the same row. With every row in reach (ef ≥ n)
  // the hits are the flat top-k exactly.
  const VectorStore store = random_store(400, 16, 81);
  IndexSpec hnsw;
  hnsw.kind = IndexKind::Hnsw;
  hnsw.hnsw.ef_search = 400;
  const auto index = vectordb::build_index(store, hnsw);
  ASSERT_NE(index, nullptr);
  for (const Vector& q : random_queries(5, 16, 82)) {
    expect_hits_equal(store.similarity_search(q, 10), index->search(q, 10));
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
  EXPECT_NE(snap->ann, nullptr);

  // Retrieval routes through the index and still returns results.
  const rag::AugmentedWorkflow workflow(kb, rag::PipelineArm::RagRerank,
                                        llm::model_config("sim-gpt-4o"));
  EXPECT_FALSE(
      workflow.ask("How do I use VecSetValues?").retrieval.contexts.empty());
}

TEST(AnnKnowledgeBase, PersistenceV3RoundTripsIndexSpec) {
  // The index spec has been part of the snapshot since v3; non-default
  // options must survive a save/load of an HNSW-indexed KB.
  rag::KnowledgeBaseOptions opts;
  opts.index.kind = IndexKind::Hnsw;
  opts.index.hnsw.ef_search = 48;
  const rag::KnowledgeBase kb = rag::KnowledgeBase::build(tiny_corpus(), opts);

  const std::string path =
      (std::filesystem::temp_directory_path() / "pkb_ann_snapshot_v3.bin")
          .string();
  kb.snapshot()->save(path);
  const rag::SnapshotPtr loaded = rag::Snapshot::load(path);
  std::remove(path.c_str());

  EXPECT_EQ(loaded->opts.index, kb.snapshot()->opts.index);
  EXPECT_EQ(loaded->opts.index.hnsw.ef_search, 48u);
  EXPECT_NE(loaded->ann, nullptr);
}

TEST(AnnKnowledgeBase, PersistenceV6RoundTripsIndexSpec) {
  // The snapshot carries the IndexSpec (kind + HNSW options); a reloaded KB
  // must come back with the same spec, rebuild the same graph, and answer
  // with bit-identical hits.
  IndexSpec hnsw;
  hnsw.kind = IndexKind::Hnsw;
  hnsw.hnsw.m = 8;
  hnsw.hnsw.ef_construction = 40;
  hnsw.hnsw.ef_search = 48;
  hnsw.hnsw.seed = 7;
  const std::string path =
      (std::filesystem::temp_directory_path() / "pkb_ann_snapshot_v6.bin")
          .string();
  rag::KnowledgeBaseOptions opts;
  opts.index = hnsw;
  const rag::KnowledgeBase kb = rag::KnowledgeBase::build(tiny_corpus(), opts);
  const rag::SnapshotPtr snap = kb.snapshot();
  snap->save(path);
  const rag::SnapshotPtr loaded = rag::Snapshot::load(path);
  std::remove(path.c_str());

  EXPECT_EQ(loaded->opts.index, hnsw);
  ASSERT_NE(snap->ann, nullptr);
  ASSERT_NE(loaded->ann, nullptr);
  EXPECT_EQ(loaded->ann->edge_count(), snap->ann->edge_count());
  for (const char* question :
       {"How do I use VecSetValues?", "MatAssemblyBegin section 3",
        "KSPSolve with a preconditioner"}) {
    const Vector q = snap->embedder->embed(text::analyze(question));
    expect_hits_equal(snap->ann->search(q, 5), loaded->ann->search(q, 5));
  }
}

}  // namespace
