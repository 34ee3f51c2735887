// Sharded scatter–gather retrieval tests: partition shapes, the
// bit-identical-merge contract against the monolithic scan, partition
// tolerance (killed shards, per-shard breakers, fault-plan-driven loss),
// generational wiring (KnowledgeBase opts.shards, snapshot persistence,
// pinned snapshots across publishes), and the serve layer's partial-answer
// degradation. Suite names (ShardRouter*, ShardEquivalence*, ShardChaos*,
// ShardKnowledgeBase*, ShardServe*) are part of the scripts/run_tsan.sh
// filter.

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "ingest/ingestor.h"
#include "llm/model_config.h"
#include "obs/metric_names.h"
#include "obs/trace.h"
#include "rag/knowledge_base.h"
#include "rag/retriever.h"
#include "rag/workflow.h"
#include "resilience/fault_plan.h"
#include "resilience/resilience.h"
#include "serve/server.h"
#include "util/rng.h"
#include "vectordb/shard_router.h"
#include "vectordb/vector_store.h"

namespace {

using namespace pkb;
namespace res = pkb::resilience;
using embed::Vector;
using vectordb::MetadataFilter;
using vectordb::Scatter;
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
    doc.metadata["parity"] = (i % 2 == 0) ? "even" : "odd";
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

// Bit-identical contract: same global indices, same float scores (no
// tolerance — the shard scan normalizes and dots exactly as the monolithic
// one), same document ids, same order.
void expect_hits_equal(const std::vector<SearchResult>& mono,
                       const std::vector<SearchResult>& sharded,
                       const std::string& what) {
  ASSERT_EQ(mono.size(), sharded.size()) << what;
  for (std::size_t i = 0; i < mono.size(); ++i) {
    EXPECT_EQ(mono[i].index, sharded[i].index) << what << " hit " << i;
    EXPECT_EQ(mono[i].score, sharded[i].score) << what << " hit " << i;
    ASSERT_NE(sharded[i].doc, nullptr) << what << " hit " << i;
    EXPECT_EQ(mono[i].doc->id, sharded[i].doc->id) << what << " hit " << i;
  }
}

// The exact top-k over the documents outside [dead_begin, dead_end): what a
// scatter missing that shard must return.
std::vector<SearchResult> survivors_top_k(const VectorStore& store,
                                          const Vector& query, std::size_t k,
                                          std::size_t dead_begin,
                                          std::size_t dead_end) {
  std::vector<SearchResult> all = store.similarity_search(query, store.size());
  std::vector<SearchResult> kept;
  for (const SearchResult& hit : all) {
    if (hit.index < dead_begin || hit.index >= dead_end) kept.push_back(hit);
  }
  if (kept.size() > k) kept.resize(k);
  return kept;
}

// The shard_scatter tree of the one router search since the tracer was
// cleared. A bare search (no enclosing span) finishes exactly two traces:
// shard_scatter, holding every shard's scan spans, then shard_merge.
obs::SpanData scatter_span_of_last_search() {
  const std::vector<obs::Trace> traces = obs::global_tracer().traces();
  EXPECT_EQ(traces.size(), 2u);
  if (traces.size() != 2u) return {};
  EXPECT_EQ(traces[0].root.name, obs::kSpanShardScatter);
  EXPECT_EQ(traces[1].root.name, obs::kSpanShardMerge);
  return traces[0].root;
}

std::string attr_of(const obs::SpanData& span, std::string_view key) {
  for (const auto& [k, v] : span.attrs) {
    if (k == key) return v;
  }
  return "<missing " + std::string(key) + ">";
}

// --- ShardRouter: partition shapes and generational sharing ---------------

TEST(ShardRouter, PartitionIsContiguousAndBalanced) {
  const VectorStore store = random_store(10, 6, 1);
  const auto router = ShardRouter::partition(store, 4);
  ASSERT_EQ(router->shard_count(), 4u);
  EXPECT_EQ(router->size(), 10u);
  EXPECT_EQ(router->dimension(), 6u);
  // 10 over 4 -> sizes 3,3,2,2 at offsets 0,3,6,8.
  const std::vector<std::size_t> sizes = {3, 3, 2, 2};
  const std::vector<std::size_t> offsets = {0, 3, 6, 8};
  for (std::size_t s = 0; s < 4; ++s) {
    EXPECT_EQ(router->shard(s).size(), sizes[s]) << "shard " << s;
    EXPECT_EQ(router->shard_offset(s), offsets[s]) << "shard " << s;
    for (std::size_t j = 0; j < router->shard(s).size(); ++j) {
      // Slices are contiguous: local j is global offset + j.
      EXPECT_EQ(router->shard(s).doc(j).id,
                "doc-" + std::to_string(offsets[s] + j));
    }
  }
}

TEST(ShardRouter, PartitionRejectsZeroShards) {
  const VectorStore store = random_store(4, 4, 2);
  EXPECT_THROW((void)ShardRouter::partition(store, 0), std::invalid_argument);
}

TEST(ShardRouter, UnderfullPartitionKeepsDimensionAndAnswers) {
  const VectorStore store = random_store(3, 8, 3);
  const auto router = ShardRouter::partition(store, 5);
  ASSERT_EQ(router->shard_count(), 5u);
  EXPECT_EQ(router->size(), 3u);
  // The tail shards are empty but keep the dimension (the preset-dim
  // VectorStore constructor), so dimension validation stays uniform.
  EXPECT_EQ(router->shard(3).size(), 0u);
  EXPECT_EQ(router->shard(3).dimension(), 8u);
  const Vector q = random_queries(1, 8, 4)[0];
  const Scatter sc = router->search(q, 3);
  EXPECT_FALSE(sc.partial());
  expect_hits_equal(store.similarity_search(q, 3), sc.hits, "underfull");
}

TEST(ShardRouter, QueryDimensionMismatchThrows) {
  const VectorStore store = random_store(6, 8, 5);
  const auto router = ShardRouter::partition(store, 2);
  EXPECT_THROW((void)router->search(Vector(4, 1.0f), 2),
               std::invalid_argument);
}

TEST(ShardRouter, WithShardReplacedSharesUntouchedShardObjects) {
  const VectorStore store = random_store(12, 6, 6);
  const auto r1 = ShardRouter::partition(store, 3);
  VectorStore replacement = random_store(6, 6, 7);  // different size is fine
  const auto r2 = r1->with_shard_replaced(1, std::move(replacement));

  // Untouched shards are the same objects (a rolling swap allocates only
  // the shard actually changing); the replaced one is new.
  EXPECT_EQ(&r1->shard(0), &r2->shard(0));
  EXPECT_EQ(&r1->shard(2), &r2->shard(2));
  EXPECT_NE(&r1->shard(1), &r2->shard(1));

  // Offsets are recomputed for the new shard sizes.
  EXPECT_EQ(r2->size(), 4u + 6u + 4u);
  EXPECT_EQ(r2->shard_offset(1), 4u);
  EXPECT_EQ(r2->shard_offset(2), 10u);
  // The source router is untouched.
  EXPECT_EQ(r1->size(), 12u);
  EXPECT_EQ(r1->shard_offset(2), 8u);

  // Chaos switches travel with the shared shard objects: killing a shared
  // shard in one generation kills it in the other; the replaced shard's
  // flag is its own.
  r2->kill_shard(2);
  EXPECT_TRUE(r1->shard_dead(2));
  r2->revive_shard(2);
  EXPECT_FALSE(r1->shard_dead(2));
  r2->kill_shard(1);
  EXPECT_FALSE(r1->shard_dead(1));
  r2->revive_shard(1);
}

TEST(ShardRouter, WithShardReplacedValidatesArguments) {
  const VectorStore store = random_store(8, 6, 8);
  const auto router = ShardRouter::partition(store, 2);
  EXPECT_THROW((void)router->with_shard_replaced(2, random_store(2, 6, 9)),
               std::invalid_argument);
  EXPECT_THROW((void)router->with_shard_replaced(0, random_store(2, 4, 9)),
               std::invalid_argument);
}

// --- ShardEquivalence: bit-identical to the monolithic scan ---------------

TEST(ShardEquivalence, SingleQueryMatchesMonolithicAcrossShardCounts) {
  const VectorStore store = random_store(50, 12, 10);
  const std::vector<Vector> queries = random_queries(5, 12, 11);
  for (const std::size_t shards : {1u, 2u, 4u, 7u}) {
    const auto router = ShardRouter::partition(store, shards);
    for (std::size_t q = 0; q < queries.size(); ++q) {
      const Scatter sc = router->search(queries[q], 8);
      EXPECT_FALSE(sc.partial());
      EXPECT_EQ(sc.shards_total, shards);
      expect_hits_equal(store.similarity_search(queries[q], 8), sc.hits,
                        "shards=" + std::to_string(shards) + " q" +
                            std::to_string(q));
    }
    // A stored vector as the query: exercises exact-1.0 scores and the
    // index tie-break.
    const Scatter self = router->search(store.vec(17), 6);
    expect_hits_equal(store.similarity_search(store.vec(17), 6), self.hits,
                      "shards=" + std::to_string(shards) + " self");
  }
}

TEST(ShardEquivalence, MetadataFilterAppliesIdenticallyPerShard) {
  const VectorStore store = random_store(30, 8, 14);
  const MetadataFilter filter = [](const text::Metadata& meta) {
    auto it = meta.find("parity");
    return it != meta.end() && it->second == "even";
  };
  const Vector q = random_queries(1, 8, 15)[0];
  const auto mono = store.similarity_search(q, 10, &filter);
  ASSERT_FALSE(mono.empty());
  for (const std::size_t shards : {2u, 4u}) {
    const auto router = ShardRouter::partition(store, shards);
    const Scatter sc = router->search(q, 10, &filter);
    expect_hits_equal(mono, sc.hits,
                      "filter shards=" + std::to_string(shards));
    for (const SearchResult& hit : sc.hits) {
      EXPECT_EQ(hit.doc->meta("parity"), "even");
    }
  }
}

TEST(ShardEquivalence, KLargerThanCorpusReturnsEverythingInOrder) {
  const VectorStore store = random_store(15, 6, 16);
  const auto router = ShardRouter::partition(store, 4);
  const Vector q = random_queries(1, 6, 17)[0];
  const Scatter sc = router->search(q, 100);
  expect_hits_equal(store.similarity_search(q, 100), sc.hits, "k>n");
  EXPECT_EQ(sc.hits.size(), 15u);
  EXPECT_TRUE(router->search(q, 0).hits.empty());
}

TEST(ShardEquivalence, FaultOrdinalsDrawnOncePerShardScan) {
  // With a zero-rate plan attached, every scatter draws exactly one ordinal
  // per shard attempt, so configured rates apply per shard scan.
  const VectorStore store = random_store(20, 6, 18);
  const auto router = ShardRouter::partition(store, 4);
  const std::vector<Vector> queries = random_queries(3, 6, 19);

  res::FaultPlan plan;
  for (const Vector& q : queries) {
    const Scatter sc = router->search(q, 4, nullptr, &plan);
    EXPECT_FALSE(sc.partial());
    expect_hits_equal(store.similarity_search(q, 4), sc.hits, "with plan");
  }

  const auto counts = plan.counts(res::Stage::VectorSearch);
  EXPECT_EQ(counts.calls, 4u * queries.size());
  EXPECT_EQ(counts.faults(), 0u);
}

// --- ShardChaos: partition tolerance --------------------------------------

TEST(ShardChaos, KilledShardDegradesToExactSurvivorTopK) {
  const VectorStore store = random_store(40, 8, 20);
  const auto router = ShardRouter::partition(store, 4);
  const Vector q = random_queries(1, 8, 21)[0];

  router->kill_shard(2);
  const Scatter sc = router->search(q, 6);
  EXPECT_TRUE(sc.partial());
  EXPECT_EQ(sc.shards_failed, 1u);
  EXPECT_EQ(sc.shards_total, 4u);
  const std::size_t dead_begin = router->shard_offset(2);
  const std::size_t dead_end = dead_begin + router->shard(2).size();
  expect_hits_equal(survivors_top_k(store, q, 6, dead_begin, dead_end),
                    sc.hits, "one dead shard");

  router->revive_shard(2);
  const Scatter healed = router->search(q, 6);
  EXPECT_FALSE(healed.partial());
  expect_hits_equal(store.similarity_search(q, 6), healed.hits, "revived");
}

TEST(ShardChaos, AllShardsDeadReturnsEmptyTaggedScatterWithoutThrowing) {
  const VectorStore store = random_store(12, 6, 22);
  const auto router = ShardRouter::partition(store, 3);
  for (std::size_t s = 0; s < 3; ++s) router->kill_shard(s);
  const Scatter sc = router->search(random_queries(1, 6, 23)[0], 4);
  EXPECT_TRUE(sc.hits.empty());
  EXPECT_EQ(sc.shards_failed, 3u);
  EXPECT_EQ(sc.shards_total, 3u);
}

TEST(ShardChaos, SustainedShardDeathTripsBreakerThenRecovers) {
  double now = 0.0;
  ShardRouterOptions ropts;
  ropts.breaker.window = 4;
  ropts.breaker.min_samples = 2;
  ropts.breaker.failure_threshold = 0.5;
  ropts.breaker.open_seconds = 10.0;
  ropts.breaker.half_open_probes = 1;
  ropts.breaker_clock = [&now] { return now; };

  const VectorStore store = random_store(20, 6, 24);
  const auto router = ShardRouter::partition(store, 2, ropts);
  const Vector q = random_queries(1, 6, 25)[0];

  // A dead shard fails every attempt (2 failures per query: the scan and
  // its one hedge), so one query trips the 2-sample breaker open.
  router->kill_shard(1);
  EXPECT_TRUE(router->search(q, 4).partial());
  EXPECT_EQ(router->breaker_state(1), res::CircuitBreaker::State::Open);

  // While open, the shard is short-circuited: still partial, even revived,
  // until the cooldown elapses.
  router->revive_shard(1);
  EXPECT_TRUE(router->search(q, 4).partial());
  EXPECT_EQ(router->breaker_state(1), res::CircuitBreaker::State::Open);

  // Cooldown elapsed: the next scan is the half-open probe; it succeeds
  // against the revived shard and closes the breaker — full answers again.
  now = 20.0;
  const Scatter healed = router->search(q, 4);
  EXPECT_FALSE(healed.partial());
  EXPECT_EQ(router->breaker_state(1), res::CircuitBreaker::State::Closed);
  expect_hits_equal(store.similarity_search(q, 4), healed.hits,
                    "post-breaker recovery");
}

TEST(ShardChaos, FaultRateOneLosesEveryShardWithFullHedging) {
  const VectorStore store = random_store(16, 6, 26);
  const auto router = ShardRouter::partition(store, 4);
  res::FaultPlanOptions fopts;
  fopts.vector_search.transient_rate = 1.0;
  res::FaultPlan plan(fopts);
  const Scatter sc = router->search(random_queries(1, 6, 27)[0], 4, nullptr,
                                    &plan);
  EXPECT_TRUE(sc.hits.empty());
  EXPECT_EQ(sc.shards_failed, 4u);
  // Every shard burned its initial attempt plus one hedge.
  EXPECT_EQ(plan.counts(res::Stage::VectorSearch).calls, 4u * 2u);
}

TEST(ShardChaos, HedgeRecoversAScriptedTransient) {
  const VectorStore store = random_store(24, 8, 28);
  const auto router = ShardRouter::partition(store, 3);
  res::FaultPlan plan;
  plan.script(res::Stage::VectorSearch, {res::FaultKind::Transient});
  const Vector q = random_queries(1, 8, 29)[0];
  // Shards scan in order, so shard 0 draws the scripted transient, hedges
  // once and succeeds: the answer is full and bit-identical.
  obs::global_tracer().clear();
  const Scatter sc = router->search(q, 5, nullptr, &plan);
  EXPECT_FALSE(sc.partial());
  expect_hits_equal(store.similarity_search(q, 5), sc.hits, "hedged");
  EXPECT_EQ(plan.counts(res::Stage::VectorSearch).transient, 1u);
  const obs::SpanData scatter = scatter_span_of_last_search();
  ASSERT_EQ(scatter.children.size(), 1u);
  EXPECT_EQ(scatter.children[0].name, obs::kSpanHedge);
  EXPECT_EQ(attr_of(scatter.children[0], "shard"), "0");
}

TEST(ShardChaos, TransientsPastHedgesLoseExactlyThoseShards) {
  const VectorStore store = random_store(24, 8, 30);
  const auto router = ShardRouter::partition(store, 4);
  res::FaultPlan plan;
  // Two faults per shard: the initial scan and its one hedge.
  plan.script(res::Stage::VectorSearch,
              {res::FaultKind::Transient, res::FaultKind::Transient,
               res::FaultKind::Transient, res::FaultKind::Transient});
  const Vector q = random_queries(1, 8, 31)[0];
  const Scatter sc = router->search(q, 20, nullptr, &plan);
  // Shards scan in order, so shards 0 and 1 draw the four scripted ordinals
  // and are lost; the answer is the exact top-k over shards 2-3.
  EXPECT_EQ(sc.shards_failed, 2u);
  EXPECT_EQ(plan.counts(res::Stage::VectorSearch).transient, 4u);
  expect_hits_equal(survivors_top_k(store, q, 20, 0, router->shard_offset(2)),
                    sc.hits, "shards 0-1 lost");
}

TEST(ShardChaos, HedgeSpansNestUnderTheRequestsScatter) {
  const VectorStore store = random_store(24, 8, 32);
  const auto router = ShardRouter::partition(store, 4);
  router->kill_shard(3);
  obs::global_tracer().clear();
  const Scatter sc = router->search(random_queries(1, 8, 33)[0], 5);
  EXPECT_EQ(sc.shards_failed, 1u);

  // Every shard scans on the calling thread, so the dead shard's hedge is a
  // child of this request's shard_scatter span, not a separate trace.
  const obs::SpanData scatter = scatter_span_of_last_search();
  ASSERT_EQ(scatter.children.size(), 1u);
  const obs::SpanData& hedge = scatter.children[0];
  EXPECT_EQ(hedge.name, obs::kSpanHedge);
  EXPECT_EQ(attr_of(hedge, "stage"), "shard_scan");
  EXPECT_EQ(attr_of(hedge, "shard"), "3");
}

// --- ShardKnowledgeBase: generational wiring ------------------------------

text::VirtualDir shard_corpus() {
  text::VirtualDir tree;
  const std::vector<std::string> topics = {
      "Krylov subspace solvers and preconditioners",
      "multigrid coarsening and smoothers",
      "Newton line search and trust region methods",
      "sparse matrix assembly and preallocation",
      "time stepping with adaptive error control",
      "GPU offload of vector kernels"};
  for (std::size_t i = 0; i < topics.size(); ++i) {
    std::string body = "# Guide " + std::to_string(i) + "\n\n";
    for (int p = 0; p < 4; ++p) {
      body += "Paragraph " + std::to_string(p) + " explains " + topics[i] +
              " with enough detail about convergence, tolerances, and "
              "diagnostics that the splitter keeps it as its own chunk. ";
      body += "\n\n";
    }
    tree.push_back({"guide/g" + std::to_string(i) + ".md", body});
  }
  return tree;
}

const std::string kShardQuestion =
    "How do Krylov solvers interact with preconditioners?";

void expect_same_retrieval(const rag::RetrievalResult& a,
                           const rag::RetrievalResult& b,
                           const std::string& what) {
  ASSERT_EQ(a.contexts.size(), b.contexts.size()) << what;
  for (std::size_t i = 0; i < a.contexts.size(); ++i) {
    EXPECT_EQ(a.contexts[i].doc->id, b.contexts[i].doc->id)
        << what << " context " << i;
    EXPECT_EQ(a.contexts[i].score, b.contexts[i].score)
        << what << " context " << i;
  }
}

TEST(ShardKnowledgeBase, ShardedBuildServesIdenticalRetrieval) {
  const auto corpus = shard_corpus();
  const auto mono_kb = rag::KnowledgeBase::build(corpus);
  rag::KnowledgeBaseOptions opts;
  opts.shards = 3;
  const auto sharded_kb = rag::KnowledgeBase::build(corpus, opts);

  EXPECT_EQ(mono_kb.snapshot()->shards, nullptr);
  ASSERT_NE(sharded_kb.snapshot()->shards, nullptr);
  EXPECT_EQ(sharded_kb.snapshot()->shards->shard_count(), 3u);
  EXPECT_EQ(sharded_kb.snapshot()->shards->size(),
            sharded_kb.snapshot()->store.size());

  const rag::Retriever mono(mono_kb);
  const rag::Retriever sharded(sharded_kb);
  const rag::RetrievalResult a = mono.retrieve(kShardQuestion);
  const rag::RetrievalResult b = sharded.retrieve(kShardQuestion);
  ASSERT_FALSE(b.contexts.empty());
  EXPECT_EQ(b.shards_total, 3u);
  EXPECT_FALSE(b.partial());
  expect_same_retrieval(a, b, "sharded build");
}

TEST(ShardKnowledgeBase, SnapshotRoundTripCarriesShardsAndReattaches) {
  rag::KnowledgeBaseOptions opts;
  opts.shards = 3;
  const auto kb = rag::KnowledgeBase::build(shard_corpus(), opts);
  const rag::SnapshotPtr orig = kb.snapshot();
  const std::string path =
      (std::filesystem::temp_directory_path() / "pkb_shard_snapshot.bin")
          .string();
  orig->save(path);
  const rag::SnapshotPtr loaded = rag::Snapshot::load(path);
  std::filesystem::remove(path);

  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loaded->opts.shards, 3u);
  ASSERT_NE(loaded->shards, nullptr);
  EXPECT_EQ(loaded->shards->shard_count(), 3u);
  EXPECT_EQ(loaded->shards->size(), loaded->store.size());

  const rag::KnowledgeBase reloaded(loaded);
  const rag::Retriever a(kb);
  const rag::Retriever b(reloaded);
  expect_same_retrieval(a.retrieve(kShardQuestion),
                        b.retrieve(kShardQuestion), "reloaded");
}

TEST(ShardKnowledgeBase, MonolithicSnapshotRoundTripStaysMonolithic) {
  const auto kb = rag::KnowledgeBase::build(shard_corpus());
  const std::string path =
      (std::filesystem::temp_directory_path() / "pkb_mono_snapshot.bin")
          .string();
  kb.snapshot()->save(path);
  const rag::SnapshotPtr loaded = rag::Snapshot::load(path);
  std::filesystem::remove(path);
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loaded->opts.shards, 0u);
  EXPECT_EQ(loaded->shards, nullptr);
}

TEST(ShardKnowledgeBase, PinnedSnapshotKeepsItsShardsAcrossPublishes) {
  rag::KnowledgeBaseOptions opts;
  opts.shards = 2;
  auto kb = rag::KnowledgeBase::build(shard_corpus(), opts);
  const rag::SnapshotPtr pinned = kb.snapshot();
  ASSERT_NE(pinned->shards, nullptr);
  const std::size_t pinned_size = pinned->shards->size();

  const rag::Retriever retriever(kb);
  const rag::RetrievalResult before =
      retriever.retrieve_on(pinned, kShardQuestion);

  // Live ingestion publishes a new generation with its own (larger) router.
  ingest::Ingestor ingestor(kb);
  const rag::SnapshotPtr next = ingestor.ingest_files(
      {{"new/marker.md",
        "# Marker\n\nSHARDMARKER paragraph long enough to be retained as a "
        "chunk of its own by the recursive splitter, with extra words about "
        "Krylov subspace convergence for good measure.\n"}});
  ASSERT_NE(next, nullptr);
  ASSERT_NE(next->shards, nullptr);
  EXPECT_GT(next->shards->size(), pinned_size);

  // The pinned snapshot pins every shard of its generation: same router
  // object, same answers — never a mixed generation.
  EXPECT_EQ(pinned->shards->size(), pinned_size);
  const rag::RetrievalResult after =
      retriever.retrieve_on(pinned, kShardQuestion);
  expect_same_retrieval(before, after, "pinned across publish");
}

// --- ShardServe: the serving layer over a sharded KB ----------------------

class ShardServeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    rag::KnowledgeBaseOptions opts;
    opts.shards = 2;
    kb_ = new rag::KnowledgeBase(
        rag::KnowledgeBase::build(shard_corpus(), opts));
    workflow_ = new rag::AugmentedWorkflow(*kb_, rag::PipelineArm::RagRerank,
                                           llm::model_config("sim-gpt-4o"));
  }
  static rag::KnowledgeBase* kb_;
  static rag::AugmentedWorkflow* workflow_;
};

rag::KnowledgeBase* ShardServeTest::kb_ = nullptr;
rag::AugmentedWorkflow* ShardServeTest::workflow_ = nullptr;

TEST_F(ShardServeTest, KilledShardStillServesTaggedPartialAnswers) {
  serve::ServerOptions opts;
  opts.workers = 2;
  serve::Server server(*workflow_, opts);

  const rag::WorkflowOutcome full = server.ask(kShardQuestion);
  EXPECT_FALSE(full.retrieval.partial());
  EXPECT_EQ(server.stats().partial, 0u);

  const auto router = kb_->snapshot()->shards;
  ASSERT_NE(router, nullptr);
  router->kill_shard(1);
  const rag::WorkflowOutcome partial =
      server.ask("What does multigrid coarsening change about smoothers?");
  router->revive_shard(1);

  // The answer is served — degraded in coverage, not failed.
  EXPECT_FALSE(partial.response.text.empty());
  EXPECT_TRUE(partial.retrieval.partial());
  EXPECT_EQ(partial.retrieval.shards_failed, 1u);
  EXPECT_EQ(partial.retrieval.shards_total, 2u);
  EXPECT_GE(server.stats().partial, 1u);
}

TEST_F(ShardServeTest, AllShardsDeadDegradesToParametricAnswer) {
  res::Resilience engine;
  serve::ServerOptions opts;
  opts.workers = 2;
  opts.resilience = &engine;
  serve::Server server(*workflow_, opts);

  const auto router = kb_->snapshot()->shards;
  ASSERT_NE(router, nullptr);
  router->kill_shard(0);
  router->kill_shard(1);
  const rag::WorkflowOutcome out =
      server.ask("Why does Newton line search stall on bad Jacobians?");
  router->revive_shard(0);
  router->revive_shard(1);

  // Total partition loss walks the existing degradation ladder instead of
  // failing the request: a parametric (no-retrieval) answer comes back.
  EXPECT_EQ(out.degradation, res::DegradationLevel::NoRetrieval);
  EXPECT_TRUE(out.retrieval.contexts.empty());
  EXPECT_FALSE(out.response.text.empty());
  EXPECT_GE(server.stats().degraded, 1u);
}

}  // namespace
