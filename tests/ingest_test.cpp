// Generational KnowledgeBase + live ingestion tests: publish/pin semantics,
// the Ingestor's delta/upsert/refit lifecycle, the ChatBot curation hook,
// the end-to-end live-enhancement proof (a fact only present in an ingested
// document becomes retrievable with no restart), a swap-under-load stress
// test, and reads checked against serial asks while a writer publishes.
// Suite names (KnowledgeBase*, Ingest*, PublishUnderReads*) are part of the
// scripts/run_tsan.sh filter.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "bots/chat_bot.h"
#include "bots/mail.h"
#include "bots/platform.h"
#include "corpus/generator.h"
#include "corpus/questions.h"
#include "ingest/ingestor.h"
#include "lexical/bm25.h"
#include "lexical/term_stats.h"
#include "llm/model_config.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "rag/knowledge_base.h"
#include "rag/retriever.h"
#include "rag/workflow.h"
#include "serve/server.h"
#include "util/clock.h"

namespace {

using namespace pkb;

// A tiny corpus: enough chunks that a one-document ingest stays under the
// default refit drift threshold.
text::VirtualDir small_corpus() {
  text::VirtualDir tree;
  for (int i = 0; i < 8; ++i) {
    std::string body = "# Guide " + std::to_string(i) + "\n\n";
    for (int p = 0; p < 6; ++p) {
      body += "Paragraph " + std::to_string(p) + " of guide " +
              std::to_string(i) +
              " discusses Krylov solvers, preconditioners, and convergence "
              "monitoring in enough words to form its own chunk after "
              "splitting. ";
      body += "\n\n";
    }
    tree.push_back({"guide/g" + std::to_string(i) + ".md", body});
  }
  return tree;
}

/// The process-wide ingest counters (docs/OBSERVABILITY.md). They are the
/// only ingest accounting, so tests read deltas of them around each ingest.
struct IngestCounters {
  std::uint64_t builds = 0;
  std::uint64_t docs = 0;
  std::uint64_t chunks = 0;
  std::uint64_t refits = 0;

  static IngestCounters now() {
    obs::MetricsRegistry& metrics = obs::global_metrics();
    return {metrics.counter(obs::kIngestBuildsTotal).value(),
            metrics.counter(obs::kIngestDocsTotal).value(),
            metrics.counter(obs::kIngestChunksTotal).value(),
            metrics.counter(obs::kIngestRefitsTotal).value()};
  }

  [[nodiscard]] IngestCounters since(const IngestCounters& before) const {
    return {builds - before.builds, docs - before.docs,
            chunks - before.chunks, refits - before.refits};
  }
};

// small_corpus() plus a few manual pages, which give the symbol index
// something to resolve.
text::VirtualDir corpus_with_pages() {
  text::VirtualDir tree = small_corpus();
  for (const char* name : {"KSPSolve", "KSPGMRES", "KSPLSQR", "PCJACOBI"}) {
    const corpus::ApiSpec* spec = corpus::find_spec(name);
    EXPECT_NE(spec, nullptr) << name;
    if (spec == nullptr) continue;
    tree.push_back({corpus::manual_page_path(*spec),
                    corpus::render_manual_page(*spec)});
  }
  return tree;
}

/// Byte-for-byte equality of two stored rows (same length, same bits).
bool same_bytes(std::span<const float> a, std::span<const float> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// The full generated PETSc corpus, rendered once per process.
const text::VirtualDir& full_corpus() {
  static const text::VirtualDir tree = corpus::generate_corpus();
  return tree;
}

bool any_chunk_contains(const rag::Snapshot& snap, std::string_view needle) {
  for (const text::Document& chunk : snap.chunks) {
    if (chunk.text.find(needle) != std::string::npos) return true;
  }
  return false;
}

bool any_context_contains(const rag::RetrievalResult& result,
                          std::string_view needle) {
  for (const auto& ctx : result.contexts) {
    if (ctx.doc->text.find(needle) != std::string::npos) return true;
  }
  return false;
}

// --- KnowledgeBase: publish / pin semantics --------------------------------

TEST(KnowledgeBase, BuildIsGenerationOne) {
  const auto kb = rag::KnowledgeBase::build(small_corpus());
  EXPECT_EQ(kb.generation(), 1u);
  const rag::SnapshotPtr snap = kb.snapshot();
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->generation, 1u);
  EXPECT_EQ(snap->embedder_fit_generation, 1u);
  EXPECT_EQ(snap->chunks_at_fit, snap->chunks.size());
  EXPECT_EQ(snap->source_count, 8u);
  EXPECT_GT(snap->chunks.size(), 8u);  // every guide splits into chunks
  EXPECT_EQ(snap->store.size(), snap->chunks.size());
}

TEST(KnowledgeBase, PinnedSnapshotSurvivesPublish) {
  auto kb = rag::KnowledgeBase::build(small_corpus());
  const rag::SnapshotPtr pinned = kb.snapshot();
  const std::string first_chunk_text = pinned->chunks.front().text;
  const text::Document* first_chunk = &pinned->chunks.front();

  ingest::Ingestor ingestor(kb);
  ASSERT_NE(ingestor.ingest_files({{"guide/new.md", "# New\n\nNew text."}}),
            nullptr);
  EXPECT_EQ(kb.generation(), 2u);
  EXPECT_EQ(kb.snapshot()->generation, 2u);

  // The pinned generation is untouched: same pointer targets, same content.
  EXPECT_EQ(pinned->generation, 1u);
  EXPECT_EQ(&pinned->chunks.front(), first_chunk);
  EXPECT_EQ(first_chunk->text, first_chunk_text);
}

TEST(KnowledgeBase, PublishRequiresIncreasingGeneration) {
  auto kb = rag::KnowledgeBase::build(small_corpus());
  auto stale = std::make_shared<rag::Snapshot>(*kb.snapshot());
  // Same generation id as current → rejected.
  EXPECT_THROW((void)kb.publish(stale), std::logic_error);
  auto next = std::make_shared<rag::Snapshot>(*kb.snapshot());
  next->generation = 2;
  const double swap_seconds = kb.publish(next);
  EXPECT_GE(swap_seconds, 0.0);
  EXPECT_LT(swap_seconds, 1.0);
  EXPECT_EQ(kb.generation(), 2u);
}

TEST(KnowledgeBase, AdoptSnapshotConstructor) {
  auto built = rag::KnowledgeBase::build(small_corpus());
  rag::KnowledgeBase adopted(built.snapshot());
  EXPECT_EQ(adopted.generation(), 1u);
  EXPECT_EQ(adopted.snapshot()->chunks.size(),
            built.snapshot()->chunks.size());
}

// --- Ingestor: delta merge, upsert, refit, Q&A ------------------------------

TEST(Ingest, EmptyIngestIsANoOp) {
  auto kb = rag::KnowledgeBase::build(small_corpus());
  ingest::Ingestor ingestor(kb);
  const IngestCounters before = IngestCounters::now();
  EXPECT_EQ(ingestor.ingest_files({}), nullptr);
  EXPECT_EQ(kb.generation(), 1u);
  const IngestCounters delta = IngestCounters::now().since(before);
  EXPECT_EQ(delta.builds, 0u);
  EXPECT_EQ(delta.docs, 0u);
}

TEST(Ingest, DeltaBuildReusesEmbedderAndKeepsVectorsBitExact) {
  auto kb = rag::KnowledgeBase::build(small_corpus());
  const rag::SnapshotPtr base = kb.snapshot();
  ingest::Ingestor ingestor(kb);
  const IngestCounters before = IngestCounters::now();

  const rag::SnapshotPtr next = ingestor.ingest_files(
      {{"guide/delta.md", "# Delta\n\nOne small new document."}});
  ASSERT_NE(next, nullptr);
  EXPECT_EQ(next->generation, 2u);

  // One small doc against 8 guides is under the refit threshold: the
  // embedder object is shared and the fit markers still point at gen 1.
  const IngestCounters delta = IngestCounters::now().since(before);
  EXPECT_EQ(delta.builds, 1u);
  EXPECT_EQ(delta.refits, 0u);
  EXPECT_EQ(next->embedder.get(), base->embedder.get());
  EXPECT_EQ(next->embedder_fit_generation, 1u);
  EXPECT_EQ(next->chunks_at_fit, base->chunks_at_fit);
  EXPECT_EQ(next->source_count, base->source_count + 1);

  // Retained chunks keep their rows and bit-identical vectors (copied,
  // not re-embedded).
  ASSERT_GE(next->store.size(), base->store.size());
  for (std::size_t i = 0; i < base->store.size(); ++i) {
    EXPECT_EQ(next->chunks[i].id, base->chunks[i].id);
    EXPECT_TRUE(same_bytes(next->store.vec(i), base->store.vec(i)))
        << "row " << i;
  }
  // Invariant: store row i embeds chunks[i] — every row, retained or new,
  // is exactly the shared embedder's normalized vector for its chunk.
  ASSERT_EQ(next->store.size(), next->chunks.size());
  for (std::size_t i = 0; i < next->chunks.size(); ++i) {
    embed::Vector want =
        next->embedder->embed(text::analyze(next->chunks[i].text));
    embed::l2_normalize(want);
    EXPECT_TRUE(same_bytes(next->store.vec(i), want)) << "row " << i;
  }
}

// Every first-pass candidate — found by vector search, by keyword, or by
// both — is its own row of the pinned snapshot's chunk list: the store
// holds no second copy of a document for a vector hit to point into.
void expect_candidates_are_chunk_rows(const rag::KnowledgeBase& kb,
                                      const char* what) {
  const rag::AugmentedWorkflow workflow(kb, rag::PipelineArm::RagRerank,
                                        llm::model_config("sim-gpt-4o"));
  std::set<std::string> via_seen;
  for (const char* query :
       {"Is KSPLSQR for least squares?", "KSPSolve with KSPGMRES",
        "How do I monitor Krylov convergence?", "PCJACOBI preconditioner"}) {
    const rag::RetrievalResult result = workflow.ask(query).retrieval;
    const rag::Snapshot& snap = *result.snapshot;
    ASSERT_FALSE(result.first_pass.empty()) << what << ": " << query;
    for (const auto* list : {&result.first_pass, &result.contexts}) {
      for (const rag::RetrievedContext& ctx : *list) {
        ASSERT_LT(ctx.row, snap.chunks.size()) << what << ": " << query;
        EXPECT_EQ(ctx.doc, &snap.chunks[ctx.row])
            << what << ": " << query << " via " << ctx.via;
        via_seen.insert(ctx.via);
      }
    }
  }
  for (const char* via : {"vector", "keyword", "vector+keyword"}) {
    EXPECT_TRUE(via_seen.contains(via)) << what << ": no " << via << " hit";
  }
}

TEST(KnowledgeBase, FirstPassCandidatesAreChunkListRows) {
  const auto flat = rag::KnowledgeBase::build(corpus_with_pages());
  ASSERT_EQ(flat.snapshot()->ann, nullptr);
  expect_candidates_are_chunk_rows(flat, "flat");

  rag::KnowledgeBaseOptions opts;
  opts.index.kind = vectordb::IndexKind::Hnsw;
  const auto hnsw = rag::KnowledgeBase::build(corpus_with_pages(), opts);
  ASSERT_NE(hnsw.snapshot()->ann, nullptr);
  expect_candidates_are_chunk_rows(hnsw, "hnsw");

  // An append-only delta publish: retained rows copied, new rows embedded.
  auto kb = rag::KnowledgeBase::build(corpus_with_pages());
  ingest::Ingestor ingestor(kb);
  const rag::SnapshotPtr next = ingestor.ingest_files(
      {{"guide/appended.md",
        "# Appended\n\nKSPLSQR solves least squares problems; this "
        "appended note says so again."}});
  ASSERT_NE(next, nullptr);
  ASSERT_LT(next->embedder_fit_generation, next->generation);
  expect_candidates_are_chunk_rows(kb, "after ingest");
}

TEST(Ingest, ReingestingASourceReplacesItsChunks) {
  auto kb = rag::KnowledgeBase::build(small_corpus());
  ingest::Ingestor ingestor(kb);

  ASSERT_NE(ingestor.ingest_files({{"guide/topic.md",
                                    "# Topic\n\nOLDMARKER content v1."}}),
            nullptr);
  const rag::SnapshotPtr v1 = kb.snapshot();
  EXPECT_TRUE(any_chunk_contains(*v1, "OLDMARKER"));

  ASSERT_NE(ingestor.ingest_files({{"guide/topic.md",
                                    "# Topic\n\nNEWMARKER content v2."}}),
            nullptr);
  const rag::SnapshotPtr v2 = kb.snapshot();
  EXPECT_EQ(v2->generation, 3u);
  EXPECT_TRUE(any_chunk_contains(*v2, "NEWMARKER"));
  EXPECT_FALSE(any_chunk_contains(*v2, "OLDMARKER"));
  // Upsert, not append: the source count is unchanged by the update.
  EXPECT_EQ(v2->source_count, v1->source_count);
}

TEST(Ingest, LargeIngestTriggersRefit) {
  auto kb = rag::KnowledgeBase::build(small_corpus());
  const rag::SnapshotPtr base = kb.snapshot();
  ingest::Ingestor ingestor(kb);

  // Ingest as many documents as the whole base corpus: far past the default
  // 25% drift threshold.
  text::VirtualDir batch;
  for (int i = 0; i < 8; ++i) {
    std::string body = "# Extra " + std::to_string(i) + "\n\n";
    for (int p = 0; p < 6; ++p) {
      body += "Fresh paragraph " + std::to_string(p) +
              " with plenty of new vocabulary about nonlinear solvers and "
              "time integrators so the refit actually changes the fit. \n\n";
    }
    batch.push_back({"extra/e" + std::to_string(i) + ".md", body});
  }
  const IngestCounters before = IngestCounters::now();
  const rag::SnapshotPtr next = ingestor.ingest_files(batch);
  ASSERT_NE(next, nullptr);

  EXPECT_EQ(IngestCounters::now().since(before).refits, 1u);
  EXPECT_NE(next->embedder.get(), base->embedder.get());
  EXPECT_EQ(next->embedder_fit_generation, next->generation);
  EXPECT_EQ(next->chunks_at_fit, next->chunks.size());
  // Re-embedded store still upholds the row invariant.
  ASSERT_EQ(next->store.size(), next->chunks.size());
}

// The exported ingest counters reconcile with what was published: one build
// per new generation, the documents and chunks each generation took in, one
// refit per generation whose embedder was fitted on it, and no abort
// without a fault plan. An empty ingest publishes and counts nothing.
TEST(Ingest, CountersReconcileWithPublishedGenerations) {
  auto kb = rag::KnowledgeBase::build(small_corpus());
  ingest::Ingestor ingestor(kb);
  const auto aborts = [] {
    std::uint64_t n = 0;
    for (const char* reason : {"transient", "timeout", "permanent"}) {
      n += obs::global_metrics()
               .counter(obs::kResilienceIngestAbortsTotal,
                        {{"reason", reason}})
               .value();
    }
    return n;
  };
  const IngestCounters before = IngestCounters::now();
  const std::uint64_t aborts_before = aborts();
  const std::uint64_t generation_before = kb.generation();

  std::uint64_t builds = 0;
  std::uint64_t docs = 0;
  std::uint64_t chunks = 0;
  std::uint64_t refits = 0;
  // Account one ingest of the sources `paths` from the snapshot it returned.
  const auto account = [&](const rag::SnapshotPtr& snap,
                           const std::set<std::string>& paths) {
    ASSERT_NE(snap, nullptr);
    EXPECT_EQ(snap->generation, kb.generation());
    ++builds;
    docs += paths.size();
    for (const text::Document& chunk : snap->chunks) {
      if (paths.contains(std::string(chunk.meta("source")))) ++chunks;
    }
    if (snap->embedder_fit_generation == snap->generation) ++refits;
  };

  account(ingestor.ingest_files({{"guide/a.md", "# A\n\nFirst version."}}),
          {"guide/a.md"});
  EXPECT_EQ(ingestor.ingest_files({}), nullptr);
  account(ingestor.ingest_files({{"guide/a.md", "# A\n\nSecond version."},
                                 {"guide/b.md", "# B\n\nAnother page."}}),
          {"guide/a.md", "guide/b.md"});
  account(ingestor.ingest_qa("qa/1.md", "Residuals",
                             "How do I monitor the true residual?",
                             "Use -ksp_monitor_true_residual."),
          {"qa/1.md"});
  text::VirtualDir batch;
  std::set<std::string> batch_paths;
  for (int i = 0; i < 8; ++i) {
    std::string body = "# Extra " + std::to_string(i) + "\n\n";
    for (int p = 0; p < 6; ++p) {
      body += "Fresh paragraph " + std::to_string(p) +
              " on nonlinear solvers and time integrators, long enough to "
              "form a chunk of its own after splitting. \n\n";
    }
    batch.push_back({"extra/e" + std::to_string(i) + ".md", body});
    batch_paths.insert(batch.back().path);
  }
  account(ingestor.ingest_files(batch), batch_paths);

  const IngestCounters delta = IngestCounters::now().since(before);
  EXPECT_EQ(delta.builds, builds);
  EXPECT_EQ(delta.builds, kb.generation() - generation_before);
  EXPECT_EQ(delta.docs, docs);
  EXPECT_EQ(delta.chunks, chunks);
  EXPECT_EQ(delta.refits, refits);
  // Both the delta-merge and the refit path were taken.
  EXPECT_GE(refits, 1u);
  EXPECT_LT(refits, builds);
  EXPECT_EQ(aborts(), aborts_before);
}

// Publishes update the term statistics from the delta (new chunks added,
// replaced chunks taken out); every idf must equal a full count's, through
// the delta chain and past the point where it is recounted.
TEST(Ingest, TermStatsFollowTheDeltaExactly) {
  auto kb = rag::KnowledgeBase::build(small_corpus());
  ingest::Ingestor ingestor(kb);
  std::size_t max_depth = 0;
  bool recounted = false;
  for (int g = 0; g < 20; ++g) {
    // Every third publish replaces an earlier source: its chunks leave.
    const int source = g % 3 == 2 ? g - 2 : g;
    ASSERT_NE(ingestor.ingest_files(
                  {{"delta/d" + std::to_string(source) + ".md",
                    "# Delta " + std::to_string(g) + "\n\nVersion " +
                        std::to_string(g) + " mentions uniqueterm" +
                        std::to_string(g) + " and KSPGMRES restarts."}}),
              nullptr);
    const rag::SnapshotPtr snap = kb.snapshot();
    const lexical::TermStats& stats = *snap->analysis->stats;
    max_depth = std::max(max_depth, stats.depth());
    recounted = recounted || (g > 0 && stats.depth() == 0);
    ASSERT_EQ(snap->analysis->chunks.size(), snap->chunks.size());
    const lexical::TermStats full(snap->analysis->chunks);
    lexical::Bm25Index bm25;
    bm25.build(snap->chunks);
    std::vector<std::string> terms = {"uniqueterm0", "uniqueterm2",
                                      "neverseen"};
    for (const auto& a : snap->analysis->chunks) {
      for (const auto span : a->terms) terms.emplace_back(a->view(span));
    }
    for (const std::string& t : terms) {
      ASSERT_EQ(stats.idf(t), full.idf(t)) << "generation " << snap->generation
                                           << " term " << t;
      ASSERT_EQ(stats.idf(t), bm25.idf(t)) << t;
    }
  }
  EXPECT_GT(max_depth, 1u);
  EXPECT_TRUE(recounted);
}

TEST(Ingest, QaExchangeBecomesARetrievableDocument) {
  auto kb = rag::KnowledgeBase::build(small_corpus());
  ingest::Ingestor ingestor(kb);

  const rag::SnapshotPtr next = ingestor.ingest_qa(
      "resolved/thread-7.md", "Convergence of KSPWHIRL",
      "Why does KSPWHIRL stagnate on my Poisson problem?",
      "KSPWHIRL needs a stronger preconditioner; try PCGAMG.");
  ASSERT_NE(next, nullptr);
  EXPECT_TRUE(any_chunk_contains(*next, "KSPWHIRL"));
  bool found_source = false;
  for (const text::Document& chunk : next->chunks) {
    if (chunk.meta("source") == "resolved/thread-7.md") found_source = true;
  }
  EXPECT_TRUE(found_source);
}

// --- ChatBot: the Fig-5 curation loop --------------------------------------

TEST(Ingest, ChatBotSendIngestsTheResolvedThread) {
  auto kb = rag::KnowledgeBase::build(full_corpus());
  rag::AugmentedWorkflow workflow(kb, rag::PipelineArm::RagRerank,
                                  llm::model_config("sim-gpt-4o"));
  ingest::Ingestor ingestor(kb);

  util::SimClock clock;
  bots::DiscordServer server(&clock);
  server.create_channel("petsc-users-emails", bots::ChannelKind::Forum, true);
  server.join("barry", /*is_developer=*/true);
  bots::MailingList list("petsc-users@mcs.anl.gov", &clock);

  bots::ChatBot bot(&workflow, &server, &list, "petsc-users-emails",
                    "petscbot@gmail.com");
  bot.attach_ingestor(&ingestor);
  const IngestCounters before = IngestCounters::now();

  const std::uint64_t post_id =
      server.create_post("petsc-users-emails", "rectangular systems");
  server.add_to_post("petsc-users-emails", post_id, "user@univ.edu",
                     "Can I use KSP to solve a rectangular system?");

  const auto draft_id = bot.handle_reply_command(post_id, "barry");
  ASSERT_TRUE(draft_id.has_value());
  EXPECT_EQ(kb.generation(), 1u);  // drafting alone ingests nothing

  ASSERT_EQ(bot.press_send(*draft_id, "barry"), bots::ButtonResult::Ok);
  EXPECT_EQ(bot.threads_ingested(), 1u);
  EXPECT_EQ(kb.generation(), 2u);
  // The resolved thread is now a corpus document.
  const rag::SnapshotPtr snap = kb.snapshot();
  bool found = false;
  for (const text::Document& chunk : snap->chunks) {
    if (chunk.meta("source") ==
        "resolved/thread-" + std::to_string(post_id) + ".md") {
      found = true;
    }
  }
  EXPECT_TRUE(found);
  // Discard never ingests: safety invariant is send-only.
  EXPECT_EQ(IngestCounters::now().since(before).builds, 1u);
}

// --- E2E: live enhancement through a running server -------------------------

TEST(Ingest, LiveEnhancementWithoutRestart) {
  auto kb = rag::KnowledgeBase::build(full_corpus());
  rag::AugmentedWorkflow workflow(kb, rag::PipelineArm::RagRerank,
                                  llm::model_config("sim-gpt-4o"));
  serve::ServerOptions opts;
  opts.workers = 2;
  serve::Server server(workflow, opts);
  // A brand-new solver name is out-of-vocabulary for the gen-1 embedder, so
  // this ingestor refits on every build (threshold 0) — the configuration
  // for corpora whose ingests carry novel terminology.
  ingest::IngestorOptions ingest_opts;
  ingest_opts.refit_drift_threshold = 0.0;
  ingest::Ingestor ingestor(kb, ingest_opts);

  // KSPBurb is the paper's fictitious §V-B solver: by construction no
  // generated document mentions it.
  const std::string question = corpus::kspburb_question().question;
  ASSERT_FALSE(any_chunk_contains(*kb.snapshot(), "KSPBurb"));

  const auto before = server.ask(question);
  EXPECT_EQ(before.generation, 1u);
  EXPECT_FALSE(any_context_contains(before.retrieval, "KSPBurb"));

  // Somebody documents the solver; the ingestor publishes generation 2
  // while the server keeps running.
  ASSERT_NE(ingestor.ingest_files(
                {{"manualpages/KSP/KSPBurb.md",
                  "# KSPBurb\n\nKSPBurb is a pipelined biconjugate gradient "
                  "variant. KSPBurb is selected with -ksp_type burb; KSPBurb "
                  "pairs well with PCJACOBI for well-conditioned systems.\n"}}),
            nullptr);
  EXPECT_EQ(kb.generation(), 2u);

  // Same server, same question: the pipeline runs on the new generation
  // and the new document is retrieved. No restart happened.
  const auto after = server.ask(question);
  EXPECT_EQ(after.generation, 2u);
  EXPECT_TRUE(any_context_contains(after.retrieval, "KSPBurb"));
}

// --- Stress: publishes racing a serving fleet -------------------------------

TEST(IngestStress, SwapUnderServingLoad) {
  auto kb = rag::KnowledgeBase::build(full_corpus());
  rag::AugmentedWorkflow workflow(kb, rag::PipelineArm::RagRerank,
                                  llm::model_config("sim-gpt-4o"));
  serve::ServerOptions opts;
  opts.workers = 4;
  serve::Server server(workflow, opts);
  ingest::Ingestor ingestor(kb);

  constexpr int kGenerations = 6;
  constexpr int kClients = 4;
  constexpr int kAsksPerClient = 24;

  const auto& bench = corpus::krylov_benchmark();
  std::atomic<bool> failed{false};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kAsksPerClient; ++i) {
        const auto& q =
            bench[(c * kAsksPerClient + i) % bench.size()].question;
        const rag::WorkflowOutcome out = server.ask(q);
        // Never torn: the outcome is internally consistent — its stamped
        // generation is exactly its pinned snapshot's, every context points
        // into that snapshot, and the generation is one that existed.
        if (out.generation != out.retrieval.generation() ||
            out.generation < 1 ||
            out.generation > 1 + static_cast<std::uint64_t>(kGenerations) ||
            out.response.text.empty()) {
          failed.store(true);
        }
        for (const auto& ctx : out.retrieval.contexts) {
          if (ctx.doc == nullptr || ctx.doc->text.empty()) failed.store(true);
        }
      }
    });
  }

  for (int g = 0; g < kGenerations; ++g) {
    ASSERT_NE(ingestor.ingest_files(
                  {{"stress/doc" + std::to_string(g) + ".md",
                    "# Stress " + std::to_string(g) +
                        "\n\nStress document number " + std::to_string(g) +
                        " for the swap-under-load test.\n"}}),
              nullptr);
  }

  for (auto& t : clients) t.join();
  EXPECT_FALSE(failed.load());
  EXPECT_EQ(kb.generation(), 1u + kGenerations);
  EXPECT_EQ(ingestor.swap_history().size(), static_cast<std::size_t>(kGenerations));
  for (double s : ingestor.swap_history()) {
    EXPECT_GE(s, 0.0);
    EXPECT_LT(s, 0.1);  // a swap is a pointer exchange, not a rebuild
  }
}


// An outcome holds its generation's SnapshotPtr, and the server keeps no
// outcomes: each generation here answers questions no later generation asks
// again, and none of the superseded generations stays alive in the server.
TEST(IngestServe, CachedAnswersStopPinningSupersededGenerations) {
  auto kb = rag::KnowledgeBase::build(small_corpus());
  rag::AugmentedWorkflow workflow(kb, rag::PipelineArm::RagRerank,
                                  llm::model_config("sim-gpt-4o"));
  serve::ServerOptions opts;
  opts.workers = 1;
  serve::Server server(workflow, opts);
  ingest::Ingestor ingestor(kb);

  constexpr int kGenerations = 20;
  constexpr int kQuestionsPerGeneration = 2;
  std::vector<std::weak_ptr<const rag::Snapshot>> generations;
  generations.push_back(kb.snapshot());
  for (int g = 0; g < kGenerations; ++g) {
    ASSERT_NE(ingestor.ingest_qa("resolved/pin-" + std::to_string(g) + ".md",
                                 "Case " + std::to_string(g),
                                 "How do I monitor convergence?",
                                 "Use -ksp_monitor_true_residual."),
              nullptr);
    generations.push_back(kb.snapshot());
    for (int q = 0; q < kQuestionsPerGeneration; ++q) {
      (void)server.ask("question " + std::to_string(g) + "-" +
                       std::to_string(q) + " about Krylov restarts");
    }
  }
  std::size_t alive = 0;
  for (const auto& weak : generations) alive += weak.expired() ? 0 : 1;
  EXPECT_LE(alive, 2u);
  EXPECT_FALSE(generations.back().expired());
}

// Readers go through a Server while a writer publishes back to back; every
// sampled answer must equal a serial ask on the snapshot it pinned.
TEST(PublishUnderReads, ServedAnswersEqualSerialAskOnThePinnedSnapshot) {
  auto kb = rag::KnowledgeBase::build(full_corpus());
  rag::AugmentedWorkflow workflow(kb, rag::PipelineArm::RagRerank,
                                  llm::model_config("sim-gpt-4o"));
  serve::ServerOptions opts;
  opts.workers = 3;
  serve::Server server(workflow, opts);
  ingest::Ingestor ingestor(kb);

  constexpr int kReaders = 3;
  constexpr int kAsksPerReader = 16;
  constexpr int kSampleEvery = 2;
  constexpr int kPublishes = 6;
  const auto& bench = corpus::krylov_benchmark();

  std::atomic<bool> writer_done{false};
  std::vector<std::vector<std::pair<std::string, rag::WorkflowOutcome>>>
      samples(kReaders);
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      for (int i = 0; i < kAsksPerReader || !writer_done.load(); ++i) {
        const std::string& q =
            bench[(r * kAsksPerReader + i) % bench.size()].question;
        rag::WorkflowOutcome out = server.ask(q);
        if (i % kSampleEvery == 0) {
          samples[r].emplace_back(q, std::move(out));
        }
      }
    });
  }
  for (int g = 0; g < kPublishes; ++g) {
    // EXPECT, not ASSERT: the readers run until writer_done is set.
    EXPECT_NE(ingestor.ingest_qa(
                  "resolved/race-" + std::to_string(g) + ".md",
                  "Restart case " + std::to_string(g),
                  bench[g % bench.size()].question,
                  "Raise -ksp_gmres_restart to " + std::to_string(40 + g) +
                      " and call KSPSetFromOptions()."),
              nullptr);
  }
  writer_done.store(true);
  for (auto& t : readers) t.join();

  // One serial workflow per pinned generation.
  std::map<const rag::Snapshot*,
           std::pair<std::unique_ptr<rag::KnowledgeBase>,
                     std::unique_ptr<rag::AugmentedWorkflow>>>
      serial;
  std::size_t checked = 0;
  for (const auto& reader : samples) {
    for (const auto& [question, served] : reader) {
      const rag::SnapshotPtr& snap = served.retrieval.snapshot;
      ASSERT_NE(snap, nullptr);
      ASSERT_EQ(served.generation, snap->generation);
      auto& entry = serial[snap.get()];
      if (entry.second == nullptr) {
        entry.first = std::make_unique<rag::KnowledgeBase>(snap);
        entry.second = std::make_unique<rag::AugmentedWorkflow>(
            *entry.first, rag::PipelineArm::RagRerank,
            llm::model_config("sim-gpt-4o"));
      }
      const rag::WorkflowOutcome want = entry.second->ask(question);
      EXPECT_EQ(served.response.text, want.response.text) << question;
      EXPECT_EQ(served.prompt, want.prompt) << question;
      ASSERT_EQ(served.retrieval.contexts.size(),
                want.retrieval.contexts.size());
      for (std::size_t i = 0; i < want.retrieval.contexts.size(); ++i) {
        EXPECT_EQ(served.retrieval.contexts[i].doc->id,
                  want.retrieval.contexts[i].doc->id);
        EXPECT_EQ(served.retrieval.contexts[i].score,
                  want.retrieval.contexts[i].score);
      }
      ++checked;
    }
  }
  EXPECT_GE(checked, static_cast<std::size_t>(kReaders * kAsksPerReader /
                                              kSampleEvery));
  EXPECT_EQ(kb.generation(), 1u + kPublishes);
}

}  // namespace
