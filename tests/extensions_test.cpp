// Tests for the future-work extensions: the synthetic mailing-list archive
// and shared-history recall (the Fig 3 dotted arrow).
#include <gtest/gtest.h>

#include "corpus/generator.h"
#include "corpus/mailing_list.h"
#include "rag/history_retriever.h"
#include "rag/workflow.h"
#include "util/strings.h"

namespace pkb {
namespace {

TEST(MailingListArchive, GeneratesRequestedThreadCount) {
  corpus::ArchiveOptions opts;
  opts.threads = 12;
  const text::VirtualDir tree = corpus::generate_mailing_list_archive(opts);
  ASSERT_EQ(tree.size(), 12u);
  for (const auto& file : tree) {
    EXPECT_TRUE(file.path.starts_with("archives/petsc-users/thread-"));
    EXPECT_NE(file.content.find("[petsc-users]"), std::string::npos);
    EXPECT_NE(file.content.find("## From:"), std::string::npos);
  }
}

TEST(MailingListArchive, DeterministicPerSeedAndDistinctAcrossSeeds) {
  corpus::ArchiveOptions a;
  a.threads = 8;
  a.seed = 1;
  corpus::ArchiveOptions b = a;
  const auto t1 = corpus::generate_mailing_list_archive(a);
  const auto t2 = corpus::generate_mailing_list_archive(b);
  for (std::size_t i = 0; i < t1.size(); ++i) {
    EXPECT_EQ(t1[i].content, t2[i].content);
  }
  corpus::ArchiveOptions c = a;
  c.seed = 2;
  const auto t3 = corpus::generate_mailing_list_archive(c);
  bool any_diff = false;
  for (std::size_t i = 0; i < t1.size(); ++i) {
    if (t1[i].content != t3[i].content) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(MailingListArchive, ThreadsAreGroundedInSpecFacts) {
  // Every thread names a real spec and carries its summary text (a
  // developer answered with real facts, not noise).
  corpus::ArchiveOptions opts;
  opts.threads = 20;
  for (const auto& file : corpus::generate_mailing_list_archive(opts)) {
    bool grounded = false;
    for (const corpus::ApiSpec& spec : corpus::api_table()) {
      if (file.content.find(spec.name) != std::string::npos &&
          file.content.find(spec.summary) != std::string::npos) {
        grounded = true;
        break;
      }
    }
    EXPECT_TRUE(grounded) << file.path;
  }
}

TEST(MailingListArchive, CorpusOptionIncludesIt) {
  corpus::CorpusOptions opts;
  opts.include_mailing_list_archive = true;
  opts.archive_threads = 10;
  std::size_t archive_files = 0;
  for (const auto& file : corpus::generate_corpus(opts)) {
    if (file.path.starts_with("archives/")) ++archive_files;
  }
  EXPECT_EQ(archive_files, 10u);
  // Default stays archive-free (the paper's evaluated configuration).
  for (const auto& file : corpus::generate_corpus()) {
    EXPECT_FALSE(file.path.starts_with("archives/")) << file.path;
  }
}

// --- shared-history recall -------------------------------------------------

history::InteractionRecord vetted_record(const std::string& q,
                                         const std::string& a,
                                         const std::string& model) {
  history::InteractionRecord r;
  r.question = q;
  r.response = a;
  r.model = model;
  r.pipeline = model.empty() ? "human" : "rag+rerank";
  return r;
}

TEST(HistoryRetriever, IndexesOnlyVettedRecords) {
  history::HistoryStore store;
  const auto good = store.add(vetted_record(
      "How do I frobnicate?", "Use the frobnicator.", "sim-gpt-4o"));
  const auto bad = store.add(vetted_record(
      "How do I defrobnicate?", "No idea.", "sim-gpt-4o"));
  const auto human = store.add(vetted_record(
      "What about refrobnication?", "Ask Barry.", ""));  // human, unscored
  store.record_score(good, {"alice", 4, ""});
  store.record_score(bad, {"alice", 1, ""});

  rag::HistoryRetriever retriever(&store);
  // Initially built at construction: good (scored 4) + human.
  EXPECT_EQ(retriever.record_ids().size(), 2u);
  (void)human;
}

TEST(HistoryRetriever, RefreshPicksUpNewScores) {
  history::HistoryStore store;
  const auto id = store.add(vetted_record("q?", "a.", "sim-gpt-4o"));
  rag::HistoryRetriever retriever(&store);
  EXPECT_EQ(retriever.record_ids().size(), 0u);  // unscored model answer
  store.record_score(id, {"bob", 3, ""});
  retriever.refresh();
  EXPECT_EQ(retriever.record_ids().size(), 1u);
}

TEST(HistoryRetriever, LookupReturnsRelevantPastAnswers) {
  history::HistoryStore store;
  const auto id = store.add(vetted_record(
      "Which solver for rectangular least squares systems?",
      "Use KSPLSQR; it handles rectangular matrices.", "sim-gpt-4o"));
  store.add(vetted_record("Unrelated question about time steppers",
                          "Use TSARKIMEX.", ""));
  store.record_score(id, {"alice", 4, ""});

  rag::HistoryRetriever retriever(&store);
  const auto hits =
      retriever.lookup("rectangular least squares solver choice");
  ASSERT_FALSE(hits.empty());
  EXPECT_EQ(hits[0].id, "history#" + std::to_string(id));
  EXPECT_NE(hits[0].text.find("KSPLSQR"), std::string::npos);
  // Irrelevant queries return nothing above the relevance floor.
  EXPECT_TRUE(retriever.lookup("zzz qqq completely unrelated").empty());
}

TEST(HistoryRetriever, WorkflowInjectsPastAnswersIntoBaseline) {
  // A vetted past answer makes even the retrieval-free arm grounded: the
  // Fig 3 dotted arrow in action.
  const rag::KnowledgeBase db =
      rag::KnowledgeBase::build(corpus::generate_corpus());

  history::HistoryStore store;
  const auto id = store.add(vetted_record(
      "What is the best way to frobnicate the Krylov basis cache?",
      "Enable the basis cache with KSPGMRESSetRestart and a larger restart; "
      "this is the vetted team answer.",
      ""));  // human answer
  (void)id;
  rag::HistoryRetriever retriever(&store);

  rag::AugmentedWorkflow workflow(db, rag::PipelineArm::Baseline,
                                  llm::model_config("sim-gpt-4o"));
  workflow.attach_history_retrieval(&retriever);
  const rag::WorkflowOutcome outcome = workflow.ask(
      "What is the best way to frobnicate the Krylov basis cache?");
  // The model answered from the injected history context.
  EXPECT_EQ(outcome.response.mode, "grounded");
  EXPECT_NE(outcome.response.text.find("vetted team answer"),
            std::string::npos);
}

TEST(HistoryRetriever, NullStoreThrows) {
  EXPECT_THROW(rag::HistoryRetriever(nullptr), std::invalid_argument);
}

}  // namespace
}  // namespace pkb
