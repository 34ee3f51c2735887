// Multi-turn session serving tests: the SessionPromptContext hooks in the
// stage graph (retrieval-memory dedup, history attachment, generation
// staleness), the SessionManager's strands on the server's workers and
// conversation state, the four-rung admission/shed order, shedding under a
// ladder of overload bursts, memory invalidation across live ingest
// generation swaps, and LRU eviction at capacity. Suite names all start with
// `Session` so scripts/run_tsan.sh picks them up.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "ingest/ingestor.h"
#include "llm/model_config.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "rag/knowledge_base.h"
#include "rag/stages.h"
#include "rag/workflow.h"
#include "resilience/resilience.h"
#include "serve/server.h"
#include "serve/session.h"
#include "text/document.h"

namespace {

using namespace pkb;
using serve::Admission;
using serve::Server;
using serve::ServerOptions;
using serve::SessionManager;
using serve::SessionOptions;
using serve::TurnOutcome;

// A tiny corpus: enough chunks for retrieval to return a full context set,
// small enough that KnowledgeBase::build stays fast per test.
text::VirtualDir session_corpus() {
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

constexpr const char* kQuestion =
    "How do I monitor convergence of a Krylov solver?";

// Spin until `pred` holds or ~2 s elapse; returns whether it held. Used to
// wait out worker scheduling without fixed sleeps.
template <typename Pred>
bool wait_for(Pred pred) {
  for (int i = 0; i < 2000; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return pred();
}

// Submit one turn and wait for its outcome.
TurnOutcome ask(SessionManager& manager, const std::string& session_id,
                std::string question) {
  return manager.submit(session_id, std::move(question)).get();
}

// --- SessionPromptContext through the workflow directly --------------------

class SessionPromptTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    kb_ = new rag::KnowledgeBase(rag::KnowledgeBase::build(session_corpus()));
    workflow_ = new rag::AugmentedWorkflow(*kb_, rag::PipelineArm::RagRerank,
                                           llm::model_config("sim-gpt-4o"));
  }
  static rag::KnowledgeBase* kb_;
  static rag::AugmentedWorkflow* workflow_;
};

rag::KnowledgeBase* SessionPromptTest::kb_ = nullptr;
rag::AugmentedWorkflow* SessionPromptTest::workflow_ = nullptr;

TEST_F(SessionPromptTest, FirstTurnRecordsAttachedContextIds) {
  std::unordered_set<std::string> seen;
  rag::SessionPromptContext session;
  session.seen_context_ids = &seen;
  session.memory_generation = kb_->generation();
  const rag::WorkflowOutcome out =
      workflow_->ask(kQuestion, nullptr, nullptr, &session);
  EXPECT_FALSE(session.memory_stale);
  EXPECT_EQ(session.deduped, 0u);  // nothing seen yet
  EXPECT_FALSE(session.attached_context_ids.empty());
  EXPECT_EQ(session.attached_context_ids.size(), out.retrieval.contexts.size());
}

TEST_F(SessionPromptTest, SecondTurnDedupsSeenContexts) {
  std::unordered_set<std::string> seen;
  rag::SessionPromptContext first;
  first.seen_context_ids = &seen;
  first.memory_generation = kb_->generation();
  const rag::WorkflowOutcome a =
      workflow_->ask(kQuestion, nullptr, nullptr, &first);
  seen.insert(first.attached_context_ids.begin(),
              first.attached_context_ids.end());

  rag::SessionPromptContext second;
  second.seen_context_ids = &seen;
  second.memory_generation = kb_->generation();
  const rag::WorkflowOutcome b =
      workflow_->ask(kQuestion, nullptr, nullptr, &second);
  EXPECT_FALSE(second.memory_stale);
  // The identical question retrieves the identical contexts: every one of
  // them is already in the session memory and is dropped from the prompt.
  EXPECT_EQ(second.deduped, first.attached_context_ids.size());
  EXPECT_TRUE(second.attached_context_ids.empty());
  EXPECT_NE(a.prompt, b.prompt);  // the deduped prompt carries no contexts
}

TEST_F(SessionPromptTest, GenerationMismatchDisablesDedupAndFlagsStale) {
  std::unordered_set<std::string> seen;
  rag::SessionPromptContext first;
  first.seen_context_ids = &seen;
  first.memory_generation = kb_->generation();
  (void)workflow_->ask(kQuestion, nullptr, nullptr, &first);
  seen.insert(first.attached_context_ids.begin(),
              first.attached_context_ids.end());

  rag::SessionPromptContext stale;
  stale.seen_context_ids = &seen;
  stale.memory_generation = kb_->generation() + 7;  // memory from elsewhere
  const rag::WorkflowOutcome out =
      workflow_->ask(kQuestion, nullptr, nullptr, &stale);
  EXPECT_TRUE(stale.memory_stale);
  EXPECT_EQ(stale.deduped, 0u);  // stale memory must not drop anything
  EXPECT_EQ(stale.attached_context_ids.size(), out.retrieval.contexts.size());
}

TEST_F(SessionPromptTest, HistoryContextsAreAppendedToThePrompt) {
  const std::vector<llm::ContextDoc> history{
      {"session:s1:turn:1", "Earlier in this conversation",
       "Q: What is GMRES?\nA: A Krylov method.", 0.0}};
  rag::SessionPromptContext session;
  session.history_contexts = &history;
  const rag::WorkflowOutcome out =
      workflow_->ask(kQuestion, nullptr, nullptr, &session);
  EXPECT_EQ(session.history_attached, 1u);
  EXPECT_NE(out.prompt.find("What is GMRES?"), std::string::npos);
}

// --- SessionManager: conversation state over a Server ----------------------

class SessionManagerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    kb_ = new rag::KnowledgeBase(rag::KnowledgeBase::build(session_corpus()));
    workflow_ = new rag::AugmentedWorkflow(*kb_, rag::PipelineArm::RagRerank,
                                           llm::model_config("sim-gpt-4o"));
  }
  // SessionAdmissionTest and SessionEvictionTest inherit this fixture, and
  // gtest runs SetUpTestSuite once per derived suite: free each suite's
  // pair so the next SetUpTestSuite does not orphan it.
  static void TearDownTestSuite() {
    delete workflow_;
    workflow_ = nullptr;
    delete kb_;
    kb_ = nullptr;
  }
  static rag::KnowledgeBase* kb_;
  static rag::AugmentedWorkflow* workflow_;
};

rag::KnowledgeBase* SessionManagerTest::kb_ = nullptr;
rag::AugmentedWorkflow* SessionManagerTest::workflow_ = nullptr;

TEST_F(SessionManagerTest, MultiTurnDedupsAndCarriesHistory) {
  Server server(*workflow_, {});
  SessionManager manager(server, {});
  const TurnOutcome t1 = ask(manager, "chat", kQuestion);
  const TurnOutcome t2 = ask(manager, "chat", kQuestion);
  const TurnOutcome t3 = ask(manager, "chat", kQuestion);
  EXPECT_EQ(t1.turn, 1u);
  EXPECT_EQ(t2.turn, 2u);
  EXPECT_EQ(t3.turn, 3u);
  EXPECT_EQ(t1.deduped_contexts, 0u);
  EXPECT_GT(t2.deduped_contexts, 0u);  // same question, contexts remembered
  EXPECT_GT(t3.deduped_contexts, 0u);
  EXPECT_EQ(t1.history_contexts, 0u);
  EXPECT_EQ(t2.history_contexts, 1u);  // turn 1 replayed
  EXPECT_EQ(t3.history_contexts, 2u);  // turns 1+2 replayed
  EXPECT_NE(t2.outcome.prompt.find(kQuestion), std::string::npos);
  const SessionManager::Stats stats = manager.stats();
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.admitted, 3u);
  EXPECT_EQ(stats.completed, 3u);
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(stats.sessions_created, 1u);
  EXPECT_GT(stats.dedup_dropped, 0u);
}

TEST_F(SessionManagerTest, HistoryIsCappedAtMaxHistoryTurns) {
  Server server(*workflow_, {});
  SessionOptions opts;
  opts.max_history_turns = 2;
  SessionManager manager(server, opts);
  TurnOutcome last;
  for (int i = 0; i < 5; ++i) last = ask(manager, "chat", kQuestion);
  EXPECT_EQ(last.turn, 5u);
  EXPECT_EQ(last.history_contexts, 2u);  // only the most recent 2 replayed
}

TEST_F(SessionManagerTest, LaneAffinityIsStableAndInRange) {
  ServerOptions sopts;
  sopts.workers = 4;
  Server server(*workflow_, sopts);
  SessionManager manager(server, {});
  for (int i = 0; i < 16; ++i) {
    const std::string id = "session-" + std::to_string(i);
    const std::size_t lane = manager.lane_of(id);
    EXPECT_LT(lane, manager.options().lanes);
    EXPECT_EQ(lane, manager.lane_of(id));  // stable per id
  }
}

TEST_F(SessionManagerTest, AnswerCacheIsBypassedBothDirections) {
  ServerOptions sopts;
  sopts.workers = 1;
  Server server(*workflow_, sopts);
  SessionManager manager(server, {});
  (void)ask(manager, "chat", kQuestion);
  (void)ask(manager, "chat", kQuestion);
  // Repeated turns and repeated plain asks all compute: the server keeps
  // no answers.
  EXPECT_EQ(server.stats().computed, 2u);
  const rag::WorkflowOutcome plain = server.ask(kQuestion);
  (void)server.ask(kQuestion);
  EXPECT_EQ(server.stats().computed, 4u);
  EXPECT_FALSE(plain.response.text.empty());
}

TEST_F(SessionManagerTest, SubmitAfterStopResolvesShed) {
  Server server(*workflow_, {});
  SessionManager manager(server, {});
  manager.stop();
  std::future<TurnOutcome> f = manager.submit("chat", kQuestion);
  ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_TRUE(f.get().shed());
}

// --- Strands on the server's workers ---------------------------------------

class SessionStrandTest : public SessionManagerTest {};

// A question tagged with its session and turn number, so a later prompt
// shows whether it carries this turn as history.
std::string tagged(const std::string& id, std::size_t turn) {
  return std::string(kQuestion) + " [" + id + " #" + std::to_string(turn) +
         "]";
}

TEST_F(SessionStrandTest, TurnsOfOneSessionRunInOrderWithHistory) {
  ServerOptions sopts;
  sopts.workers = 4;
  sopts.llm_latency_scale = 0.002;  // turns overlap across workers
  Server server(*workflow_, sopts);
  SessionOptions opts;
  opts.max_inflight_per_session = 8;  // admit all 8 back-to-back turns
  SessionManager manager(server, opts);

  const std::vector<std::pair<std::string, std::size_t>> sessions{
      {"long", 8}, {"a", 3}, {"b", 3}, {"c", 3}};
  std::vector<std::vector<std::future<TurnOutcome>>> futures(sessions.size());
  for (std::size_t k = 1; k <= 8; ++k) {
    for (std::size_t i = 0; i < sessions.size(); ++i) {
      const auto& [id, n] = sessions[i];
      if (k <= n) futures[i].push_back(manager.submit(id, tagged(id, k)));
    }
  }
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    const std::string& id = sessions[i].first;
    for (std::size_t k = 1; k <= futures[i].size(); ++k) {
      const TurnOutcome out = futures[i][k - 1].get();
      ASSERT_FALSE(out.shed()) << id << " #" << k;
      EXPECT_EQ(out.turn, k) << id;
      if (k > 1) {
        // The previous turn finished before this one was prompted.
        EXPECT_NE(out.outcome.prompt.find(tagged(id, k - 1)),
                  std::string::npos)
            << id << " #" << k;
        EXPECT_GE(out.history_contexts, 1u) << id << " #" << k;
      }
    }
  }
  const SessionManager::Stats stats = manager.stats();
  EXPECT_EQ(stats.admitted, 17u);
  EXPECT_EQ(stats.completed, 17u);
  EXPECT_EQ(stats.queue_depth, 0u);
}

// Hash routing pinned sessions to lanes, so a session could wait behind a
// slow turn of another session while other workers sat idle. On the shared
// pool, a turn starts as soon as any worker is free.
TEST_F(SessionStrandTest, NoHeadOfLineBlockingAcrossSessions) {
  ServerOptions sopts;
  sopts.workers = 2;
  sopts.llm_latency_scale = 0.02;  // each turn stalls for real milliseconds
  Server server(*workflow_, sopts);
  SessionManager manager(server, {});

  // Two ids in the same hash partition (equal hash % 4, hence % 2): a
  // hash-routed executor with 2 or 4 lanes queues them on one lane.
  const auto part = [](const std::string& id) {
    return std::hash<std::string>{}(id) % 4;
  };
  const std::string a = "slow-a";
  std::string b;
  for (int i = 0; b.empty(); ++i) {
    const std::string id = "quick-b" + std::to_string(i);
    if (part(id) == part(a)) b = id;
  }

  std::future<TurnOutcome> fa = manager.submit(a, kQuestion);
  std::future<TurnOutcome> fb = manager.submit(b, kQuestion);
  const TurnOutcome ta = fa.get();
  const TurnOutcome tb = fb.get();
  ASSERT_FALSE(ta.shed());
  ASSERT_FALSE(tb.shed());
  const double a_service = ta.turn_seconds - ta.queue_wait_seconds;
  // B started on the free worker well before A's turn finished.
  EXPECT_LT(tb.queue_wait_seconds, 0.5 * a_service)
      << "b waited " << tb.queue_wait_seconds << " s, a ran " << a_service
      << " s";
}

TEST_F(SessionStrandTest, StopDrainsQueuedTurns) {
  ServerOptions sopts;
  sopts.workers = 1;
  sopts.llm_latency_scale = 0.005;
  Server server(*workflow_, sopts);
  SessionOptions opts;
  opts.max_inflight_per_session = 8;
  SessionManager manager(server, opts);
  std::vector<std::future<TurnOutcome>> futures;
  for (int k = 0; k < 3; ++k) {
    for (const char* id : {"x", "y", "z"}) {
      futures.push_back(manager.submit(id, kQuestion));
    }
  }
  manager.stop();  // turns are still queued behind the one worker
  for (std::future<TurnOutcome>& f : futures) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
    EXPECT_FALSE(f.get().shed());
  }
  const SessionManager::Stats stats = manager.stats();
  EXPECT_EQ(stats.admitted, 9u);
  EXPECT_EQ(stats.admitted, stats.completed);
  EXPECT_EQ(stats.queue_depth, 0u);
}

// --- Admission and the shed order ------------------------------------------

class SessionAdmissionTest : public SessionManagerTest {};

TEST_F(SessionAdmissionTest, ShedsSessionOverInflightCap) {
  ServerOptions sopts;
  sopts.workers = 1;
  sopts.llm_latency_scale = 0.02;  // turns take real tens of milliseconds
  sopts.queue_capacity = 8;
  Server server(*workflow_, sopts);
  SessionOptions opts;
  opts.max_inflight_per_session = 1;
  opts.new_session_shed_fraction = 0.0;  // isolate the inflight rung
  SessionManager manager(server, opts);
  std::future<TurnOutcome> running = manager.submit("greedy", kQuestion);
  // The first turn is inflight (queued or executing); the cap is 1, so the
  // second turn of the same session is shed before any queue check.
  std::future<TurnOutcome> second = manager.submit("greedy", kQuestion);
  ASSERT_EQ(second.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  const TurnOutcome shed = second.get();
  EXPECT_EQ(shed.admission, Admission::ShedSessionInflight);
  // A different session is not over its cap and is admitted.
  std::future<TurnOutcome> other = manager.submit("polite", kQuestion);
  const TurnOutcome first = running.get();
  EXPECT_FALSE(first.shed());
  EXPECT_FALSE(other.get().shed());
  EXPECT_EQ(manager.stats().shed_session_inflight, 1u);
}

TEST_F(SessionAdmissionTest, ShedsWhenLaneQueueExactlyFull) {
  ServerOptions sopts;
  sopts.workers = 1;
  sopts.llm_latency_scale = 0.02;
  sopts.queue_capacity = 1;
  Server server(*workflow_, sopts);
  SessionOptions opts;
  opts.max_inflight_per_session = 8;     // keep the inflight rung out of it
  opts.new_session_shed_fraction = 0.0;  // and the watermark rung too
  SessionManager manager(server, opts);
  std::future<TurnOutcome> running = manager.submit("chat", kQuestion);
  // Wait for a worker to start the first turn: it is now executing a
  // multi-ms simulated LLM stall and the queue is empty again.
  ASSERT_TRUE(wait_for([&] { return manager.stats().queue_depth == 0; }));
  std::future<TurnOutcome> queued = manager.submit("chat", kQuestion);
  // Depth is exactly at capacity (1): the next submit must shed, typed.
  std::future<TurnOutcome> extra = manager.submit("chat", kQuestion);
  ASSERT_EQ(extra.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  const TurnOutcome shed = extra.get();
  EXPECT_EQ(shed.admission, Admission::ShedQueueFull);
  EXPECT_TRUE(shed.shed());
  EXPECT_FALSE(running.get().shed());
  EXPECT_FALSE(queued.get().shed());
  EXPECT_EQ(manager.stats().shed_queue_full, 1u);
}

TEST_F(SessionAdmissionTest, ShedsNewSessionsBeforeExistingOnes) {
  ServerOptions sopts;
  sopts.workers = 1;
  sopts.llm_latency_scale = 0.02;
  sopts.queue_capacity = 4;
  Server server(*workflow_, sopts);
  SessionOptions opts;
  opts.max_inflight_per_session = 8;
  opts.new_session_shed_fraction = 0.25;  // watermark: depth >= 1
  SessionManager manager(server, opts);
  std::future<TurnOutcome> running = manager.submit("old", kQuestion);
  ASSERT_TRUE(wait_for([&] { return manager.stats().queue_depth == 0; }));
  std::future<TurnOutcome> queued = manager.submit("old", kQuestion);
  // Depth 1 is at the watermark but under capacity: a turn that would
  // CREATE a session is shed while the existing session is still admitted.
  std::future<TurnOutcome> newcomer = manager.submit("newcomer", kQuestion);
  ASSERT_EQ(newcomer.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_EQ(newcomer.get().admission, Admission::ShedNewSession);
  std::future<TurnOutcome> existing = manager.submit("old", kQuestion);
  EXPECT_FALSE(running.get().shed());
  EXPECT_FALSE(queued.get().shed());
  EXPECT_FALSE(existing.get().shed());
  const SessionManager::Stats stats = manager.stats();
  EXPECT_EQ(stats.shed_new_session, 1u);
  EXPECT_EQ(stats.sessions_created, 1u);  // the newcomer was never created
}

TEST_F(SessionAdmissionTest, ShedsOnEstimatedDeadlineFromTheFirstTurn) {
  ServerOptions sopts;
  sopts.workers = 1;
  Server server(*workflow_, sopts);
  SessionOptions opts;
  opts.admission_deadline_seconds = 0.05;
  opts.initial_turn_seconds_estimate = 0.2;  // 0.2 * 1 > 0.05: shed at once
  SessionManager manager(server, opts);
  std::future<TurnOutcome> f = manager.submit("chat", kQuestion);
  ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_EQ(f.get().admission, Admission::ShedDeadline);
  EXPECT_EQ(manager.stats().shed_deadline, 1u);
  EXPECT_EQ(manager.stats().sessions_created, 0u);
}

TEST_F(SessionAdmissionTest, ShedTurnCarriesTypedOverloadAnswer) {
  Server server(*workflow_, {});
  SessionOptions opts;
  opts.admission_deadline_seconds = 0.01;
  opts.initial_turn_seconds_estimate = 1.0;
  SessionManager manager(server, opts);
  const TurnOutcome out = ask(manager, "chat", kQuestion);
  EXPECT_TRUE(out.shed());
  EXPECT_EQ(out.admission, Admission::ShedDeadline);
  EXPECT_EQ(out.outcome.degradation, resilience::DegradationLevel::Unavailable);
  EXPECT_EQ(out.outcome.response.mode, "shed-overload");
  EXPECT_NE(out.outcome.response.text.find("[overload]"), std::string::npos);
  EXPECT_NE(out.outcome.response.text.find(
                serve::to_string(Admission::ShedDeadline)),
            std::string::npos);
  EXPECT_EQ(out.turn_seconds, 0.0);
}

// --- Overload: shedding rises with offered load ----------------------------

class SessionOverload : public SessionManagerTest {};

// Bursts of 0.5x to 8x the admission capacity, each offered while a "plug"
// turn holds the only worker: every burst meets an empty queue and no burst
// turn starts before the last one is offered, so the admitted depth is
// exact and the test checks counts, never wall-clock times. Shedding never
// falls as the offered load rises, it passes 1% by the 2x burst, no burst
// is admitted past queue_capacity (load is shed before the queue grows),
// and every turn resolves: admitted turns with an answer inside the
// deadline budget, shed turns with the typed overload answer.
TEST_F(SessionOverload, ShedRisesWithOfferedLoadBeforeTheQueueGrows) {
  constexpr double kDeadlineSeconds = 10.0;
  constexpr std::size_t kCapacity = 4;
  constexpr double kMultipliers[] = {0.5, 1.0, 2.0, 4.0, 8.0};
  obs::global_metrics().reset();
  resilience::ResilienceOptions ropts;
  ropts.request_deadline_seconds = kDeadlineSeconds;
  resilience::Resilience engine(ropts);
  ServerOptions sopts;
  sopts.workers = 1;
  sopts.queue_capacity = kCapacity;
  sopts.llm_latency_scale = 0.02;  // each turn holds the worker ~0.1 s
  sopts.resilience = &engine;
  Server server(*workflow_, sopts);
  SessionManager manager(server, {});  // the default admission rungs

  std::size_t previous_shed = 0;
  double knee = 0.0;  // the first burst that sheds more than 1%
  for (const double multiplier : kMultipliers) {
    SCOPED_TRACE("burst at " + std::to_string(multiplier) + "x capacity");
    std::future<TurnOutcome> plug = manager.submit("plug", kQuestion);
    ASSERT_TRUE(wait_for([&] { return manager.stats().queue_depth == 0; }));
    const auto offered = static_cast<std::size_t>(
        multiplier * static_cast<double>(kCapacity));
    std::vector<std::future<TurnOutcome>> burst;
    for (std::size_t i = 0; i < offered; ++i) {
      burst.push_back(
          manager.submit("agent-" + std::to_string(i % 3), kQuestion));
    }
    ASSERT_EQ(plug.wait_for(std::chrono::seconds(0)),
              std::future_status::timeout)
        << "the plug turn ended before the burst was offered";

    std::size_t admitted = 0;
    std::size_t shed = 0;
    for (std::future<TurnOutcome>& future : burst) {
      const TurnOutcome out = future.get();
      EXPECT_FALSE(out.outcome.response.text.empty());
      if (out.shed()) {
        ++shed;
        EXPECT_EQ(out.outcome.response.mode, "shed-overload");
      } else {
        ++admitted;
      }
    }
    const TurnOutcome plugged = plug.get();
    EXPECT_FALSE(plugged.shed());
    EXPECT_FALSE(plugged.outcome.response.text.empty());

    EXPECT_LE(admitted, kCapacity);
    EXPECT_GE(shed, previous_shed);
    previous_shed = shed;
    if (knee == 0.0 && static_cast<double>(shed) >
                           0.01 * static_cast<double>(offered)) {
      knee = multiplier;
    }
  }
  EXPECT_GT(knee, 0.0);
  EXPECT_LE(knee, 2.0);
  EXPECT_EQ(manager.stats().completed, manager.stats().admitted);
  EXPECT_LE(obs::global_metrics()
                .histogram(obs::kResilienceBudgetSpentSeconds)
                .snapshot()
                .max,
            kDeadlineSeconds);
}

// --- Retrieval memory across live ingest generation swaps ------------------

TEST(SessionMemory, GenerationSwapInvalidatesAndRebuildsDedupMemory) {
  auto kb = rag::KnowledgeBase::build(session_corpus());
  rag::AugmentedWorkflow workflow(kb, rag::PipelineArm::RagRerank,
                                  llm::model_config("sim-gpt-4o"));
  Server server(workflow, {});
  SessionManager manager(server, {});
  const TurnOutcome t1 = ask(manager, "chat", kQuestion);
  EXPECT_EQ(t1.outcome.generation, 1u);
  EXPECT_EQ(t1.deduped_contexts, 0u);

  // A live ingest publishes generation 2: chunk ids from generation 1 no
  // longer describe the current corpus, so the session memory must not be
  // trusted for dedup on the next turn.
  ingest::Ingestor ingestor(kb);
  ASSERT_NE(ingestor.ingest_files({{"guide/new.md", "# New\n\nNew text."}}),
            nullptr);
  ASSERT_EQ(kb.generation(), 2u);

  const TurnOutcome t2 = ask(manager, "chat", kQuestion);
  EXPECT_EQ(t2.outcome.generation, 2u);
  EXPECT_EQ(t2.deduped_contexts, 0u);  // stale memory dropped, not applied
  EXPECT_EQ(manager.stats().memory_invalidations, 1u);

  // The memory was rebuilt against generation 2: dedup works again.
  const TurnOutcome t3 = ask(manager, "chat", kQuestion);
  EXPECT_GT(t3.deduped_contexts, 0u);
  EXPECT_EQ(manager.stats().memory_invalidations, 1u);
}

// --- Eviction: LRU at capacity ---------------------------------------------

class SessionEvictionTest : public SessionManagerTest {};

TEST_F(SessionEvictionTest, CapacityEvictsLeastRecentlyActive) {
  Server server(*workflow_, {});
  SessionOptions opts;
  opts.max_sessions = 1;
  opts.new_session_shed_fraction = 0.0;  // don't shed the second session
  SessionManager manager(server, opts);
  (void)ask(manager, "first", kQuestion);
  (void)ask(manager, "second", kQuestion);  // evicts "first"
  SessionManager::Stats stats = manager.stats();
  EXPECT_EQ(stats.sessions_created, 2u);
  EXPECT_EQ(stats.sessions_evicted, 1u);
  EXPECT_EQ(stats.active_sessions, 1u);
  // "first" lost its state: a new turn starts a fresh session at turn 1.
  const TurnOutcome back = ask(manager, "first", kQuestion);
  EXPECT_EQ(back.turn, 1u);
  EXPECT_EQ(manager.stats().sessions_created, 3u);
}

TEST_F(SessionEvictionTest, EvictionWhileTurnInFlightIsSafe) {
  ServerOptions sopts;
  sopts.workers = 1;
  sopts.llm_latency_scale = 0.02;
  Server server(*workflow_, sopts);
  SessionOptions opts;
  opts.max_sessions = 1;
  opts.new_session_shed_fraction = 0.0;
  SessionManager manager(server, opts);
  std::future<TurnOutcome> inflight = manager.submit("victim", kQuestion);
  // Admitting "usurper" evicts "victim" while its turn may still be
  // executing; the turn holds a shared_ptr and completes normally.
  std::future<TurnOutcome> usurper = manager.submit("usurper", kQuestion);
  const TurnOutcome a = inflight.get();
  const TurnOutcome b = usurper.get();
  EXPECT_FALSE(a.shed());
  EXPECT_FALSE(b.shed());
  EXPECT_FALSE(a.outcome.response.text.empty());
  EXPECT_FALSE(b.outcome.response.text.empty());
  EXPECT_EQ(manager.stats().sessions_evicted, 1u);
}

}  // namespace
