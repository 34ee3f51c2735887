// Record/replay subsystem tests: trace persistence round-trips, recorder
// sampling, serve-layer wiring, and the time-travel replay contract —
// replay-from-Generate runs zero retrieval work and reproduces the
// recorded answer bit for bit; parameter overrides move the cut upstream
// and produce a diff report. Suite names (TraceRecorder*/Replay*) are part
// of the scripts/run_tsan.sh filter.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "corpus/generator.h"
#include "llm/model_config.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rag/stage_graph.h"
#include "rag/workflow.h"
#include "replay/replay.h"
#include "replay/trace.h"
#include "serve/server.h"

namespace {

using namespace pkb;
namespace fs = std::filesystem;
using replay::ReplayEngine;
using replay::ReplayOverrides;
using replay::ReplayResult;
using replay::TraceRecorder;
using StageKind = rag::StageKind;

const std::string kQuestion =
    "Which Krylov method should I use for a symmetric positive definite "
    "matrix?";

/// Fresh per-test trace directory under the system temp dir.
std::string fresh_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

class ReplayTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    kb_ = new rag::KnowledgeBase(
        rag::KnowledgeBase::build(corpus::generate_corpus()));
  }
  static std::unique_ptr<rag::AugmentedWorkflow> make_workflow(
      rag::RetrieverOptions opts = {}) {
    return std::make_unique<rag::AugmentedWorkflow>(
        *kb_, rag::PipelineArm::RagRerank, llm::model_config("sim-gpt-4o"),
        std::move(opts));
  }
  static rag::StageTrace record_one(const std::string& question,
                                    rag::RetrieverOptions opts = {}) {
    auto workflow = make_workflow(std::move(opts));
    rag::StageTrace trace;
    (void)workflow->ask(question, nullptr, &trace);
    return trace;
  }
  static rag::KnowledgeBase* kb_;
};

rag::KnowledgeBase* ReplayTest::kb_ = nullptr;

/// Counters that move whenever the pipeline's retrieval stages run: the
/// retrieve requests (once per EmbedStage) and the flat vector scans (once
/// per VectorStore::search).
struct UpstreamCounts {
  std::uint64_t retrieves = 0;
  std::uint64_t searches = 0;

  static UpstreamCounts now() {
    obs::MetricsRegistry& metrics = obs::global_metrics();
    return {metrics.counter(obs::kRetrieveRequestsTotal).value(),
            metrics.counter(obs::kVectordbSearchesTotal).value()};
  }
};

/// Id of the global tracer's newest retained trace; 0 when it holds none.
std::uint64_t last_trace_id() {
  const std::optional<obs::Trace> latest = obs::global_tracer().latest();
  return latest.has_value() ? latest->id : 0;
}

bool has_span(const obs::SpanData& span, std::string_view name) {
  if (span.name == name) return true;
  for (const obs::SpanData& child : span.children) {
    if (has_span(child, name)) return true;
  }
  return false;
}

/// Whether any trace finished after trace `after` contains a span `name`.
bool span_ran_since(std::uint64_t after, std::string_view name) {
  for (const obs::Trace& trace : obs::global_tracer().traces()) {
    if (trace.id > after && has_span(trace.root, name)) return true;
  }
  return false;
}

// --- persistence ----------------------------------------------------------

TEST_F(ReplayTest, TraceRecorderRoundTrip) {
  const std::string dir = fresh_dir("pkb_replay_roundtrip");
  rag::StageTrace trace = record_one(kQuestion);
  replay::RecorderOptions opts;
  opts.dir = dir;
  TraceRecorder recorder(opts);
  const std::uint64_t id = recorder.record(trace);
  ASSERT_EQ(id, 1u);

  const rag::StageTrace loaded =
      TraceRecorder::load(TraceRecorder::trace_path(dir, id));
  EXPECT_EQ(loaded.id, id);
  EXPECT_EQ(loaded.question, trace.question);
  EXPECT_EQ(loaded.arm, trace.arm);
  EXPECT_EQ(loaded.model, trace.model);
  EXPECT_EQ(loaded.reranker, trace.reranker);
  EXPECT_EQ(loaded.first_pass_k, trace.first_pass_k);
  EXPECT_EQ(loaded.final_l, trace.final_l);
  EXPECT_EQ(loaded.generation, trace.generation);
  EXPECT_EQ(loaded.degradation, trace.degradation);
  EXPECT_EQ(loaded.embed_seconds, trace.embed_seconds);
  EXPECT_EQ(loaded.search_seconds, trace.search_seconds);
  EXPECT_EQ(loaded.rerank_seconds, trace.rerank_seconds);
  EXPECT_EQ(loaded.embed.embedder, trace.embed.embedder);
  EXPECT_EQ(loaded.embed.query_vec, trace.embed.query_vec);
  ASSERT_EQ(loaded.retrieve.candidates.size(),
            trace.retrieve.candidates.size());
  for (std::size_t i = 0; i < loaded.retrieve.candidates.size(); ++i) {
    EXPECT_EQ(loaded.retrieve.candidates[i].id,
              trace.retrieve.candidates[i].id);
    EXPECT_EQ(loaded.retrieve.candidates[i].score,
              trace.retrieve.candidates[i].score);
    EXPECT_EQ(loaded.retrieve.candidates[i].via,
              trace.retrieve.candidates[i].via);
    EXPECT_EQ(loaded.retrieve.candidates[i].first_pass_rank,
              trace.retrieve.candidates[i].first_pass_rank);
  }
  EXPECT_EQ(loaded.rerank.rerank_degraded, trace.rerank.rerank_degraded);
  ASSERT_EQ(loaded.rerank.contexts.size(), trace.rerank.contexts.size());
  EXPECT_EQ(loaded.prompt.system, trace.prompt.system);
  ASSERT_EQ(loaded.prompt.contexts.size(), trace.prompt.contexts.size());
  for (std::size_t i = 0; i < loaded.prompt.contexts.size(); ++i) {
    EXPECT_EQ(loaded.prompt.contexts[i].id, trace.prompt.contexts[i].id);
    EXPECT_EQ(loaded.prompt.contexts[i].title,
              trace.prompt.contexts[i].title);
    EXPECT_EQ(loaded.prompt.contexts[i].text, trace.prompt.contexts[i].text);
    EXPECT_EQ(loaded.prompt.contexts[i].score,
              trace.prompt.contexts[i].score);
  }
  EXPECT_EQ(loaded.prompt.max_attended, trace.prompt.max_attended);
  EXPECT_EQ(loaded.prompt.prompt, trace.prompt.prompt);
  EXPECT_EQ(loaded.generate.response.text, trace.generate.response.text);
  EXPECT_EQ(loaded.generate.response.mode, trace.generate.response.mode);
  EXPECT_EQ(loaded.generate.response.latency_seconds,
            trace.generate.response.latency_seconds);
  EXPECT_EQ(loaded.generate.response.prompt_tokens,
            trace.generate.response.prompt_tokens);
  EXPECT_EQ(loaded.generate.response.completion_tokens,
            trace.generate.response.completion_tokens);
  EXPECT_EQ(loaded.generate.response.used_context_ids,
            trace.generate.response.used_context_ids);
  EXPECT_EQ(loaded.post.plain_text, trace.post.plain_text);
  EXPECT_EQ(loaded.post.all_code_ok, trace.post.all_code_ok);
  EXPECT_EQ(loaded.post.code_blocks, trace.post.code_blocks);
  EXPECT_EQ(loaded.post.sources, trace.post.sources);

  fs::remove_all(dir);
}

TEST_F(ReplayTest, TruncatedTraceThrows) {
  const std::string dir = fresh_dir("pkb_replay_truncated");
  replay::RecorderOptions opts;
  opts.dir = dir;
  TraceRecorder recorder(opts);
  const std::uint64_t id = recorder.record(record_one(kQuestion));
  const std::string path = TraceRecorder::trace_path(dir, id);

  const auto full_size = fs::file_size(path);
  fs::resize_file(path, full_size / 2);
  EXPECT_THROW((void)TraceRecorder::load(path), std::runtime_error);

  // Garbage magic is rejected up front.
  { std::ofstream(path, std::ios::binary | std::ios::trunc) << "not a trace"; }
  EXPECT_THROW((void)TraceRecorder::load(path), std::runtime_error);
  fs::remove_all(dir);
}

TEST_F(ReplayTest, RecorderSamplingAndIdResume) {
  const std::string dir = fresh_dir("pkb_replay_sampling");
  replay::RecorderOptions opts;
  opts.dir = dir;
  opts.sample_every = 3;
  TraceRecorder recorder(opts);
  // Every third request is sampled, starting with the first.
  EXPECT_TRUE(recorder.sample());
  EXPECT_FALSE(recorder.sample());
  EXPECT_FALSE(recorder.sample());
  EXPECT_TRUE(recorder.sample());

  const rag::StageTrace trace = record_one(kQuestion);
  EXPECT_EQ(recorder.record(trace), 1u);
  EXPECT_EQ(recorder.record(trace), 2u);

  // A new recorder over the same directory resumes past existing ids.
  TraceRecorder resumed(opts);
  EXPECT_EQ(resumed.record(trace), 3u);
  EXPECT_EQ(TraceRecorder::list(dir),
            (std::vector<std::uint64_t>{1, 2, 3}));
  fs::remove_all(dir);
}

TEST_F(ReplayTest, ServerRecordsSampledRequests) {
  const std::string dir = fresh_dir("pkb_replay_serve");
  replay::RecorderOptions rec_opts;
  rec_opts.dir = dir;
  TraceRecorder recorder(rec_opts);

  auto workflow = make_workflow();
  serve::ServerOptions opts;
  opts.workers = 2;
  opts.recorder = &recorder;
  {
    serve::Server server(*workflow, opts);
    const rag::WorkflowOutcome out = server.ask(kQuestion);
    (void)server.ask("How do I monitor the true residual norm?");
    // A repeat runs the pipeline again and is recorded too.
    (void)server.ask(kQuestion);
    EXPECT_FALSE(out.response.text.empty());
  }
  EXPECT_EQ(recorder.recorded(), 3u);
  const std::vector<std::uint64_t> ids = TraceRecorder::list(dir);
  ASSERT_EQ(ids.size(), 3u);
  // The recorded traces replay to the very answers the server returned.
  for (const std::uint64_t id : ids) {
    const rag::StageTrace t =
        TraceRecorder::load(TraceRecorder::trace_path(dir, id));
    EXPECT_FALSE(t.generate.response.text.empty());
    EXPECT_EQ(t.arm, "rag+rerank");
  }
  fs::remove_all(dir);
}

// --- time travel ----------------------------------------------------------

// The headline contract: replaying from GenerateStage re-runs ONLY the LLM
// and postprocessing — zero embed/retrieve/rerank work (proven by the
// retrieval counters and the absence of their spans) — and, the model
// being deterministic, reproduces the recorded answer bit for bit.
TEST_F(ReplayTest, FromGenerateIsBitIdenticalAndRunsNoRetrieval) {
  const UpstreamCounts before_recording = UpstreamCounts::now();
  const std::uint64_t recording_id = last_trace_id();
  const rag::StageTrace recorded = record_one(kQuestion);
  // The counters and spans are live: the recording itself moved them.
  const UpstreamCounts before = UpstreamCounts::now();
  ASSERT_EQ(before.retrieves, before_recording.retrieves + 1);
  ASSERT_GT(before.searches, before_recording.searches);
  ASSERT_TRUE(span_ran_since(recording_id, obs::kSpanEmbedQuery));
  ASSERT_TRUE(span_ran_since(recording_id, obs::kSpanVectorSearch));
  ASSERT_TRUE(span_ran_since(recording_id, obs::kSpanRerank));

  ReplayEngine engine(*kb_);
  const std::uint64_t last_id = last_trace_id();
  ReplayOverrides ov;
  ov.from = StageKind::Generate;
  const ReplayResult result = engine.replay(recorded, ov);

  const UpstreamCounts after = UpstreamCounts::now();
  EXPECT_EQ(after.retrieves, before.retrieves);
  EXPECT_EQ(after.searches, before.searches);
  EXPECT_FALSE(span_ran_since(last_id, obs::kSpanEmbedQuery));
  EXPECT_FALSE(span_ran_since(last_id, obs::kSpanVectorSearch));
  EXPECT_FALSE(span_ran_since(last_id, obs::kSpanRerank));
  EXPECT_TRUE(span_ran_since(last_id, obs::kSpanLlm))
      << "the replay's own stages must still be traced";

  EXPECT_EQ(result.from, StageKind::Generate);
  EXPECT_EQ(result.outcome.response.text, recorded.generate.response.text);
  EXPECT_EQ(result.outcome.response.mode, recorded.generate.response.mode);
  EXPECT_EQ(result.outcome.response.used_context_ids,
            recorded.generate.response.used_context_ids);
  EXPECT_EQ(result.outcome.prompt, recorded.prompt.prompt);
  EXPECT_EQ(result.outcome.generation, recorded.generation);
  EXPECT_EQ(result.outcome.processed.plain_text, recorded.post.plain_text);
  EXPECT_FALSE(result.diff.any()) << result.diff.summary();
}

// Replaying the whole pipeline (from Embed) against the same KB reproduces
// the recording end to end.
TEST_F(ReplayTest, FromEmbedReproducesRecordingOnSameKb) {
  const rag::StageTrace recorded = record_one(kQuestion);
  ReplayEngine engine(*kb_);
  ReplayOverrides ov;
  ov.from = StageKind::Embed;
  const ReplayResult result = engine.replay(recorded, ov);
  EXPECT_FALSE(result.diff.any()) << result.diff.summary();
  EXPECT_EQ(result.outcome.response.text, recorded.generate.response.text);
  EXPECT_EQ(result.trace.retrieve.candidates.size(),
            recorded.retrieve.candidates.size());
}

// A first-pass-K override (k=8 vs recorded k=4) invalidates the retrieval:
// the effective cut moves to RetrieveStage (the recorded embedding is
// reused) and the diff reports what changed downstream.
TEST_F(ReplayTest, KOverrideMovesCutAndDiffsContexts) {
  rag::RetrieverOptions narrow;
  narrow.first_pass_k = 4;
  const rag::StageTrace recorded = record_one(kQuestion, narrow);
  ASSERT_EQ(recorded.first_pass_k, 4u);
  ASSERT_EQ(recorded.retrieve.candidates.size(), 4u);

  ReplayEngine engine(*kb_);
  ReplayOverrides ov;
  ov.from = StageKind::Generate;  // the override forces an earlier cut
  ov.first_pass_k = 8;
  const ReplayResult result = engine.replay(recorded, ov);

  EXPECT_EQ(result.from, StageKind::Retrieve);
  EXPECT_EQ(result.trace.first_pass_k, 8u);
  EXPECT_GT(result.trace.retrieve.candidates.size(),
            recorded.retrieve.candidates.size());
  // The widened first pass changed what the reranker saw; the diff report
  // carries the context-level delta and both answers for comparison.
  EXPECT_EQ(result.diff.recorded_answer, recorded.generate.response.text);
  EXPECT_EQ(result.diff.replayed_answer, result.outcome.response.text);
  EXPECT_FALSE(result.diff.summary().empty());
  if (result.diff.any()) {
    EXPECT_TRUE(!result.diff.contexts_added.empty() ||
                !result.diff.contexts_removed.empty() ||
                result.diff.context_order_changed ||
                result.diff.prompt_changed || result.diff.answer_changed);
  }
}

// A reranker override replays from RerankStage: embed and vector search
// are seeded from the recording (proven by the counters and spans again).
TEST_F(ReplayTest, RerankerOverrideReplaysFromRerankOnly) {
  const rag::StageTrace recorded = record_one(kQuestion);

  ReplayEngine engine(*kb_);
  const UpstreamCounts before = UpstreamCounts::now();
  const std::uint64_t last_id = last_trace_id();
  ReplayOverrides ov;
  ov.reranker = std::string();  // disable reranking
  const ReplayResult result = engine.replay(recorded, ov);

  EXPECT_EQ(result.from, StageKind::Rerank);
  const UpstreamCounts after = UpstreamCounts::now();
  EXPECT_EQ(after.retrieves, before.retrieves);
  EXPECT_EQ(after.searches, before.searches);
  EXPECT_FALSE(span_ran_since(last_id, obs::kSpanEmbedQuery));
  EXPECT_FALSE(span_ran_since(last_id, obs::kSpanVectorSearch));
  // Without the reranker the contexts are the first-pass order, truncated
  // to L — recorded candidates, not a fresh search.
  ASSERT_FALSE(result.trace.rerank.contexts.empty());
  for (std::size_t i = 0; i < result.trace.rerank.contexts.size(); ++i) {
    EXPECT_EQ(result.trace.rerank.contexts[i].id,
              recorded.retrieve.candidates[i].id);
  }
}

// From Postprocess everything upstream is seeded: the replay merely re-runs
// box 4 over the recorded response.
TEST_F(ReplayTest, FromPostprocessSeedsEverything) {
  const rag::StageTrace recorded = record_one(kQuestion);
  ReplayEngine engine(*kb_);
  ReplayOverrides ov;
  ov.from = StageKind::Postprocess;
  const ReplayResult result = engine.replay(recorded, ov);
  EXPECT_EQ(result.from, StageKind::Postprocess);
  EXPECT_EQ(result.outcome.response.text, recorded.generate.response.text);
  EXPECT_EQ(result.outcome.processed.plain_text, recorded.post.plain_text);
  EXPECT_FALSE(result.diff.any()) << result.diff.summary();
}

// A max_attended override moves the cut to PromptStage and narrows the
// attention window; a model override re-generates with another model.
TEST_F(ReplayTest, PromptAndModelOverrides) {
  const rag::StageTrace recorded = record_one(kQuestion);
  ReplayEngine engine(*kb_);

  ReplayOverrides narrow;
  narrow.max_attended = 1;
  const ReplayResult narrowed = engine.replay(recorded, narrow);
  EXPECT_EQ(narrowed.from, StageKind::Prompt);
  EXPECT_EQ(narrowed.trace.prompt.max_attended, 1u);

  ReplayOverrides other_model;
  other_model.model = "sim-llama3-70b";
  const ReplayResult remodeled = engine.replay(recorded, other_model);
  EXPECT_EQ(remodeled.from, StageKind::Generate);
  EXPECT_EQ(remodeled.trace.model, "sim-llama3-70b");
  // Same prompt, different model: the diff explains the answer delta.
  EXPECT_EQ(remodeled.outcome.prompt, recorded.prompt.prompt);
}

// Replay metrics move: replays_total, stages run/skipped.
TEST_F(ReplayTest, ReplayMetricsAccounting) {
  const rag::StageTrace recorded = record_one(kQuestion);
  ReplayEngine engine(*kb_);
  obs::MetricsRegistry& metrics = obs::global_metrics();
  const std::uint64_t replays_before =
      metrics.counter(obs::kReplayReplaysTotal).value();
  const std::uint64_t generate_runs_before =
      metrics.counter(obs::kReplayStagesRunTotal, {{"stage", "generate"}})
          .value();
  const std::uint64_t embed_skips_before =
      metrics
          .counter(obs::kReplayStagesSkippedTotal, {{"stage", "embed"}})
          .value();

  ReplayOverrides ov;
  ov.from = StageKind::Generate;
  (void)engine.replay(recorded, ov);

  EXPECT_EQ(metrics.counter(obs::kReplayReplaysTotal).value(),
            replays_before + 1);
  EXPECT_EQ(
      metrics.counter(obs::kReplayStagesRunTotal, {{"stage", "generate"}})
          .value(),
      generate_runs_before + 1);
  EXPECT_EQ(
      metrics.counter(obs::kReplayStagesSkippedTotal, {{"stage", "embed"}})
          .value(),
      embed_skips_before + 1);
}

TEST_F(ReplayTest, UnknownArmInTraceHeaderThrows) {
  rag::StageTrace bogus = record_one(kQuestion);
  bogus.arm = "not-an-arm";
  ReplayEngine engine(*kb_);
  EXPECT_THROW((void)engine.replay(bogus), std::runtime_error);
}

}  // namespace
