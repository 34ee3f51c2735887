#include <gtest/gtest.h>

#include <algorithm>
#include <latch>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "corpus/generator.h"
#include "llm/sim_llm.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rag/knowledge_base.h"
#include "rag/workflow.h"
#include "util/json.h"
#include "util/log.h"
#include "util/stats.h"

namespace pkb::obs {
namespace {

// ---------------------------------------------------------------------------
// Metrics registry.
// ---------------------------------------------------------------------------

TEST(Metrics, CounterConcurrentIncrements) {
  MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kIncs = 10000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&reg] {
      // Hammer the registry lookup AND the counter itself: both must be
      // thread-safe per the header contract.
      for (int i = 0; i < kIncs; ++i) reg.counter("pkb_test_total").inc();
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(reg.counter("pkb_test_total").value(),
            static_cast<std::uint64_t>(kThreads) * kIncs);
  // Racing lookups registered exactly one series.
  EXPECT_EQ(reg.prometheus_text(),
            "# TYPE pkb_test_total counter\npkb_test_total 80000\n");
}

// The counter alone, without the registry mutex between increments: the
// threads start together at a barrier and each runs long enough that they
// overlap, so a lost update (a load+store increment) shows in the total.
TEST(Metrics, PreResolvedCounterLosesNoIncrements) {
  MetricsRegistry reg;
  Counter& counter = reg.counter("pkb_test_total");
  constexpr int kThreads = 4;
  constexpr int kIncs = 500000;
  std::latch start(kThreads);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      start.arrive_and_wait();
      for (int i = 0; i < kIncs; ++i) counter.inc();
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(counter.value(), static_cast<std::uint64_t>(kThreads) * kIncs);
}

TEST(Metrics, LabeledSeriesAreDistinctAndOrderInsensitive) {
  MetricsRegistry reg;
  reg.counter("c", {{"a", "1"}, {"b", "2"}}).inc();
  reg.counter("c", {{"b", "2"}, {"a", "1"}}).inc();  // same series, reordered
  reg.counter("c", {{"a", "1"}, {"b", "3"}}).inc();
  EXPECT_EQ(reg.counter("c", {{"a", "1"}, {"b", "2"}}).value(), 2u);
  EXPECT_EQ(reg.counter("c", {{"a", "1"}, {"b", "3"}}).value(), 1u);
  EXPECT_EQ(reg.prometheus_text(),
            "# TYPE c counter\n"
            "c{a=\"1\",b=\"2\"} 2\n"
            "c{a=\"1\",b=\"3\"} 1\n");
}

TEST(Metrics, KindMismatchThrows) {
  MetricsRegistry reg;
  reg.counter("pkb_x").inc();
  EXPECT_THROW(reg.gauge("pkb_x"), std::logic_error);
  EXPECT_THROW(reg.histogram("pkb_x"), std::logic_error);
}

TEST(Metrics, HistogramBucketBoundaries) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("h", {}, {1.0, 2.0, 5.0});
  // A sample lands in the first bucket with x <= bound: values exactly on a
  // bound belong to that bound's bucket, not the next one.
  h.observe(1.0);
  h.observe(1.5);
  h.observe(2.0);
  h.observe(2.5);
  h.observe(10.0);  // beyond the last bound -> +Inf bucket
  const Histogram::Snapshot snap = h.snapshot();
  ASSERT_EQ(snap.buckets.size(), 4u);  // 3 bounds + implicit +Inf
  EXPECT_EQ(snap.buckets[0], 1u);      // 1.0
  EXPECT_EQ(snap.buckets[1], 2u);      // 1.5, 2.0
  EXPECT_EQ(snap.buckets[2], 1u);      // 2.5
  EXPECT_EQ(snap.buckets[3], 1u);      // 10.0
  EXPECT_EQ(snap.count, 5u);
  EXPECT_DOUBLE_EQ(snap.sum, 17.0);
  EXPECT_DOUBLE_EQ(snap.min, 1.0);
  EXPECT_DOUBLE_EQ(snap.max, 10.0);
  EXPECT_DOUBLE_EQ(snap.mean(), 3.4);
}

TEST(Metrics, HistogramMinMaxAvgMatchesSummaryExactly) {
  // The Table II parity property: a registry histogram reports the same
  // min/max/avg as the raw samples (exact tracking, not bucket
  // approximation).
  const std::vector<double> samples = {0.0123, 0.94, 0.00007, 3.6, 0.25};
  MetricsRegistry reg;
  Histogram& h = reg.histogram("h");  // default latency buckets
  util::Summary summary;
  for (double s : samples) {
    h.observe(s);
    summary.add(s);
  }
  const Histogram::Snapshot snap = h.snapshot();
  const auto [lo, hi] =
      std::minmax_element(summary.samples().begin(), summary.samples().end());
  EXPECT_EQ(snap.min, *lo);
  EXPECT_EQ(snap.max, *hi);
  EXPECT_DOUBLE_EQ(snap.mean(), summary.mean());
  EXPECT_EQ(snap.count, summary.count());
}

TEST(Metrics, HistogramBoundsMustIncrease) {
  MetricsRegistry reg;
  EXPECT_THROW(reg.histogram("bad", {}, {1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(reg.histogram("bad2", {}, {2.0, 1.0}), std::invalid_argument);
}

TEST(Metrics, ResetZeroesInPlaceAndPreservesReferences) {
  MetricsRegistry reg;
  Counter& c = reg.counter("c");
  Gauge& g = reg.gauge("g");
  Histogram& h = reg.histogram("h", {}, {1.0});
  c.inc(7);
  g.set(3.5);
  h.observe(0.5);
  reg.reset();
  // The references stay valid and usable after reset — the property the
  // benches rely on when resetting between arms.
  EXPECT_EQ(c.value(), 0u);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  EXPECT_EQ(h.snapshot().count, 0u);
  // Every series is still registered, at zero.
  EXPECT_EQ(reg.prometheus_text(),
            "# TYPE c counter\n"
            "c 0\n"
            "# TYPE g gauge\n"
            "g 0\n"
            "# TYPE h histogram\n"
            "h_bucket{le=\"1\"} 0\n"
            "h_bucket{le=\"+Inf\"} 0\n"
            "h_sum 0\n"
            "h_count 0\n");
  c.inc();
  h.observe(2.0);
  EXPECT_EQ(c.value(), 1u);
  EXPECT_EQ(reg.counter("c").value(), 1u);
  EXPECT_EQ(h.snapshot().count, 1u);
}

TEST(Metrics, PrometheusExportGolden) {
  MetricsRegistry reg;
  reg.counter("pkb_test_total", {{"arm", "a"}}).inc(3);
  reg.gauge("pkb_test_gauge").set(2.5);
  Histogram& h = reg.histogram("pkb_test_seconds", {}, {0.1, 1.0});
  h.observe(0.05);
  h.observe(0.5);
  const std::string expected =
      "# TYPE pkb_test_gauge gauge\n"
      "pkb_test_gauge 2.5\n"
      "# TYPE pkb_test_seconds histogram\n"
      "pkb_test_seconds_bucket{le=\"0.1\"} 1\n"
      "pkb_test_seconds_bucket{le=\"1\"} 2\n"
      "pkb_test_seconds_bucket{le=\"+Inf\"} 2\n"
      "pkb_test_seconds_sum 0.55\n"
      "pkb_test_seconds_count 2\n"
      "# TYPE pkb_test_total counter\n"
      "pkb_test_total{arm=\"a\"} 3\n";
  EXPECT_EQ(reg.prometheus_text(), expected);
}

TEST(Metrics, PrometheusEscapesLabelValues) {
  MetricsRegistry reg;
  reg.counter("c", {{"k", "a\"b\\c\nd"}}).inc();
  const std::string text = reg.prometheus_text();
  EXPECT_NE(text.find("c{k=\"a\\\"b\\\\c\\nd\"} 1\n"), std::string::npos)
      << text;
}

// ---------------------------------------------------------------------------
// Span tracer.
// ---------------------------------------------------------------------------

TEST(Trace, SpansNestIntoATree) {
  Tracer tracer;
  {
    Span root(tracer, "root");
    root.set_attr("arm", "rag");
    root.set_attr("k", std::size_t{8});
    { Span child(tracer, "first"); }
    {
      Span child(tracer, "second");
      child.set_attr("hits", std::uint64_t{4});
      { Span grand(tracer, "grand"); }
    }
  }
  ASSERT_EQ(tracer.traces().size(), 1u);
  const Trace trace = *tracer.latest();
  EXPECT_EQ(trace.id, 1u);
  EXPECT_EQ(trace.root.name, "root");
  ASSERT_EQ(trace.root.attrs.size(), 2u);
  EXPECT_EQ(trace.root.attrs[0], (std::pair<std::string, std::string>{"arm",
                                                                      "rag"}));
  EXPECT_EQ(trace.root.attrs[1].second, "8");
  ASSERT_EQ(trace.root.children.size(), 2u);
  EXPECT_EQ(trace.root.children[0].name, "first");
  EXPECT_TRUE(trace.root.children[0].children.empty());
  EXPECT_EQ(trace.root.children[1].name, "second");
  ASSERT_EQ(trace.root.children[1].children.size(), 1u);
  EXPECT_EQ(trace.root.children[1].children[0].name, "grand");
  // Durations are non-negative and children start no earlier than parents.
  EXPECT_GE(trace.root.dur_us, 0.0);
  EXPECT_GE(trace.root.children[1].start_us, trace.root.start_us);
}

TEST(Trace, RingEvictsOldestAtCapacity) {
  Tracer tracer(3);
  for (int i = 0; i < 5; ++i) {
    Span span(tracer, "s");
  }
  const std::vector<Trace> traces = tracer.traces();
  ASSERT_EQ(traces.size(), 3u);
  EXPECT_EQ(traces[0].id, 3u);  // 1 and 2 were evicted
  EXPECT_EQ(traces[2].id, 5u);
  EXPECT_EQ(tracer.latest()->id, 5u);
}

TEST(Trace, ChromeTraceJsonHasCompleteEvents) {
  Tracer tracer;
  {
    Span root(tracer, "outer");
    Span child(tracer, "inner");
    child.set_attr("n", std::uint64_t{3});
  }
  const std::string json = tracer.chrome_trace_json();
  // Parseable and shaped like the Chrome trace-event format.
  const util::Json parsed = util::Json::parse(json);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"outer\""), std::string::npos);
  EXPECT_NE(json.find("\"inner\""), std::string::npos);
  EXPECT_NE(json.find("\"X\""), std::string::npos);
}

TEST(Trace, RenderTreeShowsHierarchyAndAttrs) {
  Tracer tracer;
  {
    Span root(tracer, "ask");
    root.set_attr("arm", "rag");
    { Span child(tracer, "retrieve"); }
    { Span child(tracer, "llm"); }
  }
  const std::string tree = render_tree(tracer.latest()->root);
  EXPECT_NE(tree.find("ask"), std::string::npos);
  EXPECT_NE(tree.find("arm=rag"), std::string::npos);
  EXPECT_NE(tree.find("├─ retrieve"), std::string::npos);
  EXPECT_NE(tree.find("└─ llm"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Log short-circuit (satellite fix): a disabled statement must never invoke
// operator<< on its arguments.
// ---------------------------------------------------------------------------

struct Probe {
  bool* formatted;
};
std::ostream& operator<<(std::ostream& os, const Probe& p) {
  *p.formatted = true;
  return os << "probe";
}

TEST(Log, DisabledStatementsSkipFormatting) {
  ASSERT_EQ(util::log_level(), util::LogLevel::Warn) << "unexpected default";
  bool formatted = false;
  PKB_LOG(Trace, "obs_test") << Probe{&formatted};
  EXPECT_FALSE(formatted) << "operator<< ran for a disabled level";
  EXPECT_FALSE(util::log_enabled(util::LogLevel::Trace));
  EXPECT_TRUE(util::log_enabled(util::LogLevel::Error));
}

TEST(Log, EnabledStatementsStillFormat) {
  util::set_log_level(util::LogLevel::Debug);
  bool formatted = false;
  PKB_LOG(Debug, "obs_test") << Probe{&formatted};
  EXPECT_TRUE(formatted);
  util::set_log_level(util::LogLevel::Off);
  formatted = false;
  PKB_LOG(Error, "obs_test") << Probe{&formatted};
  EXPECT_FALSE(formatted) << "Off must disable every level";
  util::set_log_level(util::LogLevel::Warn);  // restore the default
}

// ---------------------------------------------------------------------------
// Integration: one ask() on the RagRerank arm produces exactly the span tree
// documented in docs/OBSERVABILITY.md.
// ---------------------------------------------------------------------------

class ObsIntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new rag::KnowledgeBase(
        rag::KnowledgeBase::build(corpus::generate_corpus()));
  }
  static rag::KnowledgeBase* db_;
};

rag::KnowledgeBase* ObsIntegrationTest::db_ = nullptr;

std::vector<std::string> child_names(const SpanData& span) {
  std::vector<std::string> names;
  names.reserve(span.children.size());
  for (const SpanData& child : span.children) names.push_back(child.name);
  return names;
}

// Id of the global tracer's newest retained trace; 0 when it holds none.
std::uint64_t last_trace_id() {
  const std::optional<Trace> latest = global_tracer().latest();
  return latest.has_value() ? latest->id : 0;
}

// The global tracer's retained traces that finished after the trace with id
// `after` (ids increase in close order).
std::vector<Trace> traces_after(std::uint64_t after) {
  std::vector<Trace> out;
  for (Trace& trace : global_tracer().traces()) {
    if (trace.id > after) out.push_back(std::move(trace));
  }
  return out;
}

bool has_attr(const SpanData& span, std::string_view key) {
  for (const auto& [k, v] : span.attrs) {
    if (k == key) return true;
  }
  return false;
}

TEST_F(ObsIntegrationTest, AskOnRagRerankEmitsDocumentedSpanTree) {
  const rag::AugmentedWorkflow workflow(*db_, rag::PipelineArm::RagRerank,
                                        llm::model_config("sim-gpt-4o"));
  const std::uint64_t last_id = last_trace_id();
  const std::uint64_t asks_before =
      global_metrics()
          .counter(kWorkflowRequestsTotal, {{"arm", "rag+rerank"}})
          .value();

  (void)workflow.ask("How do I choose a Krylov solver?");

  const std::vector<Trace> traces = traces_after(last_id);
  ASSERT_EQ(traces.size(), 1u) << "one ask() must finish exactly one trace";
  const Trace& trace = traces.front();

  // The exact hierarchy from docs/OBSERVABILITY.md (no history attached, so
  // no history_record span).
  EXPECT_EQ(trace.root.name, kSpanAsk);
  EXPECT_EQ(child_names(trace.root),
            (std::vector<std::string>{
                std::string(kSpanRetrieve), std::string(kSpanPromptBuild),
                std::string(kSpanLlm), std::string(kSpanPostprocess)}));
  const SpanData& retrieve = trace.root.children[0];
  EXPECT_EQ(child_names(retrieve),
            (std::vector<std::string>{
                std::string(kSpanEmbedQuery), std::string(kSpanVectorSearch),
                std::string(kSpanKeywordAugment), std::string(kSpanRerank)}));

  // Documented attributes are present on each span.
  EXPECT_TRUE(has_attr(trace.root, "arm"));
  EXPECT_TRUE(has_attr(trace.root, "model"));
  EXPECT_TRUE(has_attr(retrieve, "k"));
  EXPECT_TRUE(has_attr(retrieve, "kept"));
  EXPECT_TRUE(has_attr(retrieve.children[0], "embedder"));
  EXPECT_TRUE(has_attr(retrieve.children[1], "hits"));
  EXPECT_TRUE(has_attr(retrieve.children[3], "reranker"));
  EXPECT_TRUE(has_attr(trace.root.children[2], "sim_latency_s"));
  EXPECT_TRUE(has_attr(trace.root.children[3], "code_blocks"));

  // And the registry moved in step.
  EXPECT_EQ(global_metrics()
                .counter(kWorkflowRequestsTotal, {{"arm", "rag+rerank"}})
                .value(),
            asks_before + 1);
  EXPECT_GT(global_metrics()
                .histogram(kRetrieveRagSeconds)
                .snapshot()
                .count,
            0u);
}

std::string attr_of(const SpanData& span, std::string_view key) {
  for (const auto& [k, v] : span.attrs) {
    if (k == key) return v;
  }
  return "";
}

// The value of the exported sample `series` (name plus rendered labels) in
// the global registry's Prometheus text, read without touching the registry
// API (which would create the series); 0 when the series is absent.
std::uint64_t exported_value(const std::string& series) {
  const std::string text = global_metrics().prometheus_text();
  const std::string prefix = "\n" + series + " ";
  const std::size_t at = text.find(prefix);
  if (at == std::string::npos) return 0;
  return std::stoull(text.substr(at + prefix.size()));
}

TEST_F(ObsIntegrationTest, RagRerankAskRecordsRerankMetrics) {
  rag::RetrieverOptions ropts;
  ropts.reranker = "sim-nv-cross";
  const rag::AugmentedWorkflow workflow(*db_, rag::PipelineArm::RagRerank,
                                        llm::model_config("sim-gpt-4o"), ropts);
  const std::string label = "{reranker=\"sim-nv-cross\"}";
  const std::uint64_t requests_before =
      exported_value(std::string(kRerankRequestsTotal) + label);
  const std::uint64_t candidates_before =
      exported_value(std::string(kRerankCandidatesTotal) + label);
  const std::uint64_t observed_before =
      exported_value(std::string(kRerankSeconds) + "_count" + label);
  const std::uint64_t last_id = last_trace_id();

  (void)workflow.ask("How do I choose a Krylov solver?");

  const std::vector<Trace> traces = traces_after(last_id);
  ASSERT_EQ(traces.size(), 1u);
  const SpanData& rerank = traces.front().root.children[0].children[3];
  ASSERT_EQ(rerank.name, kSpanRerank);
  EXPECT_EQ(attr_of(rerank, "reranker"), "sim-nv-cross");
  const std::uint64_t in = std::stoull(attr_of(rerank, "in"));
  ASSERT_GT(in, 0u);
  EXPECT_EQ(exported_value(std::string(kRerankRequestsTotal) + label),
            requests_before + 1);
  EXPECT_EQ(exported_value(std::string(kRerankCandidatesTotal) + label),
            candidates_before + in);
  EXPECT_EQ(exported_value(std::string(kRerankSeconds) + "_count" + label),
            observed_before + 1);
}

TEST_F(ObsIntegrationTest, BaselineAskHasNoRetrieveSubtree) {
  const rag::AugmentedWorkflow workflow(*db_, rag::PipelineArm::Baseline,
                                        llm::model_config("sim-gpt-4o"));
  const std::uint64_t last_id = last_trace_id();
  (void)workflow.ask("What does KSPSolve do?");
  const std::vector<Trace> traces = traces_after(last_id);
  ASSERT_EQ(traces.size(), 1u);
  const Trace& trace = traces.front();
  EXPECT_EQ(trace.root.name, kSpanAsk);
  EXPECT_EQ(child_names(trace.root),
            (std::vector<std::string>{
                std::string(kSpanPromptBuild), std::string(kSpanLlm),
                std::string(kSpanPostprocess)}));
}

TEST_F(ObsIntegrationTest, StandaloneLlmCallIsItsOwnTraceRoot) {
  // SimLlm opens the llm span itself, so a direct complete() call (outside
  // any workflow) still yields a single-root trace — the documented
  // "standalone calls become single-root traces" behavior.
  const llm::SimLlm llm(llm::model_config("sim-gpt-4o"));
  const std::uint64_t last_id = last_trace_id();
  llm::LlmRequest request;
  request.question = "What is PETSc?";
  (void)llm.complete(request);
  const std::vector<Trace> traces = traces_after(last_id);
  ASSERT_EQ(traces.size(), 1u);
  const Trace& trace = traces.front();
  EXPECT_EQ(trace.root.name, kSpanLlm);
  EXPECT_TRUE(trace.root.children.empty());
  EXPECT_TRUE(has_attr(trace.root, "mode"));
}

}  // namespace
}  // namespace pkb::obs
