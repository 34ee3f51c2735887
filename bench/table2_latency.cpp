// Reproduces Table II: run time for the RAG stage and for the LLM response
// over the 37-question benchmark (min / max / avg, in seconds).
//
// Paper (Intel i7-11700KF):
//                 RAG                  RAG+reranking
//   RAG time      0.16 / 3.11 / 0.44   0.48 / 5.71 / 1.05   (avg ~2.4x)
//   LLM response  2.74 / 16.47 / 9.56  2.28 / 15.62 / 9.63
//
// Our retrieval-stage numbers are REAL wall-clock measurements on this
// machine's corpus (absolute values differ from the paper's testbed — the
// shape to check is the rerank-stage multiplier and RAG <= 11% of LLM
// time). The LLM response time comes from SimLlm's calibrated token-rate
// latency model.
//
// The per-stage numbers are read from the obs metrics registry (see
// docs/OBSERVABILITY.md): the registry is reset before each arm, so after a
// run `pkb_retrieve_rag_seconds` holds exactly that arm's 37 retrieval
// samples and `pkb_llm_sim_latency_seconds{model=...}` the 37 simulated LLM
// latencies. Registry histograms track exact min/max/sum alongside the
// buckets, so the figures below are identical to the eval runner's own
// Summary-based aggregates (cross-checked at the bottom of main()).
//
// Usage: table2_latency [--export-metrics]
//   --export-metrics  additionally dump the registry (Prometheus text
//                     exposition format) for the RAG+reranking arm.
#include "bench_common.h"

#include <cmath>
#include <cstring>

#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "util/stats.h"
#include "util/strings.h"

namespace {

/// Render a registry histogram snapshot in the Table II "min / max / avg"
/// shape, each value with `digits` decimals.
std::string min_max_avg(const pkb::obs::Histogram::Snapshot& snap,
                        int digits) {
  using pkb::util::format_double;
  return format_double(snap.count == 0 ? 0.0 : snap.min, digits) + " / " +
         format_double(snap.count == 0 ? 0.0 : snap.max, digits) + " / " +
         format_double(snap.mean(), digits);
}

struct ArmStats {
  pkb::obs::Histogram::Snapshot rag;
  pkb::obs::Histogram::Snapshot llm;
};

/// Run one arm with a clean registry and capture the stage histograms.
ArmStats run_arm(const pkb::eval::BenchmarkRunner& runner,
                 pkb::rag::PipelineArm arm, const std::string& model,
                 pkb::util::Summary* check_rag,
                 pkb::util::Summary* check_llm) {
  pkb::obs::MetricsRegistry& metrics = pkb::obs::global_metrics();
  metrics.reset();
  const pkb::eval::ArmReport report = runner.run(arm);
  *check_rag = report.rag_times;
  *check_llm = report.llm_times;
  ArmStats stats;
  stats.rag = metrics.histogram(pkb::obs::kRetrieveRagSeconds).snapshot();
  stats.llm =
      metrics.histogram(pkb::obs::kLlmSimLatencySeconds, {{"model", model}})
          .snapshot();
  return stats;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pkb;
  bool export_metrics = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--export-metrics") == 0) export_metrics = true;
  }

  bench::Setup s = bench::make_setup();
  bench::print_header("Table II: RAG and LLM run time (seconds)", s);

  const eval::BenchmarkRunner runner = s.runner();
  util::Summary rag_check_rag, rag_check_llm, rr_check_rag, rr_check_llm;
  const ArmStats rag_arm = run_arm(runner, rag::PipelineArm::Rag,
                                   s.model.name, &rag_check_rag,
                                   &rag_check_llm);
  const ArmStats rerank = run_arm(runner, rag::PipelineArm::RagRerank,
                                  s.model.name, &rr_check_rag, &rr_check_llm);

  std::printf("%-14s | %-24s | %-24s\n", "", "RAG (min/max/avg)",
              "RAG+reranking (min/max/avg)");
  std::printf("%-14s | %-24s | %-24s\n", "RAG time",
              min_max_avg(rag_arm.rag, 4).c_str(),
              min_max_avg(rerank.rag, 4).c_str());
  std::printf("%-14s | %-24s | %-24s\n", "LLM response",
              min_max_avg(rag_arm.llm, 2).c_str(),
              min_max_avg(rerank.llm, 2).c_str());

  const double mult = rag_arm.rag.mean() > 0
                          ? rerank.rag.mean() / rag_arm.rag.mean()
                          : 0.0;
  const double frac = rerank.llm.mean() > 0
                          ? rerank.rag.mean() / rerank.llm.mean()
                          : 0.0;
  std::printf("\nreranking multiplies the average RAG stage time by %.2fx "
              "(paper: ~2.4x)\n", mult);
  std::printf("rerank-RAG stage is %.2f%% of the average LLM response time "
              "(paper: <11%%)\n", frac * 100.0);

  // Cross-check: the registry histograms must agree with the eval runner's
  // own Summary aggregates — they observe the same stage timings.
  const double drift =
      std::fabs(rag_arm.rag.mean() - rag_check_rag.mean()) +
      std::fabs(rag_arm.llm.mean() - rag_check_llm.mean()) +
      std::fabs(rerank.rag.mean() - rr_check_rag.mean()) +
      std::fabs(rerank.llm.mean() - rr_check_llm.mean());
  if (drift > 1e-9 || rag_arm.rag.count != rag_check_rag.count() ||
      rerank.rag.count != rr_check_rag.count()) {
    std::printf("\nWARNING: registry disagrees with runner summaries "
                "(drift %.3g)\n", drift);
    return 1;
  }
  std::printf("registry cross-check: %zu+%zu samples, registry == runner "
              "summaries\n", rag_arm.rag.count, rerank.rag.count);

  if (export_metrics) {
    std::printf("\n--- metrics (RAG+reranking arm, Prometheus text) ---\n%s",
                obs::global_metrics().prometheus_text().c_str());
  }
  return 0;
}
