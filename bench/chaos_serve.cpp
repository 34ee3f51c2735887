// Chaos serving bench: drives the concurrent serving layer through a
// deterministic injected-fault mix (transient LLM failures + reranker
// timeouts by default) and reports throughput, tail latency, and the
// degradation rate to BENCH_chaos.json.
//
// Two phases run over the same all-unique request stream:
//   clean — no fault plan attached (the resilience baseline);
//   chaos — the configured fault mix, with deadlines, retries, the LLM
//           circuit breaker, and the degradation ladder active.
//
// The bench doubles as an acceptance gate (the CI chaos-smoke stage): it
// exits nonzero when any request overdraws its deadline budget or when the
// answered rate (full or degraded answers with non-empty text) drops below
// 99%.
//
// Usage: chaos_serve [--workers N] [--requests R] [--seed S]
//                    [--llm-fault-rate F] [--rerank-timeout-rate F]
//                    [--deadline SECONDS] [--output PATH]
//   --llm-fault-rate       transient-failure probability per LLM call
//                          (default 0.10)
//   --rerank-timeout-rate  timeout probability per rerank call
//                          (default 0.05)
//   --deadline             virtual-seconds budget per request (default 120)
#include "bench_common.h"

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <thread>
#include <vector>

#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "resilience/fault_plan.h"
#include "resilience/resilience.h"
#include "serve/server.h"
#include "util/json.h"
#include "util/stats.h"

namespace {

using pkb::serve::Server;
using pkb::serve::ServerOptions;
namespace res = pkb::resilience;

// Realizes simulated LLM latencies as ~5-35 ms real stalls so worker
// overlap (and degraded fast paths) show up in QPS.
constexpr double kLlmLatencyScale = 0.002;

struct PhaseResult {
  double wall_seconds = 0.0;
  double qps = 0.0;
  double p50 = 0.0, p99 = 0.0;  // per-request seconds, real time
  std::size_t answered = 0;     ///< non-empty answer text
  Server::Stats stats;
  double budget_spent_max = 0.0;  ///< worst per-request virtual spend
  std::uint64_t budget_samples = 0;
};

PhaseResult run_load(const pkb::rag::AugmentedWorkflow& workflow,
                     ServerOptions opts,
                     const std::vector<std::string>& stream,
                     std::size_t clients) {
  pkb::obs::global_metrics().reset();
  Server server(workflow, opts);
  std::vector<pkb::util::Summary> per_client(clients);
  std::vector<std::size_t> answered(clients, 0);

  pkb::util::Stopwatch wall;
  std::vector<std::thread> fleet;
  fleet.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    fleet.emplace_back([&, c] {
      for (std::size_t i = c; i < stream.size(); i += clients) {
        pkb::util::Stopwatch per_request;
        const pkb::rag::WorkflowOutcome out = server.ask(stream[i]);
        per_client[c].add(per_request.seconds());
        if (!out.response.text.empty()) ++answered[c];
      }
    });
  }
  for (std::thread& t : fleet) t.join();

  PhaseResult r;
  r.wall_seconds = wall.seconds();
  r.qps = static_cast<double>(stream.size()) / r.wall_seconds;
  pkb::util::Summary all;
  for (const pkb::util::Summary& s : per_client) {
    for (double x : s.samples()) all.add(x);
  }
  r.p50 = all.percentile(50.0);
  r.p99 = all.percentile(99.0);
  for (std::size_t a : answered) r.answered += a;
  r.stats = server.stats();
  const auto spent = pkb::obs::global_metrics()
                         .histogram(pkb::obs::kResilienceBudgetSpentSeconds)
                         .snapshot();
  r.budget_spent_max = spent.max;
  r.budget_samples = spent.count;
  server.stop();
  return r;
}

pkb::util::Json phase_json(const PhaseResult& r, std::size_t requests) {
  using pkb::util::Json;
  Json j = Json::object();
  j.set("wall_seconds", Json(r.wall_seconds));
  j.set("qps", Json(r.qps));
  j.set("p50_seconds", Json(r.p50));
  j.set("p99_seconds", Json(r.p99));
  j.set("answered_rate",
        Json(static_cast<double>(r.answered) / static_cast<double>(requests)));
  j.set("degradation_rate",
        Json(static_cast<double>(r.stats.degraded) /
             static_cast<double>(requests)));
  j.set("degraded", Json(static_cast<double>(r.stats.degraded)));
  j.set("budget_spent_max_seconds", Json(r.budget_spent_max));
  return j;
}

void print_phase(const char* name, const PhaseResult& r,
                 std::size_t requests) {
  std::printf("  %-8s %7.1f QPS | p50 %6.1f ms | p99 %6.1f ms | "
              "answered %zu/%zu | degraded %llu | worst budget %5.1f s\n",
              name, r.qps, r.p50 * 1e3, r.p99 * 1e3, r.answered, requests,
              static_cast<unsigned long long>(r.stats.degraded),
              r.budget_spent_max);
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t workers = 4;
  std::size_t requests = 160;
  std::uint64_t seed = 42;
  double llm_fault_rate = 0.10;
  double rerank_timeout_rate = 0.05;
  double deadline = 120.0;
  std::string output = "BENCH_chaos.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc) {
      workers = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--requests") == 0 && i + 1 < argc) {
      requests =
          static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--llm-fault-rate") == 0 && i + 1 < argc) {
      llm_fault_rate = std::strtod(argv[++i], nullptr);
    } else if (std::strcmp(argv[i], "--rerank-timeout-rate") == 0 &&
               i + 1 < argc) {
      rerank_timeout_rate = std::strtod(argv[++i], nullptr);
    } else if (std::strcmp(argv[i], "--deadline") == 0 && i + 1 < argc) {
      deadline = std::strtod(argv[++i], nullptr);
    } else if (std::strcmp(argv[i], "--output") == 0 && i + 1 < argc) {
      output = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: chaos_serve [--workers N] [--requests R] "
                   "[--seed S] [--llm-fault-rate F] "
                   "[--rerank-timeout-rate F] [--deadline SECONDS] "
                   "[--output PATH]\n");
      return 2;
    }
  }
  if (workers == 0) workers = 1;
  if (requests == 0) requests = 1;

  const pkb::bench::Setup setup = pkb::bench::make_setup();
  pkb::bench::print_header("chaos serving (resilience under faults)", setup);
  pkb::rag::AugmentedWorkflow workflow(*setup.db,
                                       pkb::rag::PipelineArm::RagRerank,
                                       setup.model, setup.retriever);
  const auto& bench_qs = pkb::corpus::krylov_benchmark();
  const std::size_t clients = 2 * workers;

  std::vector<std::string> stream;
  stream.reserve(requests);
  for (std::size_t i = 0; i < requests; ++i) {
    stream.push_back("chaos " + std::to_string(i) + ": " +
                     bench_qs[i % bench_qs.size()].question);
  }

  res::ResilienceOptions ropts;
  ropts.request_deadline_seconds = deadline;
  ropts.seed = seed;
  res::Resilience engine(ropts);

  ServerOptions opts;
  opts.workers = workers;
  opts.llm_latency_scale = kLlmLatencyScale;
  opts.resilience = &engine;

  std::printf("%zu unique requests, %zu workers, %zu closed-loop clients, "
              "deadline %g s (virtual)\n",
              requests, workers, clients, deadline);

  // --- Phase 1: no faults. ---
  const PhaseResult clean = run_load(workflow, opts, stream, clients);
  print_phase("clean", clean, requests);

  // --- Phase 2: the configured fault mix. ---
  res::FaultPlanOptions fopts;
  fopts.seed = seed;
  fopts.llm.transient_rate = llm_fault_rate;
  fopts.rerank.timeout_rate = rerank_timeout_rate;
  res::FaultPlan plan(fopts);
  workflow.set_fault_plan(&plan);
  std::printf("fault mix: llm transient %.0f%%, rerank timeout %.0f%%\n",
              llm_fault_rate * 100.0, rerank_timeout_rate * 100.0);
  const PhaseResult chaos = run_load(workflow, opts, stream, clients);
  print_phase("chaos", chaos, requests);
  const auto llm_counts = plan.counts(res::Stage::Llm);
  const auto rerank_counts = plan.counts(res::Stage::Rerank);
  std::printf("  faults injected: %llu llm transient, %llu rerank timeout\n",
              static_cast<unsigned long long>(llm_counts.transient),
              static_cast<unsigned long long>(rerank_counts.timeout));

  // --- Acceptance gates. ---
  const double answered_rate =
      static_cast<double>(chaos.answered) / static_cast<double>(requests);
  const std::size_t deadline_violations =
      chaos.budget_spent_max > deadline + 1e-9 ? 1 : 0;
  std::printf("\nanswered rate %.1f%% (gate: >= 99%%) | worst budget spend "
              "%.1f s of %g s (gate: no overdraw)\n",
              answered_rate * 100.0, chaos.budget_spent_max, deadline);

  using pkb::util::Json;
  Json config = Json::object();
  config.set("workers", Json(static_cast<double>(workers)));
  config.set("requests", Json(static_cast<double>(requests)));
  config.set("clients", Json(static_cast<double>(clients)));
  config.set("seed", Json(static_cast<double>(seed)));
  config.set("llm_fault_rate", Json(llm_fault_rate));
  config.set("rerank_timeout_rate", Json(rerank_timeout_rate));
  config.set("deadline_seconds", Json(deadline));
  config.set("llm_latency_scale", Json(kLlmLatencyScale));
  Json faults = Json::object();
  faults.set("llm_transient", Json(static_cast<double>(llm_counts.transient)));
  faults.set("rerank_timeout",
             Json(static_cast<double>(rerank_counts.timeout)));
  Json report = Json::object();
  report.set("config", std::move(config));
  report.set("clean", phase_json(clean, requests));
  report.set("chaos", phase_json(chaos, requests));
  report.set("faults_injected", std::move(faults));
  report.set("answered_rate", Json(answered_rate));
  report.set("deadline_violations",
             Json(static_cast<double>(deadline_violations)));

  std::ofstream out(output);
  out << report.dump(2) << "\n";
  std::printf("wrote %s\n", output.c_str());
  if (!out.good()) return 1;
  if (deadline_violations > 0 || answered_rate < 0.99) {
    std::fprintf(stderr, "chaos_serve: service-level gate FAILED\n");
    return 1;
  }
  return 0;
}
