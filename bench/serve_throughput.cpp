// Serving-layer throughput bench: measures what the concurrent front end
// (src/serve/) buys over one-at-a-time serving, and writes the results to
// BENCH_serve.json.
//
// Phase A — worker scaling. A closed-loop client fleet drives all-unique
// questions (caches disabled) through a 1-worker and then an N-worker
// server. ServerOptions::llm_latency_scale realizes a slice of each
// response's *simulated* LLM latency as real wait time, modeling the
// network-bound LLM call of a deployment; overlapping those stalls is
// exactly what extra workers buy, so QPS should scale well even on one
// core (the CPU-bound pipeline stages still serialize).
//
// Phase B — answer caching. The same fleet replays a workload where ~50%
// of requests repeat a small hot set, against a cache-disabled and a
// cache-enabled server. Hits skip the whole pipeline including the
// latency stall, so the hit rate converts directly into QPS.
//
// Usage: serve_throughput [--workers N] [--requests R] [--seed S]
//                         [--output PATH]
//   --workers  worker threads for the scaled phases (default 8)
//   --requests requests per phase (default 240)
//   --seed     RNG seed for the phase-B workload mix (default 42)
//   --output   JSON report path (default BENCH_serve.json)
#include "bench_common.h"

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <thread>
#include <vector>

#include "serve/server.h"
#include "util/rng.h"
#include "util/stats.h"

namespace {

using pkb::serve::Server;
using pkb::serve::ServerOptions;

// Scale factor turning SimLlm's ~2.3-16.5 s simulated latencies into
// ~5-35 ms real stalls — long enough to dominate the single-worker run,
// short enough to keep the bench under ~15 s end to end.
constexpr double kLlmLatencyScale = 0.002;

struct PhaseResult {
  double wall_seconds = 0.0;
  double qps = 0.0;
  double p50 = 0.0, p95 = 0.0, p99 = 0.0;  // per-request seconds
  Server::Stats stats;
};

/// Closed-loop load: `clients` threads split `stream` round-robin, each
/// issuing synchronous ask() calls and timing every request.
PhaseResult run_load(const pkb::rag::AugmentedWorkflow& workflow,
                     ServerOptions opts,
                     const std::vector<std::string>& stream,
                     std::size_t clients) {
  Server server(workflow, opts);
  std::vector<pkb::util::Summary> per_client(clients);

  pkb::util::Stopwatch wall;
  std::vector<std::thread> fleet;
  fleet.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    fleet.emplace_back([&, c] {
      for (std::size_t i = c; i < stream.size(); i += clients) {
        pkb::util::Stopwatch per_request;
        (void)server.ask(stream[i]);
        per_client[c].add(per_request.seconds());
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
  r.p95 = all.percentile(95.0);
  r.p99 = all.percentile(99.0);
  r.stats = server.stats();
  server.stop();
  return r;
}

pkb::util::Json phase_json(const PhaseResult& r) {
  using pkb::util::Json;
  Json j = Json::object();
  j.set("wall_seconds", Json(r.wall_seconds));
  j.set("qps", Json(r.qps));
  j.set("p50_seconds", Json(r.p50));
  j.set("p95_seconds", Json(r.p95));
  j.set("p99_seconds", Json(r.p99));
  j.set("computed", Json(static_cast<double>(r.stats.computed)));
  j.set("answer_cache_hits",
        Json(static_cast<double>(r.stats.answer_cache.hits)));
  return j;
}

void print_phase(const char* name, const PhaseResult& r) {
  std::printf("  %-28s %7.1f QPS | p50 %6.1f ms | p95 %6.1f ms | "
              "p99 %6.1f ms | computed %llu | cache hits %llu\n",
              name, r.qps, r.p50 * 1e3, r.p95 * 1e3, r.p99 * 1e3,
              static_cast<unsigned long long>(r.stats.computed),
              static_cast<unsigned long long>(r.stats.answer_cache.hits));
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t workers = 8;
  std::size_t requests = 240;
  std::uint64_t seed = 42;
  std::string output = "BENCH_serve.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc) {
      workers = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--requests") == 0 && i + 1 < argc) {
      requests =
          static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--output") == 0 && i + 1 < argc) {
      output = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: serve_throughput [--workers N] [--requests R] "
                   "[--seed S] [--output PATH]\n");
      return 2;
    }
  }
  if (workers == 0) workers = 1;
  if (requests == 0) requests = 1;

  const pkb::bench::Setup setup = pkb::bench::make_setup();
  pkb::bench::print_header("serving-layer throughput", setup);
  const pkb::rag::AugmentedWorkflow workflow(
      *setup.db, pkb::rag::PipelineArm::RagRerank,
      setup.model, setup.retriever);
  const auto& bench_qs = pkb::corpus::krylov_benchmark();
  const std::size_t clients = 2 * workers;

  // --- Phase A: worker scaling over all-unique questions, caches off. ---
  std::vector<std::string> unique_stream;
  unique_stream.reserve(requests);
  for (std::size_t i = 0; i < requests; ++i) {
    unique_stream.push_back("variant " + std::to_string(i) + ": " +
                            bench_qs[i % bench_qs.size()].question);
  }
  ServerOptions uncached;
  uncached.answer_cache_capacity = 0;
  uncached.llm_latency_scale = kLlmLatencyScale;

  std::printf("phase A: %zu unique requests, %zu closed-loop clients, "
              "llm_latency_scale=%g\n", requests, clients, kLlmLatencyScale);
  ServerOptions one_worker = uncached;
  one_worker.workers = 1;
  const PhaseResult serial = run_load(workflow, one_worker, unique_stream,
                                      clients);
  print_phase("1 worker", serial);
  ServerOptions n_workers = uncached;
  n_workers.workers = workers;
  const PhaseResult scaled = run_load(workflow, n_workers, unique_stream,
                                      clients);
  const std::string n_label = std::to_string(workers) + " workers";
  print_phase(n_label.c_str(), scaled);
  const double scaling_speedup = scaled.qps / serial.qps;
  std::printf("  scaling speedup: %.2fx\n\n", scaling_speedup);

  // --- Phase B: 50%-repeated workload, cache off vs on. ---
  constexpr std::size_t kHotSet = 10;
  pkb::util::Rng rng(seed);
  std::vector<std::string> mixed_stream;
  mixed_stream.reserve(requests);
  for (std::size_t i = 0; i < requests; ++i) {
    if (i >= kHotSet && rng.uniform() < 0.5) {
      mixed_stream.push_back(
          mixed_stream[rng.below(kHotSet)]);  // repeat a hot question
    } else {
      mixed_stream.push_back("mixed " + std::to_string(i) + ": " +
                             bench_qs[i % bench_qs.size()].question);
    }
  }
  ServerOptions cache_off = uncached;
  cache_off.workers = workers;
  ServerOptions cache_on = cache_off;
  cache_on.answer_cache_capacity = 4096;

  std::printf("phase B: %zu requests, ~50%% drawn from a %zu-question hot "
              "set, %zu workers\n", requests, kHotSet, workers);
  const PhaseResult cold = run_load(workflow, cache_off, mixed_stream,
                                    clients);
  print_phase("answer cache off", cold);
  const PhaseResult warm = run_load(workflow, cache_on, mixed_stream,
                                    clients);
  print_phase("answer cache on", warm);
  const double cache_speedup = warm.qps / cold.qps;
  const double hit_rate =
      static_cast<double>(warm.stats.answer_cache.hits) /
      static_cast<double>(requests);
  std::printf("  cache speedup: %.2fx (hit rate %.0f%%)\n\n",
              cache_speedup, hit_rate * 100.0);

  using pkb::util::Json;
  Json config = Json::object();
  config.set("workers", Json(static_cast<double>(workers)));
  config.set("requests", Json(static_cast<double>(requests)));
  config.set("clients", Json(static_cast<double>(clients)));
  config.set("seed", Json(static_cast<double>(seed)));
  config.set("llm_latency_scale", Json(kLlmLatencyScale));
  Json scaling = Json::object();
  scaling.set("workers_1", phase_json(serial));
  scaling.set("workers_n", phase_json(scaled));
  scaling.set("speedup", Json(scaling_speedup));
  Json caching = Json::object();
  caching.set("cache_off", phase_json(cold));
  caching.set("cache_on", phase_json(warm));
  caching.set("speedup", Json(cache_speedup));
  caching.set("hit_rate", Json(hit_rate));
  Json report = Json::object();
  report.set("config", std::move(config));
  report.set("scaling", std::move(scaling));
  report.set("caching", std::move(caching));

  std::ofstream out(output);
  out << report.dump(2) << "\n";
  std::printf("wrote %s\n", output.c_str());
  return out.good() ? 0 : 1;
}
