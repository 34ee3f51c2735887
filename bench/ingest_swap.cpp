// Live-ingestion bench: what does publishing new knowledge-base generations
// cost the serving path? Writes BENCH_ingest.json.
//
// Phase A — steady state. A closed-loop client fleet drives unique
// questions through the server with no ingestion running: the QPS baseline.
//
// Phase B — ingestion under load. The same fleet replays the same stream
// while the main thread ingests --generations batches of --docs-per-gen
// documents through ingest::Ingestor, each publish hot-swapping the
// knowledge base under the running server. Readers pin snapshots, so the
// only serving-side cost of a swap is the pointer exchange itself; the QPS
// of this phase should stay within a few percent of phase A, and the swap
// critical section (Ingestor::swap_history) should be far under a
// millisecond even at p99.
//
// Usage: ingest_swap [--generations G] [--docs-per-gen D] [--workers N]
//                    [--requests R] [--seed S] [--output PATH]
//   --generations   knowledge-base generations to publish in phase B
//                   (default 8)
//   --docs-per-gen  documents per ingested batch (default 4)
//   --workers       server worker threads (default 4)
//   --requests      requests per phase (default 240)
//   --seed          workload/document RNG seed (default 42)
//   --output        JSON report path (default BENCH_ingest.json)
#include "bench_common.h"

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "ingest/ingestor.h"
#include "serve/server.h"
#include "util/rng.h"
#include "util/stats.h"

namespace {

using pkb::serve::Server;
using pkb::serve::ServerOptions;

// Same slice of simulated LLM latency realized as real stall time as
// bench/serve_throughput uses: the network-bound regime where worker
// overlap (and therefore any swap-induced stall) actually shows.
constexpr double kLlmLatencyScale = 0.002;

struct PhaseResult {
  double wall_seconds = 0.0;
  double qps = 0.0;
  double p50 = 0.0, p95 = 0.0, p99 = 0.0;  // per-request seconds
};

/// Closed-loop load against an already-running server: `clients` threads
/// split `stream` round-robin, timing every synchronous ask().
PhaseResult run_load(Server& server, const std::vector<std::string>& stream,
                     std::size_t clients) {
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
  return j;
}

void print_phase(const char* name, const PhaseResult& r) {
  std::printf("  %-20s %7.1f QPS | p50 %6.1f ms | p95 %6.1f ms | "
              "p99 %6.1f ms\n",
              name, r.qps, r.p50 * 1e3, r.p95 * 1e3, r.p99 * 1e3);
}

/// One synthetic ingest batch: `docs` Markdown files of plausible solver
/// notes, deterministic in (seed, generation).
pkb::text::VirtualDir make_batch(std::uint64_t seed, int generation,
                                 int docs) {
  static const char* kTopics[] = {
      "restart tuning",       "preconditioner choice", "norm monitoring",
      "convergence stalls",   "matrix-free operators", "block solvers",
      "tolerance selection",  "scaling studies"};
  pkb::util::Rng rng(seed + static_cast<std::uint64_t>(generation) * 1009);
  pkb::text::VirtualDir batch;
  for (int d = 0; d < docs; ++d) {
    const char* topic = kTopics[rng.below(std::size(kTopics))];
    std::string body = "# Field notes " + std::to_string(generation) + "-" +
                       std::to_string(d) + ": " + topic + "\n\n";
    const int paragraphs = 3 + static_cast<int>(rng.below(3));
    for (int p = 0; p < paragraphs; ++p) {
      body += "Observation " + std::to_string(p) + " on " + topic +
              ": users combining KSPGMRES with PCJACOBI reported that "
              "adjusting the restart length and checking the true residual "
              "norm resolved the plateau seen at iteration " +
              std::to_string(10 + rng.below(90)) + ".\n\n";
    }
    batch.push_back({"fieldnotes/gen" + std::to_string(generation) + "-doc" +
                         std::to_string(d) + ".md",
                     std::move(body)});
  }
  return batch;
}

}  // namespace

int main(int argc, char** argv) {
  int generations = 8;
  int docs_per_gen = 4;
  std::size_t workers = 4;
  std::size_t requests = 240;
  std::uint64_t seed = 42;
  std::string output = "BENCH_ingest.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--generations") == 0 && i + 1 < argc) {
      generations = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--docs-per-gen") == 0 && i + 1 < argc) {
      docs_per_gen = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc) {
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
                   "usage: ingest_swap [--generations G] [--docs-per-gen D] "
                   "[--workers N] [--requests R] [--seed S] [--output PATH]\n");
      return 2;
    }
  }
  if (generations < 1) generations = 1;
  if (docs_per_gen < 1) docs_per_gen = 1;
  if (workers == 0) workers = 1;
  if (requests == 0) requests = 1;

  pkb::bench::Setup setup = pkb::bench::make_setup();
  pkb::bench::print_header("ingestion hot-swap", setup);
  const pkb::rag::AugmentedWorkflow workflow(
      *setup.db, pkb::rag::PipelineArm::RagRerank, setup.model,
      setup.retriever);
  const auto& bench_qs = pkb::corpus::krylov_benchmark();
  const std::size_t clients = 2 * workers;

  std::vector<std::string> stream;
  stream.reserve(requests);
  for (std::size_t i = 0; i < requests; ++i) {
    stream.push_back("variant " + std::to_string(i) + ": " +
                     bench_qs[i % bench_qs.size()].question);
  }

  ServerOptions opts;
  opts.workers = workers;
  opts.answer_cache_capacity = 0;  // measure the pipeline, not the cache
  opts.llm_latency_scale = kLlmLatencyScale;
  Server server(workflow, opts);
  pkb::ingest::Ingestor ingestor(*setup.db);

  // --- Phase A: steady state, no ingestion. ---
  std::printf("phase A: %zu requests, %zu clients, %zu workers, no "
              "ingestion\n", requests, clients, workers);
  const PhaseResult steady = run_load(server, stream, clients);
  print_phase("steady state", steady);

  // --- Phase B: the same load while generations publish underneath. ---
  std::printf("\nphase B: same load while ingesting %d generations of %d "
              "docs\n", generations, docs_per_gen);
  const std::size_t chunks_before = setup.db->chunks().size();
  std::thread ingest_thread([&] {
    for (int g = 0; g < generations; ++g) {
      (void)ingestor.ingest_files(make_batch(seed, g, docs_per_gen));
    }
  });
  const PhaseResult under_ingest = run_load(server, stream, clients);
  ingest_thread.join();
  print_phase("during ingestion", under_ingest);
  const std::size_t chunks_after = setup.db->chunks().size();

  const std::vector<double> swaps = ingestor.swap_history();
  pkb::util::Summary swap_summary;
  for (double s : swaps) swap_summary.add(s);
  const double qps_ratio = under_ingest.qps / steady.qps;
  std::printf("\n  generations published: %zu (gen %llu, %zu -> %zu chunks, "
              "%llu refits)\n",
              swaps.size(),
              static_cast<unsigned long long>(setup.db->generation()),
              chunks_before, chunks_after,
              static_cast<unsigned long long>(ingestor.stats().refits));
  std::printf("  swap latency: p50 %.1f us | p99 %.1f us | max %.1f us\n",
              swap_summary.percentile(50.0) * 1e6,
              swap_summary.percentile(99.0) * 1e6,
              swap_summary.max() * 1e6);
  std::printf("  QPS during ingestion: %.1f%% of steady state\n\n",
              qps_ratio * 100.0);

  using pkb::util::Json;
  Json config = Json::object();
  config.set("generations", Json(static_cast<double>(generations)));
  config.set("docs_per_gen", Json(static_cast<double>(docs_per_gen)));
  config.set("workers", Json(static_cast<double>(workers)));
  config.set("clients", Json(static_cast<double>(clients)));
  config.set("requests", Json(static_cast<double>(requests)));
  config.set("seed", Json(static_cast<double>(seed)));
  config.set("llm_latency_scale", Json(kLlmLatencyScale));
  Json swap = Json::object();
  swap.set("count", Json(static_cast<double>(swaps.size())));
  swap.set("p50_seconds", Json(swap_summary.percentile(50.0)));
  swap.set("p99_seconds", Json(swap_summary.percentile(99.0)));
  swap.set("max_seconds", Json(swap_summary.max()));
  Json ingest = Json::object();
  ingest.set("chunks_before", Json(static_cast<double>(chunks_before)));
  ingest.set("chunks_after", Json(static_cast<double>(chunks_after)));
  ingest.set("refits",
             Json(static_cast<double>(ingestor.stats().refits)));
  ingest.set("final_generation",
             Json(static_cast<double>(setup.db->generation())));
  Json report = Json::object();
  report.set("config", std::move(config));
  report.set("steady_state", phase_json(steady));
  report.set("during_ingestion", phase_json(under_ingest));
  report.set("qps_ratio", Json(qps_ratio));
  report.set("swap", std::move(swap));
  report.set("ingest", std::move(ingest));

  std::ofstream out(output);
  out << report.dump(2) << "\n";
  std::printf("wrote %s\n", output.c_str());
  return out.good() ? 0 : 1;
}
