// Sharded scatter–gather bench: measures ShardRouter throughput and tail
// latency against the monolithic scan across a sweep of shard counts, and
// proves the partition-tolerance contract under a dead shard. Reports land
// in BENCH_shards.json.
//
// Per shard count, three steps run over the same seeded corpus and query
// pool:
//   equivalence — every sampled query's scatter must be bit-identical to
//                 VectorStore::similarity_search; any mismatch fails the
//                 run (exit nonzero);
//   clean       — closed-loop client threads hammer search(); QPS, p50/p99,
//                 partial rate (must be 0);
//   one_dead    — the last shard is killed; answers must keep flowing
//                 (answered rate 1.0 for shards > 1, tagged partial), which
//                 is the degrade-don't-fail acceptance gate.
//
// Usage: shard_scatter [--docs N] [--dim D] [--queries Q] [--threads T]
//                      [--k K] [--shards LIST] [--seed S] [--output PATH]
//   --shards  comma-separated shard counts to sweep (default 1,2,4,8)

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "util/clock.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/stats.h"
#include "vectordb/shard_router.h"
#include "vectordb/vector_store.h"

namespace {

using pkb::embed::Vector;
using pkb::vectordb::Scatter;
using pkb::vectordb::SearchResult;
using pkb::vectordb::ShardRouter;
using pkb::vectordb::VectorStore;

VectorStore random_store(std::size_t n, std::size_t dim, std::uint64_t seed) {
  pkb::util::Rng rng(seed);
  VectorStore store;
  for (std::size_t i = 0; i < n; ++i) {
    Vector v(dim);
    for (float& x : v) x = static_cast<float>(rng.normal());
    pkb::text::Document doc;
    doc.id = "doc-" + std::to_string(i);
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

bool hits_equal(const std::vector<SearchResult>& mono,
                const std::vector<SearchResult>& sharded) {
  if (mono.size() != sharded.size()) return false;
  for (std::size_t i = 0; i < mono.size(); ++i) {
    if (mono[i].index != sharded[i].index) return false;
    if (mono[i].score != sharded[i].score) return false;  // bit-identical
    if (sharded[i].doc == nullptr || mono[i].doc->id != sharded[i].doc->id) {
      return false;
    }
  }
  return true;
}

/// Every scatter, checked against the monolithic scan.
bool check_equivalence(const VectorStore& store, const ShardRouter& router,
                       const std::vector<Vector>& pool, std::size_t k) {
  for (const Vector& q : pool) {
    const Scatter sc = router.search(q, k);
    if (sc.partial() || !hits_equal(store.similarity_search(q, k), sc.hits)) {
      return false;
    }
  }
  return true;
}

struct PhaseStats {
  double wall_seconds = 0.0;
  double qps = 0.0;
  double p50 = 0.0, p99 = 0.0;
  double partial_rate = 0.0;
  double answered_rate = 0.0;  ///< scatters that returned any hits
};

PhaseStats run_phase(const ShardRouter& router,
                     const std::vector<Vector>& pool, std::size_t requests,
                     std::size_t threads, std::size_t k) {
  std::vector<pkb::util::Summary> latency(threads);
  std::vector<std::size_t> partial(threads, 0);
  std::vector<std::size_t> answered(threads, 0);

  pkb::util::Stopwatch wall;
  std::vector<std::thread> fleet;
  fleet.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    fleet.emplace_back([&, t] {
      for (std::size_t i = t; i < requests; i += threads) {
        pkb::util::Stopwatch per_request;
        const Scatter sc = router.search(pool[i % pool.size()], k);
        latency[t].add(per_request.seconds());
        if (sc.partial()) ++partial[t];
        if (!sc.hits.empty()) ++answered[t];
      }
    });
  }
  for (std::thread& t : fleet) t.join();

  PhaseStats r;
  r.wall_seconds = wall.seconds();
  r.qps = static_cast<double>(requests) / r.wall_seconds;
  pkb::util::Summary all;
  for (const pkb::util::Summary& s : latency) {
    for (double x : s.samples()) all.add(x);
  }
  r.p50 = all.percentile(50.0);
  r.p99 = all.percentile(99.0);
  std::size_t partial_total = 0, answered_total = 0;
  for (std::size_t p : partial) partial_total += p;
  for (std::size_t a : answered) answered_total += a;
  r.partial_rate =
      static_cast<double>(partial_total) / static_cast<double>(requests);
  r.answered_rate =
      static_cast<double>(answered_total) / static_cast<double>(requests);
  return r;
}

pkb::util::Json phase_json(const PhaseStats& r) {
  using pkb::util::Json;
  Json j = Json::object();
  j.set("wall_seconds", Json(r.wall_seconds));
  j.set("qps", Json(r.qps));
  j.set("p50_seconds", Json(r.p50));
  j.set("p99_seconds", Json(r.p99));
  j.set("partial_rate", Json(r.partial_rate));
  j.set("answered_rate", Json(r.answered_rate));
  return j;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t docs = 20000;
  std::size_t dim = 64;
  std::size_t requests = 2000;
  std::size_t threads = 4;
  std::size_t k = 8;
  std::uint64_t seed = 42;
  std::string shard_list = "1,2,4,8";
  std::string output = "BENCH_shards.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--docs") == 0 && i + 1 < argc) {
      docs = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--dim") == 0 && i + 1 < argc) {
      dim = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--queries") == 0 && i + 1 < argc) {
      requests =
          static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--k") == 0 && i + 1 < argc) {
      k = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      shard_list = argv[++i];
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--output") == 0 && i + 1 < argc) {
      output = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: shard_scatter [--docs N] [--dim D] [--queries Q] "
                   "[--threads T] [--k K] [--shards LIST] [--seed S] "
                   "[--output PATH]\n");
      return 2;
    }
  }
  if (docs == 0) docs = 1;
  if (dim == 0) dim = 1;
  if (requests == 0) requests = 1;
  if (threads == 0) threads = 1;
  if (k == 0) k = 1;

  std::vector<std::size_t> shard_counts;
  for (std::size_t pos = 0; pos < shard_list.size();) {
    const std::size_t comma = shard_list.find(',', pos);
    const std::string tok = shard_list.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    const std::size_t n =
        static_cast<std::size_t>(std::strtoull(tok.c_str(), nullptr, 10));
    if (n > 0) shard_counts.push_back(n);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  if (shard_counts.empty()) {
    std::fprintf(stderr, "shard_scatter: --shards produced no shard counts\n");
    return 2;
  }

  std::printf("shard scatter–gather: %zu docs x dim %zu, %zu requests, "
              "%zu client threads, k=%zu, seed %llu\n",
              docs, dim, requests, threads, k,
              static_cast<unsigned long long>(seed));

  const VectorStore store = random_store(docs, dim, seed);
  // A modest pool keeps the equivalence check cheap while the load phases
  // cycle through it for `requests` total searches.
  const std::vector<Vector> pool =
      random_queries(std::min<std::size_t>(64, requests), dim, seed + 1);

  using pkb::util::Json;
  Json results = Json::array();
  bool all_equivalent = true;
  bool degrade_gate_ok = true;

  for (const std::size_t shards : shard_counts) {
    const auto router = ShardRouter::partition(store, shards);

    const bool equivalent = check_equivalence(store, *router, pool, k);
    all_equivalent = all_equivalent && equivalent;

    const PhaseStats clean = run_phase(*router, pool, requests, threads, k);

    // Partition tolerance: kill the last shard, keep serving.
    router->kill_shard(shards - 1);
    const PhaseStats one_dead = run_phase(*router, pool, requests, threads, k);
    router->revive_shard(shards - 1);

    // With >= 2 shards every request must still be answered (partial); a
    // single-shard router losing its only shard has nothing left to serve.
    if (shards > 1 && one_dead.answered_rate < 1.0) degrade_gate_ok = false;

    std::printf("  shards=%-3zu %s | clean %9.0f QPS p99 %7.3f ms | "
                "one-dead %9.0f QPS p99 %7.3f ms partial %4.0f%% "
                "answered %4.0f%%\n",
                shards, equivalent ? "bit-identical" : "MISMATCH  ",
                clean.qps, clean.p99 * 1e3, one_dead.qps, one_dead.p99 * 1e3,
                one_dead.partial_rate * 100.0,
                one_dead.answered_rate * 100.0);

    Json entry = Json::object();
    entry.set("shards", Json(shards));
    entry.set("equivalent", Json(equivalent));
    entry.set("clean", phase_json(clean));
    entry.set("one_dead", phase_json(one_dead));
    results.push_back(std::move(entry));
  }

  Json config = Json::object();
  config.set("docs", Json(docs));
  config.set("dim", Json(dim));
  config.set("queries", Json(requests));
  config.set("threads", Json(threads));
  config.set("k", Json(k));
  config.set("seed", Json(static_cast<double>(seed)));
  config.set("query_pool", Json(pool.size()));
  Json report = Json::object();
  report.set("config", std::move(config));
  report.set("equivalent", Json(all_equivalent));
  report.set("results", std::move(results));

  std::ofstream out(output);
  out << report.dump(2) << "\n";
  std::printf("wrote %s\n", output.c_str());
  if (!out.good()) return 1;
  if (!all_equivalent) {
    std::fprintf(stderr,
                 "shard_scatter: equivalence gate FAILED — sharded results "
                 "diverge from the monolithic scan\n");
    return 1;
  }
  if (!degrade_gate_ok) {
    std::fprintf(stderr,
                 "shard_scatter: degrade gate FAILED — a dead shard dropped "
                 "answers instead of serving partials\n");
    return 1;
  }
  return 0;
}
