// Micro-benchmarks of the vector hot path: packed-kernel scan scaling,
// exact and HNSW search costs, and the HNSW build.
#include <benchmark/benchmark.h>

#include <vector>

#include "embed/embedder.h"
#include "util/rng.h"
#include "vectordb/hnsw.h"
#include "vectordb/kernels.h"
#include "vectordb/vector_store.h"

namespace {

using pkb::embed::Vector;
using pkb::vectordb::HnswIndex;
using pkb::vectordb::HnswOptions;
using pkb::vectordb::VectorStore;
namespace kernels = pkb::vectordb::kernels;

VectorStore make_store(std::size_t n, std::size_t dim, std::uint64_t seed) {
  pkb::util::Rng rng(seed);
  VectorStore store;
  for (std::size_t i = 0; i < n; ++i) {
    Vector v(dim);
    for (float& x : v) x = static_cast<float>(rng.normal());
    store.add(std::move(v));
  }
  return store;
}

Vector make_query(std::size_t dim, std::uint64_t seed) {
  pkb::util::Rng rng(seed);
  Vector q(dim);
  for (float& x : q) x = static_cast<float>(rng.normal());
  return q;
}

// --- kernels in isolation --------------------------------------------------

// One packed-kernel pass over the whole matrix: the flat scan's inner loop.
void BM_KernelPackedScan(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::size_t dim = 128;
  const VectorStore store = make_store(n, dim, 1);
  const kernels::PackedF32& packed = store.packed();
  pkb::util::AlignedBuffer qbuf(packed.stride() * sizeof(float));
  packed.pack_query(make_query(dim, 2).data(), qbuf.as<float>());
  std::vector<float> out(n);
  for (auto _ : state) {
    packed.score_range(qbuf.as<float>(), 0, n, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}

// --- searches --------------------------------------------------------------

void BM_ExactTopK(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::size_t dim = 128;
  const VectorStore store = make_store(n, dim, 1);
  const Vector q = make_query(dim, 2);
  for (auto _ : state) {
    auto hits = store.similarity_search(q, 8);
    benchmark::DoNotOptimize(hits.data());
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}

void BM_HnswTopK(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto ef = static_cast<std::size_t>(state.range(1));
  const std::size_t dim = 128;
  const VectorStore store = make_store(n, dim, 1);
  HnswOptions opts;
  opts.ef_search = ef;
  const HnswIndex index(store, opts);
  const Vector q = make_query(dim, 2);
  for (auto _ : state) {
    auto hits = index.search(q, 8);
    benchmark::DoNotOptimize(hits.data());
  }
  std::vector<Vector> queries;
  for (std::uint64_t seed = 10; seed < 26; ++seed) {
    queries.push_back(make_query(dim, seed));
  }
  state.counters["recall@8"] = index.recall_at_k(queries, 8);
}

// One full graph build: what every live_ingest publish pays for its index.
void BM_HnswBuild(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto dim = static_cast<std::size_t>(state.range(1));
  const VectorStore store = make_store(n, dim, 1);
  for (auto _ : state) {
    const HnswIndex index(store, HnswOptions{});
    benchmark::DoNotOptimize(index.edge_count());
  }
}

}  // namespace

BENCHMARK(BM_KernelPackedScan)->Arg(4000)->Arg(16000);
BENCHMARK(BM_ExactTopK)->Arg(1000)->Arg(4000)->Arg(16000)->Complexity();
BENCHMARK(BM_HnswTopK)->Args({4000, 32})->Args({16000, 32});
// {rows, dim}: the live_ingest KB's shape, and BM_HnswTopK's row count.
BENCHMARK(BM_HnswBuild)
    ->Args({1308, 288})
    ->Args({16000, 32})
    ->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
