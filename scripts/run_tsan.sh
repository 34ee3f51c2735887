#!/usr/bin/env bash
# Build with ThreadSanitizer (-DPKB_SANITIZE=thread) and run the
# concurrency-heavy tests: the serving layer, session manager + admission,
# history store, observability registry, thread-pool, the shared simulated
# LLM (SimLlm::complete from several threads) and reranker (FlashRanker::score
# from several threads), resilience/chaos, request-path-off-the-pool and
# publish-under-reads suites. Hnsw.RecallFloorOnTenThousandVectors is left
# out: it starts no thread and took most of the run's time under TSan (it
# still runs in the default ctest and under ASan). Usage, from anywhere:
#
#   scripts/run_tsan.sh [extra gtest filter]
#
# A separate build tree (build-tsan/) keeps the sanitized artifacts from
# polluting the normal build. Exits non-zero on any TSan report (halt on
# first error) or test failure.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="$repo_root/build-tsan"

filter="ServeServer*:BoundedQueue*:HistoryStore*:Metrics*:Tracer*:ThreadPool*:SimClock*:SimLlm*:FlashRanker*:KnowledgeBase*:Ingest*:Resilience*:FaultPlan*:CircuitBreaker*:Chaos*:Kernels*:KernelsArena*:Hnsw*:AnnIndex*:AnnKnowledgeBase*:StageGraph*:StageParity*:TraceRecorder*:Replay*:Session*:RequestPathOffPool*:PublishUnderReads*"
if [[ $# -ge 1 ]]; then
  filter="$filter:$1"
fi
# Negative patterns go last: gtest reads every pattern after the '-' as an
# exclusion.
filter="$filter-Hnsw.RecallFloorOnTenThousandVectors"

cmake -B "$build_dir" -S "$repo_root" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DPKB_SANITIZE=thread
cmake --build "$build_dir" --target pkb_tests -j "$(nproc)"

TSAN_OPTIONS="halt_on_error=1${TSAN_OPTIONS:+:$TSAN_OPTIONS}" \
  "$build_dir/tests/pkb_tests" --gtest_filter="$filter"
echo "run_tsan: OK"
