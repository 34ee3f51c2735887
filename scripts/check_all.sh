#!/usr/bin/env bash
# One entry point for the full local verification matrix:
#
#   1. plain build + ctest (tier-1, what CI runs — includes the chaos and
#      resilience suites and the check_docs contract test)
#   2. bench smoke: tiny chaos_serve and ann_frontier runs with JSON-shape
#      checks and their own gates, plus the replay regression over the
#      committed trace corpus in tests/data/traces (bench_smoke.sh)
#   3. ThreadSanitizer over the concurrency-heavy suites (run_tsan.sh)
#   4. AddressSanitizer over the full suite (run_asan.sh)
#
# Usage, from anywhere:  scripts/check_all.sh
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

echo "== check_all: plain build + ctest =="
cmake -B "$repo_root/build" -S "$repo_root"
cmake --build "$repo_root/build" -j "$(nproc)"
ctest --test-dir "$repo_root/build" --output-on-failure -j "$(nproc)"

echo "== check_all: bench smoke =="
"$repo_root/scripts/bench_smoke.sh" "$repo_root/build"

echo "== check_all: ThreadSanitizer =="
"$repo_root/scripts/run_tsan.sh"

echo "== check_all: AddressSanitizer =="
"$repo_root/scripts/run_asan.sh"

echo "check_all: OK"
