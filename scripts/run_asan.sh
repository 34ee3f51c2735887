#!/usr/bin/env bash
# Build with AddressSanitizer (-DPKB_SANITIZE=address) and run the full test
# suite. The generational KnowledgeBase hands out snapshot pointers across
# threads; ASan is what proves no stale generation is ever read after free. Usage, from anywhere:
#
#   scripts/run_asan.sh [gtest filter]
#
# A separate build tree (build-asan/) keeps the sanitized artifacts from
# polluting the normal build. Exits non-zero on any ASan report or test
# failure.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="$repo_root/build-asan"

filter="${1:-*}"

cmake -B "$build_dir" -S "$repo_root" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DPKB_SANITIZE=address
cmake --build "$build_dir" --target pkb_tests -j "$(nproc)"

ASAN_OPTIONS="detect_leaks=1${ASAN_OPTIONS:+:$ASAN_OPTIONS}" \
  "$build_dir/tests/pkb_tests" --gtest_filter="$filter"
echo "run_asan: OK"
