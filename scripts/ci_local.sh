#!/usr/bin/env bash
# Portable local mirror of .github/workflows/ci.yml: runs the same
# {release, scalar, asan, tsan} matrix a CI runner would, so "green
# locally" means "green in CI".
#
#   release — plain build, full ctest (includes check_docs), bench smoke,
#             benchmark harness self-check (perfbench/run.py --self-check)
#   scalar  — release rebuilt with -DPKB_FORCE_SCALAR=ON (SIMD kernels
#             compiled out), same ctest + bench smoke
#   asan    — AddressSanitizer build + full test suite (run_asan.sh)
#   tsan    — ThreadSanitizer build + concurrency/resilience suites
#             (run_tsan.sh)
#
# Usage, from anywhere:
#
#   scripts/ci_local.sh            # the whole matrix
#   scripts/ci_local.sh release    # one leg: release | scalar | asan | tsan
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
legs=("${@:-release}")
if [[ $# -eq 0 ]]; then
  legs=(release scalar asan tsan)
fi

run_release() {
  echo "== ci_local[release]: configure + build =="
  cmake -B "$repo_root/build" -S "$repo_root" -DCMAKE_BUILD_TYPE=Release
  cmake --build "$repo_root/build" -j "$(nproc)"
  echo "== ci_local[release]: ctest (unit + chaos + check_docs) =="
  ctest --test-dir "$repo_root/build" --output-on-failure -j "$(nproc)"
  echo "== ci_local[release]: bench smoke =="
  "$repo_root/scripts/bench_smoke.sh" "$repo_root/build"
  echo "== ci_local[release]: benchmark harness self-check =="
  python3 "$repo_root/perfbench/run.py" --self-check
}

run_scalar() {
  echo "== ci_local[scalar]: configure + build (PKB_FORCE_SCALAR=ON) =="
  cmake -B "$repo_root/build-scalar" -S "$repo_root" \
    -DCMAKE_BUILD_TYPE=Release -DPKB_FORCE_SCALAR=ON
  cmake --build "$repo_root/build-scalar" -j "$(nproc)"
  echo "== ci_local[scalar]: ctest =="
  ctest --test-dir "$repo_root/build-scalar" --output-on-failure -j "$(nproc)"
  echo "== ci_local[scalar]: bench smoke =="
  "$repo_root/scripts/bench_smoke.sh" "$repo_root/build-scalar"
}

run_asan() {
  echo "== ci_local[asan]: sanitized build + full suite =="
  "$repo_root/scripts/run_asan.sh"
}

run_tsan() {
  echo "== ci_local[tsan]: sanitized build + concurrency suites =="
  "$repo_root/scripts/run_tsan.sh"
}

for leg in "${legs[@]}"; do
  case "$leg" in
    release) run_release ;;
    scalar) run_scalar ;;
    asan) run_asan ;;
    tsan) run_tsan ;;
    *)
      echo "ci_local: unknown leg '$leg'" \
        "(expected release | scalar | asan | tsan)" >&2
      exit 2
      ;;
  esac
done

echo "ci_local: OK (${legs[*]})"
