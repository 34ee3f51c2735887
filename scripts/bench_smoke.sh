#!/usr/bin/env bash
# Bench smoke: run chaos_serve, ann_frontier and replay_regress at tiny
# parameters and validate that each report contains its contract keys. This
# is not a performance gate — it proves the bench binaries still run end to
# end and still emit the JSON shape dashboards consume (each bench also
# enforces its own gate and exits nonzero when it fails). The session
# overload gate is a ctest (SessionOverload.*), not a bench. Wired into CI
# and scripts/check_all.sh; run standalone from anywhere:
#
#   scripts/bench_smoke.sh [build-dir] [report-dir]
#
# The build dir defaults to build/ and must already contain the bench
# binaries (cmake --build build). Reports land in report-dir when given
# (kept, e.g. for CI artifact upload), otherwise in a temp dir that is
# removed on exit.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-$repo_root/build}"
if [[ $# -ge 2 ]]; then
  out_dir="$2"
  mkdir -p "$out_dir"
else
  out_dir="$(mktemp -d)"
  trap 'rm -rf "$out_dir"' EXIT
fi

require_keys() {
  local file="$1"
  shift
  local key
  for key in "$@"; do
    if ! grep -q "\"$key\"" "$file"; then
      echo "bench_smoke: $(basename "$file") is missing key \"$key\"" >&2
      exit 1
    fi
  done
}

run() {
  local name="$1"
  shift
  if [[ ! -x "$build_dir/bench/$name" ]]; then
    echo "bench_smoke: $build_dir/bench/$name not built" >&2
    exit 1
  fi
  echo "== bench_smoke: $name =="
  "$build_dir/bench/$name" "$@"
}

run chaos_serve --workers 2 --requests 24 \
  --output "$out_dir/BENCH_chaos.json"
require_keys "$out_dir/BENCH_chaos.json" \
  config clean chaos faults_injected answered_rate degradation_rate \
  deadline_violations qps p99_seconds budget_spent_max_seconds

# Tiny corpus but a full sweep: the exactness and recall gates run for real
# (ef 64 covers the whole 300-doc store, so the recall floor holds even at
# smoke size) and a gate failure exits nonzero here.
run ann_frontier --docs 300 --dim 16 --queries 32 --ef 16,64 \
  --output "$out_dir/BENCH_ann.json"
require_keys "$out_dir/BENCH_ann.json" \
  config gates flat_exact default_recall \
  ok results index param recall_at_k p50_seconds p99_seconds qps \
  build_seconds backend

# Replay regression: re-execute the committed trace corpus and gate on zero
# unexplained drift (bit-identical from-Generate answers, full-pipeline
# match or explained corpus drift from Embed). Exits nonzero on drift.
run replay_regress --traces "$repo_root/tests/data/traces" \
  --output "$out_dir/BENCH_replay.json"
require_keys "$out_dir/BENCH_replay.json" \
  config traces_dir results gates traces generate_exact full_match \
  explained_diffs unexplained_diffs replay_seconds_mean record_seconds_mean \
  record_overhead_pct ok id unresolved_contexts generate_seconds full_seconds

echo "bench_smoke: OK"
