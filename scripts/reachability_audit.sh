#!/usr/bin/env bash
# Reachability audit: list the pkb:: functions that the libraries define and
# that no shipped binary links.
#
# Builds every bench and example target and the perfbench harness with
# -ffunction-sections -fdata-sections -Wl,--gc-sections, so each binary keeps
# only the functions reachable from its main(). A name that the src/ libraries
# define but no binary keeps has no caller outside tests/ (tests are not
# built). The build is -O0, so no caller inlines a function away: nothing is
# listed just because every call to it was inlined. Virtual functions stay
# linked through their class's vtable, so an override that nothing reaches is
# not listed.
#
#   scripts/reachability_audit.sh [scratch-dir]
#
# The scratch dir defaults to build-audit/ under the repo root; it holds two
# build trees, project/ (the top-level CMake project) and perfbench/. A cold
# run takes about two minutes on a 4-core box, so it runs in CI's nightly
# job (which fails unless it prints exactly FaultPlan::script and
# CircuitBreaker::state) and not on pull requests. Prints one demangled name
# per line, then the count on stderr.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
scratch="${1:-$repo_root/build-audit}"
jobs="$(nproc)"

# Debug with its flags replaced: -O0 and no debug info (the CMake files set a
# default build type, so an empty one would still optimize).
configure() {  # configure <source> <build>
  cmake -S "$1" -B "$2" -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS_DEBUG="-O0" \
    -DCMAKE_CXX_FLAGS="-ffunction-sections -fdata-sections" \
    -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections" >/dev/null
}

# One target per bench/*.cpp and per examples/*.cpp (example_<name>), as
# bench/CMakeLists.txt and examples/CMakeLists.txt declare them; the test
# binary is deliberately left out.
bench_targets=$(find "$repo_root/bench" -maxdepth 1 -name '*.cpp' \
  -exec basename {} .cpp \;)
example_targets=$(find "$repo_root/examples" -maxdepth 1 -name '*.cpp' \
  -exec basename {} .cpp \; | sed 's/^/example_/')

configure "$repo_root" "$scratch/project"
# shellcheck disable=SC2086
cmake --build "$scratch/project" -j "$jobs" \
  --target $bench_targets $example_targets >/dev/null

configure "$repo_root/perfbench" "$scratch/perfbench"
cmake --build "$scratch/perfbench" -j "$jobs" --target pkb_perfbench >/dev/null

# Defined function symbols (text, weak) as mangled names.
defined_functions() {
  nm --defined-only "$@" 2>/dev/null | awk '$2 ~ /^[TtWw]$/ { print $3 }'
}

binaries=("$scratch/perfbench/pkb_perfbench")
for t in $example_targets; do binaries+=("$scratch/project/examples/$t"); done
for t in $bench_targets; do binaries+=("$scratch/project/bench/$t"); done

defined="$(mktemp)"
linked="$(mktemp)"
trap 'rm -f "$defined" "$linked"' EXIT
defined_functions "$scratch"/project/src/libpkb_*.a | sort -u >"$defined"
for b in "${binaries[@]}"; do defined_functions "$b"; done | sort -u >"$linked"

# Defined but never linked, in namespace pkb (mangled _ZN3pkb..., _ZNK3pkb...
# for const members, _ZZN3pkb... for a lambda inside one); std:: templates
# instantiated on pkb types are left out. Constructor and destructor variants
# (C1/C2, D0/D1/D2) demangle to one name, hence sort -u.
unlinked=$(comm -23 "$defined" "$linked" | grep -E '^_ZZ?N[KVRO]*3pkb' |
  c++filt | sort -u || true)
[[ -n "$unlinked" ]] && printf '%s\n' "$unlinked"
echo "reachability_audit: $(grep -c . <<<"$unlinked" || true) unlinked pkb:: names" >&2
