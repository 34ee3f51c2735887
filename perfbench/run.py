#!/usr/bin/env python3
"""Benchmark entry point for the PETSc knowledge-base assistant.

Builds the harness (perfbench/harness, linked against the library sources in
src/) into the build directory, runs one workload, and checks that its result
line names every metric BENCHMARK.json lists, with the listed unit.

Usage, from the repository root:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --self-check

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
the traced run (whose spans go to <build dir>/traces/). --self-check runs
every workload at tiny size in both modes and fails unless each prints every
named metric with its unit. The build directory is $CARGO_TARGET_DIR when
set, else .bench_build.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configure once, then (re)build the harness; returns the binary path."""
    out = build_dir()
    tmp = os.path.join(out, "tmp")  # keep compiler temporaries in the tree
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, CCACHE_DISABLE="1", TMPDIR=tmp)
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", SOURCE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, env=env, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "-j", jobs], check=True, env=env,
                   stdout=sys.stderr)
    return os.path.join(out, "pkb_perfbench")


def load_spec():
    with open(SPEC) as f:
        return json.load(f)


def session_rate(spec):
    """The agent_sessions offered load, as written in its workload entry."""
    for w in spec["workloads"]:
        if w["name"] == "agent_sessions":
            m = re.search(r"(\d+(?:\.\d+)?) turns/s", w["why"])
            if m:
                return m.group(1)
    raise SystemExit("BENCHMARK.json: agent_sessions must state 'N turns/s'")


def check_result(spec, line, trace):
    """Problems with one result line against BENCHMARK.json (empty = ok)."""
    try:
        res = json.loads(line)
    except ValueError:
        return ["last line is not JSON"]
    problems = []
    if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
        problems.append("result keys are %s" % sorted(res))
        return problems
    if not isinstance(res["attempted"], int) or res["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    want = spec["per_layer" if trace else "end_to_end"]
    got = res["metrics"]
    for m in want:
        if m["name"] not in got:
            problems.append("metric %s missing" % m["name"])
        elif got[m["name"]].get("unit") != m["unit"]:
            problems.append("metric %s has unit %r, expected %r"
                            % (m["name"], got[m["name"]].get("unit"),
                               m["unit"]))
        elif not isinstance(got[m["name"]].get("value"), (int, float)):
            problems.append("metric %s has no numeric value" % m["name"])
    extra = set(got) - {m["name"] for m in want}
    if extra:
        problems.append("unlisted metrics %s" % sorted(extra))
    return problems


def run_workload(binary, spec, workload, seed, seconds, trace, tiny=False):
    """Run the harness once; returns (exit code, output lines)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if workload == "agent_sessions":
        cmd += ["--session-rate", session_rate(spec)]
    if trace:  # the latest traced run of each workload is kept
        cmd += ["--spans",
                os.path.join(build_dir(), "traces", workload + ".tsv")]
    if tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          timeout=RUN_TIMEOUT_S, text=True)
    return proc.returncode, proc.stdout.splitlines()


def self_check(binary, spec):
    failures = 0
    for w in spec["workloads"]:
        for trace in (False, True):
            code, lines = run_workload(binary, spec, w["name"], 1, 1.5, trace,
                                       tiny=True)
            problems = check_result(spec, lines[-1], trace) if lines else [
                "no output"]
            if code != 0:
                problems.append("exit code %d" % code)
            label = "%s --trace %d" % (w["name"], int(trace))
            if problems:
                failures += 1
                print("FAIL %s: %s" % (label, "; ".join(problems)))
                print("\n".join(lines[:-1]), file=sys.stderr)
            else:
                print("ok   %s" % label)
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()

    spec = load_spec()
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print("build failed: %s" % e, file=sys.stderr)
        return 1
    if args.self_check:
        return self_check(binary, spec)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        ap.error("--workload must be one of %s" % ", ".join(names))
    seconds = args.seconds if args.seconds else spec["run_seconds"]

    code, lines = run_workload(binary, spec, args.workload, args.seed, seconds,
                               bool(args.trace))
    if not lines:
        print("harness printed nothing (exit %d)" % code, file=sys.stderr)
        return code or 1
    for line in lines[:-1]:
        print(line)
    problems = check_result(spec, lines[-1], bool(args.trace))
    if problems:
        print("result line does not match BENCHMARK.json: " +
              "; ".join(problems), file=sys.stderr)
        return 1
    print(lines[-1])
    return code


if __name__ == "__main__":
    sys.exit(main())
