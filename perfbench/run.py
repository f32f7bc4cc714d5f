#!/usr/bin/env python3
"""Build and run the Clarens benchmark.

    python3 perfbench/run.py --workload rpc_hot --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-check

Run from the repository root. The first run configures and builds the
benchmark (and the Clarens libraries it links) under .bench_build/; later
runs reuse that build. Build output goes to standard error, so the last
line of standard output is always the benchmark's JSON result.

--self-check runs every workload briefly, end to end and traced, and
fails unless each run is correct and emits every metric named in
BENCHMARK.json with its unit and a non-zero sample count. It then runs
each workload with one expected value corrupted and fails unless the
correctness checks catch it.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
STATE = os.path.join(ROOT, ".bench_build", "perfbench-run")
BINARY = os.path.join(BUILD, "clarens_perfbench")
RUN_TIMEOUT_S = 175
# Runnable and checked, but not a BENCHMARK.json workload: its figures
# moved 15-25% between runs on the VM host (see README.md).
UNGATED_WORKLOADS = ["fed_files"]


def build():
    """Configures once, then brings the build up to date."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "clarens_perfbench"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def run(args, capture=False):
    """Runs the benchmark binary; returns (exit code, stdout or None)."""
    os.makedirs(STATE, exist_ok=True)
    cmd = [BINARY] + args + ["--state-dir", STATE]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        print("benchmark run timed out", file=sys.stderr)
        return 1, None
    return proc.returncode, proc.stdout.decode() if capture else None


def last_json(text):
    lines = [line for line in (text or "").splitlines() if line.strip()]
    return json.loads(lines[-1]) if lines else None


def sample_counts(text):
    for line in (text or "").splitlines():
        if line.startswith("# samples "):
            return json.loads(line[len("# samples "):])
    return {}


def self_check():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for workload in [w["name"] for w in spec["workloads"]] + UNGATED_WORKLOADS:
        for trace, group in (("0", "end_to_end"), ("1", "per_layer")):
            args = ["--workload", workload, "--seed", "1", "--seconds", "1",
                    "--trace", trace]
            code, out = run(args, capture=True)
            result = last_json(out) if code == 0 else None
            tag = "%s --trace %s" % (workload, trace)
            if result is None:
                problems.append("%s: exit code %d, no result" % (tag, code))
                continue
            if not result["correct"] or result["failed"] != 0:
                problems.append("%s: correctness checks failed" % tag)
            counts = sample_counts(out)
            for metric in spec[group]:
                got = result["metrics"].get(metric["name"])
                if got is None:
                    problems.append("%s: %s missing" % (tag, metric["name"]))
                elif got["unit"] != metric["unit"]:
                    problems.append("%s: %s unit %s, expected %s" % (
                        tag, metric["name"], got["unit"], metric["unit"]))
                elif counts.get(metric["name"], 0) <= 0:
                    problems.append("%s: %s has no samples" % (
                        tag, metric["name"]))
            extra = set(result["metrics"]) - {m["name"] for m in spec[group]}
            if extra:
                problems.append("%s: unlisted metrics %s" % (tag, sorted(extra)))
        code, out = run(["--workload", workload, "--seed", "1", "--seconds",
                         "1", "--trace", "0", "--inject-fault"], capture=True)
        result = last_json(out) if out else None
        if code == 0 or result is None or result["correct"] \
                or result["failed"] == 0:
            problems.append("%s: an injected wrong reply went unnoticed"
                            % workload)
    for problem in problems:
        print("self-check: " + problem)
    print("self-check: %s" % ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    if not build():
        print("benchmark build failed", file=sys.stderr)
        return 1
    if sys.argv[1:] == ["--self-check"]:
        return self_check()
    code, _ = run(sys.argv[1:])
    return code


if __name__ == "__main__":
    sys.exit(main())
