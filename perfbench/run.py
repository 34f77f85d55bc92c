#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root. The first call configures and builds
perfbench/ (which compiles the Dodo sources under src/) into
.bench_build/perfbench; later calls only rebuild what changed. Build output
goes to stderr. The last line on stdout is the JSON result, with the
metrics BENCHMARK.json lists for the mode: end_to_end for --trace 0,
per_layer for --trace 1. A traced run writes the benchmark's own spans to
.bench_build/perfbench/spans/<workload>-seed<n>.tsv.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUN_TIMEOUT_S = 170


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not any((BUILD / f).exists() for f in ("Makefile", "build.ninja")):
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def arg_value(args, flag):
    for i, a in enumerate(args[:-1]):
        if a == flag:
            return args[i + 1]
    return None


def selftest():
    """Arithmetic self-test, then a corrupted shadow byte must fail its check."""
    if subprocess.run([str(BUILD / "perfbench_selftest")]).returncode:
        return 1
    for workload in ("hotcold_rw", "smallops_ring"):
        r = subprocess.run([str(BUILD / "perfbench"), "--workload", workload,
                            "--seed", "1", "--seconds", "0.1", "--trace", "0",
                            "--corrupt-shadow"],
                           capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
        caught = r.returncode == 1 and "differs from shadow" in r.stdout
        print(f"corrupted shadow on {workload}: "
              f"{'check failed as it must' if caught else 'NOT DETECTED'}")
        if not caught:
            return 1
    print("selftest: all passed")
    return 0


def main():
    args = sys.argv[1:]
    build()
    if args == ["--selftest"]:
        return selftest()
    cmd = [str(BUILD / "perfbench")] + args
    workload = arg_value(args, "--workload")
    if arg_value(args, "--trace") == "1" and workload and workload.isidentifier():
        spans = BUILD / "spans"
        spans.mkdir(exist_ok=True)
        seed = arg_value(args, "--seed") or "1"
        cmd += ["--spans-out", str(spans / f"{workload}-seed{seed}.tsv")]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded its time limit")
    lines = run.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stdout.write(run.stdout)
        return run.returncode or 1
    print("\n".join(lines[:-1]))
    result = json.loads(lines[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind = "per_layer" if arg_value(args, "--trace") == "1" else "end_to_end"
    missing = [m["name"] for m in spec[kind] if m["name"] not in result["metrics"]]
    if missing:
        sys.exit("perfbench: metrics missing from the result: " + ", ".join(missing))
    result["metrics"] = {m["name"]: result["metrics"][m["name"]] for m in spec[kind]}
    print(json.dumps(result))
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
