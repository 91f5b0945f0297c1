#!/usr/bin/env python3
"""Entry point of the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The first call configures and builds
perfbench/ (the library in src/ plus the benchmark program) into
.bench_build/perfbench; later calls only re-run the incremental build. A
single-workload run prints
the program's output, whose last stdout line is the result JSON, and appends
the result with its host fingerprint to .bench_build/results.jsonl. It exits
1 when a correctness check failed, after printing the result.

--all runs every workload of BENCHMARK.json, untraced and traced, and prints
one table. --selftest runs every workload at a tiny scale and checks that
each metric BENCHMARK.json names is printed with its unit and that no
operation failed.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKDIR = ROOT / ".bench_build" / "work"
RESULTS = ROOT / ".bench_build" / "results.jsonl"
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures once, then builds incrementally. Returns the binary path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise SystemExit(f"perfbench: no library sources under {ROOT / 'src'}")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs, "--target", "perfbench"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            raise SystemExit(f"perfbench: build step failed: {' '.join(cmd)}")
    return BUILD / "perfbench"


def source_id():
    """The git sha when the checkout is a repository, else a digest of the
    sources the benchmark builds."""
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("src", "cmake", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return "src-" + h.hexdigest()[:16]


def run_one(binary, workload, seed, seconds, trace, extra=(), echo=True):
    """Runs one workload; returns (result dict or None, fingerprint, exit code)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--workdir", str(WORKDIR), "--source-id", source_id(), *extra]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload}: timed out after {RUN_TIMEOUT_S} s")
        return None, None, 1
    lines = done.stdout.splitlines()
    if echo:
        sys.stdout.write(done.stdout)
        sys.stdout.flush()
    fingerprint = None
    for line in lines:
        if line.startswith("fingerprint "):
            fingerprint = json.loads(line[len("fingerprint "):])
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    if result is not None:
        RESULTS.parent.mkdir(parents=True, exist_ok=True)
        with RESULTS.open("a") as out:
            out.write(json.dumps({"fingerprint": fingerprint, "workload": workload,
                                  "seed": seed, "seconds": seconds, "trace": trace,
                                  "result": result}) + "\n")
    return result, fingerprint, done.returncode


def load_benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_all(binary, seed, seconds):
    bench = load_benchmark()
    ok = True
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        rows = {}
        for w in bench["workloads"]:
            result, _, code = run_one(binary, w["name"], seed, seconds, trace, echo=False)
            if result is None or code != 0 or not result["correct"]:
                ok = False
            rows[w["name"]] = result
        names = [w["name"] for w in bench["workloads"]]
        print(f"\n{section} (seed {seed}, {seconds} s per run)")
        print(f"{'metric':40s} {'unit':7s}" + "".join(f"{n:>18s}" for n in names))
        for metric in bench[section]:
            cells = []
            for n in names:
                r = rows[n]
                v = r["metrics"].get(metric["name"], {}).get("value") if r else None
                cells.append(f"{v:18.4f}" if v is not None else f"{'-':>18s}")
            print(f"{metric['name']:40s} {metric['unit']:7s}" + "".join(cells))
        print(f"{'error_rate':40s} {'ratio':7s}" + "".join(
            f"{(r['failed'] / r['attempted']) if r else float('nan'):18.6f}"
            for r in (rows[n] for n in names)))
    return 0 if ok else 1


def selftest(binary):
    """Tiny-scale run of every workload, untraced and traced: every metric
    BENCHMARK.json names must be printed with its unit, nothing must fail."""
    bench = load_benchmark()
    problems = []
    for w in bench["workloads"]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result, fingerprint, code = run_one(
                binary, w["name"], 1, 1, trace,
                extra=("--scale", "0.01"), echo=False)
            where = f"{w['name']} trace {trace}"
            if result is None:
                problems.append(f"{where}: no result (exit {code})")
                continue
            if code != 0:
                problems.append(f"{where}: exit {code}")
            if fingerprint is None:
                problems.append(f"{where}: no fingerprint line")
            expected = {m["name"]: m["unit"] for m in bench[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected:
                problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                                f"missing {sorted(set(expected) - set(got))}, "
                                f"extra {sorted(set(got) - set(expected))}, "
                                f"unit mismatches {sorted(k for k in got if k in expected and got[k] != expected[k])}")
            if result["failed"] != 0 or not result["correct"] or result["attempted"] < 1:
                problems.append(f"{where}: error_rate {result['failed']}/{result['attempted']}")
            print(f"selftest {where}: {len(got)} metrics, "
                  f"{result['failed']}/{result['attempted']} failed")
    for p in problems:
        print(f"selftest FAIL {p}")
    print("selftest " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.all and not args.selftest and not args.workload:
        parser.error("give --workload, --all or --selftest")

    binary = build()
    if args.selftest:
        return selftest(binary)
    seconds = args.seconds if args.seconds is not None else load_benchmark()["run_seconds"]
    if args.all:
        return run_all(binary, args.seed, seconds)
    result, _, code = run_one(binary, args.workload, args.seed, seconds, args.trace)
    if result is None or not result["correct"]:
        return code or 1
    return code


if __name__ == "__main__":
    sys.exit(main())
