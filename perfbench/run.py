#!/usr/bin/env python3
"""dyncq benchmark runner.

Builds the benchmark binary from the sources beside it (../src and
perfbench/src) and runs one workload:

    python3 perfbench/run.py --workload session_churn --seed 1 \
        --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run it from the repository root. The build goes to $CARGO_TARGET_DIR (or
.bench_build) under the root; traced runs write their span log to
<build>/traces/<workload>.tsv. Standard output ends with one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are BENCHMARK.json's end_to_end list, with --trace 1 its per_layer list.
The exit code is 0 only if the build succeeded, every oracle check passed,
no operation failed and every listed metric was emitted. `--workload all`
runs the workloads one after another, each block ending in its own result
line, and fails if any of them does.

    python3 perfbench/run.py --selftest

builds the binary and runs the C++ self-tests of the benchmark's
arithmetic (see perfbench/test_perfbench.py for the Python side).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import re
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("session_churn", "snapshot_readers", "registry_fanout")
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
RUN_TIMEOUT_S = 170


def build_dir() -> pathlib.Path:
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build() -> pathlib.Path:
    """Configures (once) and builds the binary; returns its path."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
            raise SystemExit(f"perfbench: build step failed: {' '.join(cmd)}")
    return out / "dyncq_perfbench"


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def required_metrics(spec: dict, trace: bool) -> dict[str, str]:
    """Metric name -> unit the run must emit."""
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(result: dict, required: dict[str, str]) -> list[str]:
    """Problems with a parsed result line; empty when it is well formed."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
        return problems
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        problems.append("failed must be a whole number >= 0")
    metrics = result["metrics"]
    for name, body in metrics.items():
        if not NAME_RE.match(name):
            problems.append(f"bad metric name {name!r}")
        if not isinstance(body.get("value"), (int, float)):
            problems.append(f"{name}: value is not a number")
    for name, unit in required.items():
        if name not in metrics:
            problems.append(f"missing metric {name}")
        elif metrics[name].get("unit") != unit:
            problems.append(f"{name}: unit {metrics[name].get('unit')!r}, "
                            f"expected {unit!r}")
    extra = set(metrics) - set(required)
    if extra:
        problems.append(f"unlisted metrics {sorted(extra)}")
    return problems


def loadavg() -> list[float]:
    try:
        return [float(x) for x in open("/proc/loadavg").read().split()[:3]]
    except OSError:
        return []


def source_digest() -> str:
    """sha256 over the engine and benchmark sources (the checkout the
    benchmark runs in need not be a git repository)."""
    h = hashlib.sha256()
    for base in (ROOT / "src", HERE / "src"):
        for p in sorted(base.rglob("*")):
            if p.suffix in (".h", ".cc") and p.is_file():
                h.update(p.relative_to(ROOT).as_posix().encode())
                h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run(args: argparse.Namespace) -> int:
    spec = load_spec()
    binary = build()
    prov = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": loadavg(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = build_dir() / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{args.workload}.tsv")]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"perfbench: run exceeded {RUN_TIMEOUT_S} s\n")
        return 3
    prov["wall_s"] = round(time.monotonic() - t0, 3)
    prov["loadavg_end"] = loadavg()
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stderr.write(proc.stdout[-4000:])
        sys.stderr.write(f"perfbench: no result (exit {proc.returncode})\n")
        return proc.returncode or 4
    for line in lines[:-1]:
        if line.startswith("build: "):
            prov["build"] = line[len("build: "):]
        print(line)
    result = json.loads(lines[-1])
    problems = check_result(result, required_metrics(spec, bool(args.trace)))
    for p in problems:
        print(f"perfbench: {p}")
    print("provenance: " + json.dumps(prov, sort_keys=True))
    print(json.dumps(result))
    if problems:
        return 5
    return proc.returncode


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    if args.selftest:
        return subprocess.run([str(build()), "--selftest"]).returncode
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload != "all":
        return run(args)
    worst = 0
    for workload in WORKLOADS:
        args.workload = workload
        worst = max(worst, run(args), key=abs)
    return worst


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
