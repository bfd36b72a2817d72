#!/usr/bin/env python3
"""Builds the ctxres benchmark from source and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload city --seed 1 --seconds 30 --trace 0 \
        --rate city=40000

`--rate <workload>=<ctx/s>` sets the open-loop offered rate of a stream
workload; `BENCHMARK.json` stores the rate of the gated `city` in its
command, and `hotspot`, which is not gated, defaults to 2500. The program
is built with `cargo build --release` into `$CARGO_TARGET_DIR` (default
`.bench_build`). Standard output carries a stamp line, the program's
human-readable lines, and last the result object. See README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("city", "hotspot", "paper")
# Sources whose bytes identify the code under test.
SOURCES = ("Cargo.toml", "Cargo.lock", "crates", "perfbench")
SKIP_DIRS = {"out", "target", ".bench_build"}
RUN_TIMEOUT_S = 175
# Offered rates of workloads BENCHMARK.json does not run; `--rate`
# overrides them.
DEFAULT_RATES = {"hotspot": "2500"}


def source_digest():
    """SHA-256 over the benchmark's and the program's sources."""
    h = hashlib.sha256()
    for top in SOURCES:
        path = os.path.join(ROOT, top)
        if os.path.isfile(path):
            files = [path]
        else:
            files = []
            for d, dirs, names in os.walk(path):
                dirs[:] = sorted(x for x in dirs if x not in SKIP_DIRS)
                files.extend(os.path.join(d, n) for n in sorted(names))
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def commit():
    """The checked-out commit, or "none" outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, env=env, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def stamp():
    """Identity of the code and the host. Results with a different
    `host` (core count and CPU model) are never one series."""
    nproc = len(os.sched_getaffinity(0))
    model = cpu_model()
    return {
        "commit": commit(),
        "source": source_digest(),
        "nproc": nproc,
        "cpu": model,
        "host": f"{nproc}x {model}",
    }


def build():
    """Builds the benchmark; returns the binary's path."""
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        sys.exit(f"run.py: build failed ({done.returncode})")
    return os.path.join(target, "release", "ctxres-perfbench")


def declared_metrics():
    """Metric names BENCHMARK.json declares for each trace mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return {
        "0": [m["name"] for m in bench["end_to_end"]],
        "1": [m["name"] for m in bench["per_layer"]],
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=("0", "1"), required=True)
    ap.add_argument("--rate", action="append", default=[],
                    metavar="WORKLOAD=CTX_PER_S")
    args = ap.parse_args()
    rates = dict(DEFAULT_RATES, **dict(r.split("=", 1) for r in args.rate))

    binary = build()
    st = stamp()
    print("stamp " + json.dumps(st, sort_keys=True), flush=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--stamp", json.dumps(st, sort_keys=True)]
    if args.workload in rates:
        cmd += ["--rate", rates[args.workload]]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"run.py: {args.workload} did not finish in {RUN_TIMEOUT_S} s")
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        sys.exit(f"run.py: benchmark exited with {done.returncode}")
    result = json.loads(lines[-1])
    want = declared_metrics()[args.trace]
    if sorted(result["metrics"]) != sorted(want):
        sys.exit(f"run.py: metrics {sorted(result['metrics'])} != declared {sorted(want)}")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
