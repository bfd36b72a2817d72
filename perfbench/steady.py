#!/usr/bin/env python3
"""Steadiness check: runs every workload k times and judges the spread.

    python3 perfbench/steady.py --runs 10 [--workloads city,paper] [--seed 100]
    python3 perfbench/steady.py --compare perfbench/out/steady-A.json perfbench/out/steady-B.json

Each run uses another seed (`--seed`, `--seed`+1, ...); workloads are
interleaved so slow drift of the host spreads over all of them. For
every end-to-end metric it prints the median, the quartiles (Python's
`statistics.quantiles(values, n=4)`), the spread (Q3 - Q1) / median,
and whether the spread fits the metric's bound in BENCHMARK.json and a
third of it. The runs are saved under perfbench/out/. `--compare`
checks that the second set's medians are no worse than the first's by
more than each bound. Results stamped with different hosts are refused.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def one_run(bench, workload, seed):
    cmd = [sys.executable, os.path.join(HERE, "run.py")] + bench["command"][2:] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    started = time.monotonic()
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    wall = time.monotonic() - started
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"steady.py: {workload} seed {seed} failed:\n{done.stdout}")
    stamp = next(json.loads(l[6:]) for l in lines if l.startswith("stamp "))
    result = json.loads(lines[-1])
    return {"workload": workload, "seed": seed, "wall_s": wall,
            "stamp": stamp, "result": result}


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def judge(bench, runs):
    hosts = {r["stamp"]["host"] for r in runs}
    if len(hosts) > 1:
        sys.exit(f"steady.py: runs come from different hosts {sorted(hosts)}")
    ok = True
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        failed = sum(r["result"]["failed"] for r in mine)
        attempted = sum(r["result"]["attempted"] for r in mine)
        wall = statistics.median(r["wall_s"] for r in mine)
        print(f"{workload}: {len(mine)} runs, median wall {wall:.1f} s, "
              f"failed_frac {failed / attempted:g} share ({failed} of {attempted})")
        ok &= failed == 0
        for m in bench["end_to_end"]:
            values = [r["result"]["metrics"][m["name"]]["value"] for r in mine]
            med, q1, q3, sp = spread(values)
            fits = sp <= m["bound"]
            target = sp <= m["bound"] / 3
            ok &= fits
            print(f"  {m['name']:<16} median {med:<12.6g} {m['unit']:<4} "
                  f"q1 {q1:<12.6g} q3 {q3:<12.6g} spread {sp:6.1%} "
                  f"bound {m['bound']:.0%} {'fits' if fits else 'TOO WIDE'}"
                  f"{'' if target else ' (above a third of the bound)'}")
    return ok


def compare(bench, first, second):
    hosts = {r["stamp"]["host"] for r in first + second}
    if len(hosts) > 1:
        sys.exit(f"steady.py: sets come from different hosts {sorted(hosts)}")
    ok = True
    for workload in dict.fromkeys(r["workload"] for r in first):
        for m in bench["end_to_end"]:
            a, b = ([r["result"]["metrics"][m["name"]]["value"]
                     for r in s if r["workload"] == workload] for s in (first, second))
            ma, mb = statistics.median(a), statistics.median(b)
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            good = worse <= m["bound"]
            ok &= good
            print(f"{workload:<8} {m['name']:<16} {ma:<12.6g} -> {mb:<12.6g} "
                  f"worse by {worse:+6.1%} (bound {m['bound']:.0%}) {'ok' if good else 'WORSE'}")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=None)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--compare", nargs=2, metavar="FILE")
    args = ap.parse_args()
    bench = load_bench()
    if args.compare:
        sets = []
        for path in args.compare:
            with open(path) as fh:
                sets.append(json.load(fh))
        sys.exit(0 if compare(bench, *sets) else 1)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    runs = []
    for i in range(args.runs):
        for w in workloads:
            r = one_run(bench, w, args.seed + i)
            print(f"# {w} seed {r['seed']}: {r['wall_s']:.1f} s " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in r["result"]["metrics"].items()),
                flush=True)
            runs.append(r)
    out = os.path.join(HERE, "out", f"steady-{time.strftime('%Y%m%dT%H%M%S')}.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w") as fh:
        json.dump(runs, fh, indent=1)
    print(f"saved {out}")
    sys.exit(0 if judge(bench, runs) else 1)


if __name__ == "__main__":
    main()
