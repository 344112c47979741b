"""Run the benchmark in repeated sets and say whether the sets agree.

    python3 perfbench/steady.py --runs 10             # two sets of 10 runs per workload
    python3 perfbench/steady.py --runs 1 --sets 1     # one report of every workload
    python3 perfbench/steady.py --trace-check         # per-layer metrics, overhead, count repeatability

Every run is the command from BENCHMARK.json with its own seed.  For each
workload and end-to-end metric it prints each set's median and quartiles,
the spread (quartile distance over median) and, with two sets, the drift of
the second median from the first in the metric's worse direction.  A metric
agrees when the drift, in either direction, and every spread stay within the
metric's bound.  The spread of ``setup_s`` is printed but not held to its
bound: each value is the median of a few cold interpreter launches, which
follow the shared machine's speed swings, and its bound guards the drift of
the median.  The failed share must be identical in all runs.
``suggest`` is three times the largest spread seen, rounded up and kept
between 0.05 and 0.25: the rule the bounds in BENCHMARK.json were derived by,
with ``setup_s`` given the largest bound.  A summary is written to .perfbench_out/steady.json.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"


def run(bench, workload, seed, trace=0):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def worse_by(metric, first, second):
    change = (second - first) / first
    return change if metric["better"] == "lower" else -change


def steadiness(bench, runs, sets, workloads):
    results = {w: [[] for _ in range(sets)] for w in workloads}
    for s in range(sets):
        for i in range(runs):
            for w in workloads:
                seed = 1000 * s + i + 1
                res = run(bench, w, seed)
                results[w][s].append(res)
                print(f"set {s + 1} run {i + 1} {w} seed {seed}: attempted {res['attempted']} "
                      f"failed {res['failed']} correct {res['correct']}", file=sys.stderr)
    ok = True
    summary = {}
    for w in workloads:
        flat = [r for runs_ in results[w] for r in runs_]
        shares = {r["failed"] / r["attempted"] for r in flat}
        correct = all(r["correct"] for r in flat)
        print(f"\n{w}: attempted {[r['attempted'] for r in flat]}, "
              f"failed {[r['failed'] for r in flat]}, failed share "
              f"{'identical' if len(shares) == 1 else 'DIFFERS'}, correct {correct}")
        ok &= len(shares) == 1 and correct
        print(f"  {'metric':<14}{'unit':<6}" + "".join(
            f"{'set ' + str(s + 1) + ' q1/median/q3':>34}{'spread':>8}" for s in range(sets))
            + f"{'drift':>8}{'bound':>7}{'suggest':>8}  verdict")
        summary[w] = {}
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            row, spreads, medians = [], [], []
            for s in range(sets):
                vals = [r["metrics"][name]["value"] for r in results[w][s]]
                q1, med, q3 = quartiles(vals)
                spreads.append((q3 - q1) / med)
                medians.append(med)
                row.append(f"{q1:>11.4g}/{med:>10.4g}/{q3:<10.4g}{spreads[-1]:>8.3f}")
            drift = worse_by(metric, medians[0], medians[-1]) if sets > 1 else 0.0
            held = abs(drift) <= bound and (name == "setup_s" or max(spreads) <= bound)
            ok &= held
            suggest = min(0.25, max(0.05, math.ceil(300 * max(spreads)) / 100))
            unit = flat[0]["metrics"][name]["unit"]
            print(f"  {name:<14}{unit:<6}" + "".join(row)
                  + f"{drift:>8.3f}{bound:>7.2f}{suggest:>8.2f}  {'ok' if held else 'OUTSIDE BOUND'}")
            summary[w][name] = {
                "values": [[r["metrics"][name]["value"] for r in runs_] for runs_ in results[w]],
                "medians": medians, "spreads": spreads, "drift": drift, "bound": bound,
                "held": held,
            }
    return ok, summary


def trace_check(bench, workloads, seed=1):
    """Two traced runs and one untraced run per workload, all on one seed."""
    ok = True
    summary = {}
    for w in workloads:
        plain = run(bench, w, seed)
        traced = []
        for _ in range(2):
            traced.append(run(bench, w, seed, trace=1))
            with open(OUT / f"trace-{w}-seed{seed}.json", encoding="utf-8") as fh:
                traced[-1]["op_p50_s"] = json.load(fh)["op_p50_s"]
        base = plain["metrics"]["op_p50_s"]["value"]
        overhead = statistics.mean(t["op_p50_s"] for t in traced) / base - 1.0
        print(f"\n{w}: untraced op_p50_s {base:.4g} s, traced "
              f"{[round(t['op_p50_s'], 4) for t in traced]} s, overhead {overhead:+.1%}")
        summary[w] = {"overhead": overhead, "layers": {}}
        for name, first in traced[0]["metrics"].items():
            second = traced[1]["metrics"][name]
            repeat = ""
            if first["unit"] != "s":
                same = first["value"] == second["value"]
                ok &= same
                repeat = "repeats" if same else f"DIFFERS ({second['value']:.6g})"
            print(f"  {name:<32}{first['value']:>16.6g} {first['unit']:<6} {repeat}")
            summary[w]["layers"][name] = [first["value"], second["value"]]
    return ok, summary


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--runs", type=int, default=10, help="runs per workload per set")
    p.add_argument("--sets", type=int, default=2)
    p.add_argument("--trace-check", action="store_true")
    args = p.parse_args(argv)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    OUT.mkdir(exist_ok=True)
    if args.trace_check:
        ok, summary = trace_check(bench, workloads)
        name = "trace-check.json"
    else:
        ok, summary = steadiness(bench, args.runs, args.sets, workloads)
        name = "steady.json"
    with open(OUT / name, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    print(f"\n{'agree' if ok else 'DO NOT AGREE'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
