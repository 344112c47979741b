"""Run one benchmark workload through the bundle-lab CLI and print its metrics.

    python3 perfbench/run.py --workload verdict-pairs --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` next to this directory and driven
in-process through ``bundlelab.cli.main`` with an ``--out`` directory, so what
is timed and checked is the exit code and ``result.json`` a user gets.  The
run repeats whole rounds of the workload's mix until ``--seconds`` have
passed; the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

# One thread everywhere: the benchmark process is the only worker, so BLAS,
# OpenMP and the program's own grid queries must not compete for the cores.
THREADS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "BUNDLE_LAB_THREADS": "1",
}

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_LAUNCHES = 3
CACHE_K = 4096  # the largest truncation any workload's ladder reaches

END_TO_END = {
    "op_p50_s": "s",
    "ops_per_s": "1/s",
    "cpu_s_per_op": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=lambda text: int(text) % (1 << 64), required=True,
                   help="any integer; inputs depend on it modulo 2**64")
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="internal: import, generate inputs, fill caches, exit")
    return p.parse_args(argv)


def require_program():
    if not (SRC / "bundlelab" / "cli.py").is_file():
        raise SystemExit(f"perfbench: {SRC / 'bundlelab'} is missing; nothing to measure")


def load_program():
    """Import bundlelab from this checkout's src/, and from nowhere else."""
    require_program()
    sys.path.insert(0, str(SRC))
    import bundlelab.cli

    if Path(bundlelab.cli.__file__).resolve().parent != SRC / "bundlelab":
        raise SystemExit(f"perfbench: bundlelab was imported from {bundlelab.cli.__file__}")
    return bundlelab.cli


def setup_probe(workload, seed):
    """What a fresh interpreter pays before the first operation."""
    load_program()
    from bundlelab.weights import parse_weight_id
    from workloads import WORKLOADS

    for op in WORKLOADS[workload](seed):
        for weight_id in op.weights:
            parse_weight_id(weight_id)._ensure(CACHE_K)


def measure_setup(workload, seed):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_LAUNCHES):
        t0 = time.perf_counter()
        child = subprocess.Popen(cmd, stdout=subprocess.DEVNULL)
        # a blocking wait; subprocess's own timeout polls in 50 ms steps
        watchdog = threading.Timer(120.0, child.kill)
        watchdog.start()
        try:
            code = child.wait()
        finally:
            watchdog.cancel()
        times.append(time.perf_counter() - t0)
        if code != 0:
            raise SystemExit(f"perfbench: set-up probe exited {code}")
    return statistics.median(times)


def run_op(cli, argv, out_dir):
    """One CLI call: (exit code or None, wall s, cpu s, captured text)."""
    sink = io.StringIO()
    code = None
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            code = cli.main(argv + ["--out", str(out_dir)])
        except Exception:  # a traceback is an outcome to count, not to stop on
            traceback.print_exc()
        dt, dc = time.perf_counter() - t0, time.process_time() - c0
    return code, dt, dc, sink.getvalue()


def judge(op, code, out_dir, captured):
    from workloads import read_result

    if code != 0:
        return [f"exit code {code}: {captured.strip().splitlines()[-1:]}"]
    try:
        return op.check(read_result(out_dir), out_dir)
    except (OSError, KeyError, IndexError, TypeError, ValueError) as exc:
        return [f"output not readable as expected: {exc!r}"]


def shows_known_fault(op, code, out_dir):
    """A known-fault input gave the documented false certificate and nothing worse:
    exit 0, m = 1 with residual below 1e-8, and the input itself as its outer factor."""
    from workloads import read_result, same_spec

    if not op.known_fault or code != 0:
        return False
    try:
        result = read_result(out_dir)
        return (result["m"] == 1 and result["residual"] < 1e-8
                and same_spec(op.argv[op.argv.index("--fn") + 1], result["outer"]["spec"]))
    except (OSError, KeyError, AttributeError, TypeError, ValueError):
        return False


def outcome(op, code, out_dir, captured):
    """(problems, forgiven): forgiven when the only fault is the documented one."""
    problems = judge(op, code, out_dir, captured)
    return problems, bool(problems) and shows_known_fault(op, code, out_dir)


def tally(records):
    """(attempted, failed, correct) of (wall, cpu, passed, forgiven) records."""
    attempted = len(records)
    failed = sum(1 for r in records if not r[2])
    correct = all(r[2] or r[3] for r in records) and failed < attempted
    return attempted, failed, correct


def measure(cli, ops, out_dir, seconds):
    """Whole rounds until `seconds` have passed: per round, (wall, cpu, passed, forgiven) per op."""
    rounds = []
    reported = set()
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        records = []
        for op in ops:
            code, dt, dc, captured = run_op(cli, op.argv, out_dir)
            problems, forgiven = outcome(op, code, out_dir, captured)
            if problems and op.label not in reported:
                reported.add(op.label)
                kind = "known fault" if forgiven else "FAILED"
                print(f"perfbench: {kind}: {op.label}: {problems[0]}", file=sys.stderr)
            records.append((dt, dc, not problems, forgiven))
        rounds.append(records)
    return rounds


def end_to_end(rounds, setup_s):
    per_round = []
    for records in rounds:
        passed = [dt for dt, _, ok, _ in records if ok]
        if passed:
            per_round.append(sum(passed) / len(passed))
    flat = [r for records in rounds for r in records]
    passed = sum(1 for r in flat if r[2])
    wall = sum(r[0] for r in flat)
    cpu = sum(r[1] for r in flat)
    values = {
        "op_p50_s": statistics.median(per_round) if per_round else 0.0,
        "ops_per_s": passed / wall if wall else 0.0,
        "cpu_s_per_op": cpu / passed if passed else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    os.environ.update(THREADS)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    require_program()
    from layers import PER_LAYER, Tracer
    from workloads import WARMUP, WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}")
    setup_s = measure_setup(args.workload, args.seed) if args.trace == 0 else 0.0
    cli = load_program()
    ops = WORKLOADS[args.workload](args.seed)
    out_dir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    run_op(cli, WARMUP[args.workload], out_dir)
    tracer = Tracer()
    if args.trace:
        tracer.install()
        tracer.report_absent()
    try:
        rounds = measure(cli, ops, out_dir, args.seconds)
    finally:
        tracer.uninstall()
        shutil.rmtree(out_dir, ignore_errors=True)

    attempted, failed, correct = tally([r for records in rounds for r in records])
    e2e = end_to_end(rounds, setup_s)
    if args.trace:
        layer = tracer.metrics(attempted)
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, (unit, _) in PER_LAYER.items()}
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        with open(trace_file, "w", encoding="utf-8") as fh:
            json.dump({
                "workload": args.workload, "seed": args.seed, "rounds": len(rounds),
                "attempted": attempted, "op_p50_s": e2e["op_p50_s"]["value"],
                "metrics": layer, "absent": tracer.absent,
                "spans": [dict(zip(("id", "parent", "layer", "start", "end"), s))
                          for s in tracer.spans],
            }, fh)
    else:
        metrics = e2e
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
