"""Show that the benchmark's output checks can fail.

    python3 perfbench/selftest.py

For every workload it runs one operation through the CLI, requires its check
to accept the real output, then feeds the check deliberately wrong copies of
that output: a flipped verdict, an m that is not a multiple of order(B), a
perturbed outer polynomial, Riesz bounds off by 1%, an index map with one
wrong cell.  Every wrong copy must be rejected.  A known-fault input of
decompose-fuzz must be rejected as it stands yet leave ``correct`` true, since
it shows only the documented false m = 1; a crash, another exit code or any
other wrong output on it must make ``correct`` false.  Exits 1 when any
expectation is missed.
"""

from __future__ import annotations

import copy
import json
import shutil
import sys

import numpy as np

import run
from workloads import _NUMBER, WORKLOADS, checked_cells, index_rng_seed, read_result

SEED = 1


def cases():
    """(workload, op index, [(description, mutate(result, grid_art))])."""

    def flip_verdict(res, art):
        for side in ("single", "double"):
            res[side]["status"], res[side]["reason"] = "similar", ""

    def inconsistent(res, art):
        res["consistent"] = False

    def bad_m(res, art):
        res["m"] = 3

    def bent_outer(res, art):
        res["outer"]["taylor"][1][0] += 1e-6

    def scaled(key):
        def mutate(res, art):
            res[key] *= 1.01
        return mutate

    def wrong_cell(res, art):
        i, j = checked_cells(np.asarray(art["grid"]), index_rng_seed(SEED, 0))[0]
        art["grid"][i][j] += 1

    def lost_region(res, art):
        res["index_values"] = [0, 1]

    return [
        ("verdict-pairs", 2, [("flipped verdict", flip_verdict),
                              ("consistent false", inconsistent)]),
        ("decompose-fuzz", 4, [("m = 3 for order(B) = 2", bad_m),
                               ("outer coefficient off by 1e-6", bent_outer)]),
        ("riesz-ladder", 0, [("c1 off by 1%", scaled("c1")), ("c2 off by 1%", scaled("c2"))]),
        ("index-map", 0, [("one wrong cell", wrong_cell),
                          ("index value 2 missing", lost_region)]),
    ]


def counted_correct(op, code, out_dir, captured):
    """`correct` of a run whose ops are one passing op and this one."""
    problems, forgiven = run.outcome(op, code, out_dir, captured)
    return run.tally([(0.0, 0.0, True, False), (0.0, 0.0, not problems, forgiven)])[2]


def main():
    cli = run.load_program()
    base = run.OUT / "selftest"
    ok = True

    def expect(accepted, want, what):
        nonlocal ok
        good = accepted == want
        ok &= good
        print(f"{'ok  ' if good else 'MISS'} {what}: {'accepted' if accepted else 'rejected'}")

    for workload, index, mutations in cases():
        op = WORKLOADS[workload](SEED)[index]
        out = base / workload
        out.mkdir(parents=True, exist_ok=True)
        code, _, _, captured = run.run_op(cli, op.argv, out)
        problems = run.judge(op, code, out, captured)
        expect(not problems, True, f"{workload} {op.label}, real output")
        real = read_result(out)
        grid_file = out / "grid.json"
        real_art = json.loads(grid_file.read_text()) if grid_file.exists() else None
        for what, mutate in mutations:
            res, art = copy.deepcopy(real), copy.deepcopy(real_art)
            mutate(res, art)
            if art is not None:
                grid_file.write_text(json.dumps(art))
            expect(not op.check(res, out), False, f"{workload} {op.label}, {what}")
            if real_art is not None:
                grid_file.write_text(json.dumps(real_art))

    fault = [op for op in WORKLOADS["decompose-fuzz"](SEED) if op.known_fault][0]
    out = base / "known-fault"
    out.mkdir(parents=True, exist_ok=True)
    code, _, _, captured = run.run_op(cli, fault.argv, out)
    what = f"decompose-fuzz {fault.label}"
    expect(not run.judge(fault, code, out, captured), False, f"{what}, real output")
    expect(counted_correct(fault, code, out, captured), True,
           f"{what}, real output counted as the known fault")
    expect(counted_correct(fault, None, out, "Traceback"), False, f"{what}, crashed, as correct")
    expect(counted_correct(fault, 1, out, captured), False, f"{what}, exit code 1, as correct")
    result_file = out / "result.json"
    real_doc = json.loads(result_file.read_text())
    spec = real_doc["result"]["outer"]["spec"]
    first = _NUMBER.search(spec)
    bent = spec[:first.start()] + repr(float(first.group()) + 1e-6) + spec[first.end():]
    for desc, key, value in (("m = 2", "m", 2), ("residual 1e-3", "residual", 1e-3),
                             ("outer poly(0,1)", "outer", {"spec": "poly(0,1)"}),
                             ("outer coefficient off by 1e-6", "outer", {"spec": bent})):
        doc = copy.deepcopy(real_doc)
        doc["result"][key] = value
        result_file.write_text(json.dumps(doc))
        expect(counted_correct(fault, code, out, captured), False, f"{what}, {desc}, as correct")
    shutil.rmtree(base, ignore_errors=True)
    print("all checks can fail" if ok else "SOME CHECK DID NOT BEHAVE")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
