"""Digest the outputs of a fixed list of bundle-lab commands.

    python3 tools/output_digest.py > digest.txt
    diff digest-parent.txt digest-change.txt
    python3 tools/output_digest.py --values > values.txt   # a drift check

Runs every command of ``commands()`` in-process through ``bundlelab.cli.main``
from this checkout's ``src/``, each with its own output directory, with BLAS
pinned to one thread.  For every file a command writes it prints one line

    <sha256> <exit code> <command> -> <file name>

so that two checkouts are compared for byte identity with ``diff``.  With
``--values`` each ``result.json`` line is followed by one line per leaf in
it, ``  c<k> <path> <value>`` (``c<k>`` is the command's output directory; a
number as Python prints it, a string or boolean as JSON writes it), so that a
change meant to move the numbers only by roundoff is checked with ``diff``
too.

    python3 tools/output_digest.py --compare values-parent.txt values-change.txt

reads two ``--values`` outputs.  It lists each command whose exit code
moved, with both codes, and each file line (command, file name, and the
hash of a file other than ``result.json``) found on one side only.  Then it
prints, for each value path name (list indices collapsed to ``[]``) whose
value moved, the largest absolute move and the largest move relative to the
parent value, and each value path name found on one side only, with the
number of outputs that have it.  Last it lists each path name of a string
or boolean (a verdict, a status, a trend) whose value moved, with the number
of values that moved and one of them, before -> after; this is information
only.  It fails (exit 1) when an exit code moved, a file line differs or a
value path name is on one side only.

The list is the README examples and the paper's named inputs (18 commands)
plus every ``decompose-fuzz``, ``verdict-pairs`` and ``riesz-ladder`` input
of benchmark seeds 1 and 2 (66 commands), which are taken from
``perfbench/workloads.py`` without changing it, and last the near-circle
fiber case (2 commands, ``NEAR_CIRCLE``), the Moebius match whose seed is a
critical point (2 commands, ``CRITICAL_SEED``), the options and commands that
no earlier entry reaches (5 commands, ``OPTION_COVER``), and the three
``index-map`` inputs of benchmark seed 1 and the paper's figure at the
largest resolution (4 commands, the last ``INDEX_MAP_CAP``), and the
``sum``, ``prod``, ``scale`` and ``star`` forms (4 commands, ``SPEC_FORMS``),
and the Bergman Riesz ladders of order 1, 2 and 4, conjugated and at three
alphas (5 commands, ``BERGMAN_RIESZ``), and the inputs whose frame layout
depends on which disk automorphism precomposes the product (6 commands,
``FRAME_LAYOUT``), and two ``similar`` pairs whose certificates climb past
K 2048 before their frames hold their columns, and the README pair on the
intermediate-growth preset (3 commands, ``CERTIFICATE_RUNGS``), and two
``douglas`` certificates on ``bergman:alpha=0.3`` weights, whose frames have
no Gram band, that climb to the row cap (2 commands, ``DOUGLAS_CAP``), and
a Riesz ladder that drifts like 1/n and a ``jordan`` certificate refused for
its tail (2 commands, ``LADDER_TREND``), each group appended so that the
``c<k>`` labels of the earlier commands stay put.  A ``null`` in a
``result.json`` is printed as ``nan`` (no output holds a NaN), so that a
value that goes from ``null`` to a number is a move.  A whole run of the 119
commands took about 8 s on a 2-core machine.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import re
import shlex
import sys
import tempfile
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
F1 = "compose(poly(0,1,0,2),blaschke(0;0,0.4))"
F2 = "compose(poly(0,1,0,2),blaschke(0;0.2,-0.5))"
NESTED = "compose(poly(0,1,1),compose(blaschke(0;0,0.5),blaschke(0;0.2,-0.1i)))"
NAMED = [
    ["decompose", "--fn", F1],
    ["decompose", "--fn", F2],
    ["decompose", "--fn", NESTED],
    ["decompose", "--fn", "poly(0,1,0,2)"],
    ["jordan", "--fn", F1],
    ["jordan", "--fn", F2],
    ["jordan", "--fn", NESTED],
    ["similar", "--weights", "bergman:alpha=1", "--f1", F1, "--f2", F2],
    ["kaplansky", "--weights", "bergman:alpha=1", "--f1", F1, "--f2", F2],
    ["douglas", "--weights", "polygrowth:M=2", "--blaschke", "blaschke(0; 0, 0.5)"],
    ["douglas", "--weights", "hardy", "--blaschke", "blaschke(0; 0, 0.5)"],
    ["douglas", "--weights", "bergman:alpha=1", "--blaschke", "blaschke(0; 0, 0.5)"],
    ["riesz", "--weights", "bergman:alpha=1", "--blaschke", "blaschke(0;0,0.5)"],
    ["counterexample", "--weights", "reciprocal:nln"],
    ["counterexample", "--weights", "bergman:alpha=1"],
    ["index-map", "--fn", "poly(2,1,1)", "--bounds", "-1,5,-3,3", "--res", "200"],
    ["gram", "--weights", "hardy"],
    ["verify"],
]
# f o phi_0.96, whose base fiber has a point at 0.998, alone and against f
F1_PHI = f"compose({F1},moebius(0;0.96))"
NEAR_CIRCLE = [
    ["decompose", "--fn", F1_PHI],
    ["similar", "--weights", "bergman:alpha=1", "--f1", F1_PHI, "--f2", F1],
]
# z + 2z^3 and its precomposition with the phi whose phi(0) is a critical point
# of z + 2z^3 (i/sqrt(6)), in both argument orders
CUBIC_PHI = "compose(poly(0,1,0,2), blaschke(0; 0.408248290464i))"
CRITICAL_SEED = [
    ["similar", "--weights", "bergman:alpha=1", "--f1", "poly(0,1,0,2)", "--f2", CUBIC_PHI],
    ["similar", "--weights", "bergman:alpha=1", "--f1", CUBIC_PHI, "--f2", "poly(0,1,0,2)"],
]
# every command at least once, and the options no entry above sets
OPTION_COVER = [
    ["weights-classify", "--weights", "hardy"],
    ["weights-classify", "--weights", "nln"],
    ["equivalent", "--weights", "bergman:alpha=1", "--weights2", "reciprocal:polygrowth:M=1"],
    ["gram", "--normalization", "beta-inv", "--csv", "no", "--n-max", "6", "--trunc", "64"],
    ["counterexample", "--weights", "bergman:alpha=1", "--n-max", "120", "--csv", "no"],
]

# the paper's figure at the resolution cap, after the benchmark's maps
INDEX_MAP_CAP = ["index-map", "--fn", "poly(2,1,1)", "--bounds", "-1,5,-3,3", "--res", "2048"]

# the expression forms that no input above uses
SPEC_FORMS = [
    ["decompose", "--fn", "scale(2+0i; poly(0,1,0,2))"],
    ["decompose", "--fn", "sum(poly(1), compose(poly(0,1,0,2), blaschke(0; 0, 0.4)))"],
    ["decompose", "--fn", "prod(poly(0,1), star(blaschke(0.3; 0.2+0.1i)))"],
    ["similar", "--f1", "compose(poly(0,1,0,2), moebius(0; 0.3))",
     "--f2", "sum(poly(0,1), scale(2+0i; poly(0,0,0,1)))"],
]


# Bergman Riesz ladders: order 4, alpha 0.5 and 0.75 (2 alpha no integer), a
# product without a zero at 0, and the order-1 kernel-point layout
BERGMAN_RIESZ = [
    ["riesz", "--weights", "bergman:alpha=1", "--blaschke", "blaschke(0; 0, 0.4, -0.2, 0.3i)"],
    ["riesz", "--weights", "bergman:alpha=0.5", "--blaschke", "blaschke(0; 0, 0.5)"],
    ["riesz", "--weights", "bergman:alpha=0.75", "--blaschke", "blaschke(0; 0, 0.5)"],
    ["riesz", "--weights", "bergman:alpha=1", "--blaschke", "blaschke(0; 0.2+0.1i, -0.3)"],
    ["riesz", "--weights", "bergman:alpha=1", "--blaschke", "blaschke(0; 0.4)"],
]


# Douglas intertwiners of order-2 products without a zero at 0 (clustered
# off-centre, off the real axis, symmetric, and with one zero far from the
# others), similar on the nested input against itself, and jordan on the
# order-3 side of the unequal verdict-pairs pair at two full-turn rotations
FRAME_LAYOUT = [
    ["douglas", "--weights", "bergman:alpha=1", "--blaschke", "blaschke(0; 0.8, 0.85)"],
    ["douglas", "--weights", "bergman:alpha=1", "--blaschke", "blaschke(0; 0.7, 0.75i)"],
    ["douglas", "--weights", "bergman:alpha=1", "--blaschke", "blaschke(0; -0.5, 0.5)"],
    ["similar", "--weights", "bergman:alpha=1", "--f1", NESTED, "--f2", NESTED],
]

# two pairs f o phi_a, f whose certificates hold their columns only at
# K 4096: at K 2048 the cond of the first is within 3% of its value there and
# that of the second is 8 times it; then the README pair on nln weights
CERTIFICATE_RUNGS = [
    ["similar", "--weights", "bergman:alpha=1",
     "--f1", f"compose({F1},moebius(0;0.04384472096353069+0.6629338069036286i))", "--f2", F1],
    ["similar", "--weights", "bergman:alpha=1",
     "--f1", f"compose({F1},moebius(0;0.044302833958292716+0.6746723632108435i))", "--f2", F1],
    ["similar", "--weights", "nln", "--f1", F1, "--f2", F2],
]

# intertwiners on weights with no Gram band whose ladders reach the row cap:
# an order-3 product that holds its columns there, and a zero at 0.95 that
# does not, so that its truncated Riesz ladder starts at the cap
DOUGLAS_CAP = [
    ["douglas", "--weights", "bergman:alpha=0.3", "--n-max", "60", "--blaschke",
     "blaschke(0; 0.6134443074981887-0.22510997354903572i, "
     "0.9302969903505748+0.27500891703765606i, 0.31959113563717695-0.13064524542159045i)"],
    ["douglas", "--weights", "bergman:alpha=0.3", "--blaschke", "blaschke(0; 0, 0.95)"],
]


# a bounded Riesz ladder that drifts like 1/n (c2 9.52, 10.73, 11.38, 11.70
# from n_max 50), and jordan on f o phi_0.96, whose certificate is refused for
# its tail at the row cap
LADDER_TREND = [
    ["douglas", "--weights", "bergman:alpha=1", "--blaschke", "blaschke(0; 0.5)", "--n-max", "50"],
    ["jordan", "--weights", "bergman:alpha=1", "--fn", F1_PHI],
]


def unequal_order3(workloads, angle):
    """g o B for the order-3 side of verdict-pairs' unequal pair, rotated by ``angle``.

    The zeros are drawn from the workload's family as ``verdict_pairs`` draws
    them: five order-2 sets, then this one."""
    import numpy as np

    family = np.random.default_rng(20240613)
    for _ in range(5):
        workloads._criterion09_zeros(family, 2)
    zeros = workloads._criterion09_zeros(family, 3)
    B = workloads.blaschke_text(*workloads.rotate_blaschke(zeros, angle))
    return f"compose({workloads.poly_text(workloads.G_CUBIC)}, {B})"


def commands():
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    cmds = list(NAMED)
    for seed in (1, 2):
        for make in (workloads.decompose_fuzz, workloads.verdict_pairs, workloads.riesz_ladder):
            cmds.extend(op.argv for op in make(seed))
    index_maps = [op.argv for op in workloads.index_map(1)] + [INDEX_MAP_CAP]
    rotated = [["jordan", "--weights", "bergman:alpha=1", "--fn", unequal_order3(workloads, angle)]
               for angle in (0.0, math.pi / 2)]
    return (cmds + NEAR_CIRCLE + CRITICAL_SEED + OPTION_COVER + index_maps + SPEC_FORMS
            + BERGMAN_RIESZ + FRAME_LAYOUT + rotated + CERTIFICATE_RUNGS + DOUGLAS_CAP
            + LADDER_TREND)


def leaves(value, path=""):
    """``(path, text)`` for every leaf of a JSON value: a number as ``repr``
    prints it (nan for null), a string or boolean as JSON writes it."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from leaves(item, f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from leaves(item, f"{path}[{i}]")
    elif value is None:
        yield path, repr(math.nan)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield path, repr(value)
    else:
        yield path, json.dumps(value)


def _read_values(path):
    """The exit code of each command, the file lines with no exit code (and no
    hash for result.json), and the values of a --values output: a float for a
    number, the JSON text for a string or boolean."""
    codes, files, values = {}, [], {}
    for line in Path(path).read_text().splitlines():
        if line.startswith("  "):
            out, key, value = line[2:].split(" ", 2)
            values[out, key] = value if value[0] in '"tf' else float(value)
        else:
            digest, code, rest = line.split(" ", 2)
            codes[rest.rsplit(" -> ", 1)[0]] = code
            files.append(rest if rest.endswith("-> result.json") else f"{digest} {rest}")
    return codes, files, values


def compare(parent, change):
    """Print the commands whose exit code moved and the files that differ,
    then the largest moves of each value path name and the value path names
    found on one side only; 1 when any of these exist."""
    (codes_p, files_p, values_p), (codes_c, files_c, values_c) = _read_values(parent), _read_values(change)
    moved = [f"  {cmd}  exit {codes_p[cmd]} -> {codes_c[cmd]}"
             for cmd in codes_p if codes_c.get(cmd, codes_p[cmd]) != codes_p[cmd]]
    if moved:
        print(f"{len(moved)} exit codes moved", *moved, sep="\n")
    differ = files_p != files_c
    if differ:
        print("outputs differ:", *sorted(set(files_p) ^ set(files_c))[:20], sep="\n  ")
    moves, texts = {}, {}
    for (out, key), a in values_p.items():
        b = values_c.get((out, key), a)
        if isinstance(a, str) or isinstance(b, str):
            if a != b:
                texts.setdefault(re.sub(r"\[\d+\]", "[]", key), []).append(f"{out} {a} -> {b}")
        elif a != b and not (math.isnan(a) and math.isnan(b)):
            worst = moves.setdefault(re.sub(r"\[\d+\]", "[]", key), [0.0, 0.0])
            move = math.inf if math.isnan(b - a) else abs(b - a)  # to or from nan
            worst[0] = max(worst[0], move)
            worst[1] = max(worst[1], move / abs(a) if a else math.inf)
    print(f"{sum(not isinstance(a, str) for a in values_p.values())} values; "
          f"{len(moves)} value path names moved")
    for key, (absolute, relative) in sorted(moves.items()):
        print(f"  {key}  max abs {absolute:.3g}  max rel {relative:.3g}")
    one_side = []
    for side, keys in (("parent", values_p.keys() - values_c.keys()),
                       ("change", values_c.keys() - values_p.keys())):
        names = {}
        for out, key in keys:
            names.setdefault(re.sub(r"\[\d+\]", "[]", key), set()).add(out)
        one_side += [f"  {name}  only in {side}, {len(outs)} outputs" for name, outs in sorted(names.items())]
    if one_side:
        print(f"{len(one_side)} value path names on one side only", *one_side, sep="\n")
    print(f"{sum(isinstance(a, str) for a in values_p.values())} strings and booleans; "
          f"{len(texts)} path names moved")
    for key, moved_texts in sorted(texts.items()):
        print(f"  {key}  {len(moved_texts)} moved, e.g. {moved_texts[0]}")
    return 1 if moved or differ or one_side else 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--work", help="directory for the outputs (default: a fresh temporary one)")
    p.add_argument("--values", action="store_true", help="also print every leaf of each result.json")
    p.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"),
                   help="compare two --values outputs instead of running the commands")
    args = p.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    sys.path.insert(0, str(ROOT / "src"))
    import bundlelab.cli

    work = Path(args.work or tempfile.mkdtemp(prefix="output-digest-"))
    for k, cmd in enumerate(commands()):
        out = work / f"c{k:02d}"
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = bundlelab.cli.main(cmd + ["--out", str(out)])
        text = shlex.join(cmd)
        files = sorted(out.iterdir()) if out.is_dir() else []
        for path in files:
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"{digest} {code} {text} -> {path.name}", flush=True)
            if args.values and path.name == "result.json":
                for key, value in leaves(json.loads(path.read_text())):
                    print(f"  {out.name} {key} {value}")
        if not files:
            print(f"- {code} {text} -> (no file)", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
