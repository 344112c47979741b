"""Digest the outputs of a fixed list of bundle-lab commands.

    python3 tools/output_digest.py > digest.txt
    diff digest-parent.txt digest-change.txt
    python3 tools/output_digest.py --values > values.txt   # a drift check

Runs every command of ``commands()`` in-process through ``bundlelab.cli.main``
from this checkout's ``src/``, each with its own output directory, with BLAS
pinned to one thread.  For every file a command writes it prints one line

    <sha256> <exit code> <command> -> <file name>

so that two checkouts are compared for byte identity with ``diff``.  With
``--values`` each ``result.json`` line is followed by one line per number in
it, ``  c<k> <path> <value>`` (``c<k>`` is the command's output directory),
so that a change meant to move the numbers only by roundoff is checked with
``diff`` too.

    python3 tools/output_digest.py --compare values-parent.txt values-change.txt

reads two ``--values`` outputs and fails (exit 1) when a command, an exit
code, a file, a value path or the hash of a file other than ``result.json``
differs.  Otherwise it prints, for each value path name (list indices
collapsed to ``[]``) whose value moved, the largest absolute move and the
largest move relative to the parent value.

The list is the README examples and the paper's named inputs (18 commands)
plus every ``decompose-fuzz``, ``verdict-pairs`` and ``riesz-ladder`` input
of benchmark seeds 1 and 2 (66 commands), which are taken from
``perfbench/workloads.py`` without changing it, and last the near-circle
fiber case (2 commands, ``NEAR_CIRCLE``), appended so that the ``c<k>``
labels of the first 84 stay put.  A whole run of the 86 commands took
about 50 s on a 2-core machine.
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


def commands():
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    cmds = list(NAMED)
    for seed in (1, 2):
        for make in (workloads.decompose_fuzz, workloads.verdict_pairs, workloads.riesz_ladder):
            cmds.extend(op.argv for op in make(seed))
    return cmds + NEAR_CIRCLE


def numbers(value, path=""):
    """``(path, number)`` for every int or float leaf of a JSON value."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from numbers(item, f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from numbers(item, f"{path}[{i}]")
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield path, value


def _read_values(path):
    """The file lines (hash dropped for result.json) and the values of a --values output."""
    files, values = [], {}
    for line in Path(path).read_text().splitlines():
        if line.startswith("  "):
            out, key, value = line.split()
            values[out, key] = float(value)
        else:
            rest = line.split(" ", 1)[1]
            files.append(rest if rest.endswith("-> result.json") else line)
    return files, values


def compare(parent, change):
    """Print the largest moves of each value path name; 1 when anything else differs."""
    (files_p, values_p), (files_c, values_c) = _read_values(parent), _read_values(change)
    if files_p != files_c or values_p.keys() != values_c.keys():
        bad = sorted(set(files_p) ^ set(files_c)) or sorted(values_p.keys() ^ values_c.keys())
        print("outputs differ:", *bad[:20], sep="\n  ")
        return 1
    moves = {}
    for (out, key), a in values_p.items():
        b = values_c[out, key]
        if a != b and not (math.isnan(a) and math.isnan(b)):
            worst = moves.setdefault(re.sub(r"\[\d+\]", "[]", key), [0.0, 0.0])
            move = math.inf if math.isnan(b - a) else abs(b - a)  # to or from nan
            worst[0] = max(worst[0], move)
            worst[1] = max(worst[1], move / abs(a) if a else math.inf)
    print(f"{len(values_p)} values; {len(moves)} value path names moved")
    for key, (absolute, relative) in sorted(moves.items()):
        print(f"  {key}  max abs {absolute:.3g}  max rel {relative:.3g}")
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--work", help="directory for the outputs (default: a fresh temporary one)")
    p.add_argument("--values", action="store_true", help="also print every number of each result.json")
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
                for key, value in numbers(json.loads(path.read_text())):
                    print(f"  {out.name} {key} {value!r}")
        if not files:
            print(f"- {code} {text} -> (no file)", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
