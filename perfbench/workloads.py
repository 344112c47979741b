"""Workload inputs and the independent checks on their outputs.

Every workload is a fixed mix of ``bundle-lab`` invocations; one *round* runs
the whole mix once.  The seed only rotates the inputs by a small angle:
precomposing a function with the rotation z -> e^{-i t} z leaves its image, its
branch values, its Jordan data and every Riesz bound unchanged, so each seed
gives different numbers to the program for the same amount of work.  Inputs on
which a known fault of the program shows are never rotated, so that the count
of failed operations cannot depend on the seed.

The checks never compare against stored output.  They recompute what the
construction fixes (verdicts, multiplicities, Pick-matrix eigenvalues, root
counts) with plain numpy from the benchmark's own coefficients.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

TWO_PI = 2.0 * np.pi
COUNT_RADIUS = 1.0 - 1e-5  # the index counts roots strictly inside this circle
G_CUBIC = (0.0, 1.0, 0.0, 2.0)  # z + 2 z^3, the paper's running example
# Largest rotation a seed applies.  It moves every coefficient the program
# sees, yet keeps the program's discrete choices (the sorted order of fiber
# points, hence the conjugating automorphism and the ladder rungs it needs)
# as they are, so that every seed costs the same work.
SPIN = 2e-3


@dataclass
class Op:
    """One CLI invocation plus what its outputs must satisfy."""

    argv: list
    check: object  # callable(result_dict, out_dir) -> list of problems
    label: str
    known_fault: bool = False
    weights: tuple = ()  # weight ids whose caches set-up fills


# -- spec text ---------------------------------------------------------------


def lit(c):
    """A complex literal of the spec grammar, exact to the last bit."""
    c = complex(c)
    re_, im = float(c.real), float(c.imag)
    return f"{re_!r}{'+' if im >= 0 else '-'}{abs(im)!r}i"


def poly_text(coeffs):
    return "poly(" + ",".join(lit(c) for c in coeffs) + ")"


def blaschke_text(zeros, theta=0.0):
    return f"blaschke({float(theta)!r}; " + ",".join(lit(z) for z in zeros) + ")"


def rotate_blaschke(zeros, angle):
    """Zeros and phase of B(e^{-i angle} z) for B with the given zeros, phase 0."""
    zs = np.asarray(zeros, dtype=complex) * np.exp(1j * angle)
    return zs, float((-len(zs) * angle) % TWO_PI)


def rotate_poly(coeffs, angle):
    """Coefficients of g(e^{-i angle} z)."""
    c = np.asarray(coeffs, dtype=complex)
    return c * np.exp(-1j * angle * np.arange(c.size))


# -- plain numpy evaluation, independent of the program -----------------------


def eval_poly(coeffs, z):
    return np.polyval(np.asarray(coeffs, dtype=complex)[::-1], z)


def eval_blaschke(zeros, theta, z):
    z = np.asarray(z, dtype=complex)
    out = np.full(z.shape, np.exp(1j * theta), dtype=complex)
    for a in zeros:
        out *= (a - z) / (1.0 - np.conj(a) * z)
    return out


def blaschke_num_den(zeros, theta):
    """Constant-first numerator and denominator of a Blaschke product."""
    P = np.array([np.exp(1j * theta)], dtype=complex)
    Q = np.array([1.0 + 0j])
    for a in zeros:
        P = np.polynomial.polynomial.polymul(P, [a, -1.0])
        Q = np.polynomial.polynomial.polymul(Q, [1.0, -np.conj(a)])
    return P, Q


def compose_num_den(g, P, Q):
    """g(P/Q) over a common denominator: sum g_k P^k Q^(d-k) / Q^d."""
    pm = np.polynomial.polynomial
    d = len(g) - 1
    num = np.zeros(1, dtype=complex)
    for k, gk in enumerate(g):
        term = pm.polymul(pm.polypow(P, k), pm.polypow(Q, d - k))
        num = pm.polyadd(num, gk * term)
    return num, pm.polypow(Q, d)


def disk_points(rng, count, radius=0.95):
    r = radius * np.sqrt(rng.uniform(0.0, 1.0, count))
    return r * np.exp(TWO_PI * 1j * rng.uniform(0.0, 1.0, count))


def read_result(out_dir):
    with open(Path(out_dir) / "result.json", encoding="utf-8") as fh:
        return json.load(fh)["result"]


def _cx(pair):
    return complex(pair[0], pair[1])


# -- verdict-pairs -------------------------------------------------------------


def _criterion09_zeros(rng, order):
    """Zeros as drawn by acceptance criterion 09: moduli in [0.09, 0.45], separated."""
    while True:
        zs = 0.45 * rng.uniform(0.2, 1, order) * np.exp(TWO_PI * 1j * rng.uniform(0, 1, order))
        if min(abs(a - b) for i, a in enumerate(zs) for b in zs[i + 1:]) > 0.05:
            return zs


def check_kaplansky(expect):
    def check(result, out_dir):
        single, double = result["single"], result["double"]
        problems = []
        if expect == "similar":
            if single["status"] != "similar":
                problems.append(f"single verdict {single['status']!r}, built similar")
        elif single["status"] != "not_similar" or single["reason"] != "order mismatch":
            problems.append(
                f"single verdict {single['status']!r} ({single['reason']!r}), "
                "built as an order mismatch"
            )
        if double["status"] != single["status"]:
            problems.append(f"doubled verdict {double['status']!r} differs from single")
        if result["consistent"] is not True:
            problems.append("consistent is not true")
        return problems

    return check


def verdict_pairs(seed):
    """Two equal-order pairs (2/2) for every unequal-order pair (2/3), as in criterion 09."""
    family = np.random.default_rng(20240613)
    pairs = [
        (_criterion09_zeros(family, 2), _criterion09_zeros(family, 2), "similar"),
        (_criterion09_zeros(family, 2), _criterion09_zeros(family, 2), "similar"),
        (_criterion09_zeros(family, 2), _criterion09_zeros(family, 3), "order mismatch"),
    ]
    angles = np.random.default_rng([seed, 1]).uniform(-SPIN, SPIN, len(pairs))
    g = poly_text(G_CUBIC)
    ops = []
    for (z1, z2, expect), angle in zip(pairs, angles):
        f1 = f"compose({g}, {blaschke_text(*rotate_blaschke(z1, angle))})"
        f2 = f"compose({g}, {blaschke_text(*rotate_blaschke(z2, angle))})"
        ops.append(Op(
            ["kaplansky", "--weights", "bergman:alpha=1", "--f1", f1, "--f2", f2],
            check_kaplansky(expect),
            f"kaplansky {len(z1)}/{len(z2)}",
            weights=("bergman:alpha=1",),
        ))
    return ops


# -- decompose-fuzz ------------------------------------------------------------

# Members of the fixed family below on which `decompose` reports m = 1 for an
# input built as g o B with order(B) >= 2: loops around branch values are
# skipped ("loop leaves the component" / "tracking failed"), no candidate block
# is proposed, and the input is certified indecomposable.  They fail on every
# run and are kept at their original orientation.
DECOMPOSE_KNOWN_FAULT = (8, 9, 13, 14, 19)
DECOMPOSE_COMPOSITIONS = 20
DECOMPOSE_PLAIN = 2
_TAYLOR_RADIUS = 0.8  # result.json's outer Taylor polynomial is trusted below this


def _fuzz_family():
    """g o B with deg g in 2..4, order B in 2..3, zeros in |z| < 0.6; then plain g."""
    rng = np.random.default_rng(7)
    comps = []
    for _ in range(DECOMPOSE_COMPOSITIONS):
        deg = int(rng.integers(2, 5))
        order = int(rng.integers(2, 4))
        g = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        while True:
            zs = 0.6 * np.sqrt(rng.uniform(0, 1, order)) * np.exp(
                TWO_PI * 1j * rng.uniform(0, 1, order)
            )
            if min(abs(a - b) for i, a in enumerate(zs) for b in zs[i + 1:]) > 0.05:
                break
        comps.append((g, zs))
    plain = []
    for _ in range(DECOMPOSE_PLAIN):
        deg = int(rng.integers(2, 5))
        plain.append(rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1))
    return comps, plain


_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def same_spec(text, printed):
    """Whether `printed` is the spec `text` as the program prints it: the same
    shape, and the same numbers to 1e-9 relative (it prints 12 digits)."""
    if _NUMBER.sub("#", text.replace(" ", "")) != _NUMBER.sub("#", printed.replace(" ", "")):
        return False
    a, b = (np.array([float(x) for x in _NUMBER.findall(t)]) for t in (text, printed))
    return bool(np.all(np.abs(a - b) <= 1e-9 * np.maximum(1.0, np.abs(a))))


def _parse_poly_text(text):
    """Coefficients of a `poly(...)` text with a+bi literals, without the program's parser."""
    if not (text.startswith("poly(") and text.endswith(")")):
        return None
    coeffs = []
    for part in text[5:-1].split(","):
        part = part.strip()
        if part.endswith("i"):
            nums = _NUMBER.findall(part[:-1])
            coeffs.append(complex(0.0, float(nums[0])) if len(nums) == 1
                          else complex(float(nums[0]), float(nums[1])))
        else:
            coeffs.append(complex(float(part)))
    return np.array(coeffs)


def check_decompose(f_true, order, rng_seed, points=64):
    """m is a positive multiple of order(B), and h o B_hat reproduces f at 64 points."""

    def check(result, out_dir):
        m, residual = result["m"], result["residual"]
        if not (isinstance(m, int) and m >= 1 and m % order == 0):
            return [f"m = {m} is not a positive multiple of the built order {order}"]
        if residual >= 1e-8:
            return [f"residual {residual:.3e} is not below 1e-8"]
        zeros = [_cx(z) for z in result["inner_zeros"]]
        theta = float(result["inner_theta"])
        if len(zeros) != m:
            return [f"{len(zeros)} inner zeros for m = {m}"]
        outer = result["outer"]
        if "taylor" in outer:
            h = np.array([_cx(c) for c in outer["taylor"]])
        else:
            h = _parse_poly_text(outer.get("spec", ""))
            if h is None:
                return [f"outer {outer} is neither a Taylor polynomial nor a poly"]
        rng = np.random.default_rng(rng_seed)
        zs = disk_points(rng, 4096)
        zs = zs[np.abs(eval_blaschke(zeros, theta, zs)) < _TAYLOR_RADIUS][:points]
        if zs.size < points:
            return [f"only {zs.size} check points with |B_hat| < {_TAYLOR_RADIUS}"]
        want = f_true(zs)
        got = eval_poly(h, eval_blaschke(zeros, theta, zs))
        err = float(np.max(np.abs(want - got)))
        tol = 1e-7 * max(1.0, float(np.max(np.abs(want))))
        return [] if err <= tol else [f"h o B_hat differs from g o B by {err:.3e}"]

    return check


def decompose_fuzz(seed):
    comps, plain = _fuzz_family()
    rng = np.random.default_rng([seed, 2])
    angles = rng.uniform(-SPIN, SPIN, len(comps) + len(plain))
    ops = []
    for k, (g, zs) in enumerate(comps):
        fault = k in DECOMPOSE_KNOWN_FAULT
        rz, theta = rotate_blaschke(zs, 0.0 if fault else angles[k])

        def f_true(z, g=g, rz=rz, theta=theta):
            return eval_poly(g, eval_blaschke(rz, theta, z))

        spec = f"compose({poly_text(g)}, {blaschke_text(rz, theta)})"
        ops.append(Op(
            ["decompose", "--fn", spec],
            check_decompose(f_true, len(zs), [seed, 3, k]),
            f"decompose g{len(g) - 1} o B{len(zs)} #{k}",
            known_fault=fault,
        ))
    for k, g in enumerate(plain, start=len(comps)):
        gr = rotate_poly(g, angles[k])
        ops.append(Op(
            ["decompose", "--fn", poly_text(gr)],
            check_decompose(lambda z, gr=gr: eval_poly(gr, z), 1, [seed, 3, k]),
            f"decompose g{len(g) - 1} #{k}",
        ))
    return ops


# -- riesz-ladder --------------------------------------------------------------


def pick_extremes(zeros):
    """Extremal eigenvalues of the Pick matrix 1/(1 - conj(z_i) z_j)."""
    z = np.asarray(zeros, dtype=complex)
    ev = np.linalg.eigvalsh(1.0 / (1.0 - np.conj(z)[:, None] * z[None, :]))
    return float(ev[0]), float(ev[-1])


def _riesz_problems(rep):
    problems = []
    if rep["verdict"] != "Riesz-consistent":
        problems.append(f"verdict {rep['verdict']!r} on a polynomial-growth preset")
    if not (0.0 < rep["c1"] <= rep["c2"]):
        problems.append(f"bounds c1 {rep['c1']} c2 {rep['c2']} violate 0 < c1 <= c2")
    return problems


def check_riesz_pick(zeros):
    """On hardy the beta-frame Gram is block diagonal with the Pick matrix as block."""
    lo, hi = pick_extremes(zeros)

    def check(result, out_dir):
        problems = _riesz_problems(result)
        for name, want in (("c1", lo), ("c2", hi)):
            if abs(result[name] - want) > 1e-8 * want:
                problems.append(f"{name} {result[name]!r} differs from Pick eigenvalue {want!r}")
        return problems

    return check


def check_riesz(result, out_dir):
    return _riesz_problems(result)


def check_douglas(result, out_dir):
    problems = []
    if result["accepted"] is not True:
        problems.append("intertwiner not accepted on a polynomial-growth preset")
    if not result["residual"] < 1e-8:
        problems.append(f"residual {result['residual']!r} is not below 1e-8")
    if result["riesz"] is None:
        problems.append("no Riesz report attached")
    else:
        problems += _riesz_problems(result["riesz"])
    return problems


def check_counterexample(verdict):
    def check(result, out_dir):
        if result["verdict"] != verdict:
            return [f"verdict {result['verdict']!r}, expected {verdict!r}"]
        return []

    return check


def riesz_ladder(seed):
    angles = np.random.default_rng([seed, 4]).uniform(-SPIN, SPIN, 6)
    two = [0.0, 0.5]
    three = [0.0, 0.5, -0.3 + 0.4j]
    small = ["--n-max", "50", "--trunc", "256"]

    def frame_op(cmd, weights, zeros, angle, size, pick=False):
        rz, theta = rotate_blaschke(zeros, angle)
        return Op(
            [cmd, "--weights", weights, "--blaschke", blaschke_text(rz, theta)] + size,
            check_riesz_pick(rz) if pick else (check_douglas if cmd == "douglas" else check_riesz),
            f"{cmd} {weights} order {len(zeros)}",
            weights=(weights,),
        )

    ops = [
        frame_op("riesz", "hardy", two, angles[0], small, pick=True),
        frame_op("riesz", "hardy", three, angles[1], small, pick=True),
        frame_op("riesz", "bergman:alpha=1", two, angles[2], small),
        frame_op("douglas", "hardy", three, angles[3], small),
        frame_op("douglas", "bergman:alpha=1", two, angles[4], small),
        # the attached Riesz ladder climbs to n_max 800, K 4096 on this preset
        frame_op("douglas", "polygrowth:M=2", two, angles[5], []),
    ]
    for weights, verdict in (
        ("reciprocal:nln", "no bounded similarity at probed scales"),
        ("bergman:alpha=1", "similarity-consistent"),
    ):
        ops.append(Op(
            ["counterexample", "--weights", weights],
            check_counterexample(verdict),
            f"counterexample {weights}",
            weights=(weights,),
        ))
    return ops


# -- index-map -----------------------------------------------------------------


def checked_cells(grid, rng_seed, cells=24):
    """Seeded (row, column) picks among the cells off the boundary band."""
    off_band = np.flatnonzero(grid.ravel() >= 0)
    rng = np.random.default_rng(rng_seed)
    picks = rng.choice(off_band, size=min(cells, off_band.size), replace=False)
    return [divmod(int(f), grid.shape[1]) for f in picks]


def check_index_map(P, Q, rng_seed, positive=None, cells=24):
    """Grid values at seeded cells off the band equal numpy root counts of P - w Q."""

    def check(result, out_dir):
        with open(Path(out_dir) / "grid.json", encoding="utf-8") as fh:
            art = json.load(fh)
        grid = np.asarray(art["grid"])
        res = art["resolution"]
        re_min, re_max, im_min, im_max = art["bounds"]
        if grid.shape != (res, res):
            return [f"grid shape {grid.shape} for resolution {res}"]
        problems = []
        if positive is not None:
            got = [v for v in result["index_values"] if v > 0]
            if got != positive:
                problems.append(f"positive index values {got}, expected {positive}")
        picks = checked_cells(grid, rng_seed, cells)
        if len(picks) < cells:
            problems.append(f"only {len(picks)} cells off the boundary band")
        for i, j in picks:
            w = complex(re_min + (j + 0.5) * (re_max - re_min) / res,
                        im_min + (i + 0.5) * (im_max - im_min) / res)
            R = np.zeros(max(P.size, Q.size), dtype=complex)
            R[: P.size] += P
            R[: Q.size] -= w * Q
            want = int(np.sum(np.abs(np.roots(R[::-1])) < COUNT_RADIUS))
            if int(grid[i, j]) != want:
                problems.append(f"cell ({i},{j}) at {w:.4f} holds {grid[i, j]}, root count {want}")
        return problems

    return check


def index_rng_seed(seed, k):
    """Seed of the cells checked on map k."""
    return [seed, 6, k]


def index_map(seed):
    angles = np.random.default_rng([seed, 5]).uniform(-SPIN, SPIN, 2)
    one = np.ones(1, dtype=complex)
    cubic = rotate_poly([0.2, 1.0, 0.4 + 0.2j, 0.45], angles[0])
    rz, theta = rotate_blaschke([0.0, 0.4], angles[1])
    comp_P, comp_Q = compose_num_den(G_CUBIC, *blaschke_num_den(rz, theta))
    paper = np.array([2.0, 1.0, 1.0], dtype=complex)
    maps = [
        ("poly(2,1,1)", poly_text(paper), "-1,5,-3,3", paper, one, [1, 2]),
        ("cubic", poly_text(cubic), "-2.2,2.2,-2.2,2.2", cubic, one, None),
        ("(z+2z^3) o B", f"compose({poly_text(G_CUBIC)}, {blaschke_text(rz, theta)})",
         "-3.5,3.5,-3.5,3.5", comp_P, comp_Q, None),
    ]
    return [
        Op(["index-map", "--fn", fn, "--bounds", bounds, "--res", "400"],
           check_index_map(P, Q, index_rng_seed(seed, k), positive),
           f"index-map {name}")
        for k, (name, fn, bounds, P, Q, positive) in enumerate(maps)
    ]


WORKLOADS = {
    "verdict-pairs": verdict_pairs,
    "decompose-fuzz": decompose_fuzz,
    "riesz-ladder": riesz_ladder,
    "index-map": index_map,
}

# One small invocation per workload, run untimed before the timed rounds so
# that first-call costs (BLAS start-up, lazy imports) stay out of the figures.
WARMUP = {
    "verdict-pairs": ["decompose", "--fn", "compose(poly(0,1,0,2), blaschke(0; 0, 0.4))"],
    "decompose-fuzz": ["decompose", "--fn", "compose(poly(0,1,0,2), blaschke(0; 0, 0.4))"],
    "riesz-ladder": ["riesz", "--weights", "hardy", "--n-max", "20", "--trunc", "64"],
    "index-map": ["index-map", "--fn", "poly(2,1,1)", "--res", "100"],
}
