"""Acceptance criteria, one test per criterion, at their stated tolerances.

Each test prints a single PASS/FAIL line (visible with -s / -rA) and asserts
the stated numeric tolerance and runtime budget.
"""

import time
import warnings

import numpy as np

from bundlelab import classify, frames, geometry, monodromy, operators
from bundlelab.blaschke import BlaschkeProduct
from bundlelab.funcspec import ComposeSpec, PolySpec
from bundlelab.weights import WeightSequence

HARDY = WeightSequence.hardy()
BERGMAN1 = WeightSequence.bergman(1)
G_CUBIC = PolySpec((0, 1, 0, 2))  # z + 2 z^3


def _report(num, ok, text):
    print(f"ACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, text


def test_criterion_01_hardy_orthogonality():
    t0 = time.perf_counter()
    F = frames.build_frame(BlaschkeProduct((0, 0.5)), HARDY, 40, 256)
    G = frames.gram(F, "raw").matrix
    expected = np.array([[1.0, 1.0], [1.0, 4.0 / 3.0]])
    block_dev = 0.0
    off = G.copy()
    for n in range(41):
        blk = G[2 * n : 2 * n + 2, 2 * n : 2 * n + 2]
        block_dev = max(block_dev, float(np.max(np.abs(blk - expected))))
        off[2 * n : 2 * n + 2, 2 * n : 2 * n + 2] = 0.0
    off_dev = float(np.max(np.abs(off)))
    elapsed = time.perf_counter() - t0
    ok = block_dev < 1e-8 and off_dev < 1e-8 and elapsed < 5.0
    _report(
        1, ok,
        f"raw Gram blocks [[1,1],[1,4/3]] dev {block_dev:.2e}, "
        f"off-blocks {off_dev:.2e}, {elapsed:.2f}s",
    )


def test_criterion_02_left_inverse_identity():
    combos = [
        (BlaschkeProduct((0,), np.pi), HARDY),
        (BlaschkeProduct((0, 0)), BERGMAN1),
        (BlaschkeProduct((0, 0.15)), HARDY),
        (BlaschkeProduct((0.04,)), WeightSequence.bergman(0.5)),
        (BlaschkeProduct((0.1, -0.1)), WeightSequence.polygrowth(1)),
    ]
    t0 = time.perf_counter()
    worst = 0.0
    for B, w in combos:
        rep = operators.left_inverse_check(B, w, 256, tailpad=2)
        assert rep.block == 256 - 4 * B.order
        worst = max(worst, rep.max_dev_block)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 5.0
    _report(
        2, ok,
        f"star(B)(S) B(M_z) = I on K-4*order blocks, worst dev {worst:.2e} "
        f"over 5 combos, {elapsed:.2f}s",
    )


def test_criterion_03_douglas_intertwiner():
    t0 = time.perf_counter()
    cert = classify.douglas_intertwiner(
        BlaschkeProduct((0, 0.5)), BERGMAN1, K=512, n_max=100, attach_riesz=False
    )
    s_min, s_max = cert.frame.rebuild(100, 1024).extremes()
    rel = abs(s_max / s_min - cert.cond) / (s_max / s_min)
    elapsed = time.perf_counter() - t0
    ok = (
        cert.residual < 1e-10
        and cert.K == 512
        and cert.tail < frames.TAIL_BAR
        and rel < 0.05
        and elapsed < 60.0
    )
    _report(
        3, ok,
        f"M_B X - X (sum M_z) residual {cert.residual:.2e}, cond {cert.cond:.3f} "
        f"changes {rel * 100:.3g}% at K 512->1024, {elapsed:.1f}s",
    )


def test_criterion_04_riesz_stability():
    t0 = time.perf_counter()
    F = frames.build_frame(BlaschkeProduct((0, 0.5)), BERGMAN1, 100, 512)
    rep = frames.riesz_bounds(F)
    elapsed = time.perf_counter() - t0
    ok = (
        rep.verdict == "Riesz-consistent"
        and rep.c1 > 0
        and rep.stability["c1_rel_change"] <= 0.01
        and rep.stability["c2_rel_change"] <= 0.01
        and elapsed < 120.0
    )
    _report(
        4, ok,
        f"c1 {rep.c1:.6f} c2 {rep.c2:.6f} stable to "
        f"({rep.stability['c1_rel_change'] * 100:.2f}%, "
        f"{rep.stability['c2_rel_change'] * 100:.2g}%) on the doubling ladder "
        f"from (512,100), {elapsed:.1f}s",
    )


def test_criterion_05_counterexample_divergence():
    t0 = time.perf_counter()
    recip_nln = WeightSequence.nln().dual()
    r = frames.column_norm_profile(0.5, recip_nln, 800)
    mono = bool(np.all(r[51:] >= r[50:-1] * (1.0 - 1e-12)))
    ratio = float(r[800] / r[50])
    rb = frames.column_norm_profile(0.5, BERGMAN1, 800)
    spread = float(np.max(rb[50:]) / np.min(rb[50:]))
    elapsed = time.perf_counter() - t0
    ok = mono and ratio > 2.0 and spread < 1.5 and elapsed < 600.0
    _report(
        5, ok,
        f"reciprocal-nln r_n monotone on [50,800]: {mono}, r800/r50 = {ratio:.1f}; "
        f"bergman spread {spread:.3f}, {elapsed:.1f}s",
    )


def test_criterion_06_claim_inequality():
    t0 = time.perf_counter()
    ok = True
    for t in (0.3, 0.5, 0.7):
        for N in range(1, 6):
            lhs = frames.moebius_derivative_power_norm(t, N)
            if lhs < frames.derivative_power_lower_bound(t, N):
                ok = False
    base = frames.moebius_derivative_power_norm(0.5, 1)
    exact = abs(base - np.sqrt(5.0 / 3.0))
    elapsed = time.perf_counter() - t0
    ok = ok and exact < 1e-10 and elapsed < 1.0
    _report(
        6, ok,
        f"||(phi')^N|| >= (1+t)^N/((1-t)^(N-1) sqrt(2 pi (2N-1))) for 15 combos; "
        f"t=0.5 N=1 value off sqrt(5/3) by {exact:.1e}, {elapsed:.2f}s",
    )


def test_criterion_07_figure_reproduction():
    t0 = time.perf_counter()
    spec = PolySpec((2, 1, 1))
    imap = geometry.index_map(spec, (-1, 5, -3, 3), 400)
    nonzero = [v for v in imap.index_values if v > 0]
    w2 = geometry.winding_index(spec, 2.0)
    w166 = geometry.winding_index(spec, 1.66)
    w5 = geometry.winding_index(spec, 5.0)
    elapsed = time.perf_counter() - t0
    ok = (
        nonzero == [1, 2]
        and w2 == 1
        and w166 == 2
        and w5 == 0
        and len(imap.probes) > 0
        and elapsed < 60.0
    )
    _report(
        7, ok,
        f"index values {nonzero}, winding(2)={w2}, winding(1.66)={w166}, "
        f"winding(5)={w5}, {len(imap.probes)} probed cells doubly computed, "
        f"{elapsed:.1f}s",
    )


def test_criterion_08_decomposition_round_trip():
    t0 = time.perf_counter()
    inner = BlaschkeProduct((0, 0.4), np.pi)  # z * (0.4 - z)/(1 - 0.4 z)
    f = ComposeSpec(G_CUBIC, inner)
    dec = monodromy.decompose(f)
    match = classify.moebius_match(dec.outer, G_CUBIC)
    dec_plain = monodromy.decompose(G_CUBIC)
    elapsed = time.perf_counter() - t0
    ok = (
        dec.m == 2
        and dec.residual < 1e-8
        and dec.test_points == 200
        and match is not None
        and match.residual < 1e-6
        and dec_plain.m == 1
        and elapsed < 60.0
    )
    _report(
        8, ok,
        f"(z+2z^3) o (z phi_0.4): m={dec.m}, residual {dec.residual:.2e} on "
        f"{dec.test_points} held-out points, outer matches z+2z^3 to "
        f"{match.residual if match else float('nan'):.2e}; z+2z^3 alone m={dec_plain.m}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_09_classification_consistency():
    rng = np.random.default_rng(20240613)
    t0 = time.perf_counter()

    def rand_zeros(order):
        while True:
            zs = 0.45 * rng.uniform(0.2, 1, order) * np.exp(
                2j * np.pi * rng.uniform(0, 1, order)
            )
            if order == 1 or np.min(
                [abs(a - b) for i, a in enumerate(zs) for b in zs[i + 1 :]]
            ) > 0.05:
                return tuple(zs)

    similar_ok = 0
    not_similar_ok = 0
    consistent_ok = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for _ in range(20):
            h1 = ComposeSpec(G_CUBIC, BlaschkeProduct(rand_zeros(2)))
            h2 = ComposeSpec(G_CUBIC, BlaschkeProduct(rand_zeros(2)))
            double, single, consistent = classify.kaplansky(h1, h2, BERGMAN1)
            if single.status == "similar":
                similar_ok += 1
            if consistent:
                consistent_ok += 1
        for _ in range(10):
            h1 = ComposeSpec(G_CUBIC, BlaschkeProduct(rand_zeros(2)))
            h2 = ComposeSpec(G_CUBIC, BlaschkeProduct(rand_zeros(3)))
            double, single, consistent = classify.kaplansky(h1, h2, BERGMAN1)
            if single.status == "not_similar" and single.reason == "order mismatch":
                not_similar_ok += 1
            if consistent:
                consistent_ok += 1
    elapsed = time.perf_counter() - t0
    ok = (
        similar_ok == 20
        and not_similar_ok == 10
        and consistent_ok == 30
        and elapsed < 900.0
    )
    _report(
        9, ok,
        f"{similar_ok}/20 equal-order pairs similar, {not_similar_ok}/10 "
        f"unequal-order pairs not similar, {consistent_ok}/30 doubled verdicts "
        f"consistent, {elapsed:.0f}s",
    )


def test_criterion_10_kernel_matrix():
    rng = np.random.default_rng(424242)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(1, 7))
        pts = []
        while len(pts) < m:
            z = complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8))
            if abs(z) <= 0.8 and all(abs(z - p) > 0.05 for p in pts):
                pts.append(z)
        res = frames.kernel_matrix(pts)
        worst = max(
            worst,
            float(np.max(np.abs(res.matrix @ res.inverse - np.eye(m)))),
        )
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-8 and elapsed < 5.0
    _report(
        10, ok,
        f"100 random kernel matrices (m <= 6) inverted, worst ||A A^-1 - I|| "
        f"= {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_11_reweighting_identity():
    combos = [
        (BlaschkeProduct((0, 0.5)), HARDY),
        (BlaschkeProduct((0, 0.3j)), BERGMAN1),
        (BlaschkeProduct((0, 0.4, -0.3)), WeightSequence.polygrowth(1)),
    ]
    t0 = time.perf_counter()
    worst = 0.0
    for B, w in combos:
        rep = frames.cpb_check(B, w, 30, 512)
        worst = max(worst, rep.max_dev)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-8 and elapsed < 60.0
    _report(
        11, ok,
        f"(n+1)beta_n reweighting: both Gram constructions agree to "
        f"{worst:.2e} on 3 combos at K=512, n_max=30, {elapsed:.1f}s",
    )


def test_criterion_12_commutant_transport():
    presets = [HARDY, BERGMAN1, WeightSequence.polygrowth(2), WeightSequence.nln()]
    t0 = time.perf_counter()
    worst = 0.0
    for w in presets:
        worst = max(worst, operators.commutant_transport_check(w, 128))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-12 and elapsed < 1.0
    _report(
        12, ok,
        f"transported backward shift equals adjoint of dual M_z to "
        f"{worst:.2e} on 4 presets, {elapsed:.2f}s",
    )
