"""Invariant suite behind the ``verify`` subcommand.

Each check returns (ok, info); the CLI prints one line per check and exits
nonzero on any failure.  The checks are the runnable forms of the module
invariants and are reused by the test suite.
"""

from __future__ import annotations

import warnings

import numpy as np

from . import classify, frames, geometry, monodromy, operators, series
from .blaschke import (
    BlaschkeProduct,
    MoebiusTransform,
    compose_blaschke,
    eval_blaschke,
)
from .funcspec import ComposeSpec, PolySpec, RationalFunction
from .weights import WeightSequence

__all__ = ["ALL_CHECKS", "run_all"]

_RNG_SEED = 20240613


def _presets():
    return [
        WeightSequence.hardy(),
        WeightSequence.bergman(1),
        WeightSequence.polygrowth(2),
        WeightSequence.nln(),
    ]


def check_beta_multiplicative():
    # one rounding per step accumulates: at index k the ratio may drift k ulps
    eps = np.finfo(float).eps
    for w in _presets():
        K = 2000
        betas = w.betas(K)
        ws = w.weights(K)
        rel = np.abs(betas[1:] / betas[:-1] - ws) / ws
        if np.any(rel > (np.arange(1, K + 1) + 4) * eps):
            return False, f"{w.id}: beta ratio drift {np.max(rel):.2e}"
    return True, "beta_k = beta_(k-1) w_k to one rounding per step on 4 presets"


def check_dual_involution():
    for w in _presets():
        back = w.dual().dual().weights(500)
        if np.max(np.abs(back - w.weights(500))) > 2e-16 * np.max(back):
            return False, f"{w.id}: reciprocal round trip off"
    return True, "dual_weights is an involution (within 2 ulps) on 4 presets"


def check_polygrowth_envelope():
    for M in (0.5, 1.0, 2.0, 3.5):
        w = WeightSequence.polygrowth(M)
        k = np.arange(1, 5001, dtype=float)
        ws = w.weights(5000)
        lo = (k + 1.0) / (k + M + 1.0)
        hi = (k + M + 1.0) / (k + 1.0)
        if not np.all((ws >= lo - 1e-15) & (ws <= hi + 1e-15)):
            return False, f"M={M}: envelope violated"
    return True, "polygrowth presets stay inside the M-growth envelope"


def check_bergman_supval():
    from .weights import growth_classify

    g = growth_classify(WeightSequence.bergman(1.5), 10**4)
    ok = abs(g.sup_val - 1.5) < 0.015
    return ok, f"bergman(1.5) probe sup {g.sup_val:.5f} vs 1.5"


def check_series_ring():
    rng = np.random.default_rng(_RNG_SEED)
    for _ in range(20):
        a = series.PowerSeries(rng.standard_normal(12) + 1j * rng.standard_normal(12))
        b = series.PowerSeries(rng.standard_normal(12) + 1j * rng.standard_normal(12))
        c = series.PowerSeries(rng.standard_normal(12) + 1j * rng.standard_normal(12))
        ab = series.multiply(a, b).coeffs
        ba = series.multiply(b, a).coeffs
        if np.max(np.abs(ab - ba)) > 1e-13 * np.max(np.abs(ab) + 1):
            return False, "commutativity failed"
        l = series.multiply(series.multiply(a, b), c).coeffs
        r = series.multiply(a, series.multiply(b, c)).coeffs
        if np.max(np.abs(l - r)) > 1e-12 * np.max(np.abs(l) + 1):
            return False, "associativity failed"
    return True, "Cauchy products commute and associate on random data"


def check_cauchy_schwarz():
    rng = np.random.default_rng(_RNG_SEED + 1)
    w = WeightSequence.bergman(1)
    for _ in range(50):
        f = series.PowerSeries(rng.standard_normal(40) + 1j * rng.standard_normal(40))
        g = series.PowerSeries(rng.standard_normal(40) + 1j * rng.standard_normal(40))
        lhs = abs(series.inner(f, g, w)) ** 2
        rhs = series.inner(f, f, w).real * series.inner(g, g, w).real
        if lhs > rhs * (1 + 1e-12):
            return False, "Cauchy-Schwarz violated"
    return True, "|<f,g>|^2 <= <f,f><g,g> on 50 random pairs"


def check_eval_product():
    rng = np.random.default_rng(_RNG_SEED + 2)
    for _ in range(20):
        f = series.PowerSeries(rng.standard_normal(30) + 1j * rng.standard_normal(30))
        g = series.PowerSeries(rng.standard_normal(30) + 1j * rng.standard_normal(30))
        z = 0.9 * rng.uniform(0, 1) * np.exp(2j * np.pi * rng.uniform())
        p = np.polyval(series.multiply(f, g).coeffs[::-1], z)
        q = np.polyval(f.coeffs[::-1], z) * np.polyval(g.coeffs[::-1], z)
        tail = np.sum(np.abs(np.convolve(f.coeffs, g.coeffs)[30:])) * abs(z) ** 30
        if abs(p - q) > tail + 1e-10 * (1 + abs(q)):
            return False, f"eval/product mismatch {abs(p - q):.2e}"
    return True, "eval(multiply) matches product of evals within the tail"


def check_blaschke_modulus():
    rng = np.random.default_rng(_RNG_SEED + 3)
    for _ in range(5):
        zeros = 0.8 * rng.uniform(0.1, 1, 3) * np.exp(2j * np.pi * rng.uniform(0, 1, 3))
        B = BlaschkeProduct(tuple(zeros), rng.uniform(0, 2 * np.pi))
        t = np.exp(2j * np.pi * np.arange(1024) / 1024)
        dev = np.max(np.abs(np.abs(eval_blaschke(B, t)) - 1.0))
        if dev > 1e-10:
            return False, f"|B| on circle deviates {dev:.2e}"
    return True, "|B(e^it)| = 1 within 1e-10 on 1024 circle samples"


def check_fiber_counts():
    rng = np.random.default_rng(_RNG_SEED + 4)
    for _ in range(10):
        m = rng.integers(1, 5)
        zeros = 0.7 * rng.uniform(0.1, 1, m) * np.exp(2j * np.pi * rng.uniform(0, 1, m))
        B = BlaschkeProduct(tuple(zeros))
        omega = 0.6 * rng.uniform() * np.exp(2j * np.pi * rng.uniform())
        pts = RationalFunction.from_spec(B).preimages(omega)
        if len(pts) != m:
            return False, f"order {m} fiber returned {len(pts)} points"
    return True, "Blaschke fibers carry exactly `order` points for |w|<1"


def check_compose_pointwise():
    rng = np.random.default_rng(_RNG_SEED + 5)
    B1 = BlaschkeProduct((0.3, -0.2 + 0.4j))
    B2 = BlaschkeProduct((0.1j, 0.5))
    C = compose_blaschke(B1, B2)
    zs = 0.95 * rng.uniform(0, 1, 50) * np.exp(2j * np.pi * rng.uniform(0, 1, 50))
    dev = np.max(np.abs(eval_blaschke(C, zs) - eval_blaschke(B1, eval_blaschke(B2, zs))))
    return dev < 1e-10, f"composition pointwise deviation {dev:.2e}"


def check_star_involution():
    B = BlaschkeProduct((0.3, -0.2 + 0.4j, 0.1j), 1.2)
    S = B.star()
    ok = S.order == B.order and np.allclose(
        sorted(S.zeros, key=lambda z: (z.real, z.imag)),
        sorted([np.conj(z) for z in B.zeros], key=lambda z: (z.real, z.imag)),
    )
    return ok, "star keeps the order and conjugates the zeros"


def check_shift_mult_identity():
    for w in _presets():
        K = 64
        S = operators.shift_matrix(w, K)
        M = operators.mult_matrix(series.poly_series([0, 1], K - 1), w, K)
        P = S @ M
        dev = np.max(np.abs(P[: K - 1, : K - 1] - np.eye(K - 1)))
        if dev > 1e-14:
            return False, f"{w.id}: S M_z deviates {dev:.2e}"
    return True, "shift o mult(z) is the identity on the leading block, 4 presets"


def check_calculus_multiplicative():
    w = WeightSequence.bergman(1)
    K = 128
    h1 = series.poly_series([1, 0.3, -0.2], K - 1)
    h2 = series.poly_series([0.5, -0.1, 0, 0.2], K - 1)
    A = operators.calculus_matrix(h1, w, K)
    B = operators.calculus_matrix(h2, w, K)
    C = operators.calculus_matrix(series.multiply(h1, h2), w, K)
    blk = K - 8
    dev = np.max(np.abs((A @ B)[:blk, :blk] - C[:blk, :blk]))
    return dev < 1e-12, f"calculus multiplicativity deviation {dev:.2e}"


def check_mult_support():
    w = WeightSequence.polygrowth(1)
    f0 = series.poly_series([0, 0.4, 0.1], 31)
    M = operators.mult_matrix(f0, w, 32)
    strict = np.max(np.abs(np.triu(M, 0)))
    f1 = series.poly_series([0.7, 0.4], 31)
    M1 = operators.mult_matrix(f1, w, 32)
    diag = np.min(np.abs(np.diag(M1)))
    ok = strict == 0.0 and diag > 0
    return ok, "mult support strictly lower-triangular iff constant term vanishes"


def check_moebius_left_inverse():
    rng = np.random.default_rng(_RNG_SEED + 6)
    w = WeightSequence.bergman(0.5)
    for _ in range(4):
        a = 0.12 * rng.uniform(0.2, 1) * np.exp(2j * np.pi * rng.uniform())
        rep = operators.left_inverse_check(BlaschkeProduct((a,)), w, 192)
        if rep.max_dev_block > 1e-10:
            return False, f"residual {rep.max_dev_block:.2e} at zero {a:.3f}"
    return True, "Moebius calculus/mult left-inverse identity on random zeros"


def check_hardy_orthogonality():
    h = WeightSequence.hardy()
    F = frames.build_frame(BlaschkeProduct((0, 0.5)), h, 20, 256)
    G = frames.gram(F, "raw").matrix
    expected = np.array([[1, 1], [1, 4 / 3]])
    dev = 0.0
    off = G.copy()
    for n in range(21):
        blk = G[2 * n : 2 * n + 2, 2 * n : 2 * n + 2]
        dev = max(dev, float(np.max(np.abs(blk - expected))))
        off[2 * n : 2 * n + 2, 2 * n : 2 * n + 2] = 0
    offmax = float(np.max(np.abs(off)))
    ok = dev < 1e-8 and offmax < 1e-8
    return ok, f"block dev {dev:.2e}, off-block {offmax:.2e}"


def check_duality_identity():
    dev1 = frames.moebius_duality_check(0.5, WeightSequence.hardy(), 30, 384)
    dev2 = frames.moebius_duality_check(0.3j, WeightSequence.bergman(1), 30, 384)
    ok = dev1.max_dev < 1e-8 and dev2.max_dev < 1e-8
    return ok, f"pairing deviations {dev1.max_dev:.2e}, {dev2.max_dev:.2e}"


def check_monomial_frame_bounds():
    for w in _presets():
        F = frames.build_frame(BlaschkeProduct((0,), np.pi), w, 24, 96)
        G = frames.gram(F, "beta").matrix
        dev = np.max(np.abs(G - np.eye(G.shape[0])))
        if dev > 1e-12:
            return False, f"{w.id}: monomial frame Gram deviates {dev:.2e}"
    return True, "B=z frame is the orthonormal base (c1=c2=1) on 4 presets"


def check_claim_inequality():
    for t in (0.3, 0.5, 0.7):
        for N in range(1, 6):
            lhs = frames.moebius_derivative_power_norm(t, N)
            rhs = frames.derivative_power_lower_bound(t, N)
            if lhs < rhs:
                return False, f"t={t}, N={N}: {lhs:.4f} < {rhs:.4f}"
    return True, "derivative power norms dominate the closed-form bound"


def check_winding_segments():
    rng = np.random.default_rng(_RNG_SEED + 7)
    f = RationalFunction.from_spec(PolySpec((2, 1, 1)))
    base = geometry.winding_index(f, 1.3 + 0.6j)
    for _ in range(10):
        omega = 1.3 + 0.6j + 0.04 * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1))
        if geometry.winding_index(f, omega) != base:
            return False, "index jumped within a region"
    return True, "winding constant on probes within one region"


def check_winding_vs_roots():
    rng = np.random.default_rng(_RNG_SEED + 8)
    count = 0
    for _ in range(50):
        deg = int(rng.integers(1, 5))
        coeffs = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        f = RationalFunction.from_spec(PolySpec(tuple(coeffs)))
        omega = complex(rng.standard_normal(), rng.standard_normal())
        try:
            geometry.winding_index(f, omega)
            count += 1
        except geometry.WindingError:
            continue  # omega too close to the image curve: legitimately refused
    ok = count >= 40
    return ok, f"{count}/50 random probes cross-checked (rest near the curve)"


def check_blaschke_sum_rule():
    B = BlaschkeProduct((0, 0.4, -0.3j))
    f = RationalFunction.from_spec(B)
    for omega in (0.05, -0.2 + 0.1j, 0.3j):
        if geometry.winding_index(f, omega) != B.order:
            return False, f"index at {omega} is not the order"
    return True, "order-m Blaschke has index m at interior probes"


def check_index_moebius_invariance():
    spec1 = PolySpec((2, 1, 1))
    phi = MoebiusTransform(0.3, 0.8)
    spec2 = ComposeSpec(spec1, phi)
    m1 = geometry.index_map(spec1, (-1, 5, -3, 3), 120)
    m2 = geometry.index_map(spec2, (-1, 5, -3, 3), 120)
    both = (m1.grid >= 0) & (m2.grid >= 0)
    ok = np.array_equal(m1.grid[both], m2.grid[both])
    return ok, "index map invariant under Moebius precomposition off the bands"


def check_decompose_round_trip():
    g = PolySpec((0, 1, 0, 2))
    B = BlaschkeProduct((0, 0.4))
    f = ComposeSpec(g, B)
    dec = monodromy.decompose(f)
    if dec.m != B.order or dec.residual > 1e-8:
        return False, f"m={dec.m}, residual={dec.residual:.2e}"
    match = classify.moebius_match(dec.outer, g)
    matched = match is not None and match.residual < 1e-8
    # nested inner factors: the maximal one has order 2 * 2
    nested = ComposeSpec(PolySpec((0, 1, 1)), ComposeSpec(
        BlaschkeProduct((0, 0.5)),
        BlaschkeProduct((0.2, -0.1j)),
    ))
    dec4 = monodromy.decompose(nested)
    ok = matched and dec4.m == 4 and dec4.residual < 1e-8
    return ok, (
        f"m={dec.m}, residual={dec.residual:.2e}, matched={matched}; "
        f"nested m={dec4.m}, residual={dec4.residual:.2e}"
    )


def check_verdict_symmetry():
    w = WeightSequence.bergman(1)
    g = PolySpec((0, 1, 0, 2))
    h1 = ComposeSpec(g, BlaschkeProduct((0, 0.4)))
    h2 = ComposeSpec(g, BlaschkeProduct((0.2, -0.5)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        a = classify.similar(h1, h2, w).status
        b = classify.similar(h2, h1, w).status
    return a == b == "similar", f"similar(h1,h2)={a}, similar(h2,h1)={b}"


def check_moebius_precompose_invariance():
    w = WeightSequence.bergman(1)
    g = PolySpec((0, 1, 0, 2))
    h1 = ComposeSpec(g, BlaschkeProduct((0, 0.4)))
    phi = MoebiusTransform(0.25 + 0.1j, 0.7)
    h2 = ComposeSpec(h1, phi)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        v = classify.similar(h1, h2, w)
    return v.status == "similar", f"precomposed verdict {v.status}"


def check_certificate_validity():
    w = WeightSequence.bergman(1)
    cert = classify.douglas_intertwiner(
        BlaschkeProduct((0, 0.5)), w, K=256, n_max=40, attach_riesz=False
    )
    # the rung holds its columns, so cond must not move at 2K either
    s_min, s_max = cert.frame.rebuild(cert.n_max, 2 * cert.K).extremes()
    rel = abs(s_max / s_min - cert.cond) / (s_max / s_min)
    ok = (cert.accepted and cert.residual < 1e-10 and cert.tail < frames.TAIL_BAR
          and rel < 0.05)
    return ok, (
        f"residual {cert.residual:.2e}, cond {cert.cond:.3f} "
        f"(rel change {rel:.2e}, tail {cert.tail:.1e})"
    )


def check_kaplansky_consistency():
    w = WeightSequence.bergman(1)
    g = PolySpec((0, 1, 0, 2))
    rng = np.random.default_rng(_RNG_SEED + 9)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for _ in range(3):
            z1 = 0.4 * rng.uniform(0.3, 1) * np.exp(2j * np.pi * rng.uniform())
            z2 = 0.4 * rng.uniform(0.3, 1) * np.exp(2j * np.pi * rng.uniform())
            h1 = ComposeSpec(g, BlaschkeProduct((0, z1)))
            h2 = ComposeSpec(g, BlaschkeProduct((0, z2)))
            _, _, consistent = classify.kaplansky(h1, h2, w)
            if not consistent:
                return False, "doubled similar without single similar"
    return True, "doubled verdict never outruns the single verdict (3 pairs)"


ALL_CHECKS = [
    ("weights.beta-multiplicative", check_beta_multiplicative),
    ("weights.dual-involution", check_dual_involution),
    ("weights.polygrowth-envelope", check_polygrowth_envelope),
    ("weights.bergman-supval", check_bergman_supval),
    ("series.ring-laws", check_series_ring),
    ("series.cauchy-schwarz", check_cauchy_schwarz),
    ("series.eval-product", check_eval_product),
    ("blaschke.circle-modulus", check_blaschke_modulus),
    ("blaschke.fiber-counts", check_fiber_counts),
    ("blaschke.compose-pointwise", check_compose_pointwise),
    ("blaschke.star-involution", check_star_involution),
    ("operators.shift-mult-identity", check_shift_mult_identity),
    ("operators.calculus-multiplicative", check_calculus_multiplicative),
    ("operators.mult-support", check_mult_support),
    ("operators.moebius-left-inverse", check_moebius_left_inverse),
    ("frames.hardy-orthogonality", check_hardy_orthogonality),
    ("frames.duality-identity", check_duality_identity),
    ("frames.monomial-bounds", check_monomial_frame_bounds),
    ("frames.derivative-power-bound", check_claim_inequality),
    ("geometry.winding-segments", check_winding_segments),
    ("geometry.winding-vs-roots", check_winding_vs_roots),
    ("geometry.blaschke-sum-rule", check_blaschke_sum_rule),
    ("geometry.moebius-invariance", check_index_moebius_invariance),
    ("monodromy.decompose-round-trip", check_decompose_round_trip),
    ("classify.verdict-symmetry", check_verdict_symmetry),
    ("classify.moebius-invariance", check_moebius_precompose_invariance),
    ("classify.certificate-validity", check_certificate_validity),
    ("classify.kaplansky-consistency", check_kaplansky_consistency),
]


def run_all():
    """Run every check, printing one line each; returns (passed, failed, records)."""
    records = []
    passed = failed = 0
    for name, fn in ALL_CHECKS:
        try:
            ok, info = fn()
        except Exception as exc:  # a crashed check is a failed check
            ok, info = False, f"raised {type(exc).__name__}: {exc}"
        records.append({"name": name, "ok": bool(ok), "info": str(info)})
        if ok:
            passed += 1
        else:
            failed += 1
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {info}")
    return passed, failed, records
