
import math
import tracemalloc
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import eigvalsh, svdvals
from scipy.linalg.blas import zherk

from bundlelab import frames, funcspec, operators, series
from bundlelab.blaschke import BlaschkeProduct, MoebiusTransform
from bundlelab.errors import DomainError
from bundlelab.weights import WeightSequence, parse_weight_id

HARDY = WeightSequence.hardy()
BERGMAN = WeightSequence.bergman(1)
ZEROS = {1: (0.5,), 2: (0, 0.5), 3: (0, 0.5, -0.3 + 0.4j)}


def test_monomial_frame_is_identity_block():
    F = frames.build_frame(BlaschkeProduct((0,), np.pi), HARDY, 10, 64)
    A = F.matrix("beta")
    assert np.allclose(A[:11], np.eye(11), atol=1e-14)
    assert np.max(np.abs(A[11:])) < 1e-14


def test_frame_column_is_geometric_kernel():
    # column (j=2, n=0) holds the kernel at 0.5: the geometric series
    F = frames.build_frame(BlaschkeProduct((0, 0.5)), HARDY, 4, 64)
    col = F.matrix("raw")[:, 1]
    assert np.allclose(col[:6], 0.5 ** np.arange(6), atol=1e-14)


def test_frame_column_against_series_oracle():
    B = BlaschkeProduct((0, 0.5))
    F = frames.build_frame(B, BERGMAN, 4, 64)
    b = series.taylor(B, 63)
    kernel = series.poly_series([1], 63)  # kernel direction at the zero 0
    col_ser = series.multiply(b, kernel)
    expect = col_ser.coeffs * BERGMAN.betas(63) / BERGMAN.betas(1)[1]
    got = F.matrix("beta")[:, 1 * 2 + 0]
    assert np.allclose(got, expect, atol=1e-13)


def _mp_rational(P, Q, x):
    """(P/Q)*x to len(x) coefficients by forward substitution in mpmath."""
    y = []
    for i in range(len(x)):
        acc = sum(P[k] * x[i - k] for k in range(min(len(P), i + 1)))
        acc -= sum(Q[k] * y[i - k] for k in range(1, min(len(Q), i + 1)))
        y.append(acc / Q[0])
    return y


def _mp_frame_columns(F):
    """The frame's Taylor columns from the same P/Q recursion at 40 digits."""
    P, Q = funcspec.to_rational(F.product)
    P, Q = [mpmath.mpc(c) for c in P], [mpmath.mpc(c) for c in Q]
    one = mpmath.mpc(1)
    power = [one] + [mpmath.mpc(0)] * (F.K + F.pad - 1)
    cols = []
    for _ in range(F.n_max + 1):
        for zj in F.product.zeros:
            cols.append(_mp_rational([one], [one, -mpmath.mpc(np.conj(zj))], power))
        power = _mp_rational(P, Q, power)
    return cols


@pytest.mark.parametrize("F", [
    frames.build_frame(MoebiusTransform(0.5), HARDY, 100, 512),
    frames.build_frame(BlaschkeProduct((0, 0.5, -0.3 + 0.4j)), HARDY, 40, 256),
], ids=["order-1", "order-3"])
def test_frame_matches_40_digit_recursion(F):
    worst = 0.0
    with mpmath.workdps(40):
        for c, col in enumerate(_mp_frame_columns(F)):
            err = mpmath.fsum(abs(mpmath.mpc(F.taylor[i, c]) - v) ** 2 for i, v in enumerate(col))
            ref = mpmath.fsum(abs(v) ** 2 for v in col)
            worst = max(worst, float(mpmath.sqrt(err / ref)))
    assert worst <= 2e-15


@pytest.mark.parametrize("w", [HARDY, BERGMAN], ids=["hardy", "bergman"])
def test_extremes_match_svdvals(monkeypatch, w):
    calls = []
    monkeypatch.setattr(frames, "svdvals", lambda A: calls.append(1) or svdvals(A))
    F = frames.build_frame(BlaschkeProduct((0, 0.5)), w, 60, 256)
    s = svdvals(F.matrix("beta"))
    s_min, s_max = F.extremes()
    assert not calls, "a well-conditioned frame should take the Gram path"
    assert s_min == pytest.approx(s[-1], rel=1e-12)
    assert s_max == pytest.approx(s[0], rel=1e-12)
    assert F.extremes() == (s_min, s_max)


def test_extremes_fall_back_to_svd_when_ill_conditioned(monkeypatch):
    calls = []
    monkeypatch.setattr(frames, "svdvals", lambda A: calls.append(1) or svdvals(A))
    F = frames.build_frame(MoebiusTransform(0.5), WeightSequence.nln().dual(), 60, 384)
    s = svdvals(F.matrix("beta"))
    assert s[0] / s[-1] > 1e4
    assert F.extremes() == (s[-1], s[0])
    assert F.extremes() == (s[-1], s[0])
    assert calls == [1]


def test_a_frame_whose_column_norms_spread_past_the_route_shift_forms_no_gram_product(monkeypatch):
    # the top two rungs of the reciprocal:nln probe at t 0.5: their squared
    # column norms spread by about 1e10 and 4.5e8
    grams = _spy(monkeypatch, "dsyrk", "zherk")
    for n_max, K in ((400, 1600), (200, 800)):
        F = frames.build_frame(MoebiusTransform(0.5), parse_weight_id("reciprocal:nln"), n_max, K)
        A = F.matrix("beta")
        norms2 = np.sum(A * A, axis=0)
        assert np.max(norms2) > frames._COLUMN_SPREAD * np.min(norms2)
        s = svdvals(A)
        assert F.extremes() == (s[-1], s[0])
    assert grams == []


def test_a_frame_the_gram_ratio_refuses_takes_svdvals_alone(monkeypatch):
    # squared column norms spread by about 8e5: the Gram route runs, and its ratio refuses
    F = frames.build_frame(MoebiusTransform(0.5), parse_weight_id("reciprocal:nln"), 50, 512)
    A = F.matrix("beta")
    norms2 = np.sum(A * A, axis=0)
    assert np.max(norms2) <= frames._COLUMN_SPREAD * np.min(norms2)
    lam = eigvalsh(A.T @ A)
    assert lam[0] <= frames._GRAM_RATIO * lam[-1]
    s = svdvals(A)
    calls = []
    monkeypatch.setattr(frames, "svdvals", lambda A: calls.append(1) or svdvals(A))
    assert F.extremes() == (s[-1], s[0])
    assert calls == [1]


def test_a_wide_block_forms_no_gram_product(monkeypatch):
    grams = _spy(monkeypatch, "dsyrk", "zherk")
    rng = np.random.default_rng(9)
    X = rng.standard_normal((40, 60)) + 1j * rng.standard_normal((40, 60))
    F = frames.FrameMatrix(BlaschkeProduct((0, 0.5)), HARDY, 29, 40, X, pad=0)
    s = svdvals(X)
    assert F.extremes() == (s[-1], s[0])
    assert grams == []


@pytest.mark.parametrize(("B", "dtype"), [
    (MoebiusTransform(0.5), np.float64),
    (BlaschkeProduct(ZEROS[2]), np.float64),
    (BlaschkeProduct(ZEROS[3]), np.complex128),
    # e^{i pi} is -1 + 1.2e-16i, so this P is not real
    (BlaschkeProduct(ZEROS[2], np.pi), np.complex128),
    # P and Q are real, but the kernel factors at 0.5i and -0.5i are not
    (BlaschkeProduct((0.5j, -0.5j)), np.complex128),
], ids=["order-1", "order-2", "order-3", "theta-pi", "conjugate-zeros"])
def test_real_products_get_real_frames(B, dtype):
    F = frames.build_frame(B, BERGMAN, 40, 256)
    assert F.taylor.dtype == dtype
    assert frames.gram(F, "beta").matrix.dtype == dtype


@pytest.mark.parametrize("w", [HARDY, BERGMAN], ids=["hardy", "bergman"])
def test_a_real_frame_has_the_extremes_of_its_complex_cast(monkeypatch, w):
    # the Hardy Pick band is bisected by dpbtrf against zpbtrf; the Bergman band goes dense
    F = frames.build_frame(BlaschkeProduct(ZEROS[2]), w, 100, 512)
    assert F.taylor.dtype == np.float64
    complex_steps = _spy(monkeypatch, "zpbtrf")
    real = F.extremes()
    assert complex_steps == []
    cast = replace(F, taylor=F.taylor.astype(complex)).extremes()
    assert np.allclose(real, cast, rtol=1e-13, atol=0)


def test_a_real_product_has_real_dual_bands(monkeypatch):
    # the Riesz ladder of a real frame on bergman:alpha=1 runs on the dual band
    F = frames.build_frame(BlaschkeProduct(ZEROS[2]), BERGMAN, 100, 512)
    real, complex_ = _spy(monkeypatch, "dpbtrf"), _spy(monkeypatch, "zpbtrf")
    assert frames.riesz_bounds(F).stability["path"] == "band"
    assert complex_ == [] and real


@pytest.mark.parametrize("t", [0.3, 0.5, 0.9])
@pytest.mark.parametrize("wid", ["hardy", "bergman:alpha=1", "nln", "reciprocal:nln", "polygrowth:M=2"])
def test_column_spread_fires_only_where_the_gram_route_refuses(wid, t):
    A = frames.build_frame(MoebiusTransform(t), parse_weight_id(wid), 100, 512).matrix("beta")
    norms2 = np.sum(np.abs(A) ** 2, axis=0)
    lam = eigvalsh(zherk(1.0, A.T), lower=False)
    if np.max(norms2) > frames._COLUMN_SPREAD * np.min(norms2):
        assert lam[0] <= frames._GRAM_RATIO * lam[-1]


def _spy(monkeypatch, *names):
    """Record each call of the module-level ``frames.<name>`` of each name, in one list."""
    calls = []
    for name in names:
        f = getattr(frames, name)
        monkeypatch.setattr(frames, name, lambda *a, f=f, **k: calls.append(1) or f(*a, **k))
    return calls


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("wid", ["hardy", "bergman:alpha=1", "polygrowth:M=2"])
def test_banded_extremes_match_dense_eigvalsh(monkeypatch, wid, order):
    # at crossover 1 every band narrower than the matrix is solved banded
    monkeypatch.setattr(frames, "_BAND_CROSSOVER", 1)
    banded = _spy(monkeypatch, "_band_ends")
    F = frames.build_frame(BlaschkeProduct(ZEROS[order]), parse_weight_id(wid), 100, 512)
    A = F.matrix("beta")
    lam = eigvalsh(A.conj().T @ A)
    s_min, s_max = F.extremes()
    assert banded == [1]
    assert s_min == pytest.approx(np.sqrt(lam[0]), rel=1e-12)
    assert s_max == pytest.approx(np.sqrt(lam[-1]), rel=1e-12)


@pytest.mark.parametrize("order", [1, 2, 3])
def test_hardy_gram_band_is_the_pick_block(order):
    F = frames.build_frame(BlaschkeProduct(ZEROS[order]), HARDY, 100, 512)
    assert frames._gram_band(zherk(1.0, F.matrix("beta").T)) == order - 1


def test_dense_gram_takes_the_dense_route(monkeypatch):
    banded, dense = _spy(monkeypatch, "_band_ends"), _spy(monkeypatch, "eigvalsh")
    rng = np.random.default_rng(9)
    X = rng.standard_normal((200, 60)) + 1j * rng.standard_normal((200, 60))
    F = frames.FrameMatrix(BlaschkeProduct((0, 0.5)), HARDY, 29, 200, X, pad=0)
    assert frames._gram_band(zherk(1.0, X.T)) == 59
    s = svdvals(X)
    s_min, s_max = F.extremes()
    assert (banded, dense) == ([], [1])
    assert s_min == pytest.approx(s[-1], rel=1e-12)
    assert s_max == pytest.approx(s[0], rel=1e-12)


@st.composite
def _hermitian_bands(draw):
    """(G, band): a Hermitian G of band b in upper band storage; b may reach past n."""
    n, b = draw(st.integers(1, 40)), draw(st.integers(0, 45))
    kind = draw(st.sampled_from(["random", "singular", "definite", "integer", "zero"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    if kind == "integer":
        G = np.round(4 * G)
    G = np.triu(np.tril(G + G.conj().T, b), -b) * 10.0 ** draw(st.integers(-8, 8))
    lam = eigvalsh(G)
    if kind == "singular":  # lambda_min at 0, to roundoff
        G -= lam[0] * np.eye(n)
    elif kind == "definite":
        G += (abs(lam[0]) + abs(lam[-1])) * np.eye(n)
    elif kind == "zero":
        G[:] = 0
    band = np.zeros((b + 1, n), dtype=complex, order="F")
    for k in range(min(b, n - 1) + 1):
        band[b - k, k:] = np.diagonal(G, k)
    return G, band


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_hermitian_bands())
@example((np.array([[2.0]]), np.array([[2.0 + 0j]])))  # n = 1, b = 0
@example((np.array([[-1.0]]), np.array([[0j], [0j], [-1.0 + 0j]])))  # n = 1, b = 2
@example((np.diag([3.0, -1.0, 0.0]), np.array([[3, -1, 0]], dtype=complex)))  # b = 0, indefinite
def test_band_ends_match_dense_eigvalsh(case):
    G, band = case
    lam = eigvalsh(G)
    lo, hi = frames._band_ends(band)
    # ||G||_F, not ||G||_2: the dense reference itself was measured up to
    # 14 eps*||G||_2 off (n 58, b 1, against 40-digit mpmath), the ends 1.3
    bound = 4 * band.shape[0] * np.finfo(float).eps * np.linalg.norm(G)
    assert abs(lo - lam[0]) <= bound and abs(hi - lam[-1]) <= bound
    widths, tol = _gershgorin(G)
    for name, end in (("min", lo), ("max", hi)):
        with pytest.MonkeyPatch.context() as mp:
            steps = _spy(mp, "zpbtrf")
            assert frames._band_ends(band, (name,)) == (end,)
        # the safeguard: at most twice the factorizations of plain bisection
        assert len(steps) <= 2 * (math.ceil(math.log2(widths[name] / tol)) if widths[name] > tol else 0)


def _gershgorin(G):
    """The widths of the Gershgorin brackets of G's two ends, and the stop
    tolerance of :func:`frames._band_ends`, 2*eps times the largest row sum."""
    d = np.diagonal(G).real
    off = np.sum(np.abs(G), axis=1) - np.abs(d)
    widths = {"min": np.min(d) - np.min(d - off), "max": np.max(d + off) - np.max(d)}
    return widths, 2 * np.finfo(float).eps * np.max(np.abs(d) + off)


def test_guided_shifts_factor_a_polygrowth_rung_under_40_times(monkeypatch):
    # the n_max 800 rung of this ladder is a real band of width 9 over 1602
    # columns; plain bisection takes 101 factorizations on its two ends and
    # gives these values
    bisected = (0.4996468108980588, 319.6480589028741)
    bands, band_ends = [], frames._band_ends

    def recording(band, which=("min", "max")):
        bands.append(band)
        return band_ends(band, which)

    monkeypatch.setattr(frames, "_band_ends", recording)
    F = frames.build_frame(BlaschkeProduct((0, 0.5)), parse_weight_id("polygrowth:M=2"), 100, 512)
    assert frames.riesz_bounds(F).stability["ladder"][-1]["n_max"] == 800
    band = bands[-1]
    assert band.shape == (10, 1602) and band.dtype == np.float64
    steps = _spy(monkeypatch, "dpbtrf", "zpbtrf")
    ends = band_ends(band)
    G = sum(np.diag(band[9 - k, k:], k) for k in range(10))
    _, tol = _gershgorin(G + np.triu(G, 1).T)
    assert len(steps) <= 40
    assert all(abs(end - want) <= tol for end, want in zip(ends, bisected))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_band_ends_refuse_non_finite_bands(bad):
    band = np.ones((2, 5), dtype=complex, order="F")
    band[1, 3] = bad
    with pytest.raises(ValueError, match="finite"):
        frames._band_ends(band)


def test_build_frame_rejects_repeated_zeros():
    with pytest.raises(DomainError, match="distinct"):
        frames.build_frame(BlaschkeProduct((0.3, 0.3)), HARDY, 4, 64)


def test_build_frame_normalizes_missing_origin():
    # the automorphism swapping 0 and 0.8 moves the zeros to 0 and 0.156
    B = BlaschkeProduct((0.8, 0.85))
    F = frames.build_frame(B, HARDY, 4, 64)
    assert F.conjugator is not None
    assert np.abs(F.product.zeros) == pytest.approx([0.0, 0.05 / 0.32], abs=1e-12)
    # (0.4, -0.2): every swap moves a zero to 0.5, above the product's own 0.4
    kept = frames.build_frame(BlaschkeProduct((0.4, -0.2)), HARDY, 4, 64)
    assert kept.conjugator is None
    assert kept.product.zeros == (0.4, -0.2)
    # the normalized product is the original precomposed with the conjugator
    from bundlelab.blaschke import eval_blaschke

    zs = 0.6 * np.exp(2j * np.pi * np.arange(9) / 9)
    lhs = eval_blaschke(F.product, zs)
    rhs = eval_blaschke(B, eval_blaschke(F.conjugator, zs))
    assert np.max(np.abs(lhs - rhs)) < 1e-12


@pytest.mark.parametrize("zeros", [*ZEROS.values(), (0.4, -0.2), (0.8, 0.85)],
                         ids=["order1", "order2", "order3", "no-zero-at-0", "conjugated"])
@pytest.mark.parametrize("wid", ["hardy", "bergman:alpha=1", "polygrowth:M=2"])
def test_times_matches_dense_multiplication(wid, zeros):
    w = parse_weight_id(wid)
    B = BlaschkeProduct(zeros)
    F = frames.build_frame(B, w, 20, 128)
    # g o B, precomposed with the conjugator as jordan does when there is one
    g = funcspec.PolySpec((0, 1, 0, 2))
    spec = funcspec.ComposeSpec(g, B)
    if F.conjugator is not None:
        spec = funcspec.ComposeSpec(spec, F.conjugator)
    M = operators.mult_matrix(series.taylor(spec, F.K - 1), w, F.K)
    dense = M @ F.matrix("beta")
    got = F.times(*funcspec.to_rational(spec))
    assert np.max(np.abs(got - dense)) <= 1e-12 * np.max(np.abs(dense))


def test_gram_identity_for_monomial_frame():
    F = frames.build_frame(BlaschkeProduct((0,), np.pi), BERGMAN, 12, 64)
    G = frames.gram(F, "beta")
    assert np.allclose(G.matrix, np.eye(13), atol=1e-13)


def test_gram_hardy_block_structure():
    F = frames.build_frame(BlaschkeProduct((0, 0.5)), HARDY, 40, 256)
    G = frames.gram(F, "raw").matrix
    expected = np.array([[1.0, 1.0], [1.0, 4.0 / 3.0]])
    off = G.copy()
    for n in range(41):
        blk = G[2 * n : 2 * n + 2, 2 * n : 2 * n + 2]
        assert np.max(np.abs(blk - expected)) < 1e-8
        off[2 * n : 2 * n + 2, 2 * n : 2 * n + 2] = 0
    assert np.max(np.abs(off)) < 1e-8


def test_gram_tail_bounds_reported():
    F = frames.build_frame(BlaschkeProduct((0, 0.5)), HARDY, 10, 32)
    G = frames.gram(F, "raw")
    assert G.column_tails.shape == (22,)


def _peak_bytes(f, *args):
    f(*args)  # fill the weight caches first
    tracemalloc.start()
    try:
        out = f(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_gram_is_hermitian_and_holds_no_conjugate_copy_of_the_block():
    F = frames.build_frame(BlaschkeProduct(ZEROS[3]), BERGMAN, 100, 512)
    G, peak = _peak_bytes(frames.gram, F, "beta")
    A = F.matrix("beta")
    assert np.array_equal(G.matrix, G.matrix.conj().T)
    assert np.max(np.abs(G.matrix - A.conj().T @ A)) <= 1e-14 * np.max(np.abs(G.matrix))
    # the scaled block and the Gram matrix, plus small change
    assert peak <= 1.1 * (F.taylor.nbytes + G.matrix.nbytes)


def test_build_frame_holds_little_besides_its_block():
    F, peak = _peak_bytes(frames.build_frame, BlaschkeProduct((0, 0.5)), BERGMAN, 200, 1024)
    assert peak <= 1.5 * F.taylor.nbytes


def test_riesz_monomial():
    rep = frames.riesz_bounds(frames.build_frame(BlaschkeProduct((0,), np.pi), HARDY, 16, 64))
    assert rep.c1 == pytest.approx(1.0, abs=1e-12)
    assert rep.c2 == pytest.approx(1.0, abs=1e-12)
    assert rep.verdict == "Riesz-consistent"


def test_riesz_key_regime_stability():
    F = frames.build_frame(BlaschkeProduct((0, 0.5)), BERGMAN, 50, 256)
    rep = frames.riesz_bounds(F)
    assert rep.verdict == "Riesz-consistent"
    assert rep.c1 > 0.01
    assert rep.stability["c1_rel_change"] <= 0.01
    assert rep.stability["c2_rel_change"] <= 0.01


def test_riesz_reports_the_tail_of_its_last_rung():
    # 2*alpha is no integer, so neither beta_k**2 nor its reciprocal is a polynomial
    B = BlaschkeProduct(ZEROS[3])
    w = WeightSequence.bergman(0.75)
    F = frames.build_frame(B, w, 50, 256)
    rep = frames.riesz_bounds(F, max_doublings=1)
    assert rep.stability["path"] == "truncated"
    assert (rep.K, rep.n_max) == (512, 100)
    assert rep.tail == frames.build_frame(B, w, 100, 512).tail()
    assert rep.tail < 1e-3 * F.tail()
    # with 2*alpha an integer, 1/beta_k**2 is a polynomial: the dual band
    F = frames.build_frame(B, BERGMAN, 50, 256)
    assert frames.riesz_bounds(F, max_doublings=1).stability["path"] == "band"


def test_band_riesz_reports_the_tail_of_the_columns_its_fit_read():
    # hardy (d = 0) fits n = 1..3, holds out n = 4 and reads offset 1: n <= 5
    B = BlaschkeProduct(ZEROS[3])
    F = frames.build_frame(B, HARDY, 50, 256)
    rep = frames.riesz_bounds(F)
    assert rep.stability["path"] == "band"
    assert (rep.K, rep.n_max) == (512, 100)
    assert rep.tail == frames.build_frame(B, HARDY, 5, 256).tail()
    assert rep.tail < 1e-50 < F.tail()


POLYNOMIAL_WEIGHTS = ["hardy", "polygrowth:M=1", "polygrowth:M=2", "reciprocal:bergman:alpha=1"]


@st.composite
def _frames(draw, weights):
    """(zeros, weight, n_max): order 1-3, zeros at most 0.6 and 0.1 apart, n_max <= 100."""
    order = draw(st.integers(1, 3))
    zeros = tuple(
        draw(st.floats(0.0, 0.6)) * np.exp(1j * draw(st.floats(0.0, 2.0 * np.pi)))
        for _ in range(order)
    )
    assume(all(abs(a - b) >= 0.1 for i, a in enumerate(zeros) for b in zeros[i + 1 :]))
    return zeros, draw(st.sampled_from(weights)), draw(st.integers(1, 100))


def _held_frame(zeros, w, n_max):
    """The frame of columns n <= n_max whose beta-tail is below 1e-12."""
    F = frames.build_frame(BlaschkeProduct(zeros), w, n_max, 8 * (n_max + 1))
    while F.tail() >= 1e-12:
        F = F.rebuild(n_max, 2 * F.K)
    return F


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(_frames(POLYNOMIAL_WEIGHTS))
@example(((0.45 - 0.3j,), "polygrowth:M=2", 60))  # an order-1 frame with its kernel point
@example(((0j,), "polygrowth:M=2", 1))  # a band of width 2 on 2 columns
def test_band_extremes_match_the_truncated_frame(case):
    zeros, wid, n_max = case
    w = parse_weight_id(wid)
    F = _held_frame(zeros, w, n_max)
    s_min, s_max = F.extremes()
    # the Gram route gives c1 to about n*eps*c2 absolute
    assume(s_max**2 <= 1e4 * s_min**2)
    fit = frames._fit_gram(F)
    assert fit.trusted, (fit.residual, fit.tail, fit.bound)
    band = frames._band_extremal(fit, w, n_max)
    assume(band is not None)  # its error bound beyond the Gram route's
    c1, c2, tail = band
    assert c1 == pytest.approx(s_min**2, rel=1e-9)
    assert c2 == pytest.approx(s_max**2, rel=1e-9)
    assert tail == fit.tail


@pytest.mark.parametrize("wid", ["bergman:alpha=0.75", "polygrowth:M=1.5", "reciprocal:nln"])
def test_riesz_stays_truncated_without_a_polynomial_beta_square(wid):
    w = parse_weight_id(wid)
    assert w.beta_sq_degree is None
    F = frames.build_frame(BlaschkeProduct(ZEROS[2]), w, 20, 128)
    rep = frames.riesz_bounds(F, max_doublings=1)
    assert rep.stability["path"] == "truncated"
    assert rep.stability["fit_residual"] is None
    assert rep.stability["ladder"][0]["c1"] == float(F.extremes()[0] ** 2)


BERGMAN_DUAL_WEIGHTS = [WeightSequence.bergman(a) for a in (0.5, 1.0, 1.5)]


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(_frames(BERGMAN_DUAL_WEIGHTS))
@example(((0.2 + 0.1j, -0.3, 0.45j), BERGMAN, 40))  # order 3, no zero at 0
def test_the_dual_frame_pairs_with_the_beta_frame(case):
    zeros, w, n_max = case
    F = _held_frame(zeros, w, n_max)
    Fd = replace(F, w=w.dual())
    assume(Fd.tail() < 1e-12)
    X = F.matrix("beta")
    Y = (Fd.matrix("beta").reshape(F.K, n_max + 1, F.m) @ frames._dual_map(F.product.zeros)).reshape(F.K, -1)
    assert np.max(np.abs(X.conj().T @ Y - np.eye(X.shape[1]))) <= 1e-11


@settings(max_examples=24, deadline=None, derandomize=True, database=None)
@given(_frames(BERGMAN_DUAL_WEIGHTS))
@example(((0, 0.5, -0.3 + 0.4j), BERGMAN, 50))
def test_dual_band_extremes_interlace_the_truncated_frame(case):
    # the dual band's Gram is the inverse of the Gram of all columns, cut to
    # n <= n_max: the inverse of a Schur complement of the truncated Gram
    zeros, w, n_max = case
    F = _held_frame(zeros, w, n_max)
    s_min, s_max = F.extremes()
    assume(s_max**2 <= 1e4 * s_min**2)  # the Gram route gives c1 to about n*eps*c2
    fit = frames._fit_gram(replace(F, w=w.dual()))
    assert fit.trusted, (fit.residual, fit.tail, fit.bound)
    band = frames._band_extremal(fit, w.dual(), n_max, frames._dual_map(F.product.zeros))
    assume(band is not None)  # its error bound beyond the Gram route's
    c1, c2, tail = band
    assert c1 <= s_min**2 * (1 + 1e-9)
    assert c2 <= s_max**2 * (1 + 1e-9)
    assert tail == fit.tail


def test_a_dual_rung_bisects_three_ends(monkeypatch):
    # of the band before the map only lambda_max, which sizes the bound, is bisected
    F = _held_frame((0, 0.5), BERGMAN, 50)
    fit = frames._fit_gram(replace(F, w=BERGMAN.dual()))
    bands, band_ends = [], frames._band_ends

    def recording(band, which=("min", "max")):
        bands.append((band.copy(), which))
        return band_ends(band, which)

    # the frame is real, so its bands take dpbtrf; both routines are counted
    steps = _spy(monkeypatch, "dpbtrf", "zpbtrf")
    monkeypatch.setattr(frames, "_band_ends", recording)
    c1, c2, _ = frames._band_extremal(fit, BERGMAN.dual(), 50, frames._dual_map(F.product.zeros))
    (before, which_before), (after, which_after) = bands
    assert (which_before, which_after) == (("max",), ("min", "max"))
    rung_steps = len(steps)

    def alone(band, name):
        del steps[:]
        return band_ends(band, (name,))[0], len(steps)

    (top, n_top), (lo, n_lo), (hi, n_hi) = (alone(before, "max"), alone(after, "min"),
                                            alone(after, "max"))
    assert rung_steps == n_top + n_lo + n_hi
    # each end is the one the two-end bisection gives, bit for bit
    assert top == band_ends(before)[1]
    assert (c1, c2) == (1.0 / hi, 1.0 / lo)


def test_an_untrusted_dual_fit_falls_back():
    # at K = 256 the dual frame's columns n <= 17 leave a beta-tail of about 20
    F = frames.build_frame(BlaschkeProduct((0, 0.9)), BERGMAN, 40, 256)
    fit = frames._fit_gram(replace(F, w=BERGMAN.dual()))
    assert fit.tail**2 > fit.bound and not fit.trusted
    rep = frames.riesz_bounds(F, max_doublings=1)
    assert rep.stability["path"] == "truncated"
    assert rep.stability["fit_residual"] == fit.residual
    assert rep.stability["ladder"][0]["c1"] == float(F.extremes()[0] ** 2)


def test_a_fit_that_misses_a_held_out_block_falls_back(monkeypatch):
    # polygrowth:M=1 (d = 2) fits n = 3..11 and holds out n = 12..14; one
    # held-out raw column grows by 1e-9, far above the (K+2)*eps roundoff bound
    matrix = frames.FrameMatrix.matrix

    def perturbed(self, normalization="beta"):
        A = matrix(self, normalization)
        if normalization == "raw":
            A[:, 2 * 13] *= 1.0 + 1e-9
        return A

    monkeypatch.setattr(frames.FrameMatrix, "matrix", perturbed)
    F = frames.build_frame(BlaschkeProduct(ZEROS[2]), WeightSequence.polygrowth(1), 40, 256)
    fit = frames._fit_gram(F)
    assert fit.bound < fit.residual and not fit.trusted
    rep = frames.riesz_bounds(F, max_doublings=1)
    assert rep.stability["path"] == "truncated"
    assert rep.stability["fit_residual"] == fit.residual
    assert rep.stability["ladder"][0]["c1"] == float(F.extremes()[0] ** 2)


def test_a_fit_from_columns_with_a_large_tail_falls_back():
    # at K = 64 the columns n <= 17 that polygrowth:M=1 reads are cut short
    F = frames.build_frame(BlaschkeProduct((0, 0.9)), WeightSequence.polygrowth(1), 40, 64)
    fit = frames._fit_gram(F)
    assert fit.tail**2 > fit.bound and not fit.trusted
    rep = frames.riesz_bounds(F, max_doublings=1)
    assert rep.stability["path"] == "truncated"
    assert rep.tail == F.rebuild(80, 128).tail()


def test_a_band_whose_extrapolation_error_is_too_large_falls_back():
    # d = 12: the fit carries its noise to n = 100 by a factor of about 1e7
    F = frames.build_frame(BlaschkeProduct(ZEROS[2]), WeightSequence.polygrowth(6), 100, 512)
    fit = frames._fit_gram(F)
    assert fit.trusted and frames._band_extremal(fit, F.w, 100) is None
    rep = frames.riesz_bounds(F, max_doublings=1)
    assert rep.stability["path"] == "truncated"


def test_an_ill_conditioned_band_rung_falls_back(monkeypatch):
    monkeypatch.setattr(frames, "_GRAM_RATIO", 0.5)
    F = frames.build_frame(BlaschkeProduct(ZEROS[2]), HARDY, 20, 128)
    rep = frames.riesz_bounds(F)
    assert frames._fit_gram(F).trusted
    assert rep.stability["path"] == "truncated"


@pytest.mark.parametrize("tail, verdict", [(0.03, "inconclusive"), (1e-12, "Riesz-consistent")])
def test_stable_bounds_are_riesz_consistent_only_on_a_held_frame(tail, verdict):
    # every rung gives the same (c1, c2): stable at once, so only the tail decides
    F = frames.build_frame(BlaschkeProduct((0, 0.5)), BERGMAN, 8, 64)
    rep = frames._climb(F, lambda K, n_max: (0.5, 2.0, tail), max_doublings=4)
    assert rep.stability["c1_rel_change"] == rep.stability["c2_rel_change"] == 0.0
    assert len(rep.stability["ladder"]) == 2 and rep.tail == tail
    assert rep.verdict == verdict


def test_riesz_degenerating_on_intermediate_growth():
    recip_nln = WeightSequence.nln().dual()
    F = frames.build_frame(MoebiusTransform(0.5), recip_nln, 60, 384)
    rep = frames.riesz_bounds(F)
    assert rep.verdict == "degenerating"
    ladder = rep.stability["ladder"]
    assert ladder[-1]["c2"] > 10 * ladder[0]["c2"]


# c2 of blaschke(0; 0.5) on bergman:alpha=1 at n_max 50, 100, 200, 400 (band rungs)
_ONE_OVER_N = [9.522, 10.729, 11.377, 11.699]


@pytest.mark.parametrize("values, trend", [
    (_ONE_OVER_N, "converging"),  # log-steps 0.119, 0.059, 0.028: each about half the last
    (_ONE_OVER_N[:3], "open"),  # one step ratio is not two
    ([4.0 * 60.0**k for k in range(4)], "diverging"),  # geometric growth
    ([n**1.5 + 3.0 * n for n in (50, 100, 200, 400)], "diverging"),  # a power: log-steps 0.95, 0.97, 0.99
    ([2.0, 2.0], "converging"),  # flat at once
    ([2.0, 2.5, 2.52], "converging"),  # the last rung moved by 0.8%
    ([1.0, 1.5, 1.2, 1.4], "open"),  # log-steps that change sign
    ([1 + 4e-16, 1 + 7e-16, 1 + 9e-16, 2.9e6], "open"),  # log-steps at roundoff have no ratio
])
def test_ladder_trend(values, trend):
    assert frames.ladder_trend(values) == trend


def test_a_collapsing_value_diverges_though_its_differences_shrink():
    c1 = np.array([1.5e-4, 3.0e-6, 7.0e-8, 1.5e-9, 1.4e-11])
    diffs = -np.diff(c1)
    assert np.all((0.011 <= diffs[1:] / diffs[:-1]) & (diffs[1:] / diffs[:-1] <= 0.032))
    assert frames.ladder_trend(c1) == "diverging"
    assert frames.ladder_trend(c1[:3]) == "open"


def test_riesz_on_bergman_band_ladders_of_a_seeded_family_is_consistent():
    # the draws of a family of 40 products per weight (order 1-3, zeros
    # 0.85 sqrt(U) e^{2 pi i V}, n_max 50, K 512); the bergman ones of order
    # <= 2 take the band path, and 14 of these 53 degenerated under a 10% test
    rng = np.random.default_rng(11)
    seen = 0
    for wid in ("bergman:alpha=1", "polygrowth:M=2", "bergman:alpha=0.5"):
        w = parse_weight_id(wid)
        for _ in range(40):
            order = int(rng.integers(1, 4))
            zeros = 0.85 * np.sqrt(rng.uniform(size=order)) * np.exp(2j * np.pi * rng.uniform(size=order))
            if wid.startswith("bergman") and order <= 2:
                rep = frames.riesz_bounds(frames.build_frame(BlaschkeProduct(tuple(zeros)), w, 50, 512))
                assert (rep.stability["path"], rep.verdict) == ("band", "Riesz-consistent"), (wid, zeros)
                seen += 1
    assert seen == 53


def test_kernel_matrix_examples():
    r = frames.kernel_matrix([0.0])
    assert r.matrix.tolist() == [[1.0]]
    assert r.inverse.tolist() == [[1.0]]
    r2 = frames.kernel_matrix([0.0, 0.5])
    assert np.allclose(r2.matrix, [[1, 1], [1, 4 / 3]])
    det = np.linalg.det(r2.matrix)
    assert det == pytest.approx(1.0 / 3.0, rel=1e-12)
    r3 = frames.kernel_matrix([0.0, 0.5, -0.5])
    assert np.allclose(r3.matrix, [[1, 1, 1], [1, 4 / 3, 0.8], [1, 0.8, 4 / 3]])
    assert r3.min_singular_value > 0
    assert np.max(np.abs(r3.matrix @ r3.inverse - np.eye(3))) < 1e-12


def test_kernel_matrix_validation():
    with pytest.raises(DomainError):
        frames.kernel_matrix([0.2, 0.2])
    with pytest.raises(DomainError):
        frames.kernel_matrix([1.0])


def test_cpb_identity_exact_for_z():
    rep = frames.cpb_check(BlaschkeProduct((0,), np.pi), HARDY, 10, 128)
    assert rep.max_dev < 1e-12


def test_cpb_identity_two_paths():
    rep = frames.cpb_check(BlaschkeProduct((0, 0.5)), HARDY, 30, 512)
    assert rep.max_dev < 1e-8
    rep2 = frames.cpb_check(BlaschkeProduct((0, 0.3j)), BERGMAN, 30, 512)
    assert rep2.max_dev < 1e-8


def test_cpb_needs_zero_at_origin():
    with pytest.raises(DomainError):
        frames.cpb_check(BlaschkeProduct((0.5,)), HARDY, 10, 128)


def test_moebius_duality_identity():
    rep = frames.moebius_duality_check(0.0, HARDY, 20, 128)
    assert rep.scale == 1.0 and rep.max_dev < 1e-12
    rep2 = frames.moebius_duality_check(0.5, HARDY, 40, 512)
    assert rep2.scale == pytest.approx(1.0 / 0.75)
    assert rep2.max_dev < 1e-8
    rep3 = frames.moebius_duality_check(0.3j, BERGMAN, 40, 512)
    assert rep3.scale == pytest.approx(1.0 / 0.91)
    assert rep3.max_dev < 1e-8


def test_column_norm_profile_regimes():
    r_h = frames.column_norm_profile(0.5, HARDY, 60)
    assert r_h[0] == 1.0
    assert np.max(r_h) / np.min(r_h[1:]) < 3.0
    r_b = frames.column_norm_profile(0.5, BERGMAN, 60)
    assert np.max(r_b[10:]) / np.min(r_b[10:]) < 1.5
    recip_nln = WeightSequence.nln().dual()
    r_n = frames.column_norm_profile(0.5, recip_nln, 120)
    assert np.all(np.diff(r_n[20:]) > 0)
    assert r_n[120] > 2 * r_n[20]


@pytest.mark.parametrize(("wid", "t", "recursions"), [
    ("reciprocal:nln", 0.5, []),
    # the tail test fails at K 512, so the profile's own recursion doubles K
    ("hardy", 0.9, [1025, 2049, 4097]),
])
def test_column_norm_profile_reads_the_powers_of_the_frame_build(monkeypatch, wid, t, recursions):
    w = parse_weight_id(wid)
    powers = np.empty((121, 513), dtype=complex)
    frames.build_frame(MoebiusTransform(t), w, 120, 512, powers)
    rows = []
    source = frames._powers
    monkeypatch.setattr(frames, "_powers", lambda B, n: rows.append(n) or source(B, n))
    r = frames.column_norm_profile(t, w, 120, powers)
    assert rows == recursions
    assert np.array_equal(r, frames.column_norm_profile(t, w, 120))


def test_derivative_power_norms_dominate_bound():
    for t in (0.3, 0.5, 0.7):
        for N in range(1, 6):
            lhs = frames.moebius_derivative_power_norm(t, N)
            assert lhs >= frames.derivative_power_lower_bound(t, N)


@st.composite
def _layout_products(draw):
    """Order 2-5, zeros in |z| <= 0.95, some of them clustered near modulus 0.8."""
    order = draw(st.integers(2, 5))
    clustered = draw(st.integers(0, order))
    center = 0.8 * np.exp(1j * draw(st.floats(0.0, 2.0 * np.pi)))
    offset = st.floats(-0.1, 0.1)
    zeros = [center + complex(draw(offset), draw(offset)) for _ in range(clustered)]
    zeros += [draw(st.floats(0.0, 0.95)) * np.exp(1j * draw(st.floats(0.0, 2.0 * np.pi)))
              for _ in range(order - clustered)]
    assume(all(abs(a - b) >= 1e-6 for i, a in enumerate(zeros) for b in zeros[i + 1 :]))
    return zeros, draw(st.permutations(range(order))), draw(st.floats(0.0, 2.0 * np.pi))


def _largest_modulus(F):
    return float(np.max(np.abs(F.product.zeros)))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_layout_products())
def test_frame_layout_lowers_the_largest_zero_modulus_whatever_the_zero_order(case):
    zeros, perm, angle = case
    F = frames.build_frame(BlaschkeProduct(zeros), HARDY, 1, 16)
    assert _largest_modulus(F) <= np.max(np.abs(zeros)) + 1e-12
    moved = np.exp(1j * angle) * np.asarray(zeros)[perm]
    Fm = frames.build_frame(BlaschkeProduct(moved, -len(zeros) * angle), HARDY, 1, 16)
    assert _largest_modulus(Fm) == pytest.approx(_largest_modulus(F), abs=1e-12)
    again = frames.build_frame(F.product, HARDY, 1, 16)
    assert again.conjugator is None and again.product == F.product


def test_moebius_frame_keeps_kernel_point():
    F = frames.build_frame(MoebiusTransform(0.5), HARDY, 8, 64)
    assert F.conjugator is None
    assert F.product.zeros == (0.5,)
