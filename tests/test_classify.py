import hashlib

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bundlelab import classify, frames, monodromy, operators, series
from bundlelab.blaschke import BlaschkeProduct, MoebiusTransform, eval_blaschke
from bundlelab.errors import FiberError
from bundlelab.funcspec import BlaschkeSpec, ComposeSpec, PolySpec, RationalFunction
from bundlelab.weights import WeightSequence

BERGMAN = WeightSequence.bergman(1)
HARDY = WeightSequence.hardy()
G = PolySpec((0, 1, 0, 2))
INNER = BlaschkeProduct((0, 0.4), np.pi)


def _pair(z1, z2):
    return (
        ComposeSpec(G, BlaschkeSpec(BlaschkeProduct(z1))),
        ComposeSpec(G, BlaschkeSpec(BlaschkeProduct(z2))),
    )


def test_douglas_identity_for_z():
    cert = classify.douglas_intertwiner(
        BlaschkeProduct((0,), np.pi), HARDY, K=128, n_max=20, attach_riesz=False
    )
    assert cert.residual == 0.0
    assert cert.cond == pytest.approx(1.0, abs=1e-12)
    assert cert.accepted


def test_douglas_key_regime():
    cert = classify.douglas_intertwiner(
        BlaschkeProduct((0, 0.5)), BERGMAN, K=512, n_max=100, attach_riesz=False
    )
    assert cert.residual < 1e-10
    assert cert.cond_rel_change < 0.05
    assert cert.K == 512  # no ladder climb needed in the stable regime
    assert cert.accepted


def test_douglas_fails_on_intermediate_growth():
    recip_nln = WeightSequence.nln().dual()
    with pytest.warns(UserWarning, match="polynomial growth"):
        cert = classify.douglas_intertwiner(
            MoebiusTransform(0.5), recip_nln, K=256, n_max=60
        )
    assert not cert.accepted
    assert cert.riesz.verdict == "degenerating"


def test_moebius_match_identity_among_solutions():
    m = classify.moebius_match(PolySpec((0, 0, 1)), PolySpec((0, 0, 1)))
    assert m is not None
    # phi(z) = e^{i pi}(0 - z) is the identity; phi(z) = -z also matches z^2
    ids = [c for c in m.candidates if abs(c["theta"] - np.pi) < 1e-6]
    assert ids and abs(complex(*c["z0"]) if (c := ids[0])["z0"] else 0) < 1e-8


def test_moebius_match_recovers_parameters():
    g2 = ComposeSpec(PolySpec((0, 0, 1)), BlaschkeSpec(MoebiusTransform(0.3)))
    m = classify.moebius_match(PolySpec((0, 0, 1)), g2)
    assert m is not None
    assert m.transform.z0 == pytest.approx(0.3, abs=1e-6)
    assert m.transform.theta == pytest.approx(0.0, abs=1e-6)
    assert m.residual < 1e-8


def test_moebius_match_degree_mismatch_empty():
    assert classify.moebius_match(G, PolySpec((0, 0, 1))) is None


def test_moebius_match_functional_identity():
    phi_true = MoebiusTransform(0.25 - 0.15j, 1.1)
    g2 = ComposeSpec(G, BlaschkeSpec(phi_true))
    m = classify.moebius_match(G, g2)
    assert m is not None and m.residual < 1e-8
    g1 = RationalFunction.from_spec(G)
    g2r = RationalFunction.from_spec(g2)
    zs = 0.3 * np.exp(2j * np.pi * np.arange(12) / 12)
    dev = np.max(np.abs(g2r.value(zs) - g1.value(eval_blaschke(m.transform, zs))))
    assert dev < 1e-8


def test_jordan_trivial_for_indecomposable():
    j = classify.jordan(G, BERGMAN, attach_riesz=False)
    assert j.m == 1
    assert j.certificate is None
    assert j.direct_residual == 0.0


def test_jordan_composite():
    f = ComposeSpec(G, BlaschkeSpec(BlaschkeProduct((0, 0.4))))
    j = classify.jordan(f, BERGMAN, attach_riesz=False)
    assert j.m == 2
    assert j.certificate.accepted
    assert j.direct_residual < 1e-8
    assert j.checked_columns > 0


def test_jordan_pure_blaschke_on_hardy():
    # an order-2 product decomposes fully: trivial (Moebius) outer part
    B = BlaschkeProduct((0, 0.4), np.pi)
    j = classify.jordan(BlaschkeSpec(B), HARDY, attach_riesz=False)
    assert j.m == 2
    assert j.outer.degree == 1  # Moebius outer
    assert monodromy.outer_taylor(j.outer).size < 60
    assert j.direct_residual < 1e-10
    assert j.certificate.accepted


def test_similar_positive_pair():
    h1, h2 = _pair((0, 0.4), (0.2, -0.5))
    v = classify.similar(h1, h2, BERGMAN)
    assert v.status == "similar"
    assert v.exit_code == 0
    assert v.evidence["m1"] == v.evidence["m2"] == 2
    assert v.evidence["match"]["residual"] < 1e-8


def test_similar_order_mismatch():
    h1 = ComposeSpec(G, BlaschkeSpec(BlaschkeProduct((0, 0.4))))
    h3 = ComposeSpec(G, BlaschkeSpec(BlaschkeProduct((0.2, -0.5, 0.1))))
    v = classify.similar(h1, h3, BERGMAN)
    assert v.status == "not_similar"
    assert v.reason == "order mismatch"
    assert v.exit_code == 1


def test_similar_direct_square_pair():
    h1 = PolySpec((0, 0, 1))
    h2 = ComposeSpec(PolySpec((0, 0, 1)), BlaschkeSpec(MoebiusTransform(0.3)))
    v = classify.similar(h1, h2, BERGMAN)
    assert v.status == "similar"


def test_similar_symmetry():
    h1, h2 = _pair((0, 0.4), (0.2, -0.5))
    assert classify.similar(h1, h2, BERGMAN).status == classify.similar(
        h2, h1, BERGMAN
    ).status


def test_similar_moebius_precomposition():
    h1 = ComposeSpec(G, BlaschkeSpec(BlaschkeProduct((0, 0.4))))
    phi = MoebiusTransform(0.2 + 0.1j, 0.9)
    h2 = ComposeSpec(h1, BlaschkeSpec(phi))
    assert classify.similar(h1, h2, BERGMAN).status == "similar"


def test_kaplansky_consistency():
    h1, h2 = _pair((0, 0.4), (0.2, -0.5))
    double, single, consistent = classify.kaplansky(h1, h2, BERGMAN)
    assert double.status == single.status == "similar"
    assert double.evidence["m1_doubled"] == 4
    assert consistent
    h3 = ComposeSpec(G, BlaschkeSpec(BlaschkeProduct((0.2, -0.5, 0.1))))
    d2, s2, c2 = classify.kaplansky(h1, h3, BERGMAN)
    assert d2.status == s2.status == "not_similar"
    assert c2


def test_counterexample_probe_divergence():
    recip_nln = WeightSequence.nln().dual()
    rep = classify.counterexample_probe(0.5, recip_nln, n_max=200)
    assert rep.verdict == "no bounded similarity at probed scales"
    assert rep.slope > 0.05
    assert rep.cond_ratio > 1.5


def test_counterexample_probe_stable():
    rep = classify.counterexample_probe(0.5, BERGMAN, n_max=200)
    assert rep.verdict == "similarity-consistent"
    assert rep.growth_ratio < 1.1
    assert rep.cond_ratio < 1.1


def test_counterexample_probe_tiny_parameter():
    rep = classify.counterexample_probe(1e-6, HARDY, n_max=40)
    assert np.max(np.abs(rep.profile - 1.0)) < 1e-4


def test_verdict_serialization():
    h1, h2 = _pair((0, 0.4), (0.2, -0.5))
    v = classify.similar(h1, h2, BERGMAN)
    d = v.to_dict()
    assert d["status"] == "similar"
    assert "m1" in d["evidence"]


def test_certificate_residual_nonincreasing_under_doubling():
    # the residual is attributable to truncation only: doubling K cannot
    # worsen it beyond the roundoff floor
    c1 = classify.douglas_intertwiner(
        BlaschkeProduct((0, 0.5)), BERGMAN, K=256, n_max=40, attach_riesz=False
    )
    c2 = classify.douglas_intertwiner(
        BlaschkeProduct((0, 0.5)), BERGMAN, K=512, n_max=40, attach_riesz=False
    )
    floor = 1e-12
    assert c2.residual <= max(c1.residual, floor)
    assert abs(c2.cond - c1.cond) / c1.cond < 0.05


def test_jordan_builds_each_frame_and_svd_once(monkeypatch):
    built, grams, svds = [], [], []
    build_frame, zherk, svdvals = frames.build_frame, frames.zherk, frames.svdvals

    def digest(A):
        return hashlib.sha256(np.ascontiguousarray(A).tobytes()).hexdigest()

    def counting_build(B, w, n_max, K, **kw):
        built.append((n_max, K))
        return build_frame(B, w, n_max, K, **kw)

    def counting_zherk(alpha, a, **kw):
        grams.append(digest(a))
        return zherk(alpha, a, **kw)

    def counting_svdvals(A):
        svds.append(digest(A))
        return svdvals(A)

    monkeypatch.setattr(frames, "build_frame", counting_build)
    monkeypatch.setattr(frames, "zherk", counting_zherk)
    monkeypatch.setattr(frames, "svdvals", counting_svdvals)
    res = classify.jordan(ComposeSpec(G, BlaschkeSpec(BlaschkeProduct((0, 0.4)))), BERGMAN)
    assert res.m == 2 and res.certificate.accepted
    assert len(built) == len(set(built)), f"a frame was built twice: {built}"
    # every frame built gets its extremes, from its Gram matrix, exactly once
    assert len(grams) == len(built), (len(grams), built)
    assert len(grams) == len(set(grams)), "a frame's Gram matrix was formed twice"
    assert len(svds) == len(set(svds)), "a frame's SVD was taken twice"


def test_intertwiner_residuals_match_dense_formulas():
    # the README pair, against the K x K products the residuals stand for
    for spec in _pair((0, 0.4), (0.2, -0.5)):
        res = classify.jordan(spec, BERGMAN, attach_riesz=False)
        F, m, n_max = res.certificate.frame, res.m, res.certificate.n_max
        X = F.matrix("beta")
        MB = operators.mult_matrix(
            series.taylor(BlaschkeSpec(F.product), F.K - 1), BERGMAN, F.K).entries
        shift = np.zeros((X.shape[1], X.shape[1]), dtype=complex)
        ws = BERGMAN.weights(n_max + 1)
        for n in range(n_max):
            for j in range(m):
                shift[(n + 1) * m + j, n * m + j] = ws[n]
        douglas = np.max(np.abs((MB @ X - X @ shift)[:, : m * n_max]))
        inner = spec if F.conjugator is None else ComposeSpec(spec, BlaschkeSpec(F.conjugator))
        Mf = operators.mult_matrix(series.taylor(inner, F.K - 1), BERGMAN, F.K).entries
        impulse = np.eye(1, n_max + 1, dtype=complex)[0]
        Mh = operators.mult_matrix(series.PowerSeries(
            series.rational(res.outer.P, res.outer.Q, impulse)), BERGMAN, n_max + 1).entries
        R = Mf @ X - X @ np.kron(Mh, np.eye(m))
        direct = np.max(np.abs(R[:, : res.checked_columns]))
        assert res.certificate.residual == pytest.approx(douglas, abs=1e-12)
        assert res.direct_residual == pytest.approx(direct, abs=1e-12)


def test_intertwiners_form_no_matrix_beyond_the_outer_block(monkeypatch):
    sizes = []
    mult_matrix = operators.mult_matrix

    def counting_mult_matrix(f, w, K):
        sizes.append(K)
        return mult_matrix(f, w, K)

    monkeypatch.setattr(operators, "mult_matrix", counting_mult_matrix)
    cert = classify.douglas_intertwiner(
        BlaschkeProduct((0, 0.5)), BERGMAN, K=256, n_max=40, attach_riesz=False
    )
    assert cert.accepted and sizes == []
    res = classify.jordan(ComposeSpec(G, BlaschkeSpec(BlaschkeProduct((0, 0.4)))), BERGMAN)
    assert res.m == 2 and res.certificate.accepted
    assert sizes and max(sizes) <= res.certificate.n_max + 1, sizes


def test_douglas_needs_an_interior_column():
    with pytest.raises(ValueError, match="n_max >= 1"):
        classify.douglas_intertwiner(BlaschkeProduct((0, 0.5)), BERGMAN, K=64, n_max=0)


@st.composite
def _moebius_pairs(draw):
    """g and g o phi_a: g a polynomial of degree 2-3, |a| <= 0.99, any phase."""
    parts = st.floats(-2.0, 2.0)
    g = [complex(draw(parts), draw(parts)) for _ in range(draw(st.integers(3, 4)))]
    assume(abs(g[-1]) > 0.1)
    # drawn from the edge inward, so that |a| near 0.99 is tried often
    a = (0.99 - draw(st.floats(0.0, 0.99))) * np.exp(1j * draw(st.floats(0.0, 2.0 * np.pi)))
    phi = MoebiusTransform(a, draw(st.floats(0.0, 2.0 * np.pi)))
    return PolySpec(tuple(g)), ComposeSpec(PolySpec(tuple(g)), BlaschkeSpec(phi)), a


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_moebius_pairs())
def test_similar_never_denies_a_moebius_precomposition(pair):
    g, g_phi, a = pair
    v = classify.similar(g, g_phi, BERGMAN)
    # near the circle a certificate may fail too, so only a denial is wrong there
    if abs(a) <= 0.9:
        assert v.status == "similar", v.reason
    else:
        assert v.status != "not_similar", v.reason


def test_preimage_on_the_circle_is_not_a_seed():
    # z + z^2 vanishes at 0 and at -1: the root on the circle cannot be phi(0)
    g = PolySpec((0, 1, 1))
    assert RationalFunction.from_spec(g).preimages(0.0) == [0.0]
    assert classify.moebius_match(g, G) is None
    assert classify.similar(g, G, BERGMAN).status == "not_similar"
    assert classify.similar(G, g, BERGMAN).status == "not_similar"


def _scripted_match(monkeypatch, results):
    """Make moebius_match return (or raise) each of results in turn."""
    calls = iter(results)

    def fake(g1, g2):
        out = next(calls)
        if isinstance(out, Exception):
            raise out
        return out

    monkeypatch.setattr(classify, "moebius_match", fake)


def test_similar_tries_the_reverse_match_after_an_incomplete_one(monkeypatch):
    found = classify.MoebiusMatch(MoebiusTransform(0.5, 0.3), 1e-12)
    _scripted_match(monkeypatch, [FiberError("seed skipped"), found])
    v = classify.similar(G, G, BERGMAN)
    assert v.status == "similar"
    assert v.evidence["match"]["residual"] == 1e-12


@pytest.mark.parametrize("forward, reverse, status", [
    (FiberError("forward skipped"), None, "inconclusive"),
    (None, FiberError("reverse skipped"), "inconclusive"),
    (None, None, "not_similar"),
])
def test_similar_denies_only_after_two_complete_searches(monkeypatch, forward, reverse,
                                                          status):
    _scripted_match(monkeypatch, [forward, reverse])
    v = classify.similar(G, G, BERGMAN)
    assert v.status == status, v.reason
    if status == "inconclusive":
        assert v.reason.startswith("Moebius match incomplete: ")
        assert "skipped" in v.reason


def test_seed_at_the_z0_limit_makes_the_match_incomplete():
    # phi(0) = 0.9995 is the only seed that could match, and it lies beyond
    # the refinement limit 0.999: the search is incomplete in both directions
    g = PolySpec((0, 1, 0, 2))
    g_phi = ComposeSpec(g, BlaschkeSpec(MoebiusTransform(0.9995)))
    with pytest.raises(FiberError, match="beyond radius 0.999"):
        classify.moebius_match(g, g_phi)
    v = classify.similar(g, g_phi, BERGMAN)
    assert v.status == "inconclusive"
    assert v.reason.startswith("Moebius match incomplete: ") and "0.999" in v.reason
