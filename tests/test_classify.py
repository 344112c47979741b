import hashlib

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bundlelab import classify, frames, monodromy, operators, series
from bundlelab.blaschke import BlaschkeProduct, MoebiusTransform, eval_blaschke, fiber_roots
from bundlelab.errors import FiberError
from bundlelab.funcspec import ComposeSpec, PolySpec, RationalFunction, parse_function_spec
from bundlelab.weights import WeightSequence, parse_weight_id

BERGMAN = WeightSequence.bergman(1)
HARDY = WeightSequence.hardy()
G = PolySpec((0, 1, 0, 2))
INNER = BlaschkeProduct((0, 0.4), np.pi)


def _pair(z1, z2):
    return (
        ComposeSpec(G, BlaschkeProduct(z1)),
        ComposeSpec(G, BlaschkeProduct(z2)),
    )


def test_douglas_identity_for_z():
    cert = classify.douglas_intertwiner(
        BlaschkeProduct((0,), np.pi), HARDY, K=128, n_max=20, attach_riesz=False
    )
    assert cert.residual == 0.0
    assert cert.cond == pytest.approx(1.0, abs=1e-12)
    assert cert.accepted


def test_douglas_key_regime(monkeypatch):
    built = []
    build_frame = frames.build_frame

    def counting_build(B, w, n_max, K):
        built.append((n_max, K))
        return build_frame(B, w, n_max, K)

    monkeypatch.setattr(frames, "build_frame", counting_build)
    cert = classify.douglas_intertwiner(
        BlaschkeProduct((0, 0.5)), BERGMAN, K=512, n_max=100, attach_riesz=False
    )
    assert cert.residual < 1e-10
    # the first rung holds its columns: no ladder climb, and no other frame
    assert cert.K == 512 and cert.tail < frames.TAIL_BAR
    assert built == [(100, 512)]
    assert cert.accepted


def test_douglas_polygrowth_ladder_keeps_its_rungs_and_values():
    cert = classify.douglas_intertwiner(BlaschkeProduct((0, 0.5)), WeightSequence.polygrowth(2))
    rep = cert.riesz
    ladder = rep.stability["ladder"]
    assert rep.stability["path"] == "band"
    assert [(r["K"], r["n_max"]) for r in ladder] == [(512, 100), (1024, 200), (2048, 400), (4096, 800)]
    assert (rep.K, rep.n_max, rep.verdict) == (4096, 800, "Riesz-consistent")
    assert rep.c1 == pytest.approx(0.4996468108979858, rel=1e-10)
    assert [r["c2"] for r in ladder] == pytest.approx(
        [298.2174140946029, 310.4588046723624, 316.6095884476706, 319.6480589029723], rel=1e-10
    )
    assert cert.accepted


def test_douglas_takes_no_extremes_of_a_rung_that_cannot_end_its_ladder(monkeypatch):
    # a zero at 0.8: at K = 512 its columns leave a beta-tail of 8e-2 in the
    # pad rows, so that rung cannot end the ladder
    B = BlaschkeProduct((0, 0.8))
    assert frames.build_frame(B, BERGMAN, 60, 512).tail() >= frames.TAIL_BAR
    seen = []
    extremes = frames.FrameMatrix.extremes

    def counting(self):
        seen.append(self.K)
        return extremes(self)

    monkeypatch.setattr(frames.FrameMatrix, "extremes", counting)
    cert = classify.douglas_intertwiner(B, BERGMAN, K=512, n_max=60, attach_riesz=False)
    # K 1024 holds its columns, so it ends the ladder
    assert seen == [1024]
    assert (cert.K, cert.accepted) == (1024, True)
    assert cert.tail < frames.TAIL_BAR
    # the value the ladder gave when it took the extremes of every rung
    assert cert.cond == pytest.approx(12.536248847818486, rel=1e-10)


def test_douglas_certifies_a_product_with_zeros_clustered_off_centre():
    # precomposed with the swap of 0 and 0.8 its zeros are 0 and 0.156; laid
    # out as given, the ladder climbs to K 4096 and the Riesz report is degenerating
    cert = classify.douglas_intertwiner(BlaschkeProduct((0.8, 0.85)), BERGMAN)
    assert cert.frame.conjugator is not None
    assert (cert.K, cert.accepted) == (512, True)


@pytest.mark.parametrize("cap", [512, 2048])
def test_douglas_refuses_a_cond_at_roundoff(monkeypatch, cap):
    # a zero at 0.8 climbs to K 1024, which holds its columns, so a cap of
    # 2048 lets the cond be the first condition that fails; at cap 512 the
    # K 512 rung ends the ladder with a beta-tail of 8e-2, which fails first
    monkeypatch.setattr(classify, "_K_CAP", cap)
    monkeypatch.setattr(frames.FrameMatrix, "extremes", lambda self: (np.float64(1e-17), np.float64(1.0)))
    cert = classify.douglas_intertwiner(BlaschkeProduct((0, 0.8)), BERGMAN, K=512, n_max=60,
                                        attach_riesz=False)
    assert cert.residual < 1e-8 and cert.cond == 1e17
    assert cert.accepted is False  # a bool, as the JSON output needs
    if cap == 512:
        assert cert.K == 512 and cert.tail >= frames.TAIL_BAR
        assert cert.failed_condition().startswith("the frame does not hold its columns at K 512")
    else:
        assert cert.K == 1024 and cert.tail < frames.TAIL_BAR
        assert cert.failed_condition().startswith("cond 1e+17 is at roundoff")


# f o phi_a for the README f at two a whose certificates hold their columns
# only past K 2048; at K 2048 the cond of the first a is 2.6% above the value
# below and that of the second 7.7 times it
F_README = "compose(poly(0,1,0,2),blaschke(0;0,0.4))"


@pytest.mark.parametrize("a,cond", [
    ("0.04384472096353069+0.6629338069036286i", 24.614588324203236),
    ("0.044302833958292716+0.6746723632108435i", 26.185443640015812),
])
def test_certificate_climbs_past_2048_until_its_frame_holds_its_columns(a, cond):
    verdict = classify.similar(parse_function_spec(f"compose({F_README},moebius(0;{a}))"),
                               parse_function_spec(F_README), BERGMAN)
    cert = verdict.evidence["certificate1"]
    assert verdict.status == "similar", verdict.to_dict()
    assert cert["K"] == 4096 and cert["tail"] < frames.TAIL_BAR
    assert cert["cond"] == pytest.approx(cond, rel=1e-9)


def test_similar_names_a_cond_at_roundoff(monkeypatch):
    monkeypatch.setattr(frames.FrameMatrix, "extremes", lambda self: (np.float64(1e-17), np.float64(1.0)))
    verdict = classify.similar(parse_function_spec(F_README),
                               parse_function_spec("compose(poly(0,1,0,2),blaschke(0;0.2,-0.5))"), BERGMAN)
    assert verdict.status == "inconclusive"
    assert verdict.reason == ("certificate1 failed (cond 1e+17 is at roundoff: "
                              "cond*eps is not below 1e-8)")


# draws 0-79 of products of order 2-3 with zeros of modulus up to 0.999,
# their weights cycling through _FAMILY_WEIGHTS; these are the draws whose
# ladders start at K 512 and reach K 4096 (at a cap of 2048, six of them
# held a cond within 5% of its value at 2K while their tails were above the bar)
_FAMILY_WEIGHTS = ("hardy", "bergman:alpha=1", "polygrowth:M=2", "bergman:alpha=0.3")
_FAMILY_CAPPED = (11, 13, 25, 26, 31, 33, 37, 49, 50, 55, 69, 72, 79)


def test_every_accepted_certificate_holds_its_columns_and_its_cond():
    rng = np.random.default_rng(3)
    draws = []
    for _ in range(80):
        order = int(rng.integers(2, 4))
        draws.append(0.999 * np.sqrt(rng.uniform(0, 1, order))
                     * np.exp(2j * np.pi * rng.uniform(0, 1, order)))
    rungs, accepted = [], 0
    for k in _FAMILY_CAPPED:
        w = parse_weight_id(_FAMILY_WEIGHTS[k % 4])
        cert = classify.douglas_intertwiner(BlaschkeProduct(tuple(draws[k])), w, K=512, n_max=60,
                                            attach_riesz=False)
        rungs.append(cert.K)
        if cert.accepted:
            accepted += 1
            assert cert.tail < frames.TAIL_BAR, k
            s_min, s_max = cert.frame.rebuild(60, 2 * cert.K).extremes()
            assert s_max / s_min == pytest.approx(cert.cond, rel=1e-9), k
    assert rungs == [4096] * len(_FAMILY_CAPPED) and accepted == 8


# the order-3 side of the unequal pair of the verdict-pairs benchmark
VERDICT_ORDER3 = (0.03453317204667223 - 0.30897730947590474j,
                  0.23181962884561333 + 0.17506405126000799j,
                  0.22881508384751842 + 0.2732465636642274j)


def test_jordan_certificate_follows_no_rotation_of_the_input():
    seen = []
    for k in range(8):
        angle = 2 * np.pi * k / 8
        # f(e^{-i angle} z): the zeros turn by angle, the phase by -3 angle
        B = BlaschkeProduct(np.exp(1j * angle) * np.array(VERDICT_ORDER3), -3 * angle)
        cert = classify.jordan(ComposeSpec(G, B), BERGMAN).certificate
        assert cert.accepted
        seen.append((cert.K, cert.cond))
    K0, cond0 = seen[0]
    for K, cond in seen:
        assert K == K0 and cond == pytest.approx(cond0, rel=1e-9), seen


def test_nested_composition_is_similar_to_itself():
    nested = parse_function_spec(
        "compose(poly(0,1,1),compose(blaschke(0;0,0.5),blaschke(0;0.2,-0.1i)))")
    verdict = classify.similar(nested, nested, BERGMAN)
    assert verdict.status == "similar", verdict.to_dict()


def test_douglas_fails_on_intermediate_growth():
    recip_nln = WeightSequence.nln().dual()
    with pytest.warns(UserWarning, match="polynomial growth"):
        cert = classify.douglas_intertwiner(
            MoebiusTransform(0.5), recip_nln, K=256, n_max=60
        )
    assert not cert.accepted
    assert cert.riesz.verdict == "degenerating"


def test_the_near_circle_inner_factor_spreads_no_subnormal_part():
    # decompose finds the inner zero 0.998058 - 8.77e-319i: kept as it is, its
    # imaginary part reaches 66025 of the 70272 entries of this frame as
    # subnormal numbers, whose arithmetic is slow
    spec = parse_function_spec("compose(compose(poly(0,1,0,2),blaschke(0;0,0.4)),moebius(0;0.96))")
    inner = monodromy.decompose(spec).inner
    assert max(abs(z.imag) for z in inner.zeros) == 0.0
    F = frames.build_frame(inner, BERGMAN, 60, 512)
    parts = np.concatenate([F.taylor.real.ravel(), F.taylor.imag.ravel()])
    assert np.count_nonzero((parts != 0) & (np.abs(parts) < np.finfo(float).tiny)) == 0


def test_a_certificate_refused_for_its_tail_takes_no_riesz_ladder(monkeypatch):
    called = []
    monkeypatch.setattr(frames, "riesz_bounds", lambda F: called.append(F))
    cert = classify.douglas_intertwiner(BlaschkeProduct((0, 0.95)), parse_weight_id("bergman:alpha=0.3"))
    assert cert.K == classify._K_CAP and cert.tail >= frames.TAIL_BAR
    assert (cert.riesz, cert.accepted, called) == (None, False, [])


def test_moebius_match_identity_among_solutions():
    m = classify.moebius_match(PolySpec((0, 0, 1)), PolySpec((0, 0, 1)))
    assert m is not None
    # phi(z) = e^{i pi}(0 - z) is the identity; phi(z) = -z also matches z^2
    assert abs(m.transform.z0) < 1e-8 and m.residual < 1e-8


def test_moebius_match_recovers_parameters():
    g2 = ComposeSpec(PolySpec((0, 0, 1)), MoebiusTransform(0.3))
    m = classify.moebius_match(PolySpec((0, 0, 1)), g2)
    assert m is not None
    assert m.transform.z0 == pytest.approx(0.3, abs=1e-6)
    assert m.transform.theta == pytest.approx(0.0, abs=1e-6)
    assert m.residual < 1e-8


def test_moebius_match_degree_mismatch_empty():
    assert classify.moebius_match(G, PolySpec((0, 0, 1))) is None


def test_moebius_match_functional_identity():
    phi_true = MoebiusTransform(0.25 - 0.15j, 1.1)
    g2 = ComposeSpec(G, phi_true)
    m = classify.moebius_match(G, g2)
    assert m is not None and m.residual < 1e-8
    g1 = RationalFunction.from_spec(G)
    g2r = RationalFunction.from_spec(g2)
    zs = 0.3 * np.exp(2j * np.pi * np.arange(12) / 12)
    dev = np.max(np.abs(g2r.value(zs) - g1.value(eval_blaschke(m.transform, zs))))
    assert dev < 1e-8


def test_jordan_trivial_for_indecomposable():
    j = classify.jordan(G, BERGMAN)
    assert j.decomposition.m == 1
    assert j.certificate is None
    assert j.direct_residual == 0.0


def test_jordan_composite():
    f = ComposeSpec(G, BlaschkeProduct((0, 0.4)))
    j = classify.jordan(f, BERGMAN)
    assert j.decomposition.m == 2
    assert j.certificate.accepted
    assert j.direct_residual < 1e-8
    assert j.checked_columns > 0


def test_jordan_pure_blaschke_on_hardy():
    # an order-2 product decomposes fully: trivial (Moebius) outer part
    B = BlaschkeProduct((0, 0.4), np.pi)
    j = classify.jordan(B, HARDY)
    assert j.decomposition.m == 2
    assert j.decomposition.outer.degree == 1  # Moebius outer
    assert monodromy.outer_taylor(j.decomposition.outer).size < 60
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
    h1 = ComposeSpec(G, BlaschkeProduct((0, 0.4)))
    h3 = ComposeSpec(G, BlaschkeProduct((0.2, -0.5, 0.1)))
    v = classify.similar(h1, h3, BERGMAN)
    assert v.status == "not_similar"
    assert v.reason == "order mismatch"
    assert v.exit_code == 1


def test_similar_direct_square_pair():
    h1 = PolySpec((0, 0, 1))
    h2 = ComposeSpec(PolySpec((0, 0, 1)), MoebiusTransform(0.3))
    v = classify.similar(h1, h2, BERGMAN)
    assert v.status == "similar"


def test_similar_symmetry():
    h1, h2 = _pair((0, 0.4), (0.2, -0.5))
    assert classify.similar(h1, h2, BERGMAN).status == classify.similar(
        h2, h1, BERGMAN
    ).status


def test_similar_moebius_precomposition():
    h1 = ComposeSpec(G, BlaschkeProduct((0, 0.4)))
    phi = MoebiusTransform(0.2 + 0.1j, 0.9)
    h2 = ComposeSpec(h1, phi)
    assert classify.similar(h1, h2, BERGMAN).status == "similar"


def test_kaplansky_consistency():
    h1, h2 = _pair((0, 0.4), (0.2, -0.5))
    double, single, consistent = classify.kaplansky(h1, h2, BERGMAN)
    assert double.status == single.status == "similar"
    assert double.evidence["m1_doubled"] == 4
    assert consistent
    h3 = ComposeSpec(G, BlaschkeProduct((0.2, -0.5, 0.1)))
    d2, s2, c2 = classify.kaplansky(h1, h3, BERGMAN)
    assert d2.status == s2.status == "not_similar"
    assert c2


def test_counterexample_probe_divergence():
    recip_nln = WeightSequence.nln().dual()
    rep = classify.counterexample_probe(0.5, recip_nln, n_max=200)
    assert rep.verdict == "no bounded similarity at probed scales"
    assert rep.cond_trend == rep.profile_trend == "diverging"


def test_counterexample_probe_stable():
    rep = classify.counterexample_probe(0.5, BERGMAN, n_max=200)
    assert rep.verdict == "similarity-consistent"
    assert rep.cond_trend == rep.profile_trend == "converging"


@pytest.mark.parametrize("n_max", [200, 20])
def test_counterexample_probe_builds_one_frame(monkeypatch, n_max):
    built = []
    build_frame = frames.build_frame

    def counting_build(B, w, n_max, K, *powers):
        built.append((n_max, K))
        return build_frame(B, w, n_max, K, *powers)

    monkeypatch.setattr(frames, "build_frame", counting_build)
    rep = classify.counterexample_probe(0.5, BERGMAN, n_max=n_max)
    # the largest rung, N 64 above n_max 20 too, gives every rung as its leading block
    top = max(r["n_max"] for r in rep.ladder)
    assert built == [(top, max(512, 4 * top))]
    for rung in rep.ladder:
        s_min, s_max = build_frame(MoebiusTransform(0.5), BERGMAN, rung["n_max"], rung["K"]).extremes()
        assert rung["cond"] == float(s_max / s_min)


@pytest.mark.parametrize("n_max, Ns", [(20, [8, 16, 32, 64]), (400, [50, 100, 200, 400])])
def test_counterexample_ladder_doubles_and_its_profile_ends_at_n_max(n_max, Ns):
    # the trends read a doubling ladder, so below n_max 64 the rungs go past n_max
    rep = classify.counterexample_probe(0.5, BERGMAN, n_max=n_max)
    assert [rung["n_max"] for rung in rep.ladder] == Ns
    assert rep.profile.size == n_max + 1
    assert [rung["r"] for rung in rep.ladder if rung["n_max"] <= n_max] == [rep.profile[N] for N in Ns if N <= n_max]


def test_counterexample_probe_runs_one_power_recursion(monkeypatch):
    # a step of a power recursion divides one coefficient vector; the frame's
    # kernel solves divide blocks of columns
    steps = []
    rational_banded = series.rational_banded

    def counting(P, band, X):
        steps.append(np.ndim(X) == 1)
        return rational_banded(P, band, X)

    monkeypatch.setattr(series, "rational_banded", counting)
    classify.counterexample_probe(0.5, BERGMAN, n_max=200)
    # the profile reads the powers of the frame build: n_max steps, not 2 * n_max
    assert sum(steps) == 200


@pytest.mark.parametrize(("wid", "verdict", "reason"), [
    # t 0.5, the benchmark's inputs: every rung resolved, the verdicts kept
    ("reciprocal:nln", "no bounded similarity at probed scales", ""),
    ("bergman:alpha=1", "similarity-consistent", ""),
])
def test_counterexample_probe_keeps_its_verdicts_on_resolved_rungs(wid, verdict, reason):
    rep = classify.counterexample_probe(0.5, parse_weight_id(wid), n_max=400)
    assert (rep.verdict, rep.reason) == (verdict, reason)
    assert max(rung["tail"] for rung in rep.ladder) < frames.TAIL_BAR
    assert max(rung["cond"] for rung in rep.ladder) < classify._PROBE_COND_BAR


@pytest.mark.parametrize(("wid", "reason"), [
    # conds of 8e18 to 7e21, which roundoff alone can make: once "no bounded similarity";
    # above 1/eps roundoff sets the digits too, so only the cond's place above the bar is read
    ("reciprocal:nln", "rung n_max 50, K 512: cond "),
    # conds of 1e8 to 3e20 on frames that do not hold their columns
    ("hardy", "rung n_max 50, K 512: tail 1.03 >= 1e-08"),
])
def test_counterexample_probe_draws_no_verdict_from_unresolved_rungs(wid, reason):
    rep = classify.counterexample_probe(0.9, parse_weight_id(wid), n_max=400)
    assert rep.verdict == "inconclusive"
    if reason.endswith("cond "):
        assert rep.reason.startswith(reason)
        assert float(rep.reason[len(reason):].split(" >= ")[0]) >= classify._PROBE_COND_BAR
    else:
        assert rep.reason == reason


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
    res = classify.jordan(ComposeSpec(G, BlaschkeProduct((0, 0.8))), BERGMAN)
    assert res.decomposition.m == 2 and res.certificate.accepted
    assert len(built) == len(set(built)), f"a frame was built twice: {built}"
    # every frame built gets its extremes, from its Gram matrix, exactly once,
    # but for the intertwiner's first rung: its beta-tail is above the bar, so
    # it cannot end the ladder
    first = build_frame(res.decomposition.inner, BERGMAN, *built[0])
    assert first.tail() >= frames.TAIL_BAR
    assert len(grams) == len(built) - 1, (len(grams), built)
    assert len(grams) == len(set(grams)), "a frame's Gram matrix was formed twice"
    assert len(svds) == len(set(svds)), "a frame's SVD was taken twice"


def test_intertwiner_residuals_match_dense_formulas():
    # the README pair, against the K x K products the residuals stand for
    for spec in _pair((0, 0.4), (0.2, -0.5)):
        res = classify.jordan(spec, BERGMAN)
        F, m, n_max = res.certificate.frame, res.decomposition.m, res.certificate.n_max
        X = F.matrix("beta")
        MB = operators.mult_matrix(
            series.taylor(F.product, F.K - 1), BERGMAN, F.K)
        shift = np.zeros((X.shape[1], X.shape[1]), dtype=complex)
        ws = BERGMAN.weights(n_max + 1)
        for n in range(n_max):
            for j in range(m):
                shift[(n + 1) * m + j, n * m + j] = ws[n]
        douglas = np.max(np.abs((MB @ X - X @ shift)[:, : m * n_max]))
        inner = spec if F.conjugator is None else ComposeSpec(spec, F.conjugator)
        Mf = operators.mult_matrix(series.taylor(inner, F.K - 1), BERGMAN, F.K)
        impulse = np.eye(1, n_max + 1, dtype=complex)[0]
        Mh = operators.mult_matrix(series.PowerSeries(
            series.rational(res.decomposition.outer.P, res.decomposition.outer.Q, impulse)),
            BERGMAN, n_max + 1)
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
    res = classify.jordan(ComposeSpec(G, BlaschkeProduct((0, 0.4))), BERGMAN)
    assert res.decomposition.m == 2 and res.certificate.accepted
    assert sizes and max(sizes) <= res.certificate.n_max + 1, sizes


def test_similar_forms_no_direct_identity(monkeypatch):
    # one rational recursion per side (the certificate's M_B X) and no M_h:
    # the direct identity of jordan is not part of a verdict's evidence
    times, mults = [], []
    frame_times, mult_matrix = frames.FrameMatrix.times, operators.mult_matrix

    def counting_times(self, *args, **kw):
        times.append(self.product.zeros)
        return frame_times(self, *args, **kw)

    def counting_mult_matrix(*args, **kw):
        mults.append(args)
        return mult_matrix(*args, **kw)

    monkeypatch.setattr(frames.FrameMatrix, "times", counting_times)
    monkeypatch.setattr(operators, "mult_matrix", counting_mult_matrix)
    h1, h2 = _pair((0, 0.4), (0.2, -0.5))
    assert classify.similar(h1, h2, BERGMAN).status == "similar"
    assert len(times) == 2 and mults == []


@pytest.mark.parametrize("pair", [
    _pair((0, 0.4), (0.2, -0.5)),
    _pair(VERDICT_ORDER3, (0.2, -0.5, 0.1)),
], ids=["readme", "order3"])
def test_similar_writes_the_certificate_of_jordan(pair):
    # one n_max rule for both: jordan's certificate less its Riesz report
    evidence = classify.similar(*pair, BERGMAN).evidence
    for name, spec in zip(("certificate1", "certificate2"), pair):
        expected = classify.jordan(spec, BERGMAN).certificate.to_dict()
        assert expected["riesz"] is not None
        assert evidence[name] == {**expected, "riesz": None}, name


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
    return PolySpec(tuple(g)), ComposeSpec(PolySpec(tuple(g)), phi), a


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
    g_phi = ComposeSpec(g, MoebiusTransform(0.9995))
    with pytest.raises(FiberError, match="beyond radius 0.999"):
        classify.moebius_match(g, g_phi)
    v = classify.similar(g, g_phi, BERGMAN)
    assert v.status == "inconclusive"
    assert v.reason.startswith("Moebius match incomplete: ") and "0.999" in v.reason


@pytest.mark.parametrize("delta", [0.0, 1e-9, 1e-7, 1e-5])
def test_forward_match_seeded_at_a_critical_point(delta):
    # phi(0) = q + delta with q a critical point of g = 2z + z^4: the preimage
    # of g2(0) there is double (or split by delta), and its first derivatives
    # fix no phi
    g = PolySpec((0, 2, 0, 0, 1))
    for q in fiber_roots(RationalFunction.from_spec(g).N1, 1.0):
        for theta in (0.0, 1.0, 2.5, 4.0):
            p = q + delta * np.exp(0.7j)
            phi = MoebiusTransform(p * np.exp(-1j * theta), theta)
            m = classify.moebius_match(g, ComposeSpec(g, phi))
            assert m is not None and m.residual < 1e-8, (q, theta)


def _perturbed(coeffs, a, theta, j):
    """g and g o phi_a with the j-th numerator coefficient moved by 1e-6 of itself."""
    g = PolySpec(tuple(coeffs))
    g_phi = RationalFunction.from_spec(ComposeSpec(g, MoebiusTransform(a, theta)))
    P = g_phi.P.copy()
    P[j % P.size] *= 1.0 + 1e-6
    return g, RationalFunction(P, g_phi.Q)


@pytest.mark.parametrize("j", [0, 1, 2])
def test_a_perturbed_near_circle_precomposition_matches_in_neither_direction(j):
    # |a| = 0.976, and the coefficients of g o phi_a are about 30 times smaller
    # than those of g: moving the first by 1e-6 of itself moves E by 2.4e-9 of
    # its roundoff envelope, and by 2e-7 of its terms
    g, g2 = _perturbed([-0.61 - 0.53j, -1.67 + 0.25j, 0.6 + 1.62j], 0.86 - 0.46j, 5.88, j)
    for x, y in ((g, g2), (g2, g)):
        try:
            assert classify.moebius_match(x, y) is None
        except FiberError:
            pass


def test_a_fit_within_the_roundoff_of_g1_o_phi_only_makes_the_match_incomplete():
    # composing g o phi back with phi^-1 this near the circle amplifies the
    # roundoff of g o phi so much that the reverse fits are within E's
    # roundoff envelope, yet off by 2.8e-8 and more in the size of its terms
    g = PolySpec((1, -0.5 + 1j, 0.3, 1.2 - 0.4j))
    g_phi = ComposeSpec(g, MoebiusTransform(0.998 * np.exp(0.3j)))
    assert classify.moebius_match(g, g_phi).residual < 1e-12
    with pytest.raises(FiberError, match="roundoff"):
        classify.moebius_match(g_phi, g)
