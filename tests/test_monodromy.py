import jsonschema
import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from bundlelab import classify, funcspec, monodromy, schemas
from bundlelab.blaschke import (
    BlaschkeProduct,
    MoebiusTransform,
    compose_blaschke,
    eval_blaschke,
    solve_fiber,
)
from bundlelab.errors import DomainError, FiberError
from bundlelab.funcspec import (
    ComposeSpec,
    PolySpec,
    RationalFunction,
)
from bundlelab.weights import WeightSequence

G_CUBIC = PolySpec((0, 1, 0, 2))  # z + 2z^3
INNER = BlaschkeProduct((0, 0.4), np.pi)  # literally z * (0.4-z)/(1-0.4z)


def test_base_fiber_square_roots():
    fib = monodromy.base_fiber(PolySpec((0, 0, 1)), 0.25)
    assert fib == (-0.5, 0.5)


def test_base_fiber_constructed_roots():
    fib = monodromy.base_fiber(PolySpec((2, 1, 1)), 1.66)
    assert np.allclose(fib, [-0.5 - 0.3j, -0.5 + 0.3j], atol=1e-12)


def test_base_fiber_composite_count():
    f = ComposeSpec(G_CUBIC, INNER)
    fib = monodromy.base_fiber(f, 0.05)
    assert len(fib) == 6


def test_base_fiber_rejects_branch_value():
    with pytest.raises(FiberError):
        monodromy.base_fiber(PolySpec((2, 1, 1)), 1.75)


def _surviving(spec, omega0, d):
    f = RationalFunction.from_spec(spec)
    fib = monodromy.base_fiber(f, omega0)
    zs = monodromy._held_out_points(200)
    return monodromy._block_partitions(f, f.degree, fib, d, zs, f.value(zs))


def test_block_systems_four_cycle():
    fib = monodromy.base_fiber(PolySpec((0, 0, 0, 0, 1)), 0.3)
    systems = _surviving(PolySpec((0, 0, 0, 0, 1)), 0.3, 2)
    assert len(systems) == 1
    blocks = systems[0]
    assert len(blocks) == 2
    # blocks must pair opposite fiber points {z, -z}
    for block in blocks:
        a, b = (fib[i] for i in block)
        assert abs(a + b) < 1e-9


def test_block_search_on_six_points():
    f = ComposeSpec(G_CUBIC, INNER)
    fib = monodromy.base_fiber(f, 0.05)
    assert len(fib) == 6
    assert _surviving(f, 0.05, 3) == []
    (partition,) = _surviving(f, 0.05, 2)
    # the surviving blocks are the level sets of the inner factor
    for block in partition:
        a, b = (INNER(fib[i]) for i in block)
        assert abs(a - b) < 1e-9


def test_level_sets_are_those_of_the_inner_factor():
    # the fiber of B over 0, 0.3i and -0.2+0.1i, interleaved; the block
    # (0, 3) is B's zero set {0, 0.4}, so its inner factor is B itself
    B = BlaschkeProduct((0, 0.4))
    over = [solve_fiber(B, v) for v in (0.0, 0.3j, -0.2 + 0.1j)]
    fiber = tuple(pts[k] for k in range(2) for pts in over)
    assert monodromy._level_sets(fiber, (0, 3)) == ((0, 3), (1, 4), (2, 5))


def test_block_system_trivial_group_single_point():
    from bundlelab.blaschke import MoebiusTransform

    spec = MoebiusTransform(0.4)
    assert len(monodromy.base_fiber(spec, 0.1)) == 1
    dec = monodromy.decompose(spec, 0.1)
    assert dec.m == 1 and dec.candidates_tried == 0


def test_singleton_block_gives_moebius():
    fib = monodromy.base_fiber(PolySpec((0, 0, 1)), 0.25)
    bhat = monodromy.inner_factor_from_block(fib, (1,))
    assert bhat.order == 1
    assert bhat.zeros == (0.5,)


def test_block_systems_primitive_cubic():
    fib = monodromy.base_fiber(G_CUBIC, 0.05)
    assert len(fib) == 3
    assert _surviving(G_CUBIC, 0.05, 2) == []


def test_inner_factor_from_block_square():
    fib = monodromy.base_fiber(PolySpec((0, 0, 1)), 0.25)
    bhat = monodromy.inner_factor_from_block(fib, (0, 1))
    P, Q = bhat.rational()
    # (z^2 - 0.25)/(1 - 0.25 z^2)
    assert np.allclose(P, [-0.25, 0, 1])
    assert np.allclose(Q, [1, 0, -0.25])


def test_outer_factor_square_trivial():
    f = PolySpec((0, 0, 1))
    fib = monodromy.base_fiber(f, 0.25)
    bhat = monodromy.inner_factor_from_block(fib, (0, 1))
    A, C, score = monodromy.outer_factor(f, [bhat.zeros], 2)
    # z^2 = h(bhat) with bhat = (z^2 - 1/4)/(1 - z^2/4): h is the Moebius map
    # (w + 1/4)/(1 + w/4), of degree 1 with C(0) = 1
    assert A.shape == C.shape == (1, 2)
    assert np.allclose(A[0], [0.25, 1.0], atol=1e-14)
    assert np.allclose(C[0], [1.0, 0.25], atol=1e-14)
    assert score[0] < 1e-14


def test_outer_factor_solves_a_stack_like_single_blocks():
    f = ComposeSpec(G_CUBIC, INNER)
    fib = monodromy.base_fiber(f, 0.05)
    zeros = np.array([[fib[0], fib[j]] for j in range(1, len(fib))])
    A, C, score = monodromy.outer_factor(f, zeros, 6)
    assert A.shape == C.shape == (len(fib) - 1, 4) and np.all(C[:, 0] == 1.0)
    for s, row in enumerate(zeros):
        a1, c1, s1 = monodromy.outer_factor(f, [row], 6)
        assert np.allclose(a1[0], A[s], atol=1e-12) and np.allclose(c1[0], C[s], atol=1e-12)
        assert s1[0] == pytest.approx(score[s], rel=1e-6, abs=1e-15)


def test_block_scores_separate_the_level_set_block():
    # the block of a level set of INNER is the only one whose h o B_hat is f;
    # its score sits at roundoff and every other block's far above it
    f = RationalFunction.from_spec(ComposeSpec(G_CUBIC, INNER))
    fib = monodromy.base_fiber(f, 0.05)
    pts = np.array(fib)
    zeros = np.array([[pts[0], pts[j]] for j in range(1, len(fib))])
    A, C, score = monodromy.outer_factor(f, zeros, 6)
    zs = monodromy._held_out_points(200)
    residual = monodromy._residuals(f.value(zs), zs, zeros, A, C)
    true = np.array([abs(INNER(p) - INNER(pts[0])) < 1e-9 for p in pts[1:]])
    assert true.sum() == 1
    assert residual[true][0] < 1e-12 and score[true][0] < 1e-14
    assert np.all(residual[~true] > 1e-3) and np.all(score[~true] > 1e-8)


def test_outer_factor_rejects_primitive():
    # z + 2z^3 is no h o B_hat for the order-3 product on its own fiber: the
    # degree-1 null vector of the solve does not reproduce f
    f = RationalFunction.from_spec(G_CUBIC)
    fib = monodromy.base_fiber(G_CUBIC, 0.05)
    zeros = np.array([fib])
    A, C, score = monodromy.outer_factor(f, zeros, 3)
    zs = monodromy._held_out_points(200)
    assert monodromy._residuals(f.value(zs), zs, zeros, A, C)[0] > 1e-3
    assert score[0] > 1e-8


def test_outer_factor_needs_an_order_dividing_the_degree():
    with pytest.raises(ValueError, match="does not divide"):
        monodromy.outer_factor(G_CUBIC, [[0.1, -0.2]], 3)


# h o B with h = 2w + 2w^3, as a sum whose reduction P/Q keeps the common
# factor 1 - 0.4z: deg P/Q is 7, deg f is 6
SUM_OF_COMPOSITIONS = (
    "sum(compose(poly(0,1,0,2),blaschke(0;0,0.4)),compose(poly(0,1),blaschke(0;0,0.4)))"
)


def test_held_out_points_are_drawn_once_and_read_only():
    zs = monodromy._held_out_points(200)
    assert monodromy._held_out_points(200) is zs
    assert zs.size == 200 and not zs.flags.writeable


def test_reduced_degree_cancels_the_common_factor_of_a_sum():
    f = RationalFunction.from_spec(funcspec.parse_function_spec(SUM_OF_COMPOSITIONS))
    zs = monodromy._held_out_points(200)
    assert f.degree == 7
    assert monodromy._reduced_degree(f, 4, zs, f.value(zs)) == 6
    g = RationalFunction.from_spec(ComposeSpec(G_CUBIC, INNER))
    assert monodromy._reduced_degree(g, 6, zs, g.value(zs)) == 6


def test_decompose_sees_through_the_common_factor_of_a_sum():
    dec = monodromy.decompose(funcspec.parse_function_spec(SUM_OF_COMPOSITIONS))
    assert dec.m == 2 and dec.residual < 1e-8
    # the outer factor has the reduced degree 6 / 2 = 3
    assert dec.outer.P.size == dec.outer.Q.size == 4
    z = 0.9 * np.exp(2j * np.pi * np.arange(7) / 7)
    f = RationalFunction.from_spec(funcspec.parse_function_spec(SUM_OF_COMPOSITIONS))
    assert np.max(np.abs(dec.outer.value(dec.inner(z)) - f.value(z))) < 1e-10


def test_decompose_composite_round_trip():
    f = ComposeSpec(G_CUBIC, INNER)
    dec = monodromy.decompose(f)
    assert dec.m == 2
    assert dec.residual < 1e-8
    assert len(dec.fiber) == 6 and dec.outer.degree == 3


def test_decompose_order_bookkeeping_against_winding():
    from bundlelab import geometry

    f = ComposeSpec(G_CUBIC, INNER)
    dec = monodromy.decompose(f)
    index = geometry.winding_index(f, dec.base_point)
    assert index == dec.m * geometry.winding_index(dec.outer, dec.base_point)


def _fiber_probes(monkeypatch):
    """The points omega that geometry.fiber is called on, in order."""
    from bundlelab import geometry

    points = []
    fiber = geometry.fiber

    def counting(f, omega):
        points.append(omega)
        return fiber(f, omega)

    monkeypatch.setattr(geometry, "fiber", counting)
    return points


def _fiber_solves(monkeypatch, f, omega):
    """Calls of fiber_roots, through every module that binds it, on f's fiber polynomial over omega."""
    import bundlelab

    R = RationalFunction.from_spec(f).fiber_poly(complex(omega))
    solves = []
    for name in ("blaschke", "classify", "funcspec", "geometry", "monodromy"):
        module = getattr(bundlelab, name)
        if hasattr(module, "fiber_roots"):
            def spy(P, radius, solve=module.fiber_roots):
                if np.array_equal(P, R):
                    solves.append(radius)
                return solve(P, radius)

            monkeypatch.setattr(module, "fiber_roots", spy)
    return solves


def test_base_point_is_f0_when_it_is_admissible(monkeypatch):
    # f(0) = 0 is clear of the curve and the branch values, so the base point
    # is solved for its fiber once, and base_fiber takes those roots; no ring
    # around f(0) is probed, as its points lie in f(0)'s component
    points = _fiber_probes(monkeypatch)
    solves = _fiber_solves(monkeypatch, G_CUBIC, 0)
    dec = monodromy.decompose(G_CUBIC)
    assert dec.base_point == 0 and points == [0]
    assert len(solves) == 1


def test_a_supplied_base_point_solves_its_fiber_once(monkeypatch):
    f = ComposeSpec(G_CUBIC, INNER)
    points = _fiber_probes(monkeypatch)
    solves = _fiber_solves(monkeypatch, f, 0.05)
    dec = monodromy.decompose(f, 0.05)
    assert dec.base_point == 0.05 and points == [0.05]
    assert len(solves) == 1


def test_decompose_indecomposable():
    dec = monodromy.decompose(G_CUBIC)
    assert dec.m == 1
    assert dec.outer is G_CUBIC
    assert dec.residual == 0.0


def test_decompose_full_blaschke():
    B6 = compose_blaschke(BlaschkeProduct((0.2, -0.3, 0.1j)), BlaschkeProduct((0, 0.4)))
    dec = monodromy.decompose(B6)
    assert dec.m == 6
    assert dec.residual < 1e-8


def test_decompose_reduces_its_spec_once(monkeypatch):
    calls = []
    to_rational = funcspec.to_rational

    def counting_to_rational(spec, *args, **kw):
        calls.append(spec)
        return to_rational(spec, *args, **kw)

    monkeypatch.setattr(funcspec, "to_rational", counting_to_rational)
    f = ComposeSpec(G_CUBIC, INNER)
    for spec, m in ((f, 2), (G_CUBIC, 1)):
        calls.clear()
        assert monodromy.decompose(spec).m == m
        assert calls == [spec], f"the spec was reduced {len(calls)} times"


def test_decompose_reproducible_between_base_points():
    f = ComposeSpec(G_CUBIC, INNER)
    d1 = monodromy.decompose(f)
    omega2 = d1.base_point + 0.03
    d2 = monodromy.decompose(f, omega2)
    assert d1.m == d2.m == 2
    from bundlelab.classify import moebius_match

    match = moebius_match(d1.outer, d2.outer)
    assert match is not None and match.residual < 1e-8


def test_decompose_base_point_validation():
    with pytest.raises(FiberError):
        monodromy.decompose(PolySpec((2, 1, 1)), 1.75 + 1e-9)


def test_decomposition_serialization():
    f = ComposeSpec(G_CUBIC, INNER)
    dec = monodromy.decompose(f)
    d = dec.to_dict()
    assert d["m"] == 2
    assert len(d["inner_zeros"]) == 2
    assert "generators" not in d
    assert d["candidates_tried"] == dec.candidates_tried > 0
    assert d["branch_values"] == [
        [b.real, b.imag] for b in monodromy._clustered_branch_values(f)
    ]
    jsonschema.validate(d, schemas.DECOMPOSITION)
    assert d["certificate"].startswith("dec-")
    assert sorted(d["outer"]) == ["block_score", "denominator", "numerator", "taylor"]
    assert d["outer"]["block_score"] == dec.block_score < 1e-14
    assert len(d["outer"]["numerator"]) == len(d["outer"]["denominator"]) == 4


def test_schema_accepts_each_outer_form_and_nothing_else():
    spec_form = monodromy.decompose(G_CUBIC).to_dict()
    rational_form = monodromy.decompose(ComposeSpec(G_CUBIC, INNER)).to_dict()
    assert spec_form["outer"] == {"spec": "poly(0,1,0,2)"}
    for d in (spec_form, rational_form):
        jsonschema.validate(d, schemas.DECOMPOSITION)
        jsonschema.validate(d["outer"], schemas.OUTER_SPEC if d["m"] == 1 else schemas.OUTER_RATIONAL)
        for extra in ({"tail": 0.0}, {"spec": "poly(1)", "taylor": [[1.0, 0.0]]}):
            bad = dict(d, outer=dict(d["outer"], **extra))
            with pytest.raises(jsonschema.ValidationError):
                jsonschema.validate(bad, schemas.DECOMPOSITION)


def test_serialized_taylor_polynomial_is_h_below_radius_0_8():
    dec = monodromy.decompose(ComposeSpec(G_CUBIC, INNER))
    c = np.array([complex(*p) for p in dec.to_dict()["outer"]["taylor"]])
    w = 0.8 * np.exp(2j * np.pi * np.arange(64) / 64) * np.linspace(0.0, 1.0, 64)
    h = dec.outer.value(w)
    assert np.max(np.abs(np.polyval(c[::-1], w) - h)) <= 1e-13 * np.max(np.abs(h))


def test_reconstruction_matches_on_fresh_points():
    f = ComposeSpec(G_CUBIC, INNER)
    dec = monodromy.decompose(f)
    rng = np.random.default_rng(99)  # seed differs from the held-out stream
    zs = rng.uniform(-0.99, 0.99, size=(800, 2)) @ np.array([1.0, 1j])
    zs = zs[np.abs(zs) <= 0.99][:200]
    fr = RationalFunction.from_spec(f)
    assert zs.size == 200
    assert np.max(np.abs(fr.value(zs) - dec.outer.value(dec.inner(zs)))) < 1e-8


def test_identity_blaschke_is_z():
    ident = monodromy.identity_blaschke()
    zs = 0.7 * np.exp(2j * np.pi * np.arange(9) / 9)
    assert np.max(np.abs(eval_blaschke(ident, zs) - zs)) < 1e-15


@st.composite
def _compositions(draw):
    """g o B with deg g 2-4, order B 2-3, zeros in |z| < 0.6 more than 0.05 apart."""
    parts = st.floats(-2.0, 2.0)
    g = [complex(draw(parts), draw(parts)) for _ in range(draw(st.integers(3, 5)))]
    assume(abs(g[-1]) > 0.1)
    zeros = np.array([
        draw(st.floats(0.0, 0.59)) * np.exp(1j * draw(st.floats(0.0, 2.0 * np.pi)))
        for _ in range(draw(st.integers(2, 3)))
    ])
    gaps = np.abs(zeros[:, None] - zeros[None, :]) + np.eye(zeros.size)
    assume(gaps.min() > 0.05)
    return ComposeSpec(PolySpec(tuple(g)), BlaschkeProduct(tuple(zeros))), zeros.size


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(_compositions())
def test_decompose_finds_a_multiple_of_the_inner_order(case):
    f, order = case
    dec = monodromy.decompose(f)
    assert dec.m % order == 0
    assert dec.residual < 1e-8


@st.composite
def _compositions_near_the_circle(draw):
    """g o B o phi_a for g o B of _compositions and |a| <= 0.99, drawn from the edge inward."""
    f, order = draw(_compositions())
    a = (0.99 - draw(st.floats(0.0, 0.99))) * np.exp(1j * draw(st.floats(0.0, 2.0 * np.pi)))
    return ComposeSpec(f, MoebiusTransform(a)), order


@settings(max_examples=30, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(_compositions_near_the_circle())
def test_decompose_never_certifies_less_than_the_inner_order_near_the_circle(case):
    # a fiber point near the circle may leave the evidence unable to decide,
    # which is a FiberError; the denominator check may also refuse the spec
    # (a DomainError, for a multiple denominator zero just outside it);
    # neither is a false m
    f, order = case
    try:
        dec = monodromy.decompose(f)
    except (FiberError, DomainError):
        return
    assert dec.m % order == 0
    assert dec.residual < 1e-8


@pytest.mark.parametrize("a", [0.93, 0.96, 0.98])
def test_decompose_finds_the_inner_factor_of_a_fiber_near_the_circle(a):
    # the base fiber of f(0) has a point within 0.003 of the circle
    f = ComposeSpec(ComposeSpec(G_CUBIC, INNER), MoebiusTransform(a))
    dec = monodromy.decompose(f)
    assert max(abs(p) for p in dec.fiber) > 0.99
    assert dec.m == 2 and dec.residual < 1e-8


def test_a_solve_that_misses_f_itself_shows_no_m_1():
    # at a = 0.99 no outer factor for the inner factor z reproduces f to
    # 1e-8, so rejecting every block would be no proof that m = 1
    f = ComposeSpec(ComposeSpec(G_CUBIC, INNER), MoebiusTransform(0.99))
    with pytest.raises(FiberError, match="does not reproduce f itself"):
        monodromy.decompose(f)


def test_candidate_cap_is_inconclusive_not_indecomposable(monkeypatch):
    monkeypatch.setattr(monodromy, "_CANDIDATE_CAP", 5)
    f = ComposeSpec(G_CUBIC, INNER)  # six points: 1 + 10 blocks for d = 6, 3
    with pytest.raises(FiberError, match="more than 5 candidates"):
        monodromy.decompose(f)
    assert classify.similar(f, f, WeightSequence.bergman(1)).status == "inconclusive"
