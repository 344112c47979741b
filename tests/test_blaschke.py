import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from bundlelab.blaschke import (
    BlaschkeProduct,
    _groups,
    MoebiusTransform,
    compose_blaschke,
    eval_blaschke,
    fiber_roots,
    moebius,
    moebius_inverse,
    with_multiplicity,
)
from bundlelab.errors import DomainError, RootFindingError
from bundlelab.funcspec import _INTERIOR, PolySpec, RationalFunction, parse_function_spec
from bundlelab.geometry import branch_values


def _preimages(spec, omega):
    return RationalFunction.from_spec(spec).preimages(omega)


def _critical_points(spec):
    return RationalFunction.from_spec(spec).critical_points()


def test_eval_at_zero_points():
    B = BlaschkeProduct((0, 0.5))
    assert eval_blaschke(B, 0.0) == 0.0
    assert eval_blaschke(BlaschkeProduct((0.5,)), 0.0) == 0.5


def test_boundary_modulus():
    B = BlaschkeProduct((0.5,))
    assert abs(abs(eval_blaschke(B, 1j)) - 1.0) < 1e-12
    t = np.exp(2j * np.pi * np.arange(1024) / 1024)
    B2 = BlaschkeProduct((0.3, -0.2 + 0.6j, 0.1j), 0.77)
    assert np.max(np.abs(np.abs(eval_blaschke(B2, t)) - 1.0)) < 1e-10


def test_zero_validation():
    with pytest.raises(DomainError):
        BlaschkeProduct((1.0,))
    with pytest.raises(DomainError):
        BlaschkeProduct((0.3, 1.0 - 1e-13))


def test_zero_parts_below_sqrt_tiny_are_set_to_0_with_their_sign():
    # a part of 1e-160 is a normal number, but its products are subnormal:
    # kept, it made the extremes of a K-4096 frame 40 times slower
    B = BlaschkeProduct((0.998 + 1e-160j, -8.77e-319 - 0.5j, 1e-150 + 0.3j))
    assert [(z.real, z.imag) for z in B.zeros] == [(0.998, 0.0), (0.0, -0.5), (1e-150, 0.3)]
    assert math.copysign(1.0, B.zeros[1].real) == -1.0


def test_star_is_blaschke_of_same_order():
    B = BlaschkeProduct((0.3, -0.2 + 0.4j), 1.1)
    S = B.star()
    assert S.order == B.order
    zs = sorted(S.zeros, key=lambda z: (z.real, z.imag))
    expect = sorted((np.conj(z) for z in B.zeros), key=lambda z: (z.real, z.imag))
    assert np.allclose(zs, expect)
    # star is conjugation of the Taylor coefficients
    z = 0.37 - 0.21j
    assert np.conj(eval_blaschke(B, np.conj(z))) == pytest.approx(
        eval_blaschke(S, z), abs=1e-14
    )


def test_compose_identity():
    ident = BlaschkeProduct((0,), np.pi)  # literally z
    B2 = BlaschkeProduct((0.1j, 0.5))
    C = compose_blaschke(ident, B2)
    zs = 0.8 * np.exp(2j * np.pi * np.arange(17) / 17)
    assert np.max(np.abs(eval_blaschke(C, zs) - eval_blaschke(B2, zs))) < 1e-12


def test_compose_powers():
    z2 = BlaschkeProduct((0, 0))
    z3 = BlaschkeProduct((0, 0, 0), np.pi)  # -z^3; phase carried through
    C = compose_blaschke(z2, z3)
    assert C.order == 6
    zs = 0.7 * np.exp(2j * np.pi * np.arange(11) / 11)
    assert np.max(np.abs(eval_blaschke(C, zs) - zs**6)) < 1e-12


def test_compose_square_root_zeros():
    B1 = BlaschkeProduct((0.3,))
    C = compose_blaschke(B1, BlaschkeProduct((0, 0)))
    got = sorted(C.zeros, key=lambda z: z.real)
    r = math.sqrt(0.3)
    assert got[0] == pytest.approx(-r, abs=1e-10)
    assert got[1] == pytest.approx(r, abs=1e-10)


def test_compose_pointwise_random():
    rng = np.random.default_rng(3)
    B1 = BlaschkeProduct((0.3, -0.2 + 0.4j))
    B2 = BlaschkeProduct((0.1j, 0.5), 0.3)
    C = compose_blaschke(B1, B2)
    zs = rng.uniform(0, 0.95, 50) * np.exp(2j * np.pi * rng.uniform(0, 1, 50))
    dev = np.max(np.abs(eval_blaschke(C, zs) - eval_blaschke(B1, eval_blaschke(B2, zs))))
    assert dev < 1e-10


def test_moebius_self_inverse():
    phi = MoebiusTransform(0.5)
    psi = moebius_inverse(phi)
    assert psi.zeros == phi.zeros and psi.theta == pytest.approx(0.0, abs=1e-12)


def test_moebius_inverse_rotation():
    # e^{i pi/2} z has our-representation theta = 3pi/2; inverse rotates back
    rot = BlaschkeProduct((0,), 3 * np.pi / 2)
    assert eval_blaschke(rot, 0.4) == pytest.approx(0.4j, abs=1e-14)
    inv = moebius_inverse(rot)
    assert eval_blaschke(inv, 0.4j) == pytest.approx(0.4, abs=1e-12)


def test_moebius_inverse_generic():
    phi = MoebiusTransform(0.3j)
    psi = moebius_inverse(phi)
    zs = 0.9 * np.exp(2j * np.pi * np.arange(20) / 20)
    assert np.max(np.abs(eval_blaschke(psi, eval_blaschke(phi, zs)) - zs)) < 1e-12
    assert np.max(np.abs(eval_blaschke(phi, eval_blaschke(psi, zs)) - zs)) < 1e-12


def test_solve_fiber_blaschke_zeros():
    pts = _preimages(BlaschkeProduct((0, 0.5)), 0.0)
    assert np.allclose(pts, [0.0, 0.5], atol=1e-12)


def test_solve_fiber_constructed_pair():
    pts = _preimages(PolySpec((2, 1, 1)), 1.66)
    assert np.allclose(pts, [-0.5 - 0.3j, -0.5 + 0.3j], atol=1e-12)


def test_solve_fiber_counts_multiplicity():
    # z^2 over 0: double root at 0
    pts = _preimages(PolySpec((0, 0, 1)), 0.0)
    assert len(pts) == 2 and np.allclose(pts, [0, 0], atol=1e-7)


def test_solve_fiber_order_matches_for_interior_values():
    rng = np.random.default_rng(5)
    for _ in range(10):
        m = int(rng.integers(1, 5))
        zeros = 0.7 * rng.uniform(0.1, 1, m) * np.exp(2j * np.pi * rng.uniform(0, 1, m))
        B = BlaschkeProduct(tuple(zeros))
        w = 0.55 * rng.uniform() * np.exp(2j * np.pi * rng.uniform())
        assert len(_preimages(B, w)) == m


def test_critical_points_quadratic():
    spec = PolySpec((2, 1, 1))
    (z,) = _critical_points(spec)
    assert z == pytest.approx(-0.5, abs=1e-12)
    assert branch_values(spec) == [pytest.approx(1.75, abs=1e-12)]


def test_critical_points_blaschke():
    pts = _critical_points(BlaschkeProduct((0, 0.5)))
    assert len(pts) == 1
    assert pts[0] == pytest.approx(2 - math.sqrt(3), abs=1e-10)


def test_critical_points_moebius_empty():
    assert _critical_points(moebius(0.4)) == []


def test_rational_form_of_product():
    B = BlaschkeProduct((0.5,), 0.0)
    P, Q = B.rational()
    assert np.allclose(P, [0.5, -1.0])
    assert np.allclose(Q, [1.0, -0.5])


def _points(min_modulus, max_modulus, count):
    point = st.builds(
        lambda r, a: complex(r * np.exp(1j * a)),
        st.floats(min_modulus, max_modulus),
        st.floats(0.0, 2.0 * np.pi),
    )
    return st.lists(point, min_size=count, max_size=count)


@st.composite
def _fiber_polys(draw):
    """Degree 1-12 from chosen roots: simple and double in the disk, some outside."""
    doubles = draw(_points(0.0, 0.98, draw(st.integers(0, 2))))
    room = 12 - 2 * len(doubles)
    simple = draw(_points(0.0, 0.98, draw(st.integers(0 if doubles else 1, room))))
    outside = draw(_points(1.05, 3.0, draw(st.integers(0, room - len(simple)))))
    inside = np.array(doubles + simple, dtype=complex)
    gaps = np.abs(inside[:, None] - inside[None, :]) + 9.0 * np.eye(inside.size)
    assume(inside.size < 2 or gaps.min() > 0.05)
    R = np.poly(np.array(doubles + doubles + simple + outside, dtype=complex))[::-1]
    return R, doubles, simple


_PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None,
                     suppress_health_check=[HealthCheck.filter_too_much])


@_PROPERTY
@given(_fiber_polys())
def test_fiber_roots_find_chosen_roots(case):
    R, doubles, simple = case
    found = fiber_roots(R, 1.0)
    assert found.size == np.sum(np.abs(np.roots(R[::-1])) < 1.0)
    for z in simple:
        assert np.min(np.abs(found - z)) < 1e-8
    # a double root is only accurate to about 1e-6 after polishing, so its
    # two copies are clustered at that scale
    grouped = with_multiplicity(found, tol=1e-5)
    assert len(grouped) == found.size
    for z in doubles:
        near = [w for w in grouped if abs(w - z) < 1e-5]
        assert len(near) == 2 and near[0] == near[1]


def test_groups_join_a_chain_whose_ends_are_beyond_the_tolerance():
    # 0 ~ 0.6e-8 ~ 1.2e-8, though |0 - 1.2e-8| > 1e-8
    assert _groups([0.0, 0.6e-8, 1.2e-8], 1e-8) == [[0, 1, 2]]
    assert _groups([0.0, 1.2e-8], 1e-8) == [[0], [1]]


def test_groups_scale_the_tolerance_with_the_modulus():
    # within 1e-8 max(1, |p_i|): 5e-7 apart is near at modulus 100, far at 0
    assert _groups([100.0, 100.0 + 5e-7], 1e-8) == [[0, 1]]
    assert _groups([0.0, 5e-7], 1e-8) == [[0], [1]]


def test_groups_come_in_order_of_their_first_member():
    assert _groups([1.0, 0.0, 1.0, 5.0, 0.0], 1e-8) == [[0, 2], [1, 4], [3]]
    # a late point that links two groups joins them where the first one stood
    assert _groups([0.0, 3.0, 1.6e-8, 0.8e-8], 1e-8) == [[0, 2, 3], [1]]


@_PROPERTY
@given(_fiber_polys())
def test_critical_values_match_rational_value(case):
    f = RationalFunction.from_spec(PolySpec(tuple(case[0])))
    points = f.critical_points()
    assert all(abs(z) < _INTERIOR for z in points)
    assert branch_values(f) == [f.value(z) for z in points]


# The scalar fiber solve, kept as the reference for the vectorized one:
# numpy.roots per polynomial, then a Python Newton loop per root that stops
# by the kernel's rule.
def _reference_poly_roots(coeffs):
    c = np.asarray(coeffs, dtype=complex)
    scale = np.max(np.abs(c))
    if scale == 0.0:
        raise RootFindingError("zero polynomial has no isolated roots")
    nz = np.nonzero(np.abs(c) > 1e-300)[0]
    c = c[: nz[-1] + 1]
    if c.size <= 1:
        return np.zeros(0, dtype=complex)
    return np.roots(c[::-1])


def _reference_newton_polish(coeffs, roots, tol=1e-12, iters=50):
    c = np.asarray(coeffs, dtype=complex)
    dc = c[1:] * np.arange(1, c.size)
    scale = max(np.max(np.abs(c)), 1e-300)
    out = []
    for z in np.atleast_1d(roots):
        for _ in range(iters):
            v = np.polyval(c[::-1], z)
            dv = np.polyval(dc[::-1], z) if dc.size else 0.0
            if abs(v) <= tol * scale and abs(v) <= tol * abs(dv) * (1.0 + abs(z)):
                break
            if abs(dv) < 1e-300:
                break
            step = v / dv
            z = z - step
            if abs(step) < 1e-16 * (1.0 + abs(z)):
                break
        out.append(z)
    return np.array(out, dtype=complex)


_complex = st.builds(complex, st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))


@st.composite
def _polys(draw):
    """Random, zero constant, tiny top, an exact double root, or a double or
    triple root at modulus 1.05-1.95; and a radius."""
    degree = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(["random", "zero constant", "tiny top", "double root",
                                 "multiple root outside"]))
    radius = draw(st.sampled_from([0.5, 1.0, 2.0, np.inf]))
    if kind == "double root" and degree >= 2:
        twice = draw(_complex) / 3.0
        rest = draw(st.lists(_complex, min_size=degree - 2, max_size=degree - 2))
        return np.poly(np.array([twice, twice] + rest, dtype=complex))[::-1], radius
    if kind == "multiple root outside" and degree >= 2:
        times = draw(st.integers(2, min(3, degree)))
        root = draw(_points(1.05, 1.95, 1))
        rest = draw(st.lists(_complex, min_size=degree - times, max_size=degree - times))
        return np.poly(np.array(root * times + rest, dtype=complex))[::-1], radius
    c = np.array(draw(st.lists(_complex, min_size=degree + 1, max_size=degree + 1)))
    c[0] = draw(_complex) + 4.0  # nonzero unless chosen below
    c[-1] = draw(_complex) + 4.0
    if kind == "zero constant":
        c[0] = 0.0
    elif kind == "tiny top":
        c[-1] = 1e-301
    return c, radius


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow on extreme polynomials
@_PROPERTY
@given(_polys())
def test_fiber_roots_equal_the_scalar_loop(case):
    R, radius = case
    # roots at twice the radius or beyond are left unpolished
    ref = _reference_poly_roots(R)
    near = np.abs(ref) < 2.0 * radius
    ref[near] = _reference_newton_polish(R, ref[near])
    assert np.array_equal(fiber_roots(R, radius), ref[np.abs(ref) < radius])


# seed-1 input #2 of the decompose-fuzz benchmark: its derivative's numerator
# has a triple root at modulus 1.94 whose copies, 1.6e-4 apart, polish to the
# roundoff floor of Horner's rule and no further
STALLING_CRITICAL_POINTS = (
    "compose(poly(1.0608986233860787-0.11170194958415963i,-0.8075346753318965+0.11046414324948059i,"
    "-0.0325217049455206+0.06378177425506196i,0.8843898673831739-1.2250558264176934i,"
    "-0.583600432743302+0.0761402303770081i), blaschke(0.0009600104472936935; "
    "-0.516148740142684-0.02506030924367484i,0.12530503190311754-0.1312900102919302i,"
    "-0.28392696834956616+0.33793083958017267i))"
)


def test_critical_point_polish_stops_the_roots_that_stay_outside(monkeypatch):
    N1 = RationalFunction.from_spec(parse_function_spec(STALLING_CRITICAL_POINTS)).N1
    ref = _reference_poly_roots(N1)
    near = np.abs(ref) < 2.0 * _INTERIOR
    ref[near] = _reference_newton_polish(N1, ref[near])
    calls = []
    polyval = np.polyval

    def counting(p, x):
        calls.append(np.size(x))
        return polyval(p, x)

    monkeypatch.setattr(np, "polyval", counting)
    found = fiber_roots(N1, _INTERIOR)
    # without the stop, all 50 steps of the polish run: 100 evaluations
    assert len(calls) <= 40
    assert np.array_equal(found, ref[np.abs(ref) < _INTERIOR])


def test_zero_polynomial_raises():
    with pytest.raises(RootFindingError):
        fiber_roots(np.zeros(4, dtype=complex), 1.0)
