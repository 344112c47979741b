import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from bundlelab.blaschke import (
    BlaschkeProduct,
    MoebiusTransform,
    compose_blaschke,
    critical_points,
    eval_blaschke,
    fiber_roots,
    moebius,
    moebius_inverse,
    solve_fiber,
    with_multiplicity,
)
from bundlelab.errors import BoundaryRootWarning, DomainError, RootFindingError
from bundlelab.funcspec import BlaschkeSpec, PolySpec, RationalFunction


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
    pts = solve_fiber(BlaschkeSpec(BlaschkeProduct((0, 0.5))), 0.0)
    assert np.allclose(pts, [0.0, 0.5], atol=1e-12)


def test_solve_fiber_quadratic_boundary_root():
    spec = PolySpec((2, 1, 1))
    with pytest.warns(BoundaryRootWarning):
        pts = solve_fiber(spec, 2.0)
    assert np.allclose(pts, [0.0], atol=1e-12)


def test_solve_fiber_constructed_pair():
    pts = solve_fiber(PolySpec((2, 1, 1)), 1.66)
    assert np.allclose(pts, [-0.5 - 0.3j, -0.5 + 0.3j], atol=1e-12)


def test_solve_fiber_counts_multiplicity():
    # z^2 over 0: double root at 0
    pts = solve_fiber(PolySpec((0, 0, 1)), 0.0)
    assert len(pts) == 2 and np.allclose(pts, [0, 0], atol=1e-7)


def test_solve_fiber_order_matches_for_interior_values():
    rng = np.random.default_rng(5)
    for _ in range(10):
        m = int(rng.integers(1, 5))
        zeros = 0.7 * rng.uniform(0.1, 1, m) * np.exp(2j * np.pi * rng.uniform(0, 1, m))
        B = BlaschkeProduct(tuple(zeros))
        w = 0.55 * rng.uniform() * np.exp(2j * np.pi * rng.uniform())
        assert len(solve_fiber(BlaschkeSpec(B), w)) == m


def test_critical_points_quadratic():
    pts = critical_points(PolySpec((2, 1, 1)))
    assert len(pts) == 1
    z, v = pts[0]
    assert z == pytest.approx(-0.5, abs=1e-12)
    assert v == pytest.approx(1.75, abs=1e-12)


def test_critical_points_blaschke():
    pts = critical_points(BlaschkeSpec(BlaschkeProduct((0, 0.5))))
    assert len(pts) == 1
    assert pts[0][0] == pytest.approx(2 - math.sqrt(3), abs=1e-10)


def test_critical_points_moebius_empty():
    assert critical_points(BlaschkeSpec(moebius(0.4))) == []


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


@_PROPERTY
@given(_fiber_polys())
def test_critical_values_match_rational_value(case):
    spec = PolySpec(tuple(case[0]))
    f = RationalFunction.from_spec(spec)
    for z, v in critical_points(spec):
        assert abs(z) < 1.0
        assert v == f.value(z)


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
    """Random, zero constant, tiny top, or an exact double root; and a radius."""
    degree = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(["random", "zero constant", "tiny top", "double root"]))
    radius = draw(st.sampled_from([0.5, 1.0, 2.0, np.inf]))
    if kind == "double root" and degree >= 2:
        twice = draw(_complex) / 3.0
        rest = draw(st.lists(_complex, min_size=degree - 2, max_size=degree - 2))
        return np.poly(np.array([twice, twice] + rest, dtype=complex))[::-1], radius
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


def test_zero_polynomial_raises():
    with pytest.raises(RootFindingError):
        fiber_roots(np.zeros(4, dtype=complex), 1.0)
