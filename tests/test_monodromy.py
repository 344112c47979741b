import numpy as np
import pytest

from bundlelab import monodromy
from bundlelab.blaschke import BlaschkeProduct, compose_blaschke, eval_blaschke
from bundlelab.errors import FiberError
from bundlelab.funcspec import (
    BlaschkeSpec,
    ComposeSpec,
    PolySpec,
    RationalFunction,
)

G_CUBIC = PolySpec((0, 1, 0, 2))  # z + 2z^3
INNER = BlaschkeProduct((0, 0.4), np.pi)  # literally z * (0.4-z)/(1-0.4z)


def test_base_fiber_square_roots():
    fib = monodromy.base_fiber(PolySpec((0, 0, 1)), 0.25)
    assert fib.points == (-0.5, 0.5)


def test_base_fiber_constructed_roots():
    fib = monodromy.base_fiber(PolySpec((2, 1, 1)), 1.66)
    assert np.allclose(fib.points, [-0.5 - 0.3j, -0.5 + 0.3j], atol=1e-12)


def test_base_fiber_composite_count():
    f = ComposeSpec(G_CUBIC, BlaschkeSpec(INNER))
    fib = monodromy.base_fiber(f, 0.05)
    assert fib.size == 6


def test_base_fiber_rejects_branch_value():
    with pytest.raises(FiberError):
        monodromy.base_fiber(PolySpec((2, 1, 1)), 1.75)


def test_track_fiber_constant_path():
    f = PolySpec((0, 0, 1))
    fib = monodromy.base_fiber(f, 0.25)
    out = monodromy.track_fiber(f, fib, np.array([0.25, 0.25 + 0j]))
    assert np.allclose(out.points, fib.points, atol=1e-12)


def test_track_fiber_swaps_square_roots():
    f = PolySpec((0, 0, 1))
    fib = monodromy.base_fiber(f, 0.25)
    loop = 0.25 * np.exp(2j * np.pi * np.linspace(0, 1, 65))
    perm = monodromy.loop_permutation(f, fib, loop)
    assert perm == (1, 0)


def test_track_fiber_cube_roots_cycle():
    f = PolySpec((0, 0, 0, 1))
    fib = monodromy.base_fiber(f, 0.2)
    loop = 0.2 * np.exp(2j * np.pi * np.linspace(0, 1, 97))
    perm = monodromy.loop_permutation(f, fib, loop)
    # a 3-cycle; tracking twice gives the same permutation, reversing inverts
    assert sorted(perm) == [0, 1, 2] and perm != (0, 1, 2)
    assert monodromy.loop_permutation(f, fib, loop) == perm
    rev = monodromy.loop_permutation(f, fib, loop[::-1])
    assert all(rev[perm[i]] == i for i in range(3))


def test_track_fiber_preserves_cardinality_and_separation():
    f = ComposeSpec(G_CUBIC, BlaschkeSpec(INNER))
    fib = monodromy.base_fiber(f, 0.05)
    path = np.array([0.05, 0.05 + 0.04j, 0.01 + 0.04j, 0.05])
    out = monodromy.track_fiber(f, fib, path)
    assert out.size == fib.size
    assert out.min_separation() > 1e-6


def test_monodromy_generators_power():
    act = monodromy.monodromy_generators(PolySpec((0, 0, 0, 0, 1)), 0.3)
    assert act.transitive
    assert act.closure_size == 4
    assert len(act.generators) == 1
    p = act.generators[0]
    # a 4-cycle
    seen, x = set(), 0
    for _ in range(4):
        x = p[x]
        seen.add(x)
    assert len(seen) == 4


def test_monodromy_moebius_trivial():
    from bundlelab.blaschke import MoebiusTransform

    act = monodromy.monodromy_generators(BlaschkeSpec(MoebiusTransform(0.4)), 0.1)
    assert act.degree == 1
    assert act.generators == []
    assert act.closure_size == 1


def _nontrivial_equal_partitions(act):
    """Generator-stable partitions with equal blocks of size strictly in (1, n)."""
    n = act.degree
    out = []
    for p in monodromy._stable_partitions(n, act.generators):
        sizes = {len(b) for b in p}
        if len(sizes) == 1 and sizes.pop() not in (1, n):
            out.append(p)
    return out


def test_block_systems_four_cycle():
    act = monodromy.monodromy_generators(PolySpec((0, 0, 0, 0, 1)), 0.3)
    systems = _nontrivial_equal_partitions(act)
    assert len(systems) == 1
    blocks = systems[0]
    assert len(blocks) == 2
    # blocks must pair opposite fiber points {z, -z}
    for block in blocks:
        a, b = (act.fiber.points[i] for i in block)
        assert abs(a + b) < 1e-9


def test_monodromy_transitive_on_six_points():
    f = ComposeSpec(G_CUBIC, BlaschkeSpec(INNER))
    act = monodromy.monodromy_generators(f)
    assert act.degree == 6
    assert act.transitive
    assert act.generators


def test_block_system_trivial_group_single_point():
    from bundlelab.blaschke import MoebiusTransform

    act = monodromy.monodromy_generators(BlaschkeSpec(MoebiusTransform(0.4)), 0.1)
    assert _nontrivial_equal_partitions(act) == []


def test_singleton_block_gives_moebius():
    fib = monodromy.base_fiber(PolySpec((0, 0, 1)), 0.25)
    bhat = monodromy.inner_factor_from_block(fib, (1,))
    assert bhat.order == 1
    assert bhat.zeros == (0.5,)


def test_block_systems_primitive_cubic():
    act = monodromy.monodromy_generators(G_CUBIC)
    assert act.degree == 3 and act.transitive
    assert _nontrivial_equal_partitions(act) == []


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
    outer = monodromy.outer_factor(f, bhat)
    assert outer.consistency < 1e-10
    # recovered outer is a Moebius image of the identity: degree-1 behaviour
    ws = 0.3 * np.exp(2j * np.pi * np.arange(8) / 8)
    vals = outer.value(ws)
    assert np.max(np.abs(vals)) < 1.0


def test_outer_factor_rejects_primitive():
    fib = monodromy.base_fiber(G_CUBIC, 0.05)
    bhat = monodromy.inner_factor_from_block(fib, (0, 1, 2))
    with pytest.raises(FiberError):
        monodromy.outer_factor(G_CUBIC, bhat)


def test_decompose_composite_round_trip():
    f = ComposeSpec(G_CUBIC, BlaschkeSpec(INNER))
    dec = monodromy.decompose(f)
    assert dec.m == 2
    assert dec.residual < 1e-8
    assert dec.outer_index == 3
    assert dec.m * dec.outer_index == dec.fiber.size


def test_decompose_order_bookkeeping_against_winding():
    from bundlelab import geometry

    f = ComposeSpec(G_CUBIC, BlaschkeSpec(INNER))
    dec = monodromy.decompose(f)
    assert geometry.winding_index(f, dec.base_point) == dec.m * dec.outer_index


def test_decompose_indecomposable():
    dec = monodromy.decompose(G_CUBIC)
    assert dec.m == 1
    assert dec.outer is G_CUBIC
    assert dec.residual == 0.0


def test_decompose_full_blaschke():
    B6 = compose_blaschke(BlaschkeProduct((0.2, -0.3, 0.1j)), BlaschkeProduct((0, 0.4)))
    dec = monodromy.decompose(BlaschkeSpec(B6))
    assert dec.m == 6
    assert dec.residual < 1e-8


def test_decompose_reproducible_between_base_points():
    f = ComposeSpec(G_CUBIC, BlaschkeSpec(INNER))
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
    f = ComposeSpec(G_CUBIC, BlaschkeSpec(INNER))
    dec = monodromy.decompose(f)
    d = dec.to_dict()
    assert d["m"] == 2
    assert len(d["inner_zeros"]) == 2
    assert isinstance(d["generators"], list) and d["generators"]
    assert d["certificate"].startswith("dec-")
    assert d["outer"]["consistency"] < 1e-10


def test_reconstruction_matches_on_fresh_points():
    f = ComposeSpec(G_CUBIC, BlaschkeSpec(INNER))
    dec = monodromy.decompose(f)
    rng = np.random.default_rng(99)  # seed differs from the fitting stream
    fr = RationalFunction.from_spec(f)
    bres = RationalFunction(*dec.inner.rational())
    count = 0
    worst = 0.0
    while count < 200:
        z = complex(rng.uniform(-0.95, 0.95), rng.uniform(-0.95, 0.95))
        if abs(z) > 0.95:
            continue
        w = bres.value(z)
        if abs(w) > 0.75:
            continue
        worst = max(worst, abs(fr.value(z) - dec.outer.value(w)))
        count += 1
    assert worst < 1e-8


def test_identity_blaschke_is_z():
    ident = monodromy.identity_blaschke()
    zs = 0.7 * np.exp(2j * np.pi * np.arange(9) / 9)
    assert np.max(np.abs(eval_blaschke(ident, zs) - zs)) < 1e-15
