import numpy as np
import pytest

from bundlelab import geometry
from bundlelab.blaschke import BlaschkeProduct, MoebiusTransform
from bundlelab.errors import WindingError
from bundlelab.funcspec import BlaschkeSpec, ComposeSpec, PolySpec, RationalFunction

QUAD = PolySpec((2, 1, 1))  # 2 + z + z^2


def test_boundary_curve_identity():
    curve = geometry.boundary_curve(PolySpec((0, 1)), 512)
    assert np.max(np.abs(np.abs(curve) - 1.0)) < 1e-12
    assert curve.size >= 512


def test_boundary_curve_double_cover():
    curve = geometry.boundary_curve(PolySpec((0, 0, 1)), 256)
    assert np.max(np.abs(np.abs(curve) - 1.0)) < 1e-12


def test_boundary_curve_refinement_bound():
    curve = geometry.boundary_curve(QUAD, 256)
    gaps = np.abs(np.roll(curve, -1) - curve)
    diam = np.hypot(np.ptp(curve.real), np.ptp(curve.imag))
    assert np.max(gaps) <= 0.01 * diam + 1e-12


def test_boundary_curve_spacing_bound():
    curve = geometry.boundary_curve(QUAD, 256, spacing=0.002)
    gaps = np.abs(np.roll(curve, -1) - curve)
    diam = np.hypot(np.ptp(curve.real), np.ptp(curve.imag))
    assert np.max(gaps) <= min(0.002, 0.01 * diam)
    # an unset spacing leaves the adaptive curve as it is
    assert np.array_equal(geometry.boundary_curve(QUAD, 256, spacing=np.inf),
                          geometry.boundary_curve(QUAD, 256))


def test_boundary_curve_minimum_samples():
    with pytest.raises(ValueError):
        geometry.boundary_curve(QUAD, 64)


def test_winding_examples():
    assert geometry.winding_index(QUAD, 2.0) == 1
    assert geometry.winding_index(QUAD, 1.66) == 2
    assert geometry.winding_index(QUAD, 5.0) == 0


def test_winding_trivial_cases():
    ident = PolySpec((0, 1))
    assert geometry.winding_index(ident, 0.3) == 1
    assert geometry.winding_index(ident, 2.0) == 0
    assert geometry.winding_index(PolySpec((0, 0, 1)), 0.25) == 2


def test_winding_margin_violation():
    # the image of the counting circle passes through values of f there
    f = RationalFunction.from_spec(PolySpec((0, 1)))
    with pytest.raises(WindingError):
        geometry._argument_winding(f, complex(geometry.COUNT_RADIUS), geometry.COUNT_RADIUS)


def test_winding_matches_root_count_randomly():
    rng = np.random.default_rng(23)
    checked = 0
    for _ in range(50):
        deg = int(rng.integers(1, 5))
        coeffs = tuple(rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1))
        spec = PolySpec(coeffs)
        omega = complex(rng.standard_normal(), rng.standard_normal())
        try:
            n = geometry.winding_index(spec, omega)
        except WindingError:
            continue
        f = RationalFunction.from_spec(spec)
        roots = np.roots(f.fiber_poly(omega)[::-1])
        assert n == int(np.sum(np.abs(roots) < geometry.COUNT_RADIUS))
        checked += 1
    assert checked >= 40


def test_branch_values():
    assert geometry.branch_values(QUAD) == [1.75 + 0j]
    assert geometry.branch_values(PolySpec((0, 0, 1))) == [0j]
    assert geometry.branch_values(BlaschkeSpec(MoebiusTransform(0.4))) == []


def test_blaschke_sum_rule():
    B = BlaschkeProduct((0, 0.4, -0.3j))
    for omega in (0.0 + 0.05j, 0.2, -0.1 - 0.2j):
        assert geometry.winding_index(BlaschkeSpec(B), omega) == 3


def test_index_map_unit_disk():
    imap = geometry.index_map(PolySpec((0, 1)), (-2, 2, -2, 2), 100)
    assert imap.index_values == [0, 1]
    xs, ys = imap.cell_centers()
    # the cell at the origin lies inside; a corner cell lies outside
    assert imap.grid[50, 50] == 1
    assert imap.grid[0, 0] == 0


def test_index_map_double_cover():
    imap = geometry.index_map(PolySpec((0, 0, 1)), (-2, 2, -2, 2), 80)
    nonzero = [v for v in imap.index_values if v > 0]
    assert nonzero == [2]


def test_index_map_figure_structure():
    imap = geometry.index_map(QUAD, (-1, 5, -3, 3), 160)
    nonzero = [v for v in imap.index_values if v > 0]
    assert nonzero == [1, 2]
    # region with index 2 is the small inner loop
    assert np.sum(imap.grid == 2) < np.sum(imap.grid == 1)
    assert all(n in (0, 1, 2) for _, n in imap.probes)


def test_index_map_band_is_flagged():
    imap = geometry.index_map(PolySpec((0, 1)), (-2, 2, -2, 2), 64)
    xs, ys = imap.cell_centers()
    X, Y = np.meshgrid(xs, ys)
    dist_to_circle = np.abs(np.hypot(X, Y) - 1.0)
    cell = 4.0 / 64
    band = imap.grid == -1
    # every cell crossing the circle is inside the band
    assert np.all(band[dist_to_circle < 0.5 * cell])


def test_index_map_resolution_cap():
    with pytest.raises(ValueError):
        geometry.index_map(QUAD, (-1, 5, -3, 3), 4096)


def test_index_map_moebius_invariance():
    phi = MoebiusTransform(0.2 + 0.1j, 0.4)
    m1 = geometry.index_map(QUAD, (-1, 5, -3, 3), 90)
    m2 = geometry.index_map(ComposeSpec(QUAD, BlaschkeSpec(phi)), (-1, 5, -3, 3), 90)
    both = (m1.grid >= 0) & (m2.grid >= 0)
    assert np.array_equal(m1.grid[both], m2.grid[both])
