import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from bundlelab import geometry
from bundlelab.blaschke import BlaschkeProduct, MoebiusTransform
from bundlelab.errors import WindingError
from bundlelab.funcspec import ComposeSpec, PolySpec, RationalFunction

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


def _counting_circle_sizes(monkeypatch):
    """Sizes of the arrays on |z| = COUNT_RADIUS that RationalFunction.value gets."""
    sizes = []
    value = RationalFunction.value

    def spy(self, z):
        r = np.abs(np.asarray(z))
        if r.size > 1 and np.all(np.abs(r - geometry.COUNT_RADIUS) < 1e-12):
            sizes.append(r.size)
        return value(self, z)

    monkeypatch.setattr(RationalFunction, "value", spy)
    return sizes


def test_index_map_evaluates_the_counting_circle_once(monkeypatch):
    sizes = _counting_circle_sizes(monkeypatch)
    imap = geometry.index_map(QUAD, (-1, 5, -3, 3), 160)
    assert len(imap.probes) > 1
    assert sizes.count(4096) == 1


def test_decompose_evaluates_the_counting_circle_once(monkeypatch):
    # f(0) = 1 is the branch value of 1 + z^2, so the ring around it is probed
    from bundlelab import monodromy

    points = []
    fiber = geometry.fiber

    def counting(f, omega):
        points.append(omega)
        return fiber(f, omega)

    sizes = _counting_circle_sizes(monkeypatch)
    monkeypatch.setattr(geometry, "fiber", counting)
    dec = monodromy.decompose(PolySpec((1, 0, 1)))
    assert dec.m == 2 and len(points) > 1
    assert sizes.count(4096) == 1


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
    assert geometry.branch_values(MoebiusTransform(0.4)) == []


def test_blaschke_sum_rule():
    B = BlaschkeProduct((0, 0.4, -0.3j))
    for omega in (0.0 + 0.05j, 0.2, -0.1 - 0.2j):
        assert geometry.winding_index(B, omega) == 3


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
    # each probe sits at a cell center as cell_centers() gives it
    xs, ys = imap.cell_centers()
    assert all(omega.real in xs and omega.imag in ys for omega, _ in imap.probes)


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
    m2 = geometry.index_map(ComposeSpec(QUAD, phi), (-1, 5, -3, 3), 90)
    both = (m1.grid >= 0) & (m2.grid >= 0)
    assert np.array_equal(m1.grid[both], m2.grid[both])


def _full_query_band(curve, bounds, res):
    """The band as a query of every cell center against the whole curve."""
    re_min, re_max, im_min, im_max = bounds
    cell_w = (re_max - re_min) / res
    cell_h = (im_max - im_min) / res
    xs = re_min + (np.arange(res) + 0.5) * cell_w
    ys = im_min + (np.arange(res) + 0.5) * cell_h
    X, Y = np.meshgrid(xs, ys)
    width = 1.5 * float(np.hypot(cell_w, cell_h))
    tree = cKDTree(np.column_stack([curve.real, curve.imag]))
    dist, _ = tree.query(np.column_stack([X.ravel(), Y.ravel()]), distance_upper_bound=width)
    return dist.reshape(res, res) < width


_COEFF = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)


@st.composite
def _maps(draw):
    """A polynomial or g o B, a rectangle (square or not, entered by the
    curve or far from it) and a resolution."""
    g = PolySpec(tuple(draw(st.lists(_COEFF, min_size=2, max_size=5))))
    assume(abs(g.coeffs[-1]) > 0.1)
    if draw(st.booleans()):
        zeros = draw(st.lists(st.complex_numbers(max_magnitude=0.7), min_size=1, max_size=2))
        g = ComposeSpec(g, BlaschkeProduct(tuple(zeros)))
    far = draw(st.sampled_from([0.0, 0.0, 40.0]))
    cx = far + draw(st.floats(-3.0, 3.0))
    cy = draw(st.floats(-3.0, 3.0))
    hw, hh = draw(st.floats(0.05, 5.0)), draw(st.floats(0.05, 5.0))
    return g, (cx - hw, cx + hw, cy - hh, cy + hh), draw(st.integers(1, 300))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_maps())
def test_index_map_band_equals_the_full_query(case):
    spec, bounds, res = case
    imap = geometry.index_map(spec, bounds, res)
    assert np.array_equal(imap.grid == -1, _full_query_band(imap.curve, bounds, res))


def test_band_covers_cells_finer_than_the_coordinates():
    # cells below about 1e-13 of the coordinates: the centers are rounded by
    # more than a cell, and the pruned query must still find every near cell
    rng = np.random.default_rng(5)
    for _ in range(60):
        c = 10.0 ** rng.uniform(5, 12)
        span = c * 10.0 ** rng.uniform(-15.5, -12)
        re_min, re_max, im_min, im_max = c, c + span, -c, -c + span
        res = int(rng.integers(1, 120))
        cell_w, cell_h = (re_max - re_min) / res, (im_max - im_min) / res
        xs = re_min + (np.arange(res) + 0.5) * cell_w
        ys = im_min + (np.arange(res) + 0.5) * cell_h
        width = 1.5 * float(np.hypot(cell_w, cell_h))
        curve = (re_min + rng.uniform(-0.2, 1.2, 50) * (re_max - re_min)
                 + 1j * (im_min + rng.uniform(-0.2, 1.2, 50) * (im_max - im_min)))
        band = geometry._band(curve, xs, ys, (re_min, im_min, cell_w, cell_h), width)
        assert np.array_equal(band, _full_query_band(curve, (re_min, re_max, im_min, im_max), res))


def test_cells_per_index_counts_the_cells_off_the_band():
    grid = np.array([[-1, 0, 0], [2, 2, -1], [0, 11, 11]], dtype=np.int16)
    imap = geometry.IndexMap((0.0, 1.0, 0.0, 1.0), 3, grid, np.zeros(3, complex), [])
    assert imap.cells_per_index == {0: 3, 2: 2, 11: 2}
    assert imap.index_values == [0, 2, 11]
