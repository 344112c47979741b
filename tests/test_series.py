
import numpy as np
import pytest

from bundlelab import series
from bundlelab.blaschke import BlaschkeProduct
from bundlelab.errors import DomainError
from bundlelab.funcspec import PolySpec
from bundlelab.weights import WeightSequence

HARDY = WeightSequence.hardy()


def _geometric(ratio, K):
    """The series of 1/(1 - ratio*z) through order K."""
    return series.PowerSeries(np.asarray(ratio, dtype=complex) ** np.arange(K + 1))


def test_taylor_polynomial_exact():
    f = series.taylor(PolySpec((2, 1, 1)), 4)
    assert f.coeffs.tolist() == [2, 1, 1, 0, 0]


def test_taylor_blaschke_expansion():
    # (0.5 - z) * (1 + 0.5 z + 0.25 z^2 + ...) through order 2
    f = series.taylor(BlaschkeProduct((0.5,)), 2)
    assert np.allclose(f.coeffs, [0.5, -0.75, -0.375], atol=1e-15)


def test_multiply_examples():
    a = series.PowerSeries([1, 1, 0])
    b = series.PowerSeries([1, -1, 0])
    assert series.multiply(a, b).coeffs.tolist() == [1, 0, -1]
    g = _geometric(0.5, 40)
    inv = series.poly_series([1, -0.5], 40)
    prod = series.multiply(g, inv).coeffs
    assert prod[0] == 1.0 and np.max(np.abs(prod[1:])) < 1e-15
    z = series.PowerSeries([0, 1, 0])
    assert series.multiply(z, z).coeffs.tolist() == [0, 0, 1]


def test_multiply_truncation_is_min():
    a = series.PowerSeries(np.ones(10))
    b = series.PowerSeries(np.ones(5))
    assert series.multiply(a, b).K == 4


def test_inner_monomial_orthogonality():
    w = WeightSequence.bergman(1)
    zm = series.poly_series([0, 0, 1], 8)
    zn = series.poly_series([0, 0, 0, 1], 8)
    assert series.inner(zm, zn, w) == 0
    assert series.inner(zn, zn, w).real == pytest.approx(w.betas(3)[3] ** 2, rel=1e-14)


def test_inner_geometric_kernel_value():
    g = _geometric(0.5, 100)
    assert series.inner(g, g, HARDY).real == pytest.approx(4.0 / 3.0, abs=1e-12)


def test_moebius_derivative_norm_closed_form():
    # sum (k+1)^2 x^k = (1+x)/(1-x)^3 gives 0.5625 * (1.25/0.421875) = 5/3
    from bundlelab.frames import moebius_derivative_power_norm

    val = moebius_derivative_power_norm(0.5, 1)
    assert val**2 == pytest.approx(5.0 / 3.0, abs=1e-10)


def test_cauchy_schwarz_random():
    rng = np.random.default_rng(7)
    w = WeightSequence.polygrowth(1)
    for _ in range(25):
        f = series.PowerSeries(rng.standard_normal(30) + 1j * rng.standard_normal(30))
        g = series.PowerSeries(rng.standard_normal(30) + 1j * rng.standard_normal(30))
        lhs = abs(series.inner(f, g, w)) ** 2
        rhs = series.inner(f, f, w).real * series.inner(g, g, w).real
        assert lhs <= rhs * (1 + 1e-12)


def test_multiply_commutative_associative_random():
    rng = np.random.default_rng(11)
    a = series.PowerSeries(rng.standard_normal(16) + 1j * rng.standard_normal(16))
    b = series.PowerSeries(rng.standard_normal(16) + 1j * rng.standard_normal(16))
    c = series.PowerSeries(rng.standard_normal(16) + 1j * rng.standard_normal(16))
    assert np.allclose(
        series.multiply(a, b).coeffs, series.multiply(b, a).coeffs, rtol=0, atol=1e-13
    )
    assert np.allclose(
        series.multiply(series.multiply(a, b), c).coeffs,
        series.multiply(a, series.multiply(b, c)).coeffs,
        atol=1e-12,
    )


def test_finite_coefficients_enforced():
    with pytest.raises(ValueError):
        series.PowerSeries([1.0, np.inf])
    with pytest.raises(ValueError):
        series.PowerSeries([np.nan])


def test_rational_solves_q_times_y_equals_p_times_x():
    rng = np.random.default_rng(7)
    P = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    Q = np.array([1.0, -0.5 + 0.2j, 0.1j])
    X = rng.standard_normal((40, 3)) + 1j * rng.standard_normal((40, 3))
    Y = series.rational(P, Q, X)
    assert Y.shape == X.shape
    for c in range(3):
        lhs = np.convolve(Q, Y[:, c])[:40]
        assert np.allclose(lhs, np.convolve(P, X[:, c])[:40], rtol=0, atol=1e-13)
        assert np.array_equal(series.rational(P, Q, X[:, c]), Y[:, c])
    with pytest.raises(DomainError):
        series.rational(P, [0.0, 1.0], X)


def test_a_unit_constant_term_skips_only_an_exact_division():
    # Q[0] = 1 takes the unit-diagonal solve; the general one gives the same values
    from scipy.linalg.lapack import ztbtrs

    rng = np.random.default_rng(11)
    P = np.array([0.3 - 0.1j, -1.0])
    Q = np.array([1.0, -0.5 + 0.2j, 0.1j])
    X = rng.standard_normal((200, 3)) + 1j * rng.standard_normal((200, 3))
    band = series.toeplitz_band(Q, 200)
    numerator = np.asfortranarray(P[0] * X)
    numerator[1:] += P[1] * X[:-1]
    general, info = ztbtrs(band, numerator, uplo="L", diag="N")
    assert info == 0
    assert np.array_equal(series.rational_banded(P, band, X), general)
    assert np.array_equal(series.rational(P, Q, X), general)


def test_real_inputs_stay_real():
    # a real product is solved by dtbtrs; cast to complex, ztbtrs gives it a zero imaginary part
    rng = np.random.default_rng(12)
    P, Q = np.array([0.3, -1.0]), np.array([1.0, -0.5, 0.1])
    X = rng.standard_normal((200, 3))
    real = series.rational(P, Q, X)
    cast = series.rational(P.astype(complex), Q, X)
    assert (real.dtype, cast.dtype) == (np.float64, np.complex128)
    assert series.toeplitz_band(Q, 200).dtype == np.float64
    assert not np.any(cast.imag)
    assert np.allclose(real, cast.real, rtol=0, atol=1e-13 * np.max(np.abs(real)))
