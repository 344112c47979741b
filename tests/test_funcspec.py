import numpy as np
import pytest

from bundlelab.blaschke import BlaschkeProduct
from bundlelab.errors import ConfigError, DomainError
from bundlelab.funcspec import (
    ComposeSpec,
    PolySpec,
    RationalFunction,
    StarSpec,
    SumSpec,
    parse_function_spec,
    spec_to_text,
    to_rational,
)


def test_parse_poly():
    spec = parse_function_spec("poly(2,1,1)")
    assert isinstance(spec, PolySpec)
    assert spec.coeffs == (2 + 0j, 1 + 0j, 1 + 0j)


def test_parse_complex_literals():
    spec = parse_function_spec("poly(1+2i, -0.5-0.3i, 3, i, -i, 1e-3)")
    assert spec.coeffs == (1 + 2j, -0.5 - 0.3j, 3, 1j, -1j, 1e-3)


def test_parse_blaschke_and_moebius():
    spec = parse_function_spec("blaschke(0.5; 0, 0.3+0.1i)")
    assert isinstance(spec, BlaschkeProduct)
    assert spec.theta == 0.5
    assert spec.zeros == (0j, 0.3 + 0.1j)
    m = parse_function_spec("moebius(0; 0.4)")
    assert m.order == 1


def test_parse_compose_sum_prod_scale_star():
    spec = parse_function_spec(
        "sum(poly(1), scale(2+0i; prod(poly(0,1), star(blaschke(0.3; 0.2+0.1i)))))"
    )
    assert isinstance(spec, SumSpec)
    z = 0.3 - 0.2j
    b = RationalFunction.from_spec(BlaschkeProduct((0.2 + 0.1j,), 0.3))
    manual = 1 + 2 * z * np.conj(b.value(np.conj(z)))
    assert RationalFunction.from_spec(spec).value(z) == pytest.approx(manual, abs=1e-14)


def test_parse_error_reports_position():
    with pytest.raises(ConfigError) as err:
        parse_function_spec("compose(poly(0,1), blaschke(0; 0.4)")
    assert "column" in str(err.value)
    with pytest.raises(ConfigError) as err2:
        parse_function_spec("poly(1,2)\nmore")
    assert err2.value.line == 2


def test_parse_unknown_form():
    with pytest.raises(ConfigError, match="unknown form"):
        parse_function_spec("fourier(1,2)")


def test_moebius_needs_one_zero():
    with pytest.raises(ConfigError):
        parse_function_spec("moebius(0; 0.3, 0.4)")


def test_round_trip_text():
    texts = [
        "poly(2,1,1)",
        "blaschke(0; 0,0.5)",
        "compose(poly(0,1,0,2), blaschke(0; 0,0.4))",
        "prod(poly(0,1), blaschke(0; 0.4))",
        "prod(poly(1), compose(poly(0,1,0,2), moebius(0; 0.3)), star(blaschke(0.3; 0.2+0.1i)))",
        "star(blaschke(0.3; 0.2+0.1i))",
        "moebius(0.5; 0.3-0.2i)",
        "sum(poly(1), compose(poly(0,1,0,2), blaschke(0; 0, 0.4)))",
        "scale(2+0i; poly(0,1,0,2))",
        "scale(-1i; prod(poly(0,1), blaschke(0; 0.4)))",
        "sum(poly(0,1), scale(2+0i; poly(0,0,0,1)), star(moebius(0; 0.3)))",
    ]
    for text in texts:
        spec = parse_function_spec(text)
        t1 = spec_to_text(spec)
        assert spec_to_text(parse_function_spec(t1)) == t1, text
        again = parse_function_spec(t1)
        zs = 0.4 * np.exp(2j * np.pi * np.arange(7) / 7)
        assert np.allclose(
            RationalFunction.from_spec(spec).value(zs),
            RationalFunction.from_spec(again).value(zs),
            atol=1e-14,
        )


def test_rational_of_compose():
    spec = parse_function_spec("compose(poly(0,0,1), blaschke(0; 0.3))")
    P, Q = to_rational(spec)
    # ((0.3 - z)/(1 - 0.3 z))^2 cleared of denominators
    z = 0.2 + 0.1j
    lhs = np.polyval(P[::-1], z) / np.polyval(Q[::-1], z)
    phi = (0.3 - z) / (1 - 0.3 * z)
    assert lhs == pytest.approx(phi**2, abs=1e-14)


def test_compose_analyticity_guard():
    # the outer factor has a pole at 1/0.3; an inner map reaching it inside
    # the closed disk (4z does at z = 0.83) is rejected
    bad = ComposeSpec(BlaschkeProduct((0.3,)), PolySpec((0, 4)))
    with pytest.raises(DomainError):
        to_rational(bad)
    # 2z keeps the pole preimage outside the closed disk: analytic, accepted
    ok = ComposeSpec(BlaschkeProduct((0.3,)), PolySpec((0, 2)))
    P, Q = to_rational(ok)
    assert max(P.size, Q.size) >= 2


def test_degree_cap():
    deep = PolySpec(tuple([0] * 15 + [1]))  # z^15
    nested = ComposeSpec(deep, ComposeSpec(deep, PolySpec((0, 0.5, 0.25))))
    with pytest.raises(DomainError, match="degree cap"):
        to_rational(nested)


def test_star_of_sum_is_conjugate():
    plain = SumSpec((PolySpec((1j, 2)),))
    z = 0.3 + 0.4j
    assert RationalFunction.from_spec(StarSpec(plain)).value(z) == pytest.approx(
        np.conj(RationalFunction.from_spec(plain).value(np.conj(z))), abs=1e-14
    )


def test_rational_function_derivatives():
    f = RationalFunction.from_spec(parse_function_spec("blaschke(0; 0.3)"))
    z = 0.2 - 0.1j
    h = 1e-6
    fd = (f.value(z + h) - f.value(z - h)) / (2 * h)
    assert f.derivative(z) == pytest.approx(fd, rel=1e-8)
    fd2 = (f.derivative(z + h) - f.derivative(z - h)) / (2 * h)
    assert f.second_derivative(z) == pytest.approx(fd2, rel=1e-7)


def test_fiber_poly():
    f = RationalFunction.from_spec(PolySpec((2, 1, 1)))
    R = f.fiber_poly(2.0)
    assert np.allclose(R, [0, 1, 1])


def test_composition_with_a_tiny_blaschke_zero_is_analytic():
    # the squared denominator's top coefficient, about 2.5e-301, once made
    # numpy.roots report a spurious zero of the denominator at 0; a zero part
    # below sqrt(tiny), such as 9.4e-169, is set to 0 itself
    assert BlaschkeProduct((0.5, 9.4e-169)).zeros[1] == 0
    inner = BlaschkeProduct((0.5, 1e-150))
    P, Q = to_rational(ComposeSpec(PolySpec((0, 0, 1j)), inner))
    assert np.abs(Q[-1]) < 1e-160
