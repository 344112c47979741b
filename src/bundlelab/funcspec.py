"""Expression trees for analytic functions on the closed disk.

The grammar is deliberately small: polynomials, finite Blaschke products,
composition, weighted sums, products, and the coefficient-conjugation star.
Every tree reduces to a rational function P/Q whose denominator has no zeros
on the closed disk, which is what the fiber, winding, and decomposition
machinery consume.

Config-file syntax (prefix expressions)::

    poly(2,1,1)                      # 2 + z + z^2, constant coefficient first
    blaschke(0; 0, 0.5)              # theta; then zeros, complex literals a+bi
    moebius(0; 0.4)                  # order-1 shorthand
    compose(poly(0,1,0,2), blaschke(0; 0, 0.4))
    sum(poly(1), scale(2+0i, poly(0,1)))
    prod(poly(0,1), blaschke(0; 0.4))
    star(blaschke(0.3; 0.2+0.1i))
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .blaschke import BlaschkeProduct, MoebiusTransform, fiber_roots, with_multiplicity
from .errors import ConfigError, DomainError

__all__ = [
    "FunctionSpec",
    "PolySpec",
    "BlaschkeSpec",
    "ComposeSpec",
    "SumSpec",
    "ProdSpec",
    "StarSpec",
    "to_rational",
    "parse_function_spec",
    "spec_to_text",
]

DEGREE_CAP = 64


class FunctionSpec:
    """Base class; concrete nodes implement ``_rational``."""


@dataclass(frozen=True)
class PolySpec(FunctionSpec):
    """Polynomial with constant coefficient first."""

    coeffs: tuple

    def __post_init__(self):
        cs = tuple(complex(c) for c in self.coeffs)
        if not cs:
            cs = (0j,)
        object.__setattr__(self, "coeffs", cs)


@dataclass(frozen=True)
class BlaschkeSpec(FunctionSpec):
    product: BlaschkeProduct


@dataclass(frozen=True)
class ComposeSpec(FunctionSpec):
    outer: FunctionSpec
    inner: FunctionSpec


@dataclass(frozen=True)
class SumSpec(FunctionSpec):
    terms: tuple  # of (complex scalar, FunctionSpec)


@dataclass(frozen=True)
class ProdSpec(FunctionSpec):
    factors: tuple
    scalar: complex = 1.0 + 0j


@dataclass(frozen=True)
class StarSpec(FunctionSpec):
    inner: FunctionSpec


def _trim(c):
    c = np.asarray(c, dtype=complex)
    nz = np.nonzero(np.abs(c) > 0.0)[0]
    if nz.size == 0:
        return np.zeros(1, dtype=complex)
    return c[: nz[-1] + 1]


def to_rational(spec, cap=DEGREE_CAP):
    """Reduce a spec tree to (P, Q) constant-first coefficient arrays.

    Degrees are capped (default 64) to keep companion matrices small; no
    common-factor simplification is attempted.
    """
    if isinstance(spec, BlaschkeProduct):
        spec = BlaschkeSpec(spec)
    P, Q = _rational(spec, cap)
    P, Q = _trim(P), _trim(Q)
    if max(P.size, Q.size) - 1 > cap:
        raise DomainError(
            f"rational reduction exceeds the degree cap ({cap}); "
            "simplify the expression or raise the cap"
        )
    return P, Q


def _rational(spec, cap):
    if isinstance(spec, PolySpec):
        # trailing zeros would leave a common factor in a composition
        return _trim(spec.coeffs), np.ones(1, dtype=complex)
    if isinstance(spec, BlaschkeSpec):
        return spec.product.rational()
    if isinstance(spec, StarSpec):
        P, Q = _rational(spec.inner, cap)
        return np.conj(P), np.conj(Q)
    if isinstance(spec, SumSpec):
        P = np.zeros(1, dtype=complex)
        Q = np.ones(1, dtype=complex)
        for scalar, term in spec.terms:
            Pt, Qt = _rational(term, cap)
            P = npoly.polyadd(npoly.polymul(P, Qt), scalar * npoly.polymul(Pt, Q))
            Q = npoly.polymul(Q, Qt)
        return P, Q
    if isinstance(spec, ProdSpec):
        P = np.array([spec.scalar], dtype=complex)
        Q = np.ones(1, dtype=complex)
        for f in spec.factors:
            Pf, Qf = _rational(f, cap)
            P = npoly.polymul(P, Pf)
            Q = npoly.polymul(Q, Qf)
        return P, Q
    if isinstance(spec, ComposeSpec):
        N, D = compose_cleared(*_rational(spec.outer, cap), *_rational(spec.inner, cap))
        _check_disk_denominator(D)
        return N, D
    raise TypeError(f"not a FunctionSpec: {spec!r}")


def compose_cleared(Po, Qo, Pi, Qi, d=None):
    """(N, D) with N/D = (Po/Qo) o (Pi/Qi), cleared of denominators.

    N = sum_k Po[k] Pi^k Qi^(d-k) and D likewise from Qo, with d the degree
    of Po/Qo unless given (a larger d multiplies both by Qi^(d - deg)).
    """
    if d is None:
        d = max(Po.size, Qo.size) - 1
    Pi, Qi = _trim(Pi), _trim(Qi)
    pow_p = [np.ones(1, dtype=complex)]
    pow_q = [np.ones(1, dtype=complex)]
    for _ in range(d):
        pow_p.append(np.convolve(pow_p[-1], Pi))
        pow_q.append(np.convolve(pow_q[-1], Qi))
    N = np.zeros(d * max(Pi.size, Qi.size) - d + 1, dtype=complex)
    D = np.zeros_like(N)
    for k in range(d + 1):
        basis = np.convolve(pow_p[k], pow_q[d - k])
        if k < Po.size and Po[k] != 0:
            N[: basis.size] += Po[k] * basis
        if k < Qo.size and Qo[k] != 0:
            D[: basis.size] += Qo[k] * basis
    return _trim(N), _trim(D)


def _check_disk_denominator(D):
    D = _trim(D)
    if D.size == 1:
        if D[0] == 0:
            raise DomainError("composition produced a vanishing denominator")
        return
    # top coefficients below roundoff of the largest only carry roots far
    # outside the disk, and left in they swamp the companion matrix
    big = np.flatnonzero(np.abs(D) > np.finfo(float).eps * np.max(np.abs(D)))
    roots = np.roots(D[: big[-1] + 1][::-1])
    if roots.size and np.min(np.abs(roots)) <= 1.0 + 1e-9:
        raise DomainError(
            "composition is not analytic on the closed disk "
            "(denominator zero at modulus "
            f"{np.min(np.abs(roots)):.6g})"
        )


class RationalFunction:
    """Cached rational form of a spec: a function on the closed disk.

    Reduces the tree once; repeated evaluation (fiber solves, grid scans)
    then runs on plain Horner evaluations.  ``value``, ``derivative``,
    ``second_derivative`` and ``preimages`` are the calls that Moebius
    matching makes; the outer factor of a decomposition is one too.
    """

    def __init__(self, P, Q):
        self.P = np.asarray(P, dtype=complex)
        self.Q = np.asarray(Q, dtype=complex)
        self.dP = _poly_deriv(self.P)
        self.dQ = _poly_deriv(self.Q)
        # numerator of the derivative and its own derivative, for f''
        self.N1 = npoly.polysub(
            npoly.polymul(self.dP, self.Q), npoly.polymul(self.P, self.dQ)
        )
        self.dN1 = _poly_deriv(self.N1)

    @classmethod
    def from_spec(cls, spec, cap=DEGREE_CAP):
        """The reduced spec; a RationalFunction is passed through unchanged."""
        return spec if isinstance(spec, cls) else cls(*to_rational(spec, cap))

    @property
    def degree(self):
        return max(self.P.size, self.Q.size) - 1

    def value(self, z):
        z = np.asarray(z, dtype=complex)
        out = np.polyval(self.P[::-1], z) / np.polyval(self.Q[::-1], z)
        return out if out.shape else complex(out)

    def derivative(self, z):
        z = np.asarray(z, dtype=complex)
        q = np.polyval(self.Q[::-1], z)
        out = np.polyval(self.N1[::-1], z) / (q * q)
        return out if out.shape else complex(out)

    def second_derivative(self, z):
        z = np.asarray(z, dtype=complex)
        q = np.polyval(self.Q[::-1], z)
        n1 = np.polyval(self.N1[::-1], z)
        dn1 = np.polyval(self.dN1[::-1], z)
        dq = np.polyval(self.dQ[::-1], z)
        out = (dn1 * q - 2.0 * n1 * dq) / (q * q * q)
        return out if out.shape else complex(out)

    def fiber_poly(self, omega):
        """Constant-first coefficients of P - omega*Q for one value omega."""
        R = np.zeros(max(self.P.size, self.Q.size), dtype=complex)
        R[: self.P.size] += self.P
        R[: self.Q.size] -= omega * self.Q
        return R

    def preimages(self, v):
        """Preimages of v in the open disk with multiplicity, in lexicographic order."""
        R = self.fiber_poly(v)
        if np.max(np.abs(R)) == 0.0:
            return []
        return with_multiplicity(fiber_roots(R, 1.0))


def _poly_deriv(c):
    if c.size <= 1:
        return np.zeros(1, dtype=complex)
    return c[1:] * np.arange(1, c.size)


# -- parser ----------------------------------------------------------------


class _Tokens:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def _line_col(self, pos):
        line = self.text.count("\n", 0, pos) + 1
        col = pos - (self.text.rfind("\n", 0, pos) + 1) + 1
        return line, col

    def error(self, message, pos=None):
        line, col = self._line_col(self.pos if pos is None else pos)
        raise ConfigError(message, line=line, column=col)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t\r\n":
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch):
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            self.error(f"expected {ch!r}")
        self.pos += 1

    def name(self):
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        if self.pos == start:
            self.error("expected a name")
        return self.text[start : self.pos]

    def complex_literal(self):
        self.skip_ws()
        start = self.pos
        allowed = "0123456789.+-eEij"
        while self.pos < len(self.text) and self.text[self.pos] in allowed:
            # a sign only continues the literal after an exponent marker or
            # in the interior of a+bi
            self.pos += 1
        token = self.text[start : self.pos].strip()
        if not token:
            self.error("expected a complex literal")
        try:
            return _parse_complex(token)
        except ValueError:
            self.error(f"bad complex literal {token!r}", pos=start)


def _parse_complex(token):
    token = token.replace("i", "j")
    if token in ("j", "+j"):
        return 1j
    if token == "-j":
        return -1j
    return complex(token)


_FORMS = ("poly", "blaschke", "moebius", "compose", "sum", "prod", "scale", "star")


def parse_function_spec(text):
    """Parse the prefix expression grammar; errors carry line/column."""
    toks = _Tokens(text)
    spec = _parse(toks)
    toks.skip_ws()
    if toks.pos != len(toks.text):
        toks.error("trailing input after expression")
    return spec


def _parse(toks):
    head = toks.name()
    if head not in _FORMS:
        toks.error(f"unknown form {head!r} (expected one of {', '.join(_FORMS)})")
    toks.expect("(")
    if head == "poly":
        coeffs = _complex_list(toks)
        toks.expect(")")
        return PolySpec(tuple(coeffs))
    if head in ("blaschke", "moebius"):
        theta = toks.complex_literal()
        if abs(theta.imag) > 0:
            toks.error("theta must be real")
        zeros = []
        if toks.peek() == ";":
            toks.expect(";")
            zeros = _complex_list(toks)
        toks.expect(")")
        if head == "moebius":
            if len(zeros) != 1:
                toks.error("moebius takes exactly one zero")
            return BlaschkeSpec(MoebiusTransform(zeros[0], theta.real))
        return BlaschkeSpec(BlaschkeProduct(tuple(zeros), theta.real))
    if head == "compose":
        outer = _parse(toks)
        toks.expect(",")
        inner = _parse(toks)
        toks.expect(")")
        return ComposeSpec(outer, inner)
    if head == "sum":
        terms = [(1.0 + 0j, _parse(toks))]
        while toks.peek() == ",":
            toks.expect(",")
            terms.append((1.0 + 0j, _parse(toks)))
        toks.expect(")")
        return SumSpec(tuple(terms))
    if head == "prod":
        factors = [_parse(toks)]
        while toks.peek() == ",":
            toks.expect(",")
            factors.append(_parse(toks))
        toks.expect(")")
        return ProdSpec(tuple(factors))
    if head == "scale":
        scalar = toks.complex_literal()
        toks.expect(";")
        inner = _parse(toks)
        toks.expect(")")
        return ProdSpec((inner,), scalar)
    if head == "star":
        inner = _parse(toks)
        toks.expect(")")
        return StarSpec(inner)
    raise AssertionError(head)


def _complex_list(toks):
    values = [toks.complex_literal()]
    while toks.peek() == ",":
        toks.expect(",")
        values.append(toks.complex_literal())
    return values


def spec_to_text(spec):
    """Round-trippable textual form of a spec tree."""
    if isinstance(spec, PolySpec):
        return "poly(" + ",".join(_cfmt(c) for c in spec.coeffs) + ")"
    if isinstance(spec, BlaschkeSpec):
        B = spec.product
        inner = _cfmt(B.theta)
        if B.zeros:
            inner += "; " + ",".join(_cfmt(z) for z in B.zeros)
        return f"blaschke({inner})"
    if isinstance(spec, ComposeSpec):
        return f"compose({spec_to_text(spec.outer)}, {spec_to_text(spec.inner)})"
    if isinstance(spec, SumSpec):
        parts = []
        for scalar, term in spec.terms:
            if scalar == 1:
                parts.append(spec_to_text(term))
            else:
                parts.append(f"scale({_cfmt(scalar)}; {spec_to_text(term)})")
        return "sum(" + ", ".join(parts) + ")"
    if isinstance(spec, ProdSpec):
        body = ", ".join(spec_to_text(f) for f in spec.factors)
        if spec.scalar != 1:
            return f"scale({_cfmt(spec.scalar)}; prod({body}))"
        return f"prod({body})"
    if isinstance(spec, StarSpec):
        return f"star({spec_to_text(spec.inner)})"
    raise TypeError(f"not a FunctionSpec: {spec!r}")


def _cfmt(c):
    c = complex(c)
    if c.imag == 0:
        return f"{c.real:.12g}"
    if c.real == 0:
        return f"{c.imag:.12g}i"
    sign = "+" if c.imag >= 0 else "-"
    return f"{c.real:.12g}{sign}{abs(c.imag):.12g}i"
