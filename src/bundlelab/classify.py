"""Similarity verdicts with machine-checkable certificates.

A verdict is always a finite-truncation statement: the artifact exhibits the
evidence (intertwiner residuals, condition numbers, Riesz reports,
decomposition certificates, Moebius matches) rather than asserting any
infinite-dimensional claim.  ``EXIT_CODES`` maps every verdict to its CLI
exit code: 0 resolved and positive, 1 not similar or degenerating, 2 inconclusive.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from . import frames, funcspec, monodromy, operators, series
from .blaschke import MoebiusTransform
from .errors import BundleLabError, DomainError, FiberError
from .funcspec import ComposeSpec, RationalFunction
from .weights import POLYNOMIAL

__all__ = [
    "SimilarityCertificate",
    "Verdict",
    "JordanResult",
    "MoebiusMatch",
    "douglas_intertwiner",
    "jordan",
    "moebius_match",
    "similar",
    "kaplansky",
    "counterexample_probe",
    "EXIT_CODES",
]

_MATCH_TOL = 1e-8
_Z0_LIMIT = 0.999  # phi(0) is sought only for |phi(0)| below this
_SNAP = 1e-4  # a critical point of g1 this close to a preimage is a seed too
_POLISH_STEPS = 3
_K_CAP = 4096  # the intertwiner's doubling ladder stops at this row truncation
# an intertwiner's cond is refused at cond*eps >= 1e-8, the residual's own bar
# (about 4.5e7): past it the two extremes may both be roundoff
_COND_BAR = 1e-8 / float(np.finfo(float).eps)
# a counterexample rung's cond is unresolved at cond*eps >= 1e-3: past it the
# relative roundoff in s_min, about cond*eps, is no longer 10 times below the
# 1% step that frames.ladder_trend reads as flat
_PROBE_COND_BAR = 1e-3 / float(np.finfo(float).eps)
# both resolved counterexample verdicts are findings of the probe: exit 0
EXIT_CODES = {"similar": 0, "Riesz-consistent": 0, "similarity-consistent": 0,
              "no bounded similarity at probed scales": 0, "not_similar": 1,
              "degenerating": 1, "inconclusive": 2}


@dataclass
class SimilarityCertificate:
    """Block-shift intertwiner evidence for one Blaschke product.

    ``residual`` is the max deviation of M_B X - X (block shift) over the
    interior columns (every power below n_max); ``cond`` comes from the
    extremal singular values of the truncated deformation X on the rung
    ``K`` that ended the ladder, whose frame has beta-tail ``tail``.  The
    evidence counts only when the frame holds its columns (``tail`` below
    ``frames.TAIL_BAR``), the residual is below 1e-8 and cond is below
    ``_COND_BAR`` (:meth:`failed_condition`).  ``frame`` is the
    beta-normalized frame X was taken from; of it only the zero of its
    ``conjugator`` is serialized.
    """

    residual: float
    cond: float
    tail: float
    K: int
    n_max: int
    order: int
    accepted: bool
    riesz: frames.RieszReport | None = None
    frame: frames.FrameMatrix | None = field(default=None, repr=False)

    def to_dict(self):
        return {
            "residual": self.residual,
            "cond": self.cond,
            "tail": self.tail,
            "K": self.K,
            "n_max": self.n_max,
            "order": self.order,
            "accepted": self.accepted,
            "riesz": self.riesz.to_dict() if self.riesz else None,
            "conjugator": self.frame.conjugator_zero(),
        }

    def failed_condition(self):
        """The first of residual, tail and cond that fails its bar, as text, or ''."""
        return next((text for ok, text in (
            (self.residual < 1e-8, f"residual {self.residual:.3g} is not below 1e-8"),
            (self.tail < frames.TAIL_BAR, f"the frame does not hold its columns at K {self.K}: "
                                          f"tail {self.tail:.3g} is not below 1e-8"),
            (self.cond < _COND_BAR, f"cond {self.cond:.3g} is at roundoff: cond*eps is not below 1e-8"),
        ) if not ok), "")


def douglas_intertwiner(B, w, K=512, n_max=100, attach_riesz=True):
    """Deformation X with columns the beta-normalized frame of B.

    X carries the direct sum of ``order`` copies of M_z onto M_B column by
    column, so the residual on the interior block (every power below n_max,
    hence n_max >= 1) is pure roundoff.  M_B X comes from the rational
    recursion (:meth:`frames.FrameMatrix.times`) and X times the block shift
    is a column shift scaled by the weights, so no K x K matrix is formed.
    Zeros close to the circle slow the column decay, so the row truncation
    doubles (up to ``_K_CAP``) until the frame's beta-tail is below
    ``frames.TAIL_BAR``; more rows then add a Gram term of norm about
    ncols * TAIL_BAR**2, which cannot move cond.  One rule accepts: the
    frame holds its columns (tail below the bar), the residual is below
    1e-8, cond times eps is below that same bar 1e-8, and the Riesz report
    is consistent (with no report, when the weights are certified polynomial
    growth): never on intermediate growth.  A ladder that reaches the cap
    with its tail still above the bar is refused, with no Riesz report.
    """
    if n_max < 1:
        raise ValueError("the block-shift identity needs n_max >= 1")
    if w.growth_certificate != POLYNOMIAL:
        warnings.warn(
            f"weights {w.id} are not certified polynomial growth; "
            "the intertwiner may degenerate",
            stacklevel=2,
        )
    F = frames.build_frame(B, w, n_max, K)
    m = F.m
    while F.tail() >= frames.TAIL_BAR and F.K < _K_CAP:
        F = F.rebuild(n_max, 2 * F.K)
    s_min, s_max = F.extremes()
    # column (n, j) of X times the block shift is column (n+1, j) times w_{n+1}
    R = F.times(*funcspec.to_rational(F.product))[:, : m * n_max]
    R -= F.matrix("beta")[:, m:] * np.repeat(w.weights(n_max + 1)[:n_max], m)
    residual = float(np.max(np.abs(R)))
    tail = F.tail()
    # a certificate refused for its tail takes no Riesz ladder, which would climb from the cap
    riesz = frames.riesz_bounds(F) if attach_riesz and tail < frames.TAIL_BAR else None
    cert = SimilarityCertificate(
        residual=residual, cond=float(s_max / s_min), tail=tail, K=F.K, n_max=n_max,
        order=m, accepted=False, riesz=riesz, frame=F,
    )
    cert.accepted = not cert.failed_condition() and (
        riesz.verdict == "Riesz-consistent" if riesz else w.growth_certificate == POLYNOMIAL)
    return cert


@dataclass
class JordanResult:
    """Maximal factorization plus the intertwiner evidence for the inner part."""

    decomposition: monodromy.Decomposition
    certificate: SimilarityCertificate | None
    direct_residual: float
    checked_columns: int


def _inner_certificate(dec, w, K, attach_riesz):
    """The intertwiner of dec's inner factor and the length L of its outer
    expansion (:func:`monodromy.outer_taylor`): n_max = min(max(60, L + 30),
    160) leaves the direct identity L columns of h and 30 beyond them."""
    L = monodromy.outer_taylor(dec.outer).size
    n_max = min(max(60, L + 30), 160)
    return douglas_intertwiner(dec.inner, w, K=K, n_max=n_max, attach_riesz=attach_riesz), L


def jordan(spec, w, K=512):
    """Jordan data of f: multiplicity m, indecomposable outer part, inner B.

    The certificate is the inner product's intertwiner with its Riesz report
    attached.  Its deformation is reused through the direct identity
    M_{f o psi} X = X (direct sum of M_h), compared on the columns whose
    outer expansion fits under n_max.  The left side is the rational
    recursion of f o psi on the frame (:meth:`frames.FrameMatrix.times`);
    the right side is one product of X, its powers laid next to its rows,
    with the (n_max+1)-square M_h of the exact Taylor coefficients of h.
    Only the ``jordan`` command reports that identity; :func:`similar` does
    not form it.
    """
    dec = monodromy.decompose(spec)
    if dec.m == 1:
        return JordanResult(
            decomposition=dec, certificate=None, direct_residual=0.0, checked_columns=0,
        )
    h = dec.outer
    cert, L = _inner_certificate(dec, w, K, attach_riesz=True)
    F = cert.frame
    K, m, n_max = F.K, F.m, cert.n_max
    inner_spec = spec
    if F.conjugator is not None:
        inner_spec = ComposeSpec(spec, F.conjugator)
    nb = max(n_max + 1 - L, 0)
    ncheck = nb * m
    h_hat = series.rational(h.P, h.Q, np.eye(1, n_max + 1, dtype=complex)[0])
    Mh = operators.mult_matrix(series.PowerSeries(h_hat), w, n_max + 1)
    # X (M_h kron I_m): with X reshaped to rows (i, j) and columns n, one product
    X = F.matrix("beta").reshape(K, n_max + 1, m).transpose(0, 2, 1)
    XH = (X.reshape(K * m, n_max + 1) @ Mh[:, :nb]).reshape(K, m, nb)
    R = F.times(*funcspec.to_rational(inner_spec))[:, :ncheck]
    R -= XH.transpose(0, 2, 1).reshape(K, ncheck)
    direct = float(np.max(np.abs(R))) if ncheck else float("nan")
    return JordanResult(
        decomposition=dec, certificate=cert, direct_residual=direct,
        checked_columns=ncheck,
    )


# -- Moebius matching -------------------------------------------------------


@dataclass
class MoebiusMatch:
    """A disk automorphism phi with g2 = g1 o phi to the relative ``residual``
    of the cleared polynomial identity (see :func:`moebius_match`)."""

    transform: MoebiusTransform
    residual: float


def _identity(g1, g2, theta, z0):
    """E = N Q2 - D P2 with N/D = g1 o phi cleared of denominators, max|E|
    over the max of |N| |Q2| + |D| |P2| (E's terms) and over the same identity
    formed from absolute coefficients (E's roundoff envelope), and E's real
    Jacobian in (theta, Re z0, Im z0).  With a = e^{i theta} (z0 - z) and
    b = 1 - conj(z0) z, N = sum_j p_j a^j b^(k-j), so dN/da and dN/db are the
    same sums at degree k-1 with the coefficients j p_j and (k-j) p_j.
    """
    k, P2, Q2 = g1.degree, g2.P, g2.Q
    e = np.exp(1j * theta)
    a, b = e * np.array([z0, -1.0]), np.array([1.0, -np.conj(z0)])
    P1, Q1 = (np.pad(c, (0, k + 1 - c.size)) for c in (g1.P, g1.Q))
    size = k + max(P2.size, Q2.size)

    def cross(N, D, P=P2, Q=Q2, sign=-1.0):
        out = np.zeros(size, dtype=complex)
        NQ, DP = np.convolve(N, Q), np.convolve(D, P)
        out[: NQ.size] += NQ
        out[: DP.size] += sign * DP
        return out

    N, D = funcspec.compose_cleared(P1, Q1, a, b, k)
    E = cross(N, D)
    envelope = funcspec.compose_cleared(abs(P1), abs(Q1), abs(a), abs(b), k)
    residuals = [np.max(abs(E)) / np.max(cross(abs(n), abs(d), abs(P2), abs(Q2), 1.0).real)
                 for n, d in ((N, D), envelope)]
    j = np.arange(k)
    du, dv = (cross(*funcspec.compose_cleared(P1[s] * w, Q1[s] * w, a, b, k - 1))
              for s, w in ((slice(1, None), j + 1), (slice(None, -1), k - j)))
    zdv = np.roll(dv, 1)
    dE = np.stack([1j * np.convolve(a, du)[:size], e * du - zdv, 1j * (e * du + zdv)], axis=1)
    return E, residuals, np.concatenate([dE.real, dE.imag])


def _polish(g1, g2, theta, z0):
    """(residual, envelope residual, theta, z0) after at most _POLISH_STEPS
    undamped Gauss-Newton steps on E, taken while a step lowers the residual
    and keeps |z0| below _Z0_LIMIT."""
    E, res, J = _identity(g1, g2, theta, z0)
    for _ in range(_POLISH_STEPS):
        step = np.linalg.lstsq(J, -np.concatenate([E.real, E.imag]), rcond=None)[0]
        theta_n, z0_n = theta + step[0], z0 + complex(step[1], step[2])
        if abs(z0_n) >= _Z0_LIMIT:
            break
        E_n, res_n, J_n = _identity(g1, g2, theta_n, z0_n)
        if not res_n[0] < res[0]:
            break
        theta, z0, E, res, J = theta_n, z0_n, E_n, res_n, J_n
    return res[0], res[1], theta % (2.0 * np.pi), z0


def _seed(p, dphi):
    """(theta, z0) of the phi with phi(0) = p and phi'(0) = dphi."""
    theta = float(np.angle(dphi / (abs(p) ** 2 - 1.0)))
    return theta, p * np.exp(-1j * theta)


def moebius_match(g1, g2):
    """Search for phi in Aut(D) with g2 = g1 o phi.

    The seeds are every distinct g1-preimage p of g2(0) in the open disk, with
    phi'(0) from the first derivatives, and every critical point of g1 within
    1e-4 of one, with the two phi'(0) from the second derivatives (there a
    double preimage splits into points whose first derivatives fix nothing).
    Each seed takes at most _POLISH_STEPS Gauss-Newton steps on the identity
    g1 o phi = g2 cleared of denominators (:func:`_identity`) and passes when
    max|E| is below _MATCH_TOL times the size of E's terms.  The bar 1e-8 lies
    far above a true match (about 1e-15; 1e-9 with g1 a composition at
    |phi(0)| 0.995, whose roundoff phi^-1 amplifies) and below g2 with one
    coefficient moved by 1e-6 of itself (2e-7 near the circle).  A fit below
    _MATCH_TOL times E's roundoff envelope only cannot be told from a match.
    g1, g2 are specs or RationalFunctions (an outer factor of decompose is one).

    Returns the match of the first passing seed of least residual, or None
    when no seed passes and the search was complete.  It is incomplete when a
    preimage lies at or beyond radius _Z0_LIMIT, a critical point has order
    above 2, or a fit holds within roundoff only; then, with no passing seed,
    FiberError names every such seed instead.
    """
    g1, g2 = (RationalFunction.from_spec(g) for g in (g1, g2))
    v0 = complex(g2.value(0.0))
    d2 = complex(g2.derivative(0.0))
    critical = g1.critical_points()
    seeds, snapped, skipped = [], [], []
    for p in dict.fromkeys(g1.preimages(v0)):
        if abs(p) >= _Z0_LIMIT:
            skipped.append(f"preimage {p:.6g} lies at or beyond radius {_Z0_LIMIT}")
            continue
        d1 = complex(g1.derivative(p))
        if d1 != 0.0:
            seeds.append(_seed(p, d2 / d1))
        snapped += [c for c in critical if abs(c - p) < _SNAP and c not in snapped]
    dd2 = complex(g2.second_derivative(0.0))
    for c in snapped:
        dd1 = complex(g1.second_derivative(c))
        if abs(dd1) < 1e-12:
            skipped.append(f"critical point {c:.6g} has order above 2")
        else:
            root = np.sqrt(dd2 / dd1)
            seeds.extend(_seed(c, s) for s in (root, -root))
    passing = []
    for res, envelope_res, th, zz in (_polish(g1, g2, th, z0) for th, z0 in seeds):
        if res < _MATCH_TOL:
            passing.append((res, th, zz))
        elif envelope_res < _MATCH_TOL:
            skipped.append(f"phi with z0 {zz:.6g} fits only within the roundoff of "
                           f"g1 o phi (residual {res:.3g})")
    if not passing:
        if skipped:
            raise FiberError("; ".join(skipped))
        return None
    res, th, zz = min(passing, key=lambda c: c[0])
    return MoebiusMatch(transform=MoebiusTransform(zz, th), residual=res)


# -- verdicts ---------------------------------------------------------------


@dataclass
class Verdict:
    """similar | not_similar(reason) | inconclusive(diagnostics), with evidence."""

    status: str
    reason: str = ""
    evidence: dict = field(default_factory=dict)

    @property
    def exit_code(self):
        return EXIT_CODES[self.status]

    def to_dict(self):
        return {"status": self.status, "reason": self.reason, "evidence": self.evidence}


def similar(h1, h2, w, K=512):
    """Similarity verdict for the bundles induced by two analytic functions.

    Each function is decomposed (:func:`monodromy.decompose`) and, when its
    inner order exceeds 1, its inner factor certified by the intertwiner of
    :func:`jordan`, at the same n_max but with no Riesz report and no direct
    identity, which the verdict does not read.  The verdict is similar
    exactly when both certificates are accepted, the multiplicities agree
    and the indecomposable outer parts match up to a disk automorphism.
    Any pipeline failure yields inconclusive with diagnostics attached.
    """
    def side(h):
        dec = monodromy.decompose(h)
        return dec, None if dec.m == 1 else _inner_certificate(dec, w, K, attach_riesz=False)[0]

    try:
        (d1, c1), (d2, c2) = side(h1), side(h2)
    except BundleLabError as exc:
        return Verdict("inconclusive", f"jordan pipeline failed: {exc}")
    evidence = {
        "m1": d1.m,
        "m2": d2.m,
        "outer1": d1.outer_dict(),
        "outer2": d2.outer_dict(),
        "residual1": d1.residual,
        "residual2": d2.residual,
        "certificate1": c1.to_dict() if c1 else None,
        "certificate2": c2.to_dict() if c2 else None,
    }
    for name, cert in (("certificate1", c1), ("certificate2", c2)):
        if cert is not None and not cert.accepted:
            why = (cert.failed_condition() if w.growth_certificate == POLYNOMIAL
                   else f"weights {w.id} are of {w.growth_certificate or 'uncertified'} growth")
            return Verdict("inconclusive", f"{name} failed ({why})", evidence)
    if d1.m != d2.m:
        return Verdict("not_similar", "order mismatch", evidence)
    # an incomplete search in one direction still leaves the other to try
    match, incomplete = None, []
    for search, g1, g2 in ((moebius_match, d1.outer, d2.outer),
                           (_reverse_match, d2.outer, d1.outer)):
        try:
            match = search(g1, g2)
        except BundleLabError as exc:
            incomplete.append(str(exc))
        if match is not None:
            break
    if match is None and incomplete:
        return Verdict("inconclusive", "Moebius match incomplete: "
                       + "; ".join(incomplete), evidence)
    if match is None:
        return Verdict("not_similar", "Moebius match failed", evidence)
    evidence["match"] = {
        "theta": match.transform.theta,
        "z0": [match.transform.z0.real, match.transform.z0.imag],
        "residual": match.residual,
    }
    return Verdict("similar", "", evidence)


def _reverse_match(g2, g1):
    """Match in the reverse direction and invert the automorphism."""
    from .blaschke import moebius_inverse

    m = moebius_match(g2, g1)
    if m is None:
        return None
    return MoebiusMatch(transform=moebius_inverse(m.transform), residual=m.residual)


def kaplansky(h1, h2, w, K=512):
    """Doubled-bundle verdict versus single verdict, with the coherence bit.

    The doubled verdict compares multiplicities 2*m1 and 2*m2 with the same
    outer matching, so on polynomial-growth spaces a similar double forces a
    similar single; ``consistent`` records exactly that implication.
    """
    single = similar(h1, h2, w, K=K)
    if single.status == "inconclusive":
        double = Verdict("inconclusive", single.reason, dict(single.evidence))
    else:
        ev = dict(single.evidence)
        ev["m1_doubled"] = 2 * ev["m1"]
        ev["m2_doubled"] = 2 * ev["m2"]
        double = Verdict(single.status, single.reason, ev)
    consistent = not (double.status == "similar" and single.status != "similar")
    return double, single, consistent


@dataclass
class CounterexampleReport:
    t: float
    weights_id: str
    n_max: int
    profile: np.ndarray
    ladder: list
    cond_trend: str
    profile_trend: str
    verdict: str
    reason: str

    def to_dict(self):
        return {
            "t": self.t,
            "weights": self.weights_id,
            "n_max": self.n_max,
            "profile_head": [float(x) for x in self.profile[:8]],
            "profile_last": float(self.profile[-1]),
            "ladder": self.ladder,
            "cond_trend": self.cond_trend,
            "profile_trend": self.profile_trend,
            "verdict": self.verdict,
            "reason": self.reason,
        }


def counterexample_probe(t, w, n_max=400):
    """Profile the automorphism frame on one weight sequence.

    Reports the normalized power norms r_n for n <= n_max and a doubling
    ladder of four column counts N up to max(n_max, 64), each rung with the
    cond of the truncated deformation and r_N.  :func:`frames.ladder_trend`
    reads the cond and r_N ladders: both diverging is the numerical signature
    of "no bounded similarity at probed scales", both converging is reported
    as "similarity-consistent".  Either is drawn only when every rung is
    resolved: its frame holds its columns (beta-tail below
    ``frames.TAIL_BAR``) and its cond is below ``_PROBE_COND_BAR``.
    Otherwise the verdict is "inconclusive" and ``reason`` names the first
    rung that is not.
    """
    if not (0.0 < t < 1.0):
        raise DomainError("t must lie in (0, 1)")
    Ns = [max(8 << k, n_max >> (3 - k)) for k in range(4)]
    # build_frame is row-causal and works column by column, so every rung is
    # a leading block of the frame of the largest N and K; that K is the
    # profile's first, so the profile reads the powers of phi the build made;
    # phi_t has real coefficients, so they are float64, as is the frame
    K = max(512, 4 * Ns[-1])
    powers = np.empty((Ns[-1] + 1, K + 1))
    top = frames.build_frame(MoebiusTransform(t), w, Ns[-1], K, powers)
    r = frames.column_norm_profile(t, w, Ns[-1], powers)
    del powers  # no longer held while the rungs take their extremes
    ladder, reason = [], ""
    for N in Ns:
        K = max(512, 4 * N)
        F = replace(top, n_max=N, K=K, taylor=top.taylor[: K + top.pad, : top.m * (N + 1)])
        s_min, s_max = F.extremes()
        cond = float(s_max / s_min) if s_min > 0 else float("inf")
        tail = F.tail()
        ladder.append({"n_max": N, "K": K, "cond": cond, "r": float(r[N]), "tail": tail})
        if not reason and tail >= frames.TAIL_BAR:
            reason = f"rung n_max {N}, K {K}: tail {tail:.3g} >= {frames.TAIL_BAR:g}"
        elif not reason and not cond < _PROBE_COND_BAR:
            reason = f"rung n_max {N}, K {K}: cond {cond:.3g} >= {_PROBE_COND_BAR:.3g}"
    cond_trend, profile_trend = (frames.ladder_trend([rung[k] for rung in ladder]) for k in ("cond", "r"))
    both = cond_trend if cond_trend == profile_trend and not reason else "open"
    verdict = {"diverging": "no bounded similarity at probed scales",
               "converging": "similarity-consistent"}.get(both, "inconclusive")
    return CounterexampleReport(
        t=float(t), weights_id=w.id, n_max=n_max, profile=r[: n_max + 1], ladder=ladder,
        cond_trend=cond_trend, profile_trend=profile_trend, verdict=verdict, reason=reason,
    )
