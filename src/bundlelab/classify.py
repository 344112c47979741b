"""Similarity verdicts with machine-checkable certificates.

A verdict is always a finite-truncation statement: the artifact exhibits the
evidence (intertwiner residuals, condition numbers, Riesz reports,
decomposition certificates, Moebius matches) rather than asserting any
infinite-dimensional claim.  Exit-code mapping used by the CLI:
0 similar, 1 not similar, 2 inconclusive.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import frames, funcspec, monodromy, operators, series
from .blaschke import BlaschkeProduct, MoebiusTransform
from .errors import BundleLabError, DomainError, FiberError
from .funcspec import BlaschkeSpec, ComposeSpec, RationalFunction
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
]

_MATCH_TOL = 1e-8
_Z0_LIMIT = 0.999  # phi(0) is refined only for |phi(0)| below this


@dataclass
class SimilarityCertificate:
    """Block-shift intertwiner evidence for one Blaschke product.

    ``residual`` is the max deviation of M_B X - X (block shift) over the
    interior columns (every power below n_max); ``cond`` comes from the
    extremal singular values of the truncated deformation X and must be
    stable under doubling the row truncation.  ``frame`` is the
    beta-normalized frame X was taken from; it is not serialized.
    """

    residual: float
    cond: float
    cond_doubled: float
    cond_rel_change: float
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
            "cond_doubled": self.cond_doubled,
            "cond_rel_change": self.cond_rel_change,
            "K": self.K,
            "n_max": self.n_max,
            "order": self.order,
            "accepted": self.accepted,
            "riesz": self.riesz.to_dict() if self.riesz else None,
        }


def douglas_intertwiner(B, w, K=512, n_max=100, attach_riesz=True, K_cap=2048):
    """Deformation X with columns the beta-normalized frame of B.

    X carries the direct sum of ``order`` copies of M_z onto M_B column by
    column, so the residual on the interior block (every power below n_max,
    hence n_max >= 1) is pure roundoff; the certificate is accepted when the
    residual is tiny, cond(X) is stable under doubling K, and the attached
    Riesz report does not degenerate.  M_B X comes from the rational
    recursion (:meth:`frames.FrameMatrix.times`) and X times the block shift
    is a column shift scaled by the weights, so no K x K matrix is formed.
    Zeros close to the circle slow the column decay, so the row truncation
    climbs a doubling ladder (up to ``K_cap``) until cond stabilizes.
    Fails (accepted=False) on intermediate-growth presets, as it must.
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
    while True:
        s_min, s_max = F.extremes()
        cond = float(s_max / s_min)
        Fd = F.rebuild(n_max, 2 * F.K)
        sd_min, sd_max = Fd.extremes()
        cond_d = float(sd_max / sd_min)
        rel = abs(cond_d - cond) / cond_d
        if (rel < 0.05 and F.tail("beta") < 1e-8) or F.K >= K_cap:
            break
        F = Fd
    # column (n, j) of X times the block shift is column (n+1, j) times w_{n+1}
    R = F.times(*funcspec.to_rational(BlaschkeSpec(F.product)))[:, : m * n_max]
    R -= F.matrix("beta")[:, m:] * np.repeat(w.weights(n_max + 1)[:n_max], m)
    residual = float(np.max(np.abs(R)))
    riesz = frames.riesz_bounds(F) if attach_riesz else None
    accepted = (
        residual < 1e-8
        and rel < 0.05
        and (riesz is None or riesz.verdict == "Riesz-consistent")
    )
    return SimilarityCertificate(
        residual=residual,
        cond=cond,
        cond_doubled=cond_d,
        cond_rel_change=rel,
        K=F.K,
        n_max=n_max,
        order=m,
        accepted=accepted,
        riesz=riesz,
        frame=F,
    )


@dataclass
class JordanResult:
    """Maximal factorization plus the intertwiner evidence for the inner part."""

    m: int
    outer: object  # RationalFunction, or the original spec when m == 1
    inner: BlaschkeProduct
    decomposition: monodromy.Decomposition
    certificate: SimilarityCertificate | None
    direct_residual: float
    checked_columns: int


def jordan(spec, w, K=512, n_max=None, attach_riesz=True):
    """Jordan data of f: multiplicity m, indecomposable outer part, inner B.

    The deformation is reused from the inner product's intertwiner through
    the direct identity  M_{f o psi} X = X (direct sum of M_h), compared on
    the columns whose outer expansion fits under n_max.  The left side is the
    rational recursion of f o psi on the frame (:meth:`frames.FrameMatrix.times`);
    the right side is one product of X, its powers laid next to its rows,
    with the (n_max+1)-square M_h of the exact Taylor coefficients of h.
    """
    dec = monodromy.decompose(spec)
    if dec.m == 1:
        return JordanResult(
            m=1, outer=dec.outer, inner=dec.inner, decomposition=dec,
            certificate=None, direct_residual=0.0, checked_columns=0,
        )
    h = dec.outer
    L = monodromy.outer_taylor(h).size
    if n_max is None:
        n_max = min(max(60, L + 30), 160)
    cert = douglas_intertwiner(dec.inner, w, K=K, n_max=n_max,
                               attach_riesz=attach_riesz)
    F = cert.frame
    K, m = F.K, F.m
    inner_spec = spec
    if F.conjugator is not None:
        inner_spec = ComposeSpec(spec, BlaschkeSpec(F.conjugator))
    nb = max(n_max + 1 - L, 0)
    ncheck = nb * m
    h_hat = series.rational(h.P, h.Q, np.eye(1, n_max + 1, dtype=complex)[0])
    Mh = operators.mult_matrix(series.PowerSeries(h_hat), w, n_max + 1).entries
    # X (M_h kron I_m): with X reshaped to rows (i, j) and columns n, one product
    X = F.matrix("beta").reshape(K, n_max + 1, m).transpose(0, 2, 1)
    XH = (X.reshape(K * m, n_max + 1) @ Mh[:, :nb]).reshape(K, m, nb)
    R = F.times(*funcspec.to_rational(inner_spec))[:, :ncheck]
    R -= XH.transpose(0, 2, 1).reshape(K, ncheck)
    direct = float(np.max(np.abs(R))) if ncheck else float("nan")
    return JordanResult(
        m=dec.m, outer=h, inner=dec.inner, decomposition=dec,
        certificate=cert, direct_residual=direct,
        checked_columns=ncheck,
    )


# -- Moebius matching -------------------------------------------------------


@dataclass
class MoebiusMatch:
    """A disk automorphism phi with g2 = g1 o phi on the sample set."""

    transform: MoebiusTransform
    residual: float
    candidates: list = field(default_factory=list)


def _phi_eval(theta, z0, z):
    return np.exp(1j * theta) * (z0 - z) / (1.0 - np.conj(z0) * z)


def _match_samples(z0_abs):
    """Two sample rings whose images under phi stay inside |w| <= 0.97."""
    r1 = 0.2
    r2 = 0.4
    cap = 0.97
    if (z0_abs + r2) / (1.0 + r2 * z0_abs) > cap:
        r2 = max(0.05, 0.95 * (cap - z0_abs) / (1.0 - cap * z0_abs))
        r1 = 0.5 * r2
    ring1 = r1 * np.exp(2j * np.pi * np.arange(32) / 32.0)
    ring2 = r2 * np.exp(2j * np.pi * (np.arange(32) + 0.5) / 32.0)
    return np.concatenate([ring1, ring2])


def _refine_match(g1, g2, theta, z0, samples):
    """Damped Gauss-Newton on (theta, Re z0, Im z0); returns (params, maxres)."""
    g2v = g2.value(samples)

    def resid_many(param_sets):
        """Residual vectors of several parameter sets from one g1 evaluation."""
        pts = []
        for th, x, y in param_sets:
            zz = complex(x, y)
            if abs(zz) >= _Z0_LIMIT:
                return None
            pts.append(_phi_eval(th, zz, samples))
        vals = np.reshape(g1.value(np.concatenate(pts)), (len(pts), -1))
        return [np.concatenate([r.real, r.imag]) for r in g2v - vals]

    def resid(params):
        out = resid_many([params])
        return None if out is None else out[0]

    params = np.array([theta, z0.real, z0.imag])
    r = resid(params)
    if r is None:
        return None
    lam = 1e-6
    for _ in range(60):
        fr = float(np.max(np.abs(r)))
        if fr < 1e-11:
            break
        perturbed = []
        for k in range(3):
            dp = params.copy()
            dp[k] += 1e-7
            perturbed.append(dp)
        rks = resid_many(perturbed)
        if rks is None:
            return None
        J = np.empty((r.size, 3))
        for k, rk in enumerate(rks):
            J[:, k] = (rk - r) / 1e-7
        A = J.T @ J + lam * np.eye(3)
        g = J.T @ r
        try:
            step = np.linalg.solve(A, g)
        except np.linalg.LinAlgError:
            return None
        cand = params - step
        rc = resid(cand)
        if rc is not None and np.linalg.norm(rc) < np.linalg.norm(r):
            params, r = cand, rc
            lam = max(lam * 0.3, 1e-12)
        else:
            lam *= 10.0
            if lam > 1e8:
                break
    return params, float(np.max(np.abs(r)))


def moebius_match(g1, g2, tol=_MATCH_TOL):
    """Search for phi in Aut(D) with g2 = g1 o phi.

    Seeds come from every g1-preimage of g2(0) in the open disk (one on the
    circle cannot be phi(0)): the chain rule fixes phi'(0) from the first
    derivatives, or from the second derivatives (two sign candidates) when
    the seed is a critical point of g1.  Each seed is refined by damped
    Gauss-Newton over 64 fixed disk samples.  Each of g1, g2 is a spec or a
    RationalFunction (an outer factor of decompose is one).

    Returns the best passing candidate, or None when there is none and the
    search was complete.  The search is incomplete when a preimage lies at
    or beyond radius 0.999, sits on a critical point of order above 2, or
    its refinement returns None or raises DomainError; then, with no
    passing candidate, FiberError names every such seed instead.
    """
    g1, g2 = (RationalFunction.from_spec(g) for g in (g1, g2))
    v0 = complex(g2.value(0.0))
    d2 = complex(g2.derivative(0.0))
    seeds, skipped = [], []
    for p in g1.preimages(v0):
        if abs(p) >= _Z0_LIMIT:
            skipped.append(f"preimage {p:.6g} lies at or beyond radius {_Z0_LIMIT}")
            continue
        d1 = complex(g1.derivative(p))
        if abs(d1) > 1e-8:
            s = d2 / d1
            denom = abs(p) ** 2 - 1.0
            theta = float(np.angle(s / denom))
            seeds.append((theta, p * np.exp(-1j * theta)))
        else:
            dd1 = complex(g1.second_derivative(p))
            dd2 = complex(g2.second_derivative(0.0))
            if abs(dd1) < 1e-12:
                skipped.append(f"preimage {p:.6g} is a critical point of order above 2")
                continue
            root = np.sqrt(dd2 / dd1)
            for sgn in (root, -root):
                denom = abs(p) ** 2 - 1.0
                theta = float(np.angle(sgn / denom))
                seeds.append((theta, p * np.exp(-1j * theta)))
    passing = []
    for theta, z0 in seeds:
        samples = _match_samples(abs(z0))
        try:
            refined = _refine_match(g1, g2, theta, complex(z0), samples)
        except DomainError as exc:
            skipped.append(f"refinement from {z0:.6g} failed: {exc}")
            continue
        if refined is None:
            skipped.append(f"refinement from {z0:.6g} left the evaluable disk")
            continue
        params, res = refined
        if res < tol:
            th = float(params[0]) % (2.0 * np.pi)
            zz = complex(params[1], params[2])
            passing.append((res, th, zz))
    if not passing:
        if skipped:
            raise FiberError("; ".join(skipped))
        return None
    passing.sort(key=lambda c: c[0])
    deduped = []
    for res, th, zz in passing:
        if all(
            abs(zz - q[2]) > 1e-6 or abs((th - q[1] + np.pi) % (2 * np.pi) - np.pi) > 1e-6
            for q in deduped
        ):
            deduped.append((res, th, zz))
    best = deduped[0]
    return MoebiusMatch(
        transform=MoebiusTransform(best[2], best[1]),
        residual=best[0],
        candidates=[
            {"theta": th, "z0": [zz.real, zz.imag], "residual": res}
            for res, th, zz in deduped
        ],
    )


# -- verdicts ---------------------------------------------------------------


@dataclass
class Verdict:
    """similar | not_similar(reason) | inconclusive(diagnostics), with evidence."""

    status: str
    reason: str = ""
    evidence: dict = field(default_factory=dict)

    @property
    def exit_code(self):
        return {"similar": 0, "not_similar": 1, "inconclusive": 2}[self.status]

    def to_dict(self):
        return {"status": self.status, "reason": self.reason, "evidence": self.evidence}


def similar(h1, h2, w, K=512, attach_riesz=False):
    """Similarity verdict for the bundles induced by two analytic functions.

    Both functions are put in Jordan form; the verdict is similar exactly
    when the multiplicities agree and the indecomposable outer parts match
    up to a disk automorphism.  Any pipeline failure yields inconclusive
    with diagnostics attached.
    """
    try:
        j1 = jordan(h1, w, K=K, attach_riesz=attach_riesz)
        j2 = jordan(h2, w, K=K, attach_riesz=attach_riesz)
    except BundleLabError as exc:
        return Verdict("inconclusive", f"jordan pipeline failed: {exc}")
    evidence = {
        "m1": j1.m,
        "m2": j2.m,
        "outer1": j1.decomposition.outer_dict(),
        "outer2": j2.decomposition.outer_dict(),
        "residual1": j1.decomposition.residual,
        "residual2": j2.decomposition.residual,
        "certificate1": j1.certificate.to_dict() if j1.certificate else None,
        "certificate2": j2.certificate.to_dict() if j2.certificate else None,
    }
    for name, j in (("certificate1", j1), ("certificate2", j2)):
        if j.certificate is not None and not j.certificate.accepted:
            return Verdict(
                "inconclusive", f"{name} failed (frame degeneration or "
                "unstable conditioning)", evidence,
            )
    if j1.m != j2.m:
        return Verdict("not_similar", "order mismatch", evidence)
    # an incomplete search in one direction still leaves the other to try
    match, incomplete = None, []
    for search, g1, g2 in ((moebius_match, j1.outer, j2.outer),
                           (_reverse_match, j2.outer, j1.outer)):
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
    return MoebiusMatch(
        transform=moebius_inverse(m.transform),
        residual=m.residual,
        candidates=m.candidates,
    )


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
    slope: float
    growth_ratio: float
    ladder: list
    cond_ratio: float
    verdict: str

    def to_dict(self):
        return {
            "t": self.t,
            "weights": self.weights_id,
            "n_max": self.n_max,
            "profile_head": [float(x) for x in self.profile[:8]],
            "profile_last": float(self.profile[-1]),
            "slope": self.slope,
            "growth_ratio": self.growth_ratio,
            "ladder": self.ladder,
            "cond_ratio": self.cond_ratio,
            "verdict": self.verdict,
        }


def counterexample_probe(t, w, n_max=400):
    """Profile the automorphism frame on one weight sequence.

    Reports the normalized power norms r_n, a log-log slope fit over the
    upper half, and the condition numbers of the truncated deformation for a
    doubling ladder of column counts.  Divergence of both is the numerical
    signature of "no bounded similarity at probed scales"; joint
    stabilization is reported as "similarity-consistent".
    """
    if not (0.0 < t < 1.0):
        raise DomainError("t must lie in (0, 1)")
    r = frames.column_norm_profile(t, w, n_max)
    lo = max(2, n_max // 2)
    ns = np.arange(lo, n_max + 1, dtype=float)
    slope = float(np.polyfit(np.log(ns), np.log(r[lo:]), 1)[0])
    growth_ratio = float(r[n_max] / np.min(r[lo:]))
    ladder = []
    conds = []
    for N in (max(8, n_max // 8), max(16, n_max // 4), max(32, n_max // 2), n_max):
        K = max(512, 4 * N)
        F = frames.moebius_frame(t, w, N, K, pad=0)
        s_min, s_max = F.extremes()
        cond = float(s_max / s_min) if s_min > 0 else float("inf")
        conds.append(cond)
        ladder.append({"n_max": N, "K": K, "cond": cond})
    cond_ratio = conds[-1] / conds[-2] if conds[-2] > 0 else float("inf")
    # bounded profiles still drift like 1/n toward their limit, so "stable"
    # tolerates a small positive slope; divergence shows up orders of
    # magnitude beyond these bands
    r_diverging = growth_ratio > 1.3 and slope > 0.05
    r_stable = growth_ratio < 1.1 and slope < 0.05
    c_diverging = cond_ratio > 1.5
    c_stable = cond_ratio < 1.1
    if r_diverging and c_diverging:
        verdict = "no bounded similarity at probed scales"
    elif r_stable and c_stable:
        verdict = "similarity-consistent"
    else:
        verdict = "inconclusive"
    return CounterexampleReport(
        t=float(t), weights_id=w.id, n_max=n_max, profile=r, slope=slope,
        growth_ratio=growth_ratio, ladder=ladder, cond_ratio=cond_ratio,
        verdict=verdict,
    )
