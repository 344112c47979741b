"""Weight sequences and the weighted Hardy spaces they induce.

A weight sequence is a sequence of positive reals ``w_1, w_2, ...`` with
``beta_0 = 1`` and ``beta_k = beta_{k-1} * w_k``.  The associated Hilbert
space consists of analytic functions on the unit disk whose Taylor
coefficients are square-summable against ``beta_k**2``; the growth class of
``(k+1)|w_k - 1|`` decides which similarity phenomena the space supports.

All beta values are maintained in log space (cumulative sums of ``log w_k``)
so that super-polynomially growing or decaying sequences stay representable.
"""

from __future__ import annotations

import csv
import threading
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, TruncationRangeError

__all__ = [
    "WeightSequence",
    "GrowthReport",
    "growth_classify",
    "equivalent",
    "parse_weight_id",
]

POLYNOMIAL = "polynomial"
INTERMEDIATE = "intermediate"
UNDETERMINED = "empirical-undetermined"

_CHUNK = 1024


class WeightSequence:
    """Lazily extended weight sequence with a preset tag.

    Construct through the factory classmethods (:meth:`hardy`,
    :meth:`bergman`, :meth:`polygrowth`, :meth:`nln`, :meth:`explicit`,
    :meth:`reciprocal`) or from a string id via :func:`parse_weight_id`.
    Instances are immutable apart from the monotone cache extension, which is
    lock-protected, so concurrent reads are safe.
    """

    def __init__(self, kind, params=(), base=None, values=None):
        self.kind = kind
        self.params = tuple(params)
        self.base = base
        if values is not None:
            values = np.asarray(values, dtype=float)
            if values.size == 0 or not np.all(values > 0.0):
                raise ValueError("explicit weight lists must be positive and nonempty")
            if not np.all(np.isfinite(values)):
                raise ValueError("explicit weight lists must be finite")
        self._values = values
        self._lock = threading.Lock()
        self._logw = np.zeros(0)  # log w_k at position k-1
        self._logbeta = np.zeros(1)  # log beta_k at position k

    # -- presets ----------------------------------------------------------

    @classmethod
    def hardy(cls):
        return cls("hardy")

    @classmethod
    def bergman(cls, alpha):
        # false for NaN, and for an alpha whose 2*alpha overflows
        if not 0.0 <= 2.0 * alpha < np.inf:
            raise ValueError("bergman parameter must be nonnegative and 2*alpha finite")
        return cls("bergman", (float(alpha),))

    @classmethod
    def polygrowth(cls, M):
        if not 0.0 < M < np.inf:
            raise ValueError("polygrowth parameter must be positive and finite")
        return cls("polygrowth", (float(M),))

    @classmethod
    def nln(cls):
        return cls("nln")

    @classmethod
    def explicit(cls, values):
        return cls("explicit", values=values)

    @classmethod
    def reciprocal(cls, base):
        if base.kind == "reciprocal":
            return base.base
        return cls("reciprocal", base=base)

    # -- identity ---------------------------------------------------------

    @property
    def id(self):
        if self.kind == "bergman":
            return f"bergman:alpha={_fmt(self.params[0])}"
        if self.kind == "polygrowth":
            return f"polygrowth:M={_fmt(self.params[0])}"
        if self.kind == "reciprocal":
            return f"reciprocal:{self.base.id}"
        if self.kind == "explicit":
            return f"explicit:n={self._values.size}"
        return self.kind

    def __repr__(self):
        return f"WeightSequence({self.id})"

    # -- raw log-weight generation ---------------------------------------

    def _log_w_block(self, k_from, k_to):
        """log w_k for k in [k_from, k_to], inclusive, 1-based."""
        k = np.arange(k_from, k_to + 1, dtype=float)
        if self.kind == "hardy":
            return np.zeros(k.size)
        if self.kind == "bergman":
            alpha = self.params[0]
            # w_k = sqrt((k+1)/(k+2*alpha+1))
            return 0.5 * np.log1p(-2.0 * alpha / (k + 2.0 * alpha + 1.0))
        if self.kind == "polygrowth":
            M = self.params[0]
            return np.log1p(M / (k + 1.0))
        if self.kind == "nln":
            # w_k = (k+2)/(k+1) * exp(ln^2(k+3) - ln^2(k+2)); the exponent is
            # evaluated as log1p(1/(k+2)) * (ln(k+3)+ln(k+2)) to avoid
            # cancellation for large k.
            growth = np.log1p(1.0 / (k + 2.0)) * (np.log(k + 3.0) + np.log(k + 2.0))
            return growth + np.log1p(1.0 / (k + 1.0))
        if self.kind == "reciprocal":
            return -self.base._log_w_block(k_from, k_to)
        if self.kind == "explicit":
            if k_to > self._values.size:
                raise TruncationRangeError(
                    f"explicit weight list has {self._values.size} entries, "
                    f"index {k_to} requested"
                )
            return np.log(self._values[k_from - 1 : k_to])
        raise ValueError(f"unknown weight kind {self.kind!r}")

    def _ensure(self, K):
        """Extend the cache so that w_1..w_K and beta_0..beta_K are covered."""
        if self._logw.size >= K:
            return
        with self._lock:
            have = self._logw.size
            if have >= K:
                return
            target = max(K, have + _CHUNK)
            if self.kind == "explicit":
                target = min(target, self._values.size)
                if target < K:
                    raise TruncationRangeError(
                        f"explicit weight list has {self._values.size} entries, "
                        f"index {K} requested"
                    )
            logw = np.concatenate([self._logw, self._log_w_block(have + 1, target)])
            # one cumsum over all of logw, so that no value depends on the
            # chunks earlier calls asked for; _logw last, as readers outside
            # the lock check only its size
            self._logbeta = np.concatenate([[0.0], np.cumsum(logw)])
            self._logw = logw

    # -- accessors ---------------------------------------------------------

    def weights(self, K):
        """Array [w_1, ..., w_K]."""
        self._ensure(K)
        return np.exp(self._logw[:K])

    def betas(self, K):
        """Array [beta_0, ..., beta_K]."""
        self._ensure(K)
        return np.exp(self._logbeta[: K + 1])

    def log_betas(self, K):
        self._ensure(K)
        return self._logbeta[: K + 1].copy()

    def dual(self):
        """The sequence with reciprocal weights (beta'_k = 1/beta_k)."""
        return WeightSequence.reciprocal(self)

    @property
    def beta_sq_degree(self):
        """Degree d of beta_k**2 as a polynomial in k, or None when it is none.

        For an integer M, polygrowth:M has beta_k = C(k+M+1, M)/(M+1), so
        d = 2M; the reciprocal of bergman:alpha=a has beta_k**2 =
        C(k+2a+1, 2a)/(2a+1), so d = 2a when 2a is an integer; hardy has d = 0.
        """
        if self.kind == "hardy":
            return 0
        if self.kind == "polygrowth" and self.params[0].is_integer():
            return 2 * int(self.params[0])
        if self.kind == "reciprocal" and self.base.kind == "bergman":
            two_a = 2.0 * self.base.params[0]
            return int(two_a) if two_a.is_integer() else None
        return None

    @property
    def growth_certificate(self):
        """Analytically certified growth class, or None for explicit lists."""
        if self.kind in ("hardy", "bergman", "polygrowth"):
            return POLYNOMIAL
        if self.kind == "nln":
            return INTERMEDIATE
        if self.kind == "reciprocal":
            return self.base.growth_certificate
        return None


def _fmt(x):
    return f"{x:g}"


@dataclass
class GrowthReport:
    """Probe data and classification of a weight sequence's growth."""

    probe_limit: int
    sup_val: float
    tail_trend: float
    classification: str
    certified: bool


def growth_classify(w, K):
    """Probe (k+1)|w_k - 1| up to k = K and classify the growth.

    Presets carry certified classifications; anything else is reported as
    empirical-undetermined because no finite probe can decide sup-finiteness.

    ``tail_trend`` is the least-squares slope of (k+1)(w_k - 1) against
    log(k+1) over the last decade of the probe: near zero for polynomial
    growth, markedly positive/negative for diverging sequences.
    """
    if K < 10:
        raise ValueError("growth probe needs K >= 10")
    ks = np.arange(1, K + 1, dtype=float)
    y = (ks + 1.0) * (w.weights(K) - 1.0)
    sup_val = float(np.max(np.abs(y)))
    lo = max(1, K // 10)
    tail_x = np.log(ks[lo - 1 :] + 1.0)
    tail_y = y[lo - 1 :]
    slope = float(np.polyfit(tail_x, tail_y, 1)[0])
    cert = w.growth_certificate
    if cert is not None:
        return GrowthReport(K, sup_val, slope, cert, True)
    return GrowthReport(K, sup_val, slope, UNDETERMINED, False)


def equivalent(w, w2, K):
    """Decide whether two sequences induce the same space with equivalent norms.

    Returns ``(verdict, K1, K2)`` where ``K1 = min_{k<=K} beta'_k/beta_k`` and
    ``K2 = max_{k<=K} beta'_k/beta_k`` over the probe.  The verdict is True
    when the log-ratio has settled: its variation over the last half of the
    probe stays below 2e-2.  A finite probe cannot prove equivalence; the
    verdict is the numerical analogue of a finite nonzero ratio limit.
    """
    if K < 1:
        raise ValueError("equivalence probe needs K >= 1")
    d = w2.log_betas(K) - w.log_betas(K)
    K1 = float(np.exp(np.min(d)))
    K2 = float(np.exp(np.max(d)))
    tail = d[K // 2 :]
    settled = float(np.max(tail) - np.min(tail)) < 2e-2
    return settled, K1, K2


def parse_weight_id(text):
    """Parse a weight preset id such as ``bergman:alpha=1`` or ``nln``.

    Supported forms: ``hardy``, ``bergman:alpha=A``, ``polygrowth:M=M``,
    ``nln``, ``reciprocal:<id>``, ``explicit:path=FILE`` (CSV, one positive
    weight per line, row k holding w_k for k starting at 1).
    """
    text = text.strip()
    if text == "hardy":
        return WeightSequence.hardy()
    if text == "nln":
        return WeightSequence.nln()
    if text.startswith("reciprocal:"):
        return WeightSequence.reciprocal(parse_weight_id(text[len("reciprocal:") :]))
    if text.startswith("bergman:"):
        return WeightSequence.bergman(_parse_param(text, "bergman", "alpha"))
    if text.startswith("polygrowth:"):
        return WeightSequence.polygrowth(_parse_param(text, "polygrowth", "M"))
    if text.startswith("explicit:"):
        arg = text[len("explicit:") :]
        if not arg.startswith("path="):
            raise ConfigError(f"explicit weights need path=FILE, got {arg!r}")
        return WeightSequence.explicit(_read_weight_csv(arg[len("path=") :]))
    raise ConfigError(f"unknown weight preset id {text!r}")


def _parse_param(text, kind, name):
    arg = text[len(kind) + 1 :]
    if not arg.startswith(name + "="):
        raise ConfigError(f"{kind} preset needs {name}=VALUE, got {arg!r}")
    try:
        return float(arg[len(name) + 1 :])
    except ValueError as exc:
        raise ConfigError(f"bad {kind} parameter {arg!r}") from exc


def _read_weight_csv(path):
    values = []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row or not row[0].strip():
                continue
            values.append(float(row[0]))
    return values
