"""Valuation distributions and their virtual values.

Each family exposes pdf/survival/quantile (numpy-vectorized) plus a
claimed regularity parameter ``lambda_claimed`` in [0, 1].  lambda = 0 is the
monotone-hazard-rate class, lambda = 1 the Myerson-regular class; the
generalized virtual margin  m_lambda(v) = lambda*v - (1-F(v))/f(v)  must be
non-decreasing for membership (`theory.check_regularity` tests it).  (The
defining condition is stated with the sign that makes lambda=0 coincide with
MHR.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonMonotone, OutOfRange, OutOfSupport, ParseError


@dataclass(frozen=True)
class Support:
    lo: float
    hi: float  # may be +inf

    def interior(self, v: float) -> bool:
        return self.lo < v < self.hi


class Distribution:
    """Base class: subclasses fill in pdf/survival/quantile and metadata."""

    support: Support
    lambda_claimed: float
    # Exponential growth rate of tail_quantile(s) as s -> inf.
    tail_growth: float = 0.0

    def pdf(self, v):
        raise NotImplementedError

    def survival(self, v):
        """1 - F(v), with no cancellation deep in the tail; 1 below the support."""
        raise NotImplementedError

    def quantile(self, u, out=None):
        """Q(u), written into ``out`` when given (``out=u`` maps u in place)."""
        raise NotImplementedError

    def tail_quantile(self, s):
        """Q(1 - e^-s): the quantile at survival e^-s, with no rounding of u to 1."""
        return self.quantile(-np.expm1(-np.asarray(s, dtype=float)))

    def log_tail_quantile(self, s):
        """log Q(1 - e^-s): inf where Q overflows, unless the family
        computes it in log space (a heavy tail)."""
        with np.errstate(over="ignore"):
            return np.log(self.tail_quantile(s))

    def mean(self) -> float:
        raise NotImplementedError

    @property
    def descriptor(self) -> str:
        raise NotImplementedError

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.descriptor}>"


class Exponential(Distribution):
    """Exponential(rate); MHR (lambda = 0), constant hazard."""

    def __init__(self, rate: float):
        if not 0 < rate < math.inf:
            raise ParseError(f"exponential rate must be positive and finite, got {rate}")
        self.rate = float(rate)
        self.support = Support(0.0, math.inf)
        self.lambda_claimed = 0.0

    def survival(self, v):
        return np.exp(-self.rate * np.maximum(np.asarray(v, dtype=float), 0.0))

    def pdf(self, v):
        v = np.asarray(v, dtype=float)
        return np.where(v >= 0.0, self.rate * np.exp(-self.rate * np.maximum(v, 0.0)), 0.0)

    def quantile(self, u, out=None):
        u, x = _operands(u, out)
        np.log1p(np.negative(u, out=x), out=x)
        # x / -rate has the bits of -x / rate: negation is exact.
        return _result(np.divide(x, -self.rate, out=x))

    def tail_quantile(self, s):
        return np.asarray(s, dtype=float) / self.rate

    def mean(self) -> float:
        return 1.0 / self.rate

    @property
    def descriptor(self) -> str:
        return f"exp:{_fmt(self.rate)}"


class Uniform(Distribution):
    """Uniform on [a, b]; MHR (hazard 1/(b - v) is increasing)."""

    def __init__(self, a: float, b: float):
        if not -math.inf < a < b < math.inf:
            raise ParseError(f"uniform needs finite a < b, got [{a}, {b}]")
        self.a, self.b = float(a), float(b)
        self.support = Support(self.a, self.b)
        self.lambda_claimed = 0.0

    def survival(self, v):
        return 1.0 - np.clip((np.asarray(v, dtype=float) - self.a) / (self.b - self.a), 0.0, 1.0)

    def pdf(self, v):
        v = np.asarray(v, dtype=float)
        inside = (v >= self.a) & (v <= self.b)
        return np.where(inside, 1.0 / (self.b - self.a), 0.0)

    def quantile(self, u, out=None):
        u, x = _operands(u, out)
        np.multiply(u, self.b - self.a, out=x)
        return _result(np.add(x, self.a, out=x))

    def tail_quantile(self, s):
        return self.b - (self.b - self.a) * np.exp(-np.asarray(s, dtype=float))

    def mean(self) -> float:
        return 0.5 * (self.a + self.b)

    @property
    def descriptor(self) -> str:
        return f"uniform:{_fmt(self.a)}:{_fmt(self.b)}"


class Weibull(Distribution):
    """Weibull(scale, shape); MHR for shape >= 1.  Shape < 1 is rejected: the
    hazard falls like v^(shape-1), so no lambda <= 1 holds."""

    def __init__(self, scale: float, shape: float):
        if not (0 < scale < math.inf and 1 <= shape < math.inf):
            raise ParseError(f"weibull needs finite scale > 0 and shape >= 1, got {scale}, {shape}")
        self.scale, self.shape = float(scale), float(shape)
        self.support = Support(0.0, math.inf)
        self.lambda_claimed = 0.0

    def survival(self, v):
        z = np.maximum(np.asarray(v, dtype=float), 0.0) / self.scale
        return np.exp(-np.power(z, self.shape))

    def pdf(self, v):
        v = np.asarray(v, dtype=float)
        z = np.maximum(v, 0.0) / self.scale
        out = (self.shape / self.scale) * np.power(z, self.shape - 1.0) * np.exp(-np.power(z, self.shape))
        return np.where(v > 0, out, 0.0)

    def quantile(self, u, out=None):
        u, x = _operands(u, out)
        np.log1p(np.negative(u, out=x), out=x)
        np.power(np.negative(x, out=x), 1.0 / self.shape, out=x)
        return _result(np.multiply(x, self.scale, out=x))

    def tail_quantile(self, s):
        return self.scale * np.power(np.asarray(s, dtype=float), 1.0 / self.shape)

    def mean(self) -> float:
        return self.scale * math.gamma(1.0 + 1.0 / self.shape)

    @property
    def descriptor(self) -> str:
        return f"weibull:{_fmt(self.scale)}:{_fmt(self.shape)}"


class Pareto(Distribution):
    """Pareto(shape, scale); heavy-tailed, lambda-regular at lambda = 1/shape."""

    def __init__(self, shape: float, scale: float):
        if not (1 < shape < math.inf and 0 < scale < math.inf):
            raise ParseError(f"pareto needs finite shape > 1 and scale > 0, got {shape}, {scale}")
        self.shape, self.scale = float(shape), float(scale)
        self.support = Support(self.scale, math.inf)
        self.lambda_claimed = 1.0 / self.shape
        self.tail_growth = 1.0 / self.shape

    def survival(self, v):
        # (scale / v)^shape, with no cancellation deep in the tail.
        return np.power(self.scale / np.maximum(v, self.scale), self.shape)

    def pdf(self, v):
        v = np.asarray(v, dtype=float)
        with np.errstate(divide="ignore"):
            out = self.shape * np.power(self.scale, self.shape) / np.power(v, self.shape + 1.0)
        return np.where(v >= self.scale, out, 0.0)

    def quantile(self, u, out=None):
        u, x = _operands(u, out)
        np.power(np.subtract(1.0, u, out=x), -1.0 / self.shape, out=x)
        return _result(np.multiply(x, self.scale, out=x))

    def tail_quantile(self, s):
        return self.scale * np.exp(np.asarray(s, dtype=float) / self.shape)

    def log_tail_quantile(self, s):
        return math.log(self.scale) + np.asarray(s, dtype=float) / self.shape

    def mean(self) -> float:
        return self.shape * self.scale / (self.shape - 1.0)

    @property
    def descriptor(self) -> str:
        return f"pareto:{_fmt(self.shape)}:{_fmt(self.scale)}"


class TruncatedEqualRevenue(Distribution):
    """F(x) = (n/(n-1)) (1 - 1/x) on [1, n], so 1 - F(x) = (n - x)/((n - 1) x).

    A near-equal-revenue family: every item price in (1, n) yields per-buyer
    revenue (n-p)/(n-1) <= 1, while the mean is (n/(n-1)) ln n.  Regular
    (lambda = 1) but not MHR.
    """

    def __init__(self, n: int):
        if n < 2:
            raise ParseError(f"truncated-equal-revenue needs n >= 2, got {n}")
        self.n = int(n)
        self.support = Support(1.0, float(n))
        self.lambda_claimed = 1.0

    def survival(self, v):
        # n - x is exact near the top of the support, where 1 - F would cancel.
        v = np.clip(np.asarray(v, dtype=float), 1.0, self.n)
        return (self.n - v) / ((self.n - 1.0) * v)

    def pdf(self, v):
        v = np.asarray(v, dtype=float)
        c = self.n / (self.n - 1.0)
        inside = (v >= 1.0) & (v < self.n)
        with np.errstate(divide="ignore"):
            out = c / (v * v)
        return np.where(inside, out, 0.0)

    def quantile(self, u, out=None):
        u, x = _operands(u, out)
        np.divide(np.multiply(u, self.n - 1.0, out=x), self.n, out=x)
        return _result(np.divide(1.0, np.subtract(1.0, x, out=x), out=x))

    def mean(self) -> float:
        return self.n / (self.n - 1.0) * math.log(self.n)

    @property
    def descriptor(self) -> str:
        return f"ter:{self.n}"


def _operands(u, out):
    """``u`` as a float array, and the array a quantile computes in: ``out``
    (which may be ``u`` itself) or a new one shaped like ``u``."""
    u = np.asarray(u, dtype=float)
    return u, np.empty_like(u) if out is None else out


def _result(x: np.ndarray):
    """``x``, or its value as a numpy scalar when 0-d, as a ufunc returns it."""
    return x if x.ndim else x[()]


def _fmt(x: float) -> str:
    """Shortest round-trippable form, without a trailing ``.0``."""
    s = repr(float(x))
    return s[:-2] if s.endswith(".0") else s


def parse_distribution(descriptor: str) -> Distribution:
    """Parse a textual family descriptor, e.g. ``exp:1.0`` or ``pareto:2:1``."""
    parts = descriptor.strip().split(":")
    kind, args = parts[0].lower(), parts[1:]
    try:
        if kind in ("exp", "exponential"):
            (rate,) = args
            return Exponential(float(rate))
        if kind == "uniform":
            a, b = args
            return Uniform(float(a), float(b))
        if kind == "weibull":
            scale, shape = args
            return Weibull(float(scale), float(shape))
        if kind == "pareto":
            shape, scale = args
            return Pareto(float(shape), float(scale))
        if kind == "ter":
            (n,) = args
            return TruncatedEqualRevenue(int(n))
    except (ValueError, TypeError) as exc:
        raise ParseError(f"bad distribution descriptor {descriptor!r}: {exc}") from exc
    raise ParseError(f"unknown distribution family {kind!r} in {descriptor!r}")


def builtin_families() -> list[Distribution]:
    """The lab's stock instances, spanning lambda = 0, 0 < lambda < 1, lambda = 1."""
    return [
        Exponential(1.0),
        Uniform(0.0, 1.0),
        Weibull(1.0, 2.0),
        Pareto(2.0, 1.0),
        TruncatedEqualRevenue(100),
    ]


# ---------------------------------------------------------------------------
# Virtual values


def virtual_value(d: Distribution, v):
    """Myerson virtual value  v - (1-F(v))/f(v), the lambda-margin of
    `theory.check_regularity` at lambda = 1.  Vectorized over v."""
    arr = np.asarray(v, dtype=float)
    scalar = arr.ndim == 0
    if scalar and not d.support.interior(float(arr)):
        raise OutOfSupport(f"{v} not in the interior of {d.descriptor} support")
    out = arr - d.survival(arr) / d.pdf(arr)
    return float(out) if scalar else out


# Offsets, in steps, of the 65 points of a bracket-refinement round.
_STEPS = np.arange(65.0)


def inverse_virtual_value(d: Distribution, c: float) -> float:
    """Solve virtual_value(d, v) = c by bracket refinement.

    Requires a lambda-regular family (so the virtual value is nondecreasing).
    The monopoly reserve price is ``inverse_virtual_value(d, 0)``.  The
    virtual value at the root is within 1e-9 max(1, |c|) of c.
    """
    tol = 1e-9 * max(1.0, abs(c))
    lo = max(d.support.lo, float(d.quantile(1e-12)))
    # The upper end starts at survival 1e-13 on a bounded support, or at 1e-8
    # on an infinite one, where the loop below doubles it until it brackets c.
    hi = float(d.quantile(1.0 - (1e-13 if math.isfinite(d.support.hi) else 1e-8)))
    phi_lo = virtual_value(d, lo) if d.support.interior(lo) else _phi_right_limit(d)
    if c < phi_lo - tol:
        raise OutOfRange(f"target {c} below the virtual-value range of {d.descriptor}")
    if c <= phi_lo:
        return lo
    # Expand toward the tail if the endpoint does not bracket yet.
    with np.errstate(invalid="ignore"):
        phi_hi, good = virtual_value(d, hi), hi
        for _ in range(64):
            if phi_hi >= c or math.isnan(phi_hi):
                break
            if not math.isinf(d.support.hi):
                raise OutOfRange(f"target {c} above the virtual-value range of {d.descriptor}")
            good = hi
            hi *= 2.0
            phi_hi = virtual_value(d, hi)
        else:
            raise OutOfRange(f"target {c} above the virtual-value range of {d.descriptor}")
        # Past where survival and pdf both underflow, the virtual value is
        # 0/0 = NaN: step back halfway toward the last end that gave a
        # number.  The halving stalls at adjacent floats, so it is bounded.
        if math.isnan(phi_hi):
            bad = hi
            for _ in range(64):
                hi = 0.5 * (good + bad)
                phi_hi = virtual_value(d, hi)
                if phi_hi >= c:
                    break
                if math.isnan(phi_hi):
                    bad = hi
                else:
                    good = hi
            else:
                raise OutOfRange(f"target {c} lies past where the tail of {d.descriptor} underflows")
    if phi_hi < phi_lo:
        raise NonMonotone(f"virtual value of {d.descriptor} decreases across the bracket")
    # Each round keeps the one of 64 sub-brackets where the sign changes.
    for _ in range(64):
        if hi - lo <= 1e-14 + 8.9e-16 * hi:
            break
        # np.linspace(lo, hi, 65), with its own arithmetic and fewer calls.
        xs = _STEPS * ((hi - lo) / 64)
        xs += lo
        xs[-1] = hi
        above = np.flatnonzero(virtual_value(d, xs[1:-1]) >= c)
        i = int(above[0]) if above.size else 63
        lo, hi = float(xs[i]), float(xs[i + 1])
    root = 0.5 * (lo + hi)
    if abs(virtual_value(d, root) - c) > tol:
        raise NonMonotone(f"bracket refinement failed to pin virtual value at {c} for {d.descriptor}")
    return root


def _phi_right_limit(d: Distribution) -> float:
    v = float(d.quantile(1e-10))
    return virtual_value(d, v) if d.support.interior(v) else virtual_value(d, float(d.quantile(1e-6)))


# ---------------------------------------------------------------------------
# The tail constant c(lambda)


def c_of_lambda(lam: float) -> float:
    """Tail constant (1-lam)^(1/lam); 1/e at lam=0, 0 at lam=1.

    Governs the bound P[v >= E[v]] >= c(lambda) for lambda-regular draws.
    """
    if not 0.0 <= lam <= 1.0:
        raise DomainError(f"lambda must lie in [0,1], got {lam}")
    if lam == 0.0:
        return 1.0 / math.e
    if lam == 1.0:
        return 0.0
    return (1.0 - lam) ** (1.0 / lam)
