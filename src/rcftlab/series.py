"""Exact-order truncated series arithmetic over complex coefficients.

Exponents live on a rational grid num/denom with a single explicit
denominator per series; mixed-denominator operations refine to the least
common denominator.  Truncation order propagates pessimistically: a result
never reports coefficients at or beyond the order implied by its inputs.

The carrier type is used for q-expansions (eta needs denom 24, theta 8,
the 11/60- and -1/60-characters 60), for nu- and eps-expansions, and for
local (x - X_s) expansions.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

import numpy as np

__all__ = [
    "SeriesError",
    "TruncatedSeries",
    "OrderFit",
    "order_fit",
    "coeff_distance",
]


class SeriesError(ValueError):
    """Raised on invalid series construction or arithmetic."""


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, tuple) and len(x) == 2:
        return Fraction(x[0], x[1])
    raise SeriesError(f"not a rational exponent: {x!r}")


class TruncatedSeries:
    """Finitely many complex coefficients on a rational exponent grid.

    Coefficients are stored contiguously from ``min_num``; the exponent of
    slot ``i`` is ``(min_num + i)/denom``.  Exponents at or beyond
    ``trunc_num/denom`` are unknown.  The leading stored coefficient is
    nonzero unless the series is identically zero up to truncation.
    """

    __slots__ = ("denom", "min_num", "coeffs", "trunc_num")

    def __init__(self, denom: int, min_num: int, coeffs, trunc_num: int):
        if denom < 1:
            raise SeriesError("denom must be a positive integer")
        arr = np.asarray(coeffs, dtype=complex).ravel().copy()
        # strip coefficients at/beyond the truncation order
        keep = trunc_num - min_num
        if keep < len(arr):
            arr = arr[:max(keep, 0)]
        # normalize: leading stored coefficient nonzero, or canonical zero
        nz = np.nonzero(arr)[0]
        if len(nz) == 0:
            min_num, arr = 0, np.zeros(0, dtype=complex)
        else:
            min_num += nz[0]
            arr = arr[nz[0]:nz[-1] + 1]
        self.denom = int(denom)
        self.min_num = int(min_num)
        self.coeffs = arr
        self.trunc_num = int(trunc_num)

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def zero(cls, trunc, denom: int = 1) -> "TruncatedSeries":
        tr = _as_fraction(trunc)
        d = int(np.lcm(denom, tr.denominator))
        return cls(d, 0, [], int(tr * d))

    @classmethod
    def constant(cls, value, trunc, denom: int = 1) -> "TruncatedSeries":
        tr = _as_fraction(trunc)
        d = int(np.lcm(denom, tr.denominator))
        return cls(d, 0, [value], int(tr * d))

    @classmethod
    def monomial(cls, value, exponent, trunc) -> "TruncatedSeries":
        e, tr = _as_fraction(exponent), _as_fraction(trunc)
        d = int(np.lcm(e.denominator, tr.denominator))
        return cls(d, int(e * d), [value], int(tr * d))

    @classmethod
    def from_dict(cls, denom: int, terms: dict, trunc_num: int) -> "TruncatedSeries":
        if not terms:
            return cls(denom, 0, [], trunc_num)
        lo = min(terms)
        arr = np.zeros(max(terms) - lo + 1, dtype=complex)
        for num, val in terms.items():
            arr[num - lo] = val
        return cls(denom, lo, arr, trunc_num)

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return len(self.coeffs) == 0

    @property
    def trunc(self) -> Fraction:
        return Fraction(self.trunc_num, self.denom)

    @property
    def lead_exponent(self) -> Fraction:
        """Leading exponent; for a zero series this is the truncation order."""
        if self.is_zero:
            return self.trunc
        return Fraction(self.min_num, self.denom)

    @property
    def max_num(self) -> int:
        return self.min_num + len(self.coeffs) - 1

    def coeff(self, exponent) -> complex:
        """Coefficient at a rational exponent; errors at/beyond truncation."""
        e = _as_fraction(exponent)
        if e >= self.trunc:
            raise SeriesError(f"exponent {e} is at/beyond truncation {self.trunc}")
        num = e * self.denom
        if num.denominator != 1:
            return 0j
        i = int(num) - self.min_num
        if 0 <= i < len(self.coeffs):
            return complex(self.coeffs[i])
        return 0j

    def terms(self) -> Iterator[tuple[int, complex]]:
        for i, v in enumerate(self.coeffs):
            if v != 0:
                yield self.min_num + i, complex(v)

    def max_abs_coeff(self) -> float:
        return float(np.abs(self.coeffs).max()) if len(self.coeffs) else 0.0

    def __repr__(self) -> str:
        head = ", ".join(
            f"q^({n}/{self.denom})*{v:.6g}" for n, v in list(self.terms())[:4]
        )
        return (f"TruncatedSeries({head}{' + ...' if len(self.coeffs) > 4 else ''}"
                f" + O(q^{self.trunc}))")

    # ------------------------------------------------------------------
    # grid management
    # ------------------------------------------------------------------

    def refined(self, factor: int) -> "TruncatedSeries":
        if factor == 1:
            return self
        arr = np.zeros(len(self.coeffs) * factor, dtype=complex)
        arr[::factor] = self.coeffs
        return TruncatedSeries(self.denom * factor, self.min_num * factor,
                               arr, self.trunc_num * factor)

    @staticmethod
    def aligned(a: "TruncatedSeries", b: "TruncatedSeries"):
        d = int(np.lcm(a.denom, b.denom))
        return a.refined(d // a.denom), b.refined(d // b.denom)

    def truncated(self, trunc) -> "TruncatedSeries":
        tr = _as_fraction(trunc)
        if tr > self.trunc:
            raise SeriesError("cannot extend a truncated series")
        d = int(np.lcm(self.denom, tr.denominator))
        s = self.refined(d // self.denom)
        return TruncatedSeries(s.denom, s.min_num, s.coeffs, int(tr * d))

    # ------------------------------------------------------------------
    # ring operations
    # ------------------------------------------------------------------

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(self.denom, self.min_num, -self.coeffs, self.trunc_num)

    def __add__(self, other) -> "TruncatedSeries":
        if np.isscalar(other):
            other = TruncatedSeries.constant(other, self.trunc, self.denom)
        a, b = TruncatedSeries.aligned(self, other)
        tn = min(a.trunc_num, b.trunc_num)
        if a.is_zero and b.is_zero:
            return TruncatedSeries(a.denom, 0, [], tn)
        los = [s.min_num for s in (a, b) if not s.is_zero]
        his = [s.max_num for s in (a, b) if not s.is_zero]
        lo, hi = min(los), max(his)
        arr = np.zeros(hi - lo + 1, dtype=complex)
        for s in (a, b):
            if not s.is_zero:
                arr[s.min_num - lo:s.max_num - lo + 1] += s.coeffs
        return TruncatedSeries(a.denom, lo, arr, tn)

    __radd__ = __add__

    def __sub__(self, other) -> "TruncatedSeries":
        if np.isscalar(other):
            other = TruncatedSeries.constant(other, self.trunc, self.denom)
        return self + (-other)

    def __rsub__(self, other) -> "TruncatedSeries":
        return (-self) + other

    def __mul__(self, other) -> "TruncatedSeries":
        if np.isscalar(other):
            # complex() once: a Fraction would otherwise make an object array
            return TruncatedSeries(self.denom, self.min_num,
                                   self.coeffs * complex(other), self.trunc_num)
        a, b = TruncatedSeries.aligned(self, other)
        # pessimistic truncation: min over inputs shifted by leading exponents
        la = a.min_num if not a.is_zero else a.trunc_num
        lb = b.min_num if not b.is_zero else b.trunc_num
        tn = min(a.trunc_num + lb, b.trunc_num + la)
        if a.is_zero or b.is_zero:
            return TruncatedSeries(a.denom, 0, [], tn)
        arr = np.convolve(a.coeffs, b.coeffs)
        return TruncatedSeries(a.denom, a.min_num + b.min_num, arr, tn)

    __rmul__ = __mul__

    def inverse(self) -> "TruncatedSeries":
        """Multiplicative inverse 1/self, requires nonzero leading coefficient."""
        if self.is_zero:
            raise SeriesError("division by a series with no nonzero coefficient")
        c = self.coeffs[0]
        u = self.coeffs / c
        m = self.trunc_num - self.min_num  # relative resolution of (1 + u)
        v = np.zeros(m, dtype=complex)
        v[0] = 1.0
        for k in range(1, m):
            jmax = min(k, len(u) - 1)
            v[k] = -np.dot(u[1:jmax + 1], v[k - 1::-1][:jmax])
        # 1/self = (1/c) q^{-e} (1+u)^{-1}; trunc = trunc - 2*lead
        tn = self.trunc_num - 2 * self.min_num
        return TruncatedSeries(self.denom, -self.min_num, v / c, tn)

    def __truediv__(self, other) -> "TruncatedSeries":
        if np.isscalar(other):
            return self * (1.0 / other)
        return self * other.inverse()

    def __rtruediv__(self, other) -> "TruncatedSeries":
        return self.inverse() * other

    def pow_int(self, k: int) -> "TruncatedSeries":
        if k == 0:
            return TruncatedSeries.constant(1.0, self.trunc, self.denom)
        if k < 0:
            return self.inverse().pow_int(-k)
        out, base, k = None, self, k
        while k:
            if k & 1:
                out = base if out is None else out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def pow_rational(self, p: int, q: int) -> "TruncatedSeries":
        """self**(p/q) by exp((p/q) log(self/lead)), lifting the exponent grid."""
        if q == 1:
            return self.pow_int(p)
        if self.is_zero:
            raise SeriesError("rational power of zero series")
        r = Fraction(p, q)
        lead_e = self.lead_exponent * r
        c = self.coeffs[0]
        body = (self / TruncatedSeries.monomial(c, self.lead_exponent, self.trunc))
        out = (body.log() * float(r)).exp() * (c ** (p / q))
        return out * TruncatedSeries.monomial(1.0, lead_e, out.trunc + lead_e)

    def __pow__(self, k):
        if isinstance(k, int):
            return self.pow_int(k)
        if isinstance(k, Fraction):
            return self.pow_rational(k.numerator, k.denominator)
        raise SeriesError("use pow_int or pow_rational")

    # ------------------------------------------------------------------
    # transcendental operations
    # ------------------------------------------------------------------

    def exp(self) -> "TruncatedSeries":
        """Series exponential.  The constant part may be any finite number;
        all other exponents must be positive."""
        if self.is_zero:
            return TruncatedSeries.constant(1.0, self.trunc, self.denom)
        if self.min_num < 0:
            raise SeriesError("exp requires exponents >= 0")
        c0 = 0j
        a = self
        if a.min_num == 0:
            c0 = a.coeffs[0]
            a = a - TruncatedSeries.constant(c0, a.trunc, a.denom)
        m = a.trunc_num
        # recurrence from b' = a' b in q d/dq form, num-units
        aa = np.zeros(m, dtype=complex)
        if not a.is_zero:
            hi = min(a.max_num, m - 1)
            aa[a.min_num:hi + 1] = a.coeffs[:hi - a.min_num + 1]
        b = np.zeros(m, dtype=complex)
        b[0] = 1.0
        ja = np.arange(m) * aa
        for k in range(1, m):
            b[k] = np.dot(ja[1:k + 1], b[k - 1::-1][:k]) / k
        return TruncatedSeries(self.denom, 0, b, m) * np.exp(c0)

    def log(self) -> "TruncatedSeries":
        """Series logarithm; requires leading term equal to the constant 1."""
        if self.is_zero or self.min_num != 0:
            raise SeriesError("log requires leading term 1 (factor the leading "
                              "monomial first)")
        if abs(self.coeffs[0] - 1.0) > 1e-13:
            raise SeriesError("log requires leading coefficient 1")
        m = self.trunc_num
        aa = np.zeros(m, dtype=complex)
        hi = min(self.max_num, m - 1)
        aa[0:hi + 1] = self.coeffs[:hi + 1]
        b = np.zeros(m, dtype=complex)
        for k in range(1, m):
            b[k] = aa[k] - np.dot(np.arange(1, k) * b[1:k], aa[k - 1:0:-1]) / k
        return TruncatedSeries(self.denom, 0, b, m)

    def qdq(self) -> "TruncatedSeries":
        """q d/dq: multiply the coefficient of q^(num/denom) by num/denom."""
        scale = (np.arange(len(self.coeffs)) + self.min_num) / self.denom
        return TruncatedSeries(self.denom, self.min_num,
                               self.coeffs * scale, self.trunc_num)

    def shifted(self, exponent) -> "TruncatedSeries":
        """Multiply by q^exponent (pure grid shift)."""
        e = _as_fraction(exponent)
        d = int(np.lcm(self.denom, e.denominator))
        s = self.refined(d // self.denom)
        k = int(e * d)
        return TruncatedSeries(d, s.min_num + k, s.coeffs, s.trunc_num + k)

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps({
            "denom": self.denom,
            "terms": [[n, v.real, v.imag] for n, v in self.terms()],
            "trunc": f"{self.trunc_num}/{self.denom}",
        })

    @classmethod
    def from_json(cls, text: str) -> "TruncatedSeries":
        obj = json.loads(text)
        tn, td = obj["trunc"].split("/")
        tr = Fraction(int(tn), int(td))
        denom = int(obj["denom"])
        terms = {int(n): complex(re, im) for n, re, im in obj["terms"]}
        return cls.from_dict(denom, terms, int(tr * denom))


def coeff_distance(a: TruncatedSeries, b: TruncatedSeries) -> float:
    """Max coefficient modulus of a - b below the common truncation order."""
    d = a - b
    return d.max_abs_coeff()


# ----------------------------------------------------------------------
# order-of-convergence estimation
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class OrderFit:
    """Least-squares fit of log(error) = slope*log(parameter) + intercept."""

    slope: float
    intercept: float
    residual: float


def order_fit(samples: Iterable[tuple[float, float]]) -> OrderFit:
    """Fit error ~ parameter**slope on log-log axes.

    ``samples`` are (parameter, error) pairs with strictly decreasing
    positive parameters and positive errors; at least 3 are required.
    """
    pts = list(samples)
    if len(pts) < 3:
        raise SeriesError("order_fit needs at least 3 samples")
    xs = [float(p) for p, _ in pts]
    es = [float(e) for _, e in pts]
    if any(x <= 0 for x in xs) or any(e <= 0 for e in es):
        raise SeriesError("order_fit needs positive parameters and errors")
    if any(x2 >= x1 for x1, x2 in zip(xs, xs[1:])):
        raise SeriesError("order_fit needs strictly decreasing parameters")
    lx = np.log(xs)
    ly = np.log(es)
    A = np.vstack([lx, np.ones_like(lx)]).T
    (slope, intercept), *_ = np.linalg.lstsq(A, ly, rcond=None)
    resid = float(np.sqrt(np.mean((A @ [slope, intercept] - ly) ** 2)))
    return OrderFit(float(slope), float(intercept), resid)
