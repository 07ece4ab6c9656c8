"""Exact-order truncated series arithmetic over complex coefficients.

A series is q^lead times coefficients on a 1/denom exponent grid: slot i
holds the coefficient of q^(lead + i/denom), with ``lead`` and the
truncation order ``trunc`` exact Fractions.  Every series is kept on the
coarsest such grid, so the (2,5) character q^(11/60)(1 + q^2 + ...) and
eta = q^(1/24)(1 - q - ...) are stored on the integer grid; shifting by
q^e only moves ``lead`` and ``trunc``.  Sums and products spread their
inputs onto the common finer step only where grids differ.  ``terms()``
yields (exponent, coefficient) pairs, and the JSON form stores denom,
lead, coeffs and trunc.  Truncation order propagates pessimistically: a
result never reports coefficients at or beyond the order implied by its
inputs.

The carrier type is used for the q-expansions of qspecial (eta, theta
constants, Eisenstein series, the two characters); no other layer builds
one.  Sewing's nu- and eps-expansions are plain mpmath arithmetic (it takes
only order_fit from here), and curve and contour never import this module.
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
    """Finitely many complex coefficients on one exponent grid.

    Slot ``i`` of ``coeffs`` holds the coefficient of q^(lead + i/denom);
    ``lead`` and ``trunc`` are exact Fractions and exponents at or beyond
    ``trunc`` are unknown.  The constructor strips coefficients at or beyond
    ``trunc``, makes the leading stored coefficient nonzero and lowers
    ``denom`` to the coarsest 1/denom step (integer denom) that holds every
    nonzero coefficient: q^(11/60) times an integer-step series has lead
    11/60 and denom 1.  A series that is zero up to truncation stores
    nothing, with lead = trunc and denom 1.
    """

    __slots__ = ("denom", "lead", "coeffs", "trunc")

    def __init__(self, denom: int, lead, coeffs, trunc):
        if denom < 1:
            raise SeriesError("denom must be a positive integer")
        lead, trunc = _as_fraction(lead), _as_fraction(trunc)
        arr = np.asarray(coeffs, dtype=complex).ravel()
        arr = arr[:max(math.ceil((trunc - lead) * denom), 0)]
        nz = np.flatnonzero(arr)
        if len(nz) == 0:
            denom, lead, arr = 1, trunc, arr[:0]
        else:
            step = math.gcd(int(denom), int(np.gcd.reduce(nz - nz[0])))
            lead += Fraction(int(nz[0]), denom)
            arr = arr[nz[0]:nz[-1] + 1:step]
            denom //= step
        self.denom = int(denom)
        self.lead = lead
        self.coeffs = arr.copy()
        self.trunc = trunc

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def zero(cls, trunc) -> "TruncatedSeries":
        return cls(1, 0, [], trunc)

    @classmethod
    def constant(cls, value, trunc) -> "TruncatedSeries":
        return cls(1, 0, [value], trunc)

    @classmethod
    def monomial(cls, value, exponent, trunc) -> "TruncatedSeries":
        return cls(1, exponent, [value], trunc)

    @classmethod
    def from_dict(cls, denom: int, terms: dict, trunc_num: int) -> "TruncatedSeries":
        """Series from {num: coefficient of q^(num/denom)}, known below
        q^(trunc_num/denom)."""
        lo = min(terms, default=0)
        arr = np.zeros(max(terms, default=-1) - lo + 1, dtype=complex)
        for num, val in terms.items():
            arr[num - lo] = val
        return cls(denom, Fraction(lo, denom), arr, Fraction(trunc_num, denom))

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return len(self.coeffs) == 0

    @property
    def lead_exponent(self) -> Fraction:
        """Leading exponent; for a zero series this is the truncation order."""
        return self.lead

    def coeff(self, exponent) -> complex:
        """Coefficient at a rational exponent; errors at/beyond truncation."""
        e = _as_fraction(exponent)
        if e >= self.trunc:
            raise SeriesError(f"exponent {e} is at/beyond truncation {self.trunc}")
        i = (e - self.lead) * self.denom
        if i.denominator == 1 and 0 <= i < len(self.coeffs):
            return complex(self.coeffs[int(i)])
        return 0j

    def terms(self) -> Iterator[tuple[Fraction, complex]]:
        """(exponent, coefficient) for every nonzero stored coefficient."""
        for i in np.flatnonzero(self.coeffs):
            yield self.lead + Fraction(int(i), self.denom), complex(self.coeffs[i])

    def max_abs_coeff(self) -> float:
        return float(np.abs(self.coeffs).max()) if len(self.coeffs) else 0.0

    def __repr__(self) -> str:
        head = ", ".join(f"q^({e})*{v:.6g}" for e, v in list(self.terms())[:4])
        return (f"TruncatedSeries({head}{' + ...' if len(self.coeffs) > 4 else ''}"
                f" + O(q^{self.trunc}))")

    # ------------------------------------------------------------------
    # grid management
    # ------------------------------------------------------------------

    def _exponents(self) -> np.ndarray:
        """Exponent of each slot, each rounded once from exact integers."""
        n, d = self.lead.numerator, self.lead.denominator
        return (n * self.denom + d * np.arange(len(self.coeffs))) / (d * self.denom)

    def _spread(self, denom: int) -> np.ndarray:
        """Coefficients from q^lead on the finer step 1/denom, a multiple of
        1/self.denom; for a nonzero series."""
        f = denom // self.denom
        if f == 1:
            return self.coeffs
        out = np.zeros((len(self.coeffs) - 1) * f + 1, dtype=complex)
        out[::f] = self.coeffs
        return out

    def truncated(self, trunc) -> "TruncatedSeries":
        tr = _as_fraction(trunc)
        if tr > self.trunc:
            raise SeriesError("cannot extend a truncated series")
        return TruncatedSeries(self.denom, self.lead, self.coeffs, tr)

    def shifted(self, exponent) -> "TruncatedSeries":
        """Multiply by q^exponent."""
        e = _as_fraction(exponent)
        return TruncatedSeries(self.denom, self.lead + e, self.coeffs, self.trunc + e)

    # ------------------------------------------------------------------
    # ring operations
    # ------------------------------------------------------------------

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(self.denom, self.lead, -self.coeffs, self.trunc)

    def __add__(self, other) -> "TruncatedSeries":
        if np.isscalar(other):
            other = TruncatedSeries.constant(other, self.trunc)
        trunc = min(self.trunc, other.trunc)
        parts = [s for s in (self, other) if not s.is_zero]
        if not parts:
            return TruncatedSeries.zero(trunc)
        lead = min(s.lead for s in parts)
        d = math.lcm(*(math.lcm(s.denom, (s.lead - lead).denominator) for s in parts))
        placed = [(int((s.lead - lead) * d), s._spread(d)) for s in parts]
        arr = np.zeros(max(k + len(c) for k, c in placed), dtype=complex)
        for k, c in placed:
            arr[k:k + len(c)] += c
        return TruncatedSeries(d, lead, arr, trunc)

    __radd__ = __add__

    def __sub__(self, other) -> "TruncatedSeries":
        if np.isscalar(other):
            other = TruncatedSeries.constant(other, self.trunc)
        return self + (-other)

    def __rsub__(self, other) -> "TruncatedSeries":
        return (-self) + other

    def __mul__(self, other) -> "TruncatedSeries":
        if np.isscalar(other):
            # complex() once: a Fraction would otherwise make an object array
            return TruncatedSeries(self.denom, self.lead,
                                   self.coeffs * complex(other), self.trunc)
        # pessimistic truncation: each input's order, shifted by the other's
        # lead (a zero series leads at its truncation order)
        trunc = min(self.trunc + other.lead, other.trunc + self.lead)
        if self.is_zero or other.is_zero:
            return TruncatedSeries.zero(trunc)
        d = math.lcm(self.denom, other.denom)
        arr = np.convolve(self._spread(d), other._spread(d))
        return TruncatedSeries(d, self.lead + other.lead, arr, trunc)

    __rmul__ = __mul__

    def inverse(self) -> "TruncatedSeries":
        """Multiplicative inverse 1/self, requires nonzero leading coefficient."""
        if self.is_zero:
            raise SeriesError("division by a series with no nonzero coefficient")
        c = self.coeffs[0]
        u = self.coeffs / c
        m = math.ceil((self.trunc - self.lead) * self.denom)  # slots of (1 + u)
        v = np.zeros(m, dtype=complex)
        v[0] = 1.0
        for k in range(1, m):
            jmax = min(k, len(u) - 1)
            v[k] = -np.dot(u[1:jmax + 1], v[k - 1::-1][:jmax])
        # 1/self = (1/c) q^{-lead} (1+u)^{-1}; trunc = trunc - 2*lead
        return TruncatedSeries(self.denom, -self.lead, v / c, self.trunc - 2 * self.lead)

    def __truediv__(self, other) -> "TruncatedSeries":
        if np.isscalar(other):
            return self * (1.0 / other)
        return self * other.inverse()

    def __rtruediv__(self, other) -> "TruncatedSeries":
        return self.inverse() * other

    def pow_int(self, k: int) -> "TruncatedSeries":
        if k == 0:
            return TruncatedSeries.constant(1.0, self.trunc)
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
        """self**(p/q) = c**(p/q) q^(lead p/q) exp((p/q) log(body)), where
        self = c q^lead body and body leads with the constant 1."""
        if q == 1:
            return self.pow_int(p)
        if self.is_zero:
            raise SeriesError("rational power of zero series")
        r = Fraction(p, q)
        c = self.coeffs[0]
        body = self.shifted(-self.lead) * (1.0 / c)
        out = (body.log() * float(r)).exp() * (c ** (p / q))
        return out.shifted(self.lead * r)

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
        if self.lead < 0:
            raise SeriesError("exp requires exponents >= 0")
        c0 = self.coeffs[0] if self.lead == 0 and not self.is_zero else 0j
        a = self - c0
        if a.is_zero:
            return TruncatedSeries.constant(np.exp(c0), self.trunc)
        # recurrence from b' = a' b in q d/dq form, on a's grid from q^0
        d = math.lcm(a.denom, a.lead.denominator)
        m = math.ceil(a.trunc * d)
        k, c = int(a.lead * d), a._spread(d)
        aa = np.zeros(m, dtype=complex)
        aa[k:k + len(c)] = c
        b = np.zeros(m, dtype=complex)
        b[0] = 1.0
        ja = np.arange(m) * aa
        for k in range(1, m):
            b[k] = np.dot(ja[1:k + 1], b[k - 1::-1][:k]) / k
        return TruncatedSeries(d, 0, b, a.trunc) * np.exp(c0)

    def log(self) -> "TruncatedSeries":
        """Series logarithm, the integral of qdq(self)/self; requires leading
        term equal to the constant 1."""
        if self.is_zero or self.lead != 0:
            raise SeriesError("log requires leading term 1 (factor the leading "
                              "monomial first)")
        if abs(self.coeffs[0] - 1.0) > 1e-13:
            raise SeriesError("log requires leading coefficient 1")
        g = self.qdq() * self.inverse()
        return TruncatedSeries(g.denom, g.lead, g.coeffs / g._exponents(), g.trunc)

    def qdq(self) -> "TruncatedSeries":
        """q d/dq: multiply the coefficient of q^e by e."""
        return TruncatedSeries(self.denom, self.lead,
                               self.coeffs * self._exponents(), self.trunc)

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps({
            "denom": self.denom,
            "lead": str(self.lead),
            "coeffs": [[v.real, v.imag] for v in self.coeffs.tolist()],
            "trunc": str(self.trunc),
        })

    @classmethod
    def from_json(cls, text: str) -> "TruncatedSeries":
        obj = json.loads(text)
        return cls(int(obj["denom"]), Fraction(obj["lead"]),
                   [complex(re, im) for re, im in obj["coeffs"]], Fraction(obj["trunc"]))


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
