"""Hyperelliptic-curve utilities and the degree-5 correlator models.

The curve is y^2 = p(x) with p = a0 prod (x - X_i) and distinct roots.
On top of it sit the one-point polynomial model <theta>(x), the psi
combination, the two-point function with its symmetric bidegree-(2,2)
polynomial B (one free coefficient B11), and the small-N graph
representation used to organize products of the stress-field companion.

The two-point model stores B in the elementary-symmetric monomial basis
{1, e1, e2, e1^2, e1*e2, e2^2}; five combinations are fixed by the
diagonal beta = B(x,x) and the sixth by B11 (the coefficient of x1*x2).
The one-parameter family B11 -> B11 + t shifts B by -(t/2)(x1 - x2)^2,
which is why the separately quoted "C (x1-x2)^2" term of the Galois-even
part is absorbed into B11 here.  Sheets of y = sqrt(p) are taken by
negating y: HyperCurve.y is the principal square root, and a caller that
wants the other sheet passes -y (TwoPointValue.total takes y1, y2 as
given); there are no sheet tags and no global branch cuts.

Each piece of point data has one owner.  <theta>^(k)(x) is
CorrelatorParams.theta, read from a derivative table that each params
object builds on first use, once; beta_poly_coeffs reads the same table.
X_s is HyperCurve.root(s), the one place where a root index is checked.
The root-local data, p^(k)(X_s), omega_s and the distances to the other
roots, come from one walk of the spectator differences X_s - X_t,
HyperCurve._root_jet, which reads X_s through it.

Derivatives are exact: HyperCurve.dp and the polynomial models reject a
negative order.  This layer sits below contour and imports none of it;
quadrature over these models (Laurent coefficients, sampled Schwarzians)
belongs to contour or to its callers.  The default central charge is
qspecial's CENTRAL_CHARGE, -22/5.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations

import numpy as np
from numpy.polynomial.polynomial import polyval

from .qspecial import CENTRAL_CHARGE

__all__ = [
    "HyperCurve",
    "CorrelatorParams",
    "TwoPointValue",
    "omega_s",
    "f_pair",
    "psi_value",
    "psi_prime_closed",
    "beta_poly_coeffs",
    "beta_value",
    "beta_prime_closed",
    "beta_third_closed",
    "b_sym_coeffs",
    "b_poly",
    "two_point",
    "two_point_regular",
    "admissible_graphs",
    "count_cycles",
    "graph_weight_terms",
    "assemble_two_point_graphs",
]

# nearest pairwise root gap over the largest pairwise root distance at or
# below which HyperCurve rejects the roots as not distinct; a ratio, so the
# test is invariant under x -> lambda x
MIN_ROOT_RATIO = 1e-8


def _poly_der(a: np.ndarray, k: int = 1) -> np.ndarray:
    if k < 0:
        raise ValueError(f"derivative order {k} is negative")
    for _ in range(k):
        if len(a) <= 1:
            return np.zeros(1, dtype=complex)
        a = a[1:] * np.arange(1, len(a))
    return a


@dataclass(frozen=True)
class HyperCurve:
    """y^2 = a0 prod (x - X_i) with 3 <= n <= 8 distinct roots."""

    a0: complex
    roots: tuple

    def __init__(self, a0, roots):
        object.__setattr__(self, "a0", complex(a0))
        object.__setattr__(self, "roots", tuple(map(complex, roots)))
        if self.a0 == 0:
            raise ValueError("a0 must be nonzero")
        if not all(map(cmath.isfinite, (self.a0, *self.roots))):
            raise ValueError(f"a0 and the roots must be finite, got a0 = {self.a0}, "
                             f"roots {self.roots}")
        n = len(self.roots)
        if not 3 <= n <= 8:
            raise ValueError(f"need 3..8 roots, got {n}")
        dists = [abs(a - b) for a, b in combinations(self.roots, 2)]
        gap, spread = min(dists), max(dists)
        if gap <= MIN_ROOT_RATIO * spread:
            i, j = list(combinations(range(n), 2))[dists.index(gap)]
            raise ValueError(f"roots {i} and {j} are {gap:.3g} apart, at most "
                             f"{MIN_ROOT_RATIO:g} of the root spread {spread:.3g}")

    @property
    def n(self) -> int:
        return len(self.roots)

    @cached_property
    def poly(self) -> np.ndarray:
        """Ascending coefficient array of p."""
        out = np.array([self.a0], dtype=complex)
        for r in self.roots:
            out = np.convolve(out, np.array([-r, 1.0], dtype=complex))
        return out

    @cached_property
    def _dpolys(self) -> list[np.ndarray]:
        return [_poly_der(self.poly, k) for k in range(self.n + 1)]

    # -- evaluation ----------------------------------------------------

    def p(self, x: complex) -> complex:
        return math.prod((x - r for r in self.roots), start=self.a0 + 0j)

    def dp(self, x: complex, k: int = 1) -> complex:
        """k-th derivative at x; zero beyond the polynomial degree."""
        if k < 0:
            raise ValueError(f"derivative order {k} is negative")
        if k > self.n:
            return 0j
        return polyval(x, self._dpolys[k])

    def root(self, s: int) -> complex:
        """X_s.  Every root-local quantity reads X_s through here, so this is
        where an index outside 0 <= s < n is rejected rather than wrapped."""
        if not 0 <= s < self.n:
            raise ValueError(f"root index {s} out of range")
        return self.roots[s]

    def _root_jet(self, s: int) -> tuple[list, list, list]:
        """Root-local data from one walk of the spectators: the differences
        d = [X_s - X_t for t != s] in root order, [e_0, ..., e_{n-1}] of the
        1/d, and [p(X_s), p'(X_s), ..., p^(n)(X_s)] with p' = a0 prod d and
        p^(k) = k! p' e_{k-1}.  Builds neither poly nor _dpolys, so a curve
        made for one evaluation stays cheap."""
        xs = self.root(s)
        d = [xs - r for t, r in enumerate(self.roots) if t != s]
        e = _elementary_symmetric([1.0 / v for v in d], self.n - 1)
        p1 = math.prod(d, start=self.a0 + 0j)
        return d, e, [0j, p1] + [math.factorial(k) * p1 * e[k - 1]
                                 for k in range(2, self.n + 1)]

    def p_prime_at_root(self, s: int) -> complex:
        """p'(X_s) = a0 prod_{i != s} (X_s - X_i), as an exact product."""
        return self._root_jet(s)[2][1]

    def y(self, x: complex) -> complex:
        """Principal square root of p(x); the other sheet is -y(x)."""
        return cmath.sqrt(self.p(x))

    def nearest_other_root_distance(self, s: int) -> float:
        return min(map(abs, self._root_jet(s)[0]))

    def schwarzian_p(self, x: complex) -> complex:
        """S(p)(x) = p'''/p' - (3/2)(p''/p')^2, exact derivatives."""
        p1 = self.dp(x, 1)
        if p1 == 0:
            raise ValueError("Schwarzian of p undefined where p' vanishes")
        return self.dp(x, 3) / p1 - 1.5 * (self.dp(x, 2) / p1) ** 2

    # -- serialization ---------------------------------------------------

    def to_json(self) -> str:
        return json.dumps({
            "a0": [self.a0.real, self.a0.imag],
            "roots": [[r.real, r.imag] for r in self.roots],
        })

    @classmethod
    def from_json(cls, text: str) -> "HyperCurve":
        obj = json.loads(text)
        return cls(complex(*obj["a0"]), [complex(re, im) for re, im in obj["roots"]])


def _elementary_symmetric(values, m: int) -> list[complex]:
    """[e_0, ..., e_m] of the values, by the product recurrence."""
    e = [1.0 + 0j] + [0j] * m
    for v in values:
        for k in range(m, 0, -1):
            e[k] += v * e[k - 1]
    return e


# ----------------------------------------------------------------------
# root sums and the pair function
# ----------------------------------------------------------------------

def omega_s(curve: HyperCurve, s: int) -> complex:
    """omega_s = sum_{t != s} 1/(X_s - X_t), the e_1 of HyperCurve._root_jet."""
    return curve._root_jet(s)[1][1]


def f_pair(curve: HyperCurve, x1: complex, x2: complex) -> complex:
    """f_{12} = ((y1 + y2)/(x1 - x2))^2 with yi = curve.y(xi), the principal
    sheet; another sheet pairing replaces y1 or y2 by its negative."""
    if x1 == x2:
        raise ValueError("f_pair needs distinct arguments")
    return ((curve.y(x1) + curve.y(x2)) / (x1 - x2)) ** 2


# ----------------------------------------------------------------------
# correlator model
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CorrelatorParams:
    """Free-scalar data of the one- and two-point models on a curve.

    ``theta_coeffs`` are the ascending coefficients of the degree-(n-2)
    polynomial <theta>(x) (length n-1); the leading one is pinned to
    -(c/32)(n^2-1) a0 Z.  ``b11`` is the free two-point coefficient.
    """

    z: complex
    theta_coeffs: tuple
    b11: complex
    c: float = float(CENTRAL_CHARGE)
    _curve_n: int = field(default=5, repr=False)
    _curve_a0: complex = field(default=1.0, repr=False)

    @classmethod
    def make(cls, curve: HyperCurve, z: complex, lower_theta, b11: complex,
             c: float = float(CENTRAL_CHARGE)) -> "CorrelatorParams":
        """Build params with the leading theta coefficient set by the
        large-x law; ``lower_theta`` supplies the n-2 lower coefficients."""
        n = curve.n
        lower = [complex(v) for v in lower_theta]
        if len(lower) != n - 2:
            raise ValueError(f"need {n - 2} lower theta coefficients")
        lead = -(c / 32.0) * (n ** 2 - 1) * curve.a0 * z
        return cls(complex(z), tuple(lower) + (lead,), complex(b11), float(c),
                   n, curve.a0)

    @classmethod
    def random_for(cls, curve: HyperCurve, rng: np.random.Generator,
                   c: float = float(CENTRAL_CHARGE)) -> "CorrelatorParams":
        def draw(k):
            return rng.normal(size=k) + 1j * rng.normal(size=k)
        z = complex(*rng.normal(size=2))
        while abs(z) < 0.2:
            z = complex(*rng.normal(size=2))
        return cls.make(curve, z, draw(curve.n - 2), complex(*rng.normal(size=2)), c)

    def __post_init__(self):
        if len(self.theta_coeffs) != self._curve_n - 1:
            raise ValueError(f"need {self._curve_n - 1} theta coefficients")
        lead = -(self.c / 32.0) * (self._curve_n ** 2 - 1) * self._curve_a0 * self.z
        if abs(self.theta_coeffs[-1] - lead) > 1e-9 * max(1.0, abs(lead)):
            raise ValueError("leading theta coefficient violates the large-x law")

    @cached_property
    def _theta_table(self) -> list[np.ndarray]:
        """Ascending coefficients of <theta>, <theta'>, ..., ending with the
        first identically zero derivative; built on first use, once."""
        cs = np.array(self.theta_coeffs, dtype=complex)
        return [_poly_der(cs, k) for k in range(len(cs) + 1)]

    def theta(self, x: complex, k: int = 0) -> complex:
        """<theta>^(k)(x) of the polynomial model; zero beyond its degree.
        x may be a numpy array."""
        if k < 0:
            raise ValueError(f"derivative order {k} is negative")
        return polyval(x, self._theta_table[min(k, len(self.theta_coeffs))])


def psi_value(curve: HyperCurve, params: CorrelatorParams, x: complex) -> complex:
    """psi = -(c/480)(p' p''' - (3/2) p''^2) Z
    + (1/5)(p'' <th> - (1/2) p' <th>' - p <th>'')."""
    c, z = params.c, params.z
    p0, p1, p2, p3 = (curve.dp(x, k) for k in range(4))
    sp = p1 * p3 - 1.5 * p2 ** 2  # (p')^2 S(p) without the division
    return (-(c / 480.0) * sp * z
            + 0.2 * (p2 * params.theta(x)
                     - 0.5 * p1 * params.theta(x, 1)
                     - p0 * params.theta(x, 2)))


def psi_prime_closed(curve: HyperCurve, params: CorrelatorParams, x: complex) -> complex:
    """Closed form of psi' (equals twice the first regular Taylor datum of
    the coincident two-point function)."""
    c, z = params.c, params.z
    p1, p2, p3, p4 = (curve.dp(x, k) for k in range(1, 5))
    return (-(c / 480.0) * (p1 * p4 - 2.0 * p2 * p3) * z
            + 0.2 * p3 * params.theta(x)
            + 0.1 * p2 * params.theta(x, 1)
            - 0.3 * p1 * params.theta(x, 2))


# -- beta and the symmetric polynomial B -------------------------------

def beta_poly_coeffs(curve: HyperCurve, params: CorrelatorParams) -> np.ndarray:
    """Ascending coefficients of beta(x) = B(x, x); degree 4 for n = 5.

    The assembly is a degree-6 polynomial whose top two coefficients cancel
    through the leading-theta law; the cancellation is asserted.
    """
    if curve.n != 5:
        raise ValueError("beta model is the n=5 statement")
    c, z = params.c, params.z
    P = [curve._dpolys[k] for k in range(6)]
    th, th1, th2 = params._theta_table[:3]
    # at n = 5 each of the six products has degree 6, so they add directly
    out = (z * (-(7 * c / 960.0) * np.convolve(P[1], P[3])
                + (91 * c / 16000.0) * np.convolve(P[2], P[2])
                + (c / 192.0) * np.convolve(P[0], P[4]))
           + 0.05 * np.convolve(P[0], th2)
           + 0.15 * np.convolve(P[1], th1)
           - (2.0 / 25.0) * np.convolve(P[2], th))
    scale = max(np.abs(out).max(), 1e-30)
    if len(out) > 5 and np.abs(out[5:]).max() > 1e-9 * scale:
        raise ValueError("beta does not truncate to degree 4; model off calibration")
    return out[:5]


def beta_value(curve, params, x, deriv: int = 0) -> complex:
    return polyval(x, _poly_der(beta_poly_coeffs(curve, params), deriv))


def beta_prime_closed(curve, params, x) -> complex:
    """Quoted closed form of beta'."""
    c, z = params.c, params.z
    p0, p1, p2, p3, p4, p5 = (curve.dp(x, k) for k in range(6))
    return (z * ((49 * c / 12000.0) * p2 * p3 - (c / 480.0) * p1 * p4
                 + (c / 300.0) * p0 * p5)
            + 0.2 * p1 * params.theta(x, 2)
            + 0.07 * p2 * params.theta(x, 1)
            - (2.0 / 25.0) * p3 * params.theta(x))


def beta_third_closed(curve, params, x) -> complex:
    """Quoted closed form of beta'''."""
    c, z = params.c, params.z
    p2, p3, p4, p5 = (curve.dp(x, k) for k in range(2, 6))
    return (z * ((61 * c / 6000.0) * p3 * p4 - (23 * c / 1600.0) * p2 * p5)
            + (13.0 / 50.0) * p3 * params.theta(x, 2)
            - 0.09 * p4 * params.theta(x, 1)
            - (2.0 / 25.0) * p5 * params.theta(x))


def b_sym_coeffs(curve: HyperCurve, params: CorrelatorParams) -> dict:
    """B in the basis {1, e1, e2, e1^2, e1 e2, e2^2} of elementary
    symmetric polynomials of (x1, x2).

    Five coefficients come from matching the diagonal to beta; the
    remaining freedom is fixed by b11 = coefficient of the monomial x1 x2.
    """
    b = beta_poly_coeffs(curve, params)
    return {
        "1": b[0],
        "e1": b[1] / 2.0,
        "e2": 2.0 * params.b11 - b[2],
        "e1^2": (b[2] - params.b11) / 2.0,
        "e1e2": b[3] / 2.0,
        "e2^2": b[4],
    }


def b_poly(curve, params, x1, x2) -> complex:
    k = b_sym_coeffs(curve, params)
    e1, e2 = x1 + x2, x1 * x2
    return (k["1"] + k["e1"] * e1 + k["e2"] * e2 + k["e1^2"] * e1 ** 2
            + k["e1e2"] * e1 * e2 + k["e2^2"] * e2 ** 2)


# -- the n=5 two-point function ----------------------------------------

@dataclass(frozen=True)
class TwoPointValue:
    """Galois-even part plus the coefficient of y1 y2."""

    even: complex
    odd_coeff: complex

    def total(self, y1: complex, y2: complex) -> complex:
        return self.even + y1 * y2 * self.odd_coeff


def _odd_additive(curve, params, x1, x2) -> complex:
    """-( (c/16)(p1'''' + p2'''')/24 + (1/8)(<th1''> + <th2''>) )."""
    c = params.c
    return -((c / 16.0) * (curve.dp(x1, 4) + curve.dp(x2, 4)) / 24.0 * params.z
             + 0.125 * (params.theta(x1, 2) + params.theta(x2, 2)))


def two_point(curve: HyperCurve, params: CorrelatorParams,
              x1: complex, x2: complex) -> TwoPointValue:
    """<theta theta> for n = 5, split into even part and y1 y2 coefficient.

    even: (c/4) p1 p2/d^4 Z + (c/32) p1' p2'/d^2 Z
          + (1/2)(p1 <th2> + p2 <th1>)/d^2
          + (7/50)(p1'' <th2> + p2'' <th1>) + (21c/4000) p1'' p2'' Z
          + B(x1, x2)
    odd:  (c/8)(p1 + p2)/d^4 Z + (1/2)(<th1> + <th2>)/d^2 + additive term.

    x1 and x2 may be numpy arrays (a contour's nodes); they broadcast.
    """
    if curve.n != 5:
        raise ValueError("two-point model is the n=5 statement")
    if np.any(x1 == x2):
        raise ValueError("two_point needs distinct arguments")
    c, z = params.c, params.z
    d = x1 - x2
    p1v, p2v = curve.p(x1), curve.p(x2)
    t1, t2 = params.theta(x1), params.theta(x2)
    even = ((c / 4.0) * p1v * p2v / d ** 4 * z
            + (c / 32.0) * curve.dp(x1, 1) * curve.dp(x2, 1) / d ** 2 * z
            + 0.5 * (p1v * t2 + p2v * t1) / d ** 2
            + (7.0 / 50.0) * (curve.dp(x1, 2) * t2 + curve.dp(x2, 2) * t1)
            + (21.0 * c / 4000.0) * curve.dp(x1, 2) * curve.dp(x2, 2) * z
            + b_poly(curve, params, x1, x2))
    odd = ((c / 8.0) * (p1v + p2v) / d ** 4 * z
           + 0.5 * (t1 + t2) / d ** 2
           + _odd_additive(curve, params, x1, x2))
    return TwoPointValue(even, odd)


def two_point_regular(curve, params, x: complex, s: int) -> complex:
    """<theta_{X_s} theta_x>_r: the even two-point value with the
    singular OPE content (c/32) f^2 Z + (1/4) f (<th_x> + <th_Xs>)
    removed, f = p(x)/(x - X_s)^2."""
    xs = curve.root(s)
    tp = two_point(curve, params, x, xs)
    f = curve.p(x) / (x - xs) ** 2
    return (tp.even - (params.c / 32.0) * f ** 2 * params.z
            - 0.25 * f * (params.theta(x) + params.theta(xs)))


# ----------------------------------------------------------------------
# graph representation at small N
# ----------------------------------------------------------------------

def admissible_graphs(N: int) -> list[tuple]:
    """All digraphs on N labeled vertices with in/out degree <= 1, no self
    loops; each graph is a sorted tuple of directed edges (i, j)."""
    if N < 1:
        raise ValueError("N must be >= 1")
    if N > 4:
        raise ValueError("graph enumeration is guarded to N <= 4")
    edges = [(i, j) for i in range(N) for j in range(N) if i != j]
    out: list[tuple] = []
    for mask in range(1 << len(edges)):
        chosen = [edges[k] for k in range(len(edges)) if mask >> k & 1]
        # in/out degree <= 1: no vertex is the tail, or the head, of two edges
        if all(len(set(ends)) == len(chosen) for ends in zip(*chosen)):
            out.append(tuple(sorted(chosen)))
    return out


def count_cycles(graph: tuple, N: int) -> int:
    """Number of directed cycles of an in/out-degree <= 1 digraph.

    With in-degree <= 1 a cycle has no incoming tail, so a walk started at
    any unvisited vertex either dead-ends, merges into previously visited
    ground, or returns exactly to its start.
    """
    succ = dict(graph)
    visited: set[int] = set()
    cycles = 0
    for start in range(N):
        if start in visited:
            continue
        trail = set()
        v = start
        while v not in trail:
            trail.add(v)
            if v not in succ:
                break
            v = succ[v]
            if v in visited:
                break
        else:
            cycles += 1  # walk closed on its own start
        visited.update(trail)
    return cycles


def graph_weight_terms(graph: tuple, N: int) -> dict:
    """Structural weight of one graph: loop count, edge list, and the
    vertex set carrying the residual correlator (no incoming line)."""
    targets = {j for _, j in graph}
    return {
        "loops": count_cycles(graph, N),
        "edges": list(graph),
        "residual_vertices": [k for k in range(N) if k not in targets],
    }


def assemble_two_point_graphs(curve, params, x1: complex, x2: complex) -> dict:
    """Numeric N=2 assembly: sums the four admissible graphs with
    f-edge weights, (c/2) per loop, and <...>_r residual factors.

    Returns the total alongside the three-term decomposition
    (c/32) f^2 Z + (1/4) f (<th1> + <th2>) + <th1 th2>_r for comparison.
    """
    c = params.c
    # the theorem's f carries sheets; work on the principal (+, +) sheet throughout
    f12 = f_pair(curve, x1, x2)
    theta_vals = {0: params.theta(x1), 1: params.theta(x2)}
    # residual two-point: the even-part model minus OPE singular content,
    # evaluated off the ramification locus on the (+, +) sheet
    tp = two_point(curve, params, x1, x2)
    y1, y2 = curve.y(x1), curve.y(x2)
    full = tp.total(y1, y2)
    resid2 = full - (c / 32.0) * f12 ** 2 * params.z - 0.25 * f12 * (theta_vals[0] + theta_vals[1])
    total = 0j
    pieces = []
    for g in admissible_graphs(2):
        w = graph_weight_terms(g, 2)
        factor = (c / 2.0) ** w["loops"]
        for (i, j) in g:
            factor *= 0.25 * f12
        if len(w["residual_vertices"]) == 2:
            contrib = factor * resid2
        elif len(w["residual_vertices"]) == 1:
            contrib = factor * theta_vals[w["residual_vertices"][0]]
        else:
            contrib = factor * params.z
        pieces.append((g, contrib))
        total += contrib
    return {"total": total, "reference": full, "pieces": pieces}
