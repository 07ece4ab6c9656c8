"""Numeric contour integration around ramification points.

Laurent-coefficient extraction by trapezoid quadrature on circles
(spectrally accurate for analytic integrands): cauchy_coefficient is the
package's one circle kernel, and it returns several orders from one
evaluation of the integrand.  On top of it sit the verification of the
closed-form k = 0, 1, 3 integrals of the coincident two-point function,
the k = 2 auxiliary quantity that closes the exact ODE system, and the
scalar curvature integrals of the regularized metric.

Root-local quantities integrate over default_spec_for_root, the circle of
a quarter of the nearest-root distance with 512 nodes.  Only btilde takes
its circle as an argument, so that a node-doubling check can pass a second
one.  Each contour makes one two_point call on the array of its nodes, so
the coefficients of B are formed once per contour.

Point data are read from curve, never recomputed here: <theta> and its
derivatives from CorrelatorParams.theta, and X_s from HyperCurve.root(s),
which rejects an index outside 0 <= s < n.  The three closed forms take
p^(k)(X_s) from the spectator differences (HyperCurve._root_jet, the route
exact_matrix takes) through one helper, _taylor_at_root.

Everything integrated here is Galois even: with one argument pinned to a
ramification point the y1 y2 part of the two-point function carries a
factor y(X_s) = 0, so no sheet tracking is needed on the contour.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .curve import (
    CorrelatorParams,
    HyperCurve,
    b_sym_coeffs,
    two_point,
    two_point_regular,
)

__all__ = [
    "ContourSpec",
    "KIntegralReport",
    "cauchy_coefficient",
    "node_doubling_error",
    "default_spec_for_root",
    "theta_laurent",
    "k_integral_closed",
    "verify_k_integrals",
    "btilde",
    "btilde_taylor_closed",
    "btilde_printed_display",
    "weyl_outer_oracle",
    "weyl_integrals",
    "gauss_bonnet_outer",
]


@dataclass(frozen=True)
class ContourSpec:
    """A circle |x - center| = radius sampled at equally spaced nodes."""

    center: complex
    radius: float
    nodes: int = 512

    def __post_init__(self):
        if not np.isfinite(self.center):
            raise ValueError(f"center must be finite, got {self.center}")
        if not 0 < self.radius < math.inf:
            raise ValueError(f"radius must be positive and finite, got {self.radius}")
        if not isinstance(self.nodes, numbers.Integral) or self.nodes < 64:
            raise ValueError(f"need an integer count of at least 64 trapezoid "
                             f"nodes, got {self.nodes!r}")


def default_spec_for_root(curve: HyperCurve, s: int) -> ContourSpec:
    """Quarter of the nearest-root distance around X_s, default nodes."""
    return ContourSpec(curve.root(s), 0.25 * curve.nearest_other_root_distance(s))


def cauchy_coefficient(f, spec: ContourSpec, k):
    """(1/2 pi i) oint f(x)/(x - center)^{k+1} dx by the trapezoid rule.

    ``f`` is called once, with the array of all nodes, so it must be
    numpy-vectorised; a scalar result (a constant integrand) is broadcast
    over the nodes.  ``k`` is one order, giving one complex coefficient, or
    a sequence of orders, giving a list of them from the same samples.
    """
    thetas = 2.0 * math.pi * np.arange(spec.nodes) / spec.nodes
    ring = np.exp(1j * thetas)
    vals = np.broadcast_to(f(spec.center + spec.radius * ring), ring.shape)

    def coefficient(j):
        return complex(np.mean(vals * ring ** (-j)) * spec.radius ** (-j))

    return coefficient(k) if np.ndim(k) == 0 else [coefficient(j) for j in k]


def node_doubling_error(f, spec: ContourSpec, k: int) -> float:
    """|change under node doubling|; the quadrature convergence gate."""
    doubled = ContourSpec(spec.center, spec.radius, 2 * spec.nodes)
    return abs(cauchy_coefficient(f, spec, k) - cauchy_coefficient(f, doubled, k))


# ----------------------------------------------------------------------
# one-point Laurent data
# ----------------------------------------------------------------------

def theta_laurent(curve: HyperCurve, params: CorrelatorParams, s: int, k: int) -> complex:
    """Laurent coefficient of <theta> about X_s on the default circle: zero
    for k < 0, else the Taylor coefficient <theta>^(k)(X_s)/k!."""
    return cauchy_coefficient(params.theta, default_spec_for_root(curve, s), k)


# ----------------------------------------------------------------------
# coincident two-point integrals
# ----------------------------------------------------------------------

def _even_coefficients(curve, params, s, k, spec=None):
    """Circle coefficients of order k (one order or a sequence) of the even
    two-point function with one argument at X_s; one two_point call on all
    nodes, so B is formed once."""
    xs = curve.root(s)
    spec = spec or default_spec_for_root(curve, s)
    return cauchy_coefficient(lambda x: two_point(curve, params, x, xs).even, spec, k)


def _taylor_at_root(curve, params, s):
    """X_s, (p'(X_s), ..., p^(5)(X_s)) and (<th>, ..., <th>^(3))(X_s): the
    point data of the closed forms.  The p^(k) come from the spectator
    differences, the route exact_matrix takes."""
    if curve.n != 5:
        raise ValueError("closed forms are the n=5 statement")
    xs = curve.root(s)
    return xs, curve._root_jet(s)[2][1:], [params.theta(xs, k) for k in range(4)]


def k_integral_closed(curve, params, s: int, k: int) -> complex:
    """Closed forms of the k = 0, 1, 3 integrals."""
    c, z = params.c, params.z
    _, (p1, p2, p3, p4, p5), (th, th1, th2, _) = _taylor_at_root(curve, params, s)
    if k == 0:
        return ((c / 20.0) * (p3 / 3.0 + (7.0 / 16.0) * p2 ** 2 / p1) * z
                + 0.9 * (p2 / p1) * th + 0.3 * th1)
    if k == 1:
        return ((c / 120.0) * (1.75 * p2 * p3 / p1 + p4) * z
                + (11.0 / 30.0) * (p3 / p1) * th
                + 0.35 * (p2 / p1) * th1 + 0.2 * th2)
    if k == 3:
        return (11.0 / 200.0) * (p5 / p1) * th
    raise ValueError("closed forms exist for k in {0, 1, 3}")


@dataclass(frozen=True)
class KIntegralReport:
    k: int
    numeric: complex
    closed_form: complex
    rel_err: float


def verify_k_integrals(curve, params, s: int) -> list[KIntegralReport]:
    """Numeric-vs-closed-form reports for k = 0, 1, 3 on the default circle.

    numeric = (2/p'_{X_s}) oint <theta_{X_s} theta_x>/(x - X_s)^{k+1} dx/(2 pi i);
    the two-point integrand is evaluated once for all three orders.
    """
    out = []
    raws = _even_coefficients(curve, params, s, (0, 1, 3))
    p1 = curve.p_prime_at_root(s)
    for k, raw in zip((0, 1, 3), raws):
        num = 2.0 / p1 * raw
        closed = k_integral_closed(curve, params, s, k)
        rel = abs(num - closed) / max(abs(closed), 1e-300)
        out.append(KIntegralReport(k, num, closed, rel))
    return out


def btilde(curve, params, s: int, spec: ContourSpec | None = None) -> complex:
    """B~_s = oint <theta_x theta_{X_s}>/(x - X_s)^3 dx/(2 pi i).

    The k = 2 Laurent coefficient that the closed forms do not cover; it
    carries the B11 dependence (a unit shift of B11 moves it by -1/2).
    """
    return _even_coefficients(curve, params, s, 2, spec)


def btilde_taylor_closed(curve, params, s: int) -> complex:
    """B~_s assembled from the Taylor data of the even two-point model.

    Collects the (x - X_s)^2 coefficient: (c/768) p' p^(5) Z
    + (109/1200) p^(4) <th> + (7/100) p'' <th''> + (21c/8000) p'' p^(4) Z
    plus the x^2 coefficient of B(x, X_s).  This is the dual (algebraic)
    route to the contour quadrature.
    """
    c, z = params.c, params.z
    xs, (p1, p2, _, p4, p5), (th, _, th2, _) = _taylor_at_root(curve, params, s)
    k = b_sym_coeffs(curve, params)
    # x^2 coefficient of B(x, X_s) in the e-basis
    b_x2 = k["e1^2"] + k["e1e2"] * xs + k["e2^2"] * xs ** 2
    return ((c / 768.0) * p1 * p5 * z
            + (109.0 / 1200.0) * p4 * th
            + 0.07 * p2 * th2
            + (21.0 * c / 8000.0) * p2 * p4 * z
            + b_x2)


def btilde_printed_display(curve, params, s: int) -> complex:
    """The quoted (2/p') B~_s display, returned as B~_s.

    (2/p')B~ = (c/192)((1/3)(p''')^2/p' + (1/2) p'' p''''/p' + (1/60) p^(5)) Z
    + (1/24)(p''''/p')<th> + (1/20)(3 p'''/p' + (p''/p')^2)<th'>
    + (3/40)(p''/p')<th''> + (1/60)<th'''> + (1/p') d^2_x <th_Xs th_x>_r.

    It does not reproduce the quadrature value for the model implemented
    here and is kept only as the flagged cross-reference.
    """
    c, z = params.c, params.z
    _, (p1, p2, p3, p4, p5), (th, th1, th2, th3) = _taylor_at_root(curve, params, s)
    d2r = 2.0 * cauchy_coefficient(lambda x: two_point_regular(curve, params, x, s),
                                   default_spec_for_root(curve, s), 2)
    val = ((c / 192.0) * (p3 ** 2 / p1 / 3.0 + 0.5 * p2 * p4 / p1 + p5 / 60.0) * z
           + p4 / p1 * th / 24.0
           + (3.0 * p3 / p1 + (p2 / p1) ** 2) * th1 / 20.0
           + 0.075 * (p2 / p1) * th2
           + th3 / 60.0
           + d2r / p1)
    return 0.5 * p1 * val


# ----------------------------------------------------------------------
# metric scalar integrals
# ----------------------------------------------------------------------

def weyl_outer_oracle(rho0_sq: float) -> float:
    """Antiderivative value of int_{rho0^2}^inf t dt/(1+t)^3."""
    return (1.0 + 2.0 * rho0_sq) / (2.0 * (1.0 + rho0_sq) ** 2)


def weyl_integrals(eps: float, theta_radius: float, c: float) -> dict:
    """Scalar pieces of the metric-variation integrals.

    Returns the inner-disc coefficient (per d eps), the outer quadrature
    value of int rho^2 d(rho^2)/(1+rho^2)^3 with its closed-form oracle,
    and the outer coefficient (per d log eps), which approaches -c/24 as
    rho0 -> 0.
    """
    rho0_sq = eps * theta_radius ** 2
    if not 0 <= rho0_sq <= 0.01:
        raise ValueError(f"guard: eps * theta_radius^2 = {rho0_sq} must lie in [0, 0.01]")
    value, _ = quad(lambda t: t / (1.0 + t) ** 3, rho0_sq, np.inf,
                    epsabs=1e-13, epsrel=1e-13)
    inner = -(c / 12.0) * theta_radius ** 2 * rho0_sq / (1.0 + rho0_sq) ** 3
    return {
        "dI_inner_per_deps": inner,
        "outer_quadrature": value,
        "outer_oracle": weyl_outer_oracle(rho0_sq),
        "dI_outer_per_dlogeps": -(c / 12.0) * value,
        "minus_c_over_24": -c / 24.0,
    }


def gauss_bonnet_outer(eps: float, theta_radius: float) -> dict:
    """Total curvature of the Fubini-Study region |z| > theta with K = 4 eps.

    The numeric value 4 pi/(1 + rho0^2) approaches 4 pi = 8 pi - 2 pi (2g+2)
    at g = 0: the double-cover share 8 pi minus 2 pi per branch point.
    """
    rho0_sq = eps * theta_radius ** 2
    if not 0 <= rho0_sq < math.inf:
        raise ValueError(f"eps * theta_radius^2 = {rho0_sq} must be finite and >= 0")
    value, _ = quad(lambda t: 1.0 / (1.0 + t) ** 2, rho0_sq, np.inf,
                    epsabs=1e-13, epsrel=1e-13)
    numeric = 4.0 * math.pi * value
    return {
        "numeric": numeric,
        "closed_form": 4.0 * math.pi / (1.0 + rho0_sq),
        "g0_pattern": 8.0 * math.pi - 2.0 * math.pi * (2 * 0 + 2),
    }
