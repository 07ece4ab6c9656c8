"""ODE systems on hyperelliptic moduli for the (2,5) model.

The exact genus-2 (n = 5) system for (<1>, <theta>, <theta'>, <theta''>,
B~) under motion of one ramification point, the leading-order collision
systems with their Frobenius/indicial analysis, numeric path integration
and monodromy, the Fibonacci count of admissible chains, and twist-exponent
arithmetic.

Loop monodromy of an Euler system w' = (A/X) w with constant A is taken
from one side of a regular 24-gon around X = 0: the form (A/X) dX is
invariant under X -> lambda X, and the rotation X -> e^{2 pi i/24} X maps
each side onto the next, so all 24 side transports are one matrix T and
the monodromy is T^24.

The exact system is one 5x5 matrix, exact_matrix, which holds each of its
coefficients once; exact_rhs applies it to a state.  The printed collision
system is one row table, _rows5, generic over the scalar type: _matrix5
renders it in complex128 for leading_matrix_2, det3_residual and
third_value_check, and leading_matrix_5 renders it in rationals.

Conventions for the 5x5 collision matrix: the printed eigenvalue system
(ubar I - M) v = 0 is taken as normative; its bracket inputs are
configuration data supplied by the caller (the text itself notes they are
"not a number").  [p'''/p']_{-1} follows the printed X^{-1} part
48 sum_{i != s,2} 1/(X_s - X_i); [(p'''/p')^2]_{-1} is read as the square
of that bracket; [p''''/p']_{-1} is computed from the collision Laurent
expansion (24 e_2 of the spectator reciprocals) since no display covers
it.  The determinant factor (ubar - 13/10)(ubar - 1/2) + 3/25 has roots
{11/10, 7/10}; the quoted "9/10" is reported as a flagged discrepancy.

Jordan data at c = -22/5: det(M - ubar I) = -(10 ubar - 11)^2
(10 ubar - 7)^3 / 10^5 whatever the brackets.  In M - (7/10) I rows 1 and
2 are multiples of row 0, row 3 is independent of row 0 (its last entry is
2), and row 4 - (3/10) row 3 is
(3c p4/1280 + 7c p33/5760, 88 p33/5760, 0, 0, 0), a multiple of row 0
(-7/10, 2, 0, 0, 0) if and only if p4 = 0.  So 7/10 (algebraic
multiplicity 3) has geometric multiplicity 3 at p4 = 0, where the
(20, 7, 0) eigenvector extends to the 5x5, and 2 otherwise.  Every 4x4
minor of M - (11/10) I is a multiple of p4, so the double 11/10 has
geometric multiplicity 2 at p4 = 0 and is a 2x2 Jordan block otherwise.
At p4 != 0 the printed matrix therefore predicts a logarithmic solution in
both channels, 7/10 and 11/10; the 11/10 block is reported as a flagged
discrepancy.  leading_matrix_5 reads this data exactly, in rationals.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from .curve import HyperCurve, _elementary_symmetric
from .qspecial import CENTRAL_CHARGE, KAC_WEIGHTS, ModularPoint, eta_numeric, rr_numeric

__all__ = [
    "COLLISION_RATIO",
    "ExactState5",
    "IndicialData",
    "CollisionBrackets",
    "exact_matrix",
    "exact_rhs",
    "exact_corollary_residual",
    "indicial_quadratic",
    "frobenius_exponents",
    "twist_exponent",
    "collision_brackets",
    "leading_matrix_2",
    "leading_matrix_5",
    "determinant_factor_roots",
    "third_value_check",
    "det3_residual",
    "integrate_path",
    "euler_monodromy",
    "monodromy_collision",
    "fibonacci_equation_count",
    "admissible_chains",
    "degeneration_limits",
]


# ----------------------------------------------------------------------
# exact n = 5 system
# ----------------------------------------------------------------------

# nearest-root gap over the largest root distance at X_s below which
# exact_matrix treats the configuration as a collision (a regime choice)
COLLISION_RATIO = 1e-4


@dataclass(frozen=True)
class ExactState5:
    """State (<1>, <theta_Xs>, <theta'_Xs>, <theta''_Xs>, B~_s)."""

    z: complex
    th: complex
    th1: complex
    th2: complex
    bt: complex

    def as_array(self) -> np.ndarray:
        return np.array([self.z, self.th, self.th1, self.th2, self.bt],
                        dtype=complex)

    @classmethod
    def from_array(cls, a) -> "ExactState5":
        return cls(*map(complex, a))


def exact_matrix(curve: HyperCurve, s: int, c: float = float(CENTRAL_CHARGE)) -> np.ndarray:
    """A with d(state)/dX_s = A state for the exact n = 5 system, xi_s = 1.

    State order (<1>, <theta>, <theta'>, <theta''>, B~).  Each row is the
    covariant row (D_s = d_{X_s} - (c/8) omega_s acting before evaluation
    at x = X_s) plus the Taylor transport term <theta^{(k+1)}> that turns it
    into a derivative of the evaluated state: the +1 on the superdiagonal
    of rows 1 and 2 (covariant -7/10 and -3/10 become 3/10 and 7/10), and
    in row 3 <theta'''> = -(3c/80) p^(5) <1> by the n = 5 law.  The
    p^(k)(X_s), the gaps and omega_s come from one walk of the spectator
    differences, HyperCurve._root_jet.

    Under X -> lambda X (a0 fixed) entry (i, j) scales as
    lambda^(w_i - w_j - 1) with weights w = (0, 3, 2, 1, 4).

    Raises ValueError at a root collision: when the nearest-root gap at X_s
    is below COLLISION_RATIO times the largest distance from X_s to another
    root.  The ratio is invariant under X -> lambda X.  It marks the
    collision regime, where the leading Euler systems (leading_matrix_2,
    leading_matrix_5) describe the solutions; it is not a precision floor,
    since the p^(k)(X_s) stay accurate to rounding at much smaller gaps.
    """
    if curve.n != 5:
        raise ValueError("exact system is the n=5 statement")
    d, e, (_, p1, p2, p3, p4, p5) = curve._root_jet(s)
    gaps = [abs(v) for v in d]
    ratio = min(gaps) / max(gaps)
    if ratio < COLLISION_RATIO:
        raise ValueError(f"root collision: nearest/farthest root gap ratio "
                         f"{ratio:.3g} at X_s is below {COLLISION_RATIO:g}")
    cw = c / 8.0 * e[1]  # e_1 of the 1/(X_s - X_t) is omega_s
    q2, q3 = p2 / p1, p3 / p1
    return np.array([
        [cw, 2.0 / p1, 0.0, 0.0, 0.0],
        [-(7.0 * c / 480.0) * p1 * (q3 - 1.5 * q2 ** 2), cw + 0.9 * q2, 0.3,
         0.0, 0.0],
        [(c / 480.0) * (7.0 * p2 * p3 / p1 - p4), (11.0 / 30.0) * q3,
         cw + 0.35 * q2, 0.7, 0.0],
        [(7.0 * c / 1920.0 - 3.0 * c / 80.0) * p5, 0.0, 0.0, cw, 2.0 / p1],
        [(c / 32000.0) * p2 * p5 + (c / 960.0) * p3 * p4,
         (111.0 / 2000.0 - c / 384.0) * p5, 0.025 * p4,
         (11.0 / 400.0 - 7.0 * c / 960.0) * p3 + (7.0 * c / 640.0) * p2 ** 2 / p1,
         cw + 0.9 * q2],
    ], dtype=complex)


def exact_rhs(curve: HyperCurve, s: int, state: ExactState5,
              c: float = float(CENTRAL_CHARGE)) -> ExactState5:
    """Full derivative d(state)/dX_s of the exact n = 5 system, xi_s = 1:
    exact_matrix(curve, s, c) applied to the state."""
    return ExactState5.from_array(exact_matrix(curve, s, c) @ state.as_array())


def exact_corollary_residual(curve: HyperCurve, s: int, state: ExactState5,
                             c: float = float(CENTRAL_CHARGE)) -> float:
    """Consistency of the first two rows with the any-genus corollary:

    (d - c/8 omega)(<th>/p') = (77/1200) S(p)(X_s) <1>   [at c = -22/5]
    + (2/5)(p''/p')(<th>/p') + (3/10) <th'>/p',
    using d p'(X_s)/dX_s = p''(X_s)/2.  Returns the max row residual.
    """
    xs = curve.root(s)
    _, (_, om, *_), (_, p1, *_) = curve._root_jet(s)  # omega_s is e_1
    p2 = curve.dp(xs, 2)
    sp = curve.schwarzian_p(xs)
    d = exact_rhs(curve, s, state, c)
    # row 1: (d - c/8 om) <1> = 2 <th>/p'
    r1 = abs((d.z - c / 8.0 * om * state.z) - 2.0 * state.th / p1)
    # row 2 in the <th>/p' variable
    lhs = d.th / p1 - state.th * p2 / 2.0 / p1 ** 2 - c / 8.0 * om * state.th / p1
    rhs = (-(7.0 * c / 480.0) * sp * state.z  # 77/1200 S <1> at c = -22/5
           + 0.4 * (p2 / p1) * state.th / p1
           + 0.3 * state.th1 / p1)
    return max(r1, abs(lhs - rhs))


# ----------------------------------------------------------------------
# indicial data
# ----------------------------------------------------------------------

def indicial_quadratic(c: float) -> tuple[float, float]:
    """Roots of ubar(ubar - 9/5) = 7c/40, largest first.

    By Vieta their sum is 9/5 and their product is -7c/40.
    """
    disc = cmath.sqrt(0.81 + 7.0 * c / 40.0)
    roots = sorted((0.9 + disc, 0.9 - disc), key=lambda r: (-r.real, -r.imag))
    return tuple(r.real if r.imag == 0 else r for r in roots)


def frobenius_exponents(c: float) -> tuple:
    """u = ubar + c/8 for the two leading solutions."""
    return tuple(u + c / 8.0 for u in indicial_quadratic(c))


def twist_exponent(h_chi: float, c: float) -> float:
    """ubar = 2 (h_chi - c/8)."""
    return 2.0 * (h_chi - c / 8.0)


@dataclass(frozen=True)
class CollisionBrackets:
    """The [.]_{-1} inputs of the 5x5 collision matrix."""

    p3: complex   # [p'''/p']_{-1}
    p4: complex   # [p''''/p']_{-1}

    @property
    def p33(self) -> complex:
        """[(p'''/p')^2]_{-1}, read as the square of the p3 bracket."""
        return self.p3 ** 2


def collision_brackets(spectators) -> CollisionBrackets:
    """Bracket inputs from a collision configuration with the given
    spectator roots (the collision partner is not among them), placed
    relative to the colliding root X_s = 0: the brackets depend only on
    the differences d_i = X_s - r_i = -r_i.

    p3 follows the printed X^{-1} part 48 sigma1; p4 = 24 e2 of the
    spectator reciprocals comes from the collision Laurent expansion.
    sigma1 and e2 of the 1/d_i are e_{m-1}(d)/e_m(d) and e_{m-2}(d)/e_m(d),
    so a vanishing e2 comes out as an exact 0 rather than as rounded
    reciprocals that fail to cancel.  The d_i are first divided by lam, the
    power of two with lam <= max |d_i| < 2 lam, which scales each e_k(d) by
    lam^-k exactly; sigma1 and e2 are then scaled back by 1/lam and
    1/lam^2.  So e_m neither underflows to 0 nor overflows at any common
    scale of the spectators, and the scaling, being exact, changes no bit
    of a result that the raw product represents.  There must be at least
    one spectator and none at X_s = 0; a bracket that is still not finite
    (the |d_i| spread wider than the float range) raises.
    """
    d = [-r for r in spectators]
    m = len(d)
    if m == 0 or 0 in d:
        raise ValueError("need at least one spectator and none at X_s = 0")
    lam = math.ldexp(1.0, math.frexp(max(map(abs, d)))[1] - 1)
    e = _elementary_symmetric([v / lam for v in d], m)
    if e[m]:
        br = CollisionBrackets(48.0 * (e[m - 1] / e[m]) / lam,
                               24.0 * (e[m - 2] / e[m]) / lam / lam if m >= 2 else 0.0)
        if cmath.isfinite(br.p3) and cmath.isfinite(br.p4):
            return br
    raise ValueError(f"collision brackets are not finite for spectators {spectators}")


def leading_matrix_2(c: float) -> np.ndarray:
    """Euler-form matrix of the leading 2x2 system for (<1>, X <th>/p'):
    w' = (M/X) w, the (<1>, <th>) block of _matrix5 shifted by c/8 (u =
    ubar + c/8).  Its eigenvalues are the Frobenius exponents u."""
    return _matrix5(CollisionBrackets(0.0, 0.0), c)[:2, :2] + c / 8.0 * np.eye(2)


def _rows5(p3, p4, c, one):
    """Rows of M with (ubar I - M) v = 0 matching the printed system rows.

    Numerators and denominators are integers, so the scalars decide the
    arithmetic: one = 1.0 gives floats, sympy Rationals exact entries and
    sympy symbols symbolic ones.
    """
    p33 = p3 ** 2
    return [
        [0, 2, 0, 0, 0],
        [7 * c / 80, 9 * one / 5, 0, 0, 0],
        [7 * c / 240 * p3, 11 * one / 30 * p3, 7 * one / 10, 0, 0],
        [-(c / 96 * p4 + c / 288 * p33), -p4 / 12, -p3 / 6, one / 2, 2],
        [-(c / 40) * (p4 / 32 - p33 / 144),
         -(one / 80) * (2 * p4 - 11 * one / 9 * p33),
         -p3 / 20, -3 * one / 50, 13 * one / 10],
    ]


def _matrix5(br: CollisionBrackets, c: float) -> np.ndarray:
    """M in complex128."""
    return np.array(_rows5(br.p3, br.p4, c, 1.0), dtype=complex)


@dataclass(frozen=True)
class IndicialData:
    """Jordan data of a residue matrix at a regular singular point: exact
    eigenvalues with their algebraic and geometric multiplicities, and one
    eigenvector basis per eigenvalue as complex128 arrays."""

    matrix: np.ndarray
    eigenvalues: tuple
    algebraic_multiplicities: tuple
    geometric_multiplicities: tuple
    eigenvectors: tuple  # one basis per distinct eigenvalue

    def eigenvalue_near(self, target):
        """(eigenvalue, geometric multiplicity, basis) of the eigenvalue
        equal to target, compared exactly (pass a Fraction)."""
        for lam, gm, vecs in zip(self.eigenvalues, self.geometric_multiplicities,
                                 self.eigenvectors):
            if lam == target:
                return lam, gm, vecs
        raise KeyError(f"no eigenvalue {target}")


def leading_matrix_5(brackets: CollisionBrackets,
                     c: float | Fraction = CENTRAL_CHARGE) -> IndicialData:
    """Exact Jordan data of the printed 5x5 collision matrix.

    The rows are taken in rationals, at the binary values of the real and
    imaginary parts of the brackets and at c (a float by its binary value),
    and sympy's eigenvects reads them.  Eigenvalues are sympy numbers,
    sorted by real then imaginary part; IndicialData.matrix is _matrix5 at
    float(c).
    """
    import sympy

    p3, p4 = (sympy.Rational(z.real) + sympy.I * sympy.Rational(z.imag)
              for z in map(complex, (brackets.p3, brackets.p4)))
    m = sympy.Matrix(_rows5(p3, p4, sympy.Rational(c), sympy.Integer(1))).expand()
    lams, ams, bases = zip(*sorted(m.eigenvects(), key=lambda t: (
        complex(t[0]).real, complex(t[0]).imag)))
    return IndicialData(_matrix5(brackets, float(c)), lams, ams, tuple(map(len, bases)),
                        tuple(tuple(np.array(v, dtype=complex).ravel() for v in b)
                              for b in bases))


def determinant_factor_roots() -> dict:
    """Roots of (ubar - 13/10)(ubar - 1/2) + 3/25, with the quoted values.

    Direct solution gives {7/10, 11/10}; the source text states
    {7/10, 9/10}, which is reported as a flagged discrepancy.
    """
    roots = sorted(np.roots([1.0, -1.8, 13.0 / 20.0 + 3.0 / 25.0]).real)
    return {
        "computed": tuple(float(r) for r in roots),
        "quoted": (0.7, 0.9),
        "flagged": True,
    }


def det3_residual(ubar: complex, p3_bracket: complex, c: float) -> complex:
    """det of the 3x3 system minus (ubar - 7/10)(ubar(ubar - 9/5) - 7c/40);
    the factorization oracle for the third-value claim."""
    m = ubar * np.eye(3) - _matrix5(CollisionBrackets(p3_bracket, 0.0), c)[:3, :3]
    det = np.linalg.det(m)
    return det - (ubar - 0.7) * (ubar * (ubar - 1.8) - 7.0 * c / 40.0)


def third_value_check(c: float = float(CENTRAL_CHARGE)) -> float:
    """The extra indicial root of the 3-variable leading system.

    The leading 3x3 block of the collision matrix has a zero third column
    above the diagonal, so its indicial roots are the two of
    indicial_quadratic and the diagonal entry M[2, 2].  That entry carries
    no bracket and no c; it is read off _matrix5 (at zero brackets).
    """
    return float(_matrix5(CollisionBrackets(0.0, 0.0), c)[2, 2].real)


# ----------------------------------------------------------------------
# path integration and monodromy
# ----------------------------------------------------------------------

def integrate_path(rhs, y0, waypoints, rtol: float = 1e-10, atol: float = 1e-12) -> dict:
    """Integrate dy/dX = rhs(X, y) along a polygonal path of waypoints.

    Each straight segment is parameterized linearly and stepped with an
    adaptive embedded Runge-Kutta pair at the requested local error.
    Returns the endpoint state.  Raises ValueError if rhs is not finite at
    the start of a segment (a pole there): the stepper's first step would
    be nan, and its step loop would never end.
    """
    pts = [complex(w) for w in waypoints]
    if len(pts) < 2:
        raise ValueError("need at least two waypoints")
    y = np.asarray(y0, dtype=complex)
    for a, b in zip(pts, pts[1:]):
        if not np.all(np.isfinite(rhs(a, y))):
            raise ValueError(f"rhs is not finite at the start of segment {a} -> {b}")
        seg = b - a

        def f(t, yy):
            return np.asarray(rhs(a + t * seg, yy), dtype=complex) * seg

        sol = solve_ivp(f, (0.0, 1.0), y, method="RK45", rtol=rtol, atol=atol)
        if not sol.success:
            raise RuntimeError(f"integration failed on segment {a} -> {b}: "
                               f"{sol.message}")
        y = sol.y[:, -1].astype(complex)
    return {"endpoint": y}


def euler_monodromy(a_matrix: np.ndarray, radius: float = 0.5) -> np.ndarray:
    """Monodromy of w' = (A/X) w around the origin, which equals e^{2 pi i A}
    for constant A, from one side of a 24-gon inscribed in |X| = radius.

    The loop is the closed 24-gon with vertices r w^k, w = e^{2 pi i/24},
    homotopic to the circle.  Let T be the transport of the fundamental
    matrix Y' = (A/X) Y, Y = I at X = r, along the first side r -> r w.  The
    form (A/X) dX does not change under X -> lambda X, and X -> w^k X maps
    the first side onto side k: with X = r w^k (1 + t (w - 1)), t in [0, 1],
    the parameterized right-hand side A Y dX/dt / X = A Y (w - 1)/(1 + t (w - 1))
    is the same on every side.  So every side transports by the same T, and
    the loop's monodromy is T^24.  One solve (rtol 1e-12, atol 1e-14) and
    a matrix power replace 24 solves of the same system.
    """
    a = np.asarray(a_matrix, dtype=complex)
    n = a.shape[0]

    def rhs(x, y):
        return (a @ y.reshape(n, n) / x).ravel()

    y0 = np.eye(n, dtype=complex).ravel()
    side = [radius, radius * cmath.exp(2j * cmath.pi / 24)]
    end = integrate_path(rhs, y0, side, 1e-12, 1e-14)["endpoint"]
    return np.linalg.matrix_power(end.reshape(n, n), 24)


def monodromy_collision(c: float = float(CENTRAL_CHARGE), radius: float = 0.5) -> dict:
    """Collision-loop monodromy of the leading 2x2 system.

    Integrates the Euler form around X = X_1 - X_2 = r e^{i phi} and
    compares with the matrix-exponential oracle e^{2 pi i M}.  The
    eigenvalue phases (arguments over 2 pi, mod 1) are the Frobenius
    exponents {11/20, 3/20} at c = -22/5.
    """
    m = leading_matrix_2(c)
    mon = euler_monodromy(m, radius)
    oracle = expm(2j * np.pi * m)
    vals = np.linalg.eigvals(mon)
    phases = sorted((float(np.angle(v) / (2 * np.pi) % 1.0) for v in vals),
                    reverse=True)
    moduli = [float(abs(v)) for v in vals]
    return {
        "monodromy": mon,
        "phases": phases,
        "moduli": moduli,
        "oracle_deviation": float(np.abs(mon - oracle).max()),
        "expected_phases": sorted((u % 1.0 for u in frobenius_exponents(c)),
                                  reverse=True),
    }


# ----------------------------------------------------------------------
# counting and degeneration data
# ----------------------------------------------------------------------

def admissible_chains(n: int) -> list[tuple[int, ...]]:
    """Ascending chains (possibly empty) of integers in [0, n-3] with
    successive gaps >= 2, by explicit enumeration."""
    if n < 3:
        raise ValueError("n must be >= 3")
    top = n - 3
    chains: list[tuple[int, ...]] = [()]
    def extend(prefix, start):
        for v in range(start, top + 1):
            chain = prefix + (v,)
            chains.append(chain)
            extend(chain, v + 2)
    extend((), 0)
    return chains


def fibonacci_equation_count(n: int) -> int:
    """Number of admissible chains at degree n (see admissible_chains); it
    equals the Fibonacci number F_n with F_1 = F_2 = 1.

    Flagged: the source reads this as the number of equations needed at
    degree n, which is not checked here.  At n = 2g + 1 it gives 2, 5, 13,
    34, 89 for g = 1..5, while the genus-g (2,5) Verlinde count
    D^(2g-2) (1 + d^(2-2g)), d = (1 - sqrt 5)/2 and D^2 = 1 + d^2, gives
    2, 5, 15, 50, 175: the two agree only up to genus 2.
    """
    return len(admissible_chains(n))


def degeneration_limits(tau1: complex, tau2: complex,
                        eps: float | None = None) -> dict:
    """Documented degeneration-limit constants of the genus-2 partition
    function: the four character products and the eps^h eta-product
    solution, h = -1/5 the Kac weight of g0, with eta^{2h} per torus.

    These are emitted as reference constants; the exact system is not
    integrated from sewing data because the <theta'>, <theta''>, B~ seeds
    at the degeneration are not part of the model.  eps, when given, is a
    sewing parameter and must be positive and finite.
    """
    if eps is not None and not 0 < eps < math.inf:
        raise ValueError(f"eps must be positive and finite, got {eps}")
    h = float(KAC_WEIGHTS["g0"])
    p1, p2 = ModularPoint(tau1), ModularPoint(tau2)
    h1, h2 = rr_numeric("h0", p1), rr_numeric("h0", p2)
    g1, g2 = rr_numeric("g0", p1), rr_numeric("g0", p2)
    eta_prod = eta_numeric(p1) ** (2 * h) * eta_numeric(p2) ** (2 * h)
    out = {
        "h0h0": h1 * h2,
        "g0g0": g1 * g2,
        "h0g0": h1 * g2,
        "g0h0": g1 * h2,
        "eta_product_m2_5": eta_prod,
        "eps_power": h,
    }
    if eps is not None:
        out["fifth_solution"] = eps ** h * eta_prod
    return out
