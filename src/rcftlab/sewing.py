"""Genus-2 data from sewing two tori.

Siegel theta constants with characteristics evaluated two ways (direct
double lattice sum, and the printed nu-expansion through nu^6), the
ramification points X3, X4, X5 and b0 of the sewn surface, the almost
global coordinate pair (X, X-hat), and the linear-fractional-image
expansion check.

All numerics in this module run in mpmath at one fixed working
precision, DPS = 40 digits: every public function computes under
mp.workdps(DPS), entered by the function or by the qspecial kernel it
reads, so no result depends on the caller's precision.  Double precision
is not enough: the expansion residuals scale like nu^8 and fall far below
it on the nu grids of interest (at tau = 1.5i the nu = 1e-2 residual is
already ~1e-18).  Forty digits keep the smallest residual on those grids
(~2e-26 at nu = 1e-3) some 14 decades above rounding, and cover the
20-30 digit targets of the mpmath oracles planned on top of this layer.
Genus-1 values are read only through three accessors of qspecial's
memoized mpmath kernels: theta_char_1d for every theta and theta
derivative, qspecial._half_periods for the half-period values and
qspecial._eisenstein_sum for E4 and E6.  The layer keeps no table of its
own; repeated calls at one modulus pair compute each value once, in the
memo.

The direct sum walks square shells max(|n1|, |n2|) = s under the genus-1
theta kernel's stopping rule, which it calls (qspecial._sum_shells) rather
than copies: the sum stops at the first shell past s = 1 whose absolute
mass sum |term| is below 10^-DPS of the sum.  It reads the mass, not the
signed shell sum, because a b = 1/2 characteristic makes terms of one
shell alternate in sign.  The sum needs only a positive-definite Im Omega,
which ``SewInput`` checks; nu itself may be large, and a real nu only
moves phases.

The lattice oracle for wp sums the truncated box |m|, |n| <= radius with
the two-term multipole tail in remainder form.  With W = w^2, Z = z^2, a
pair +-w contributes 2 (W + Z)/(W - Z)^2 - 2/W; its Z/W expansion
6 Z/W^2 + 10 Z^2/W^3 + ... cancels against the truncated tail sums, which
leaves

    wp(z) = 1/Z + 3 Z S4 + 5 Z^2 S6 + sum_half 2 Z^3 (7 W - 5 Z)/(W^3 (W - Z)^2)

with S4 = E4/720 and S6 = -E6/30240 the full lattice sums (derivation in
``wp_lattice_oracle``).

Two source displays are handled as flagged, not corrected:

* the Theta_{2,4} expansion display omits the normalizing denominators
  carried by every other pair; the ratio form is used for all six pairs,
* the (X3-X5)/X5 leading coefficient is quoted with theta2^4(Omega11);
  the factorized nu^2 coefficient comes out with theta4^4(Omega11)
  instead (the X3-X4 display, which has theta4^4, is reproduced as is).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import mpmath as mp

from .qspecial import _eisenstein_sum, _half_periods, _sum_shells, _theta_sum
from .series import order_fit

__all__ = [
    "SewInput",
    "RamificationSet",
    "EQUIANHARMONIC_TAU",
    "theta_char_1d",
    "siegel_theta_direct",
    "siegel_theta_expansion",
    "theta_pair_chars",
    "ramification_points",
    "x3_minus_x4_leading",
    "x3_x5_relative_leading",
    "wp_coeffs",
    "wp_eval",
    "wp_lattice_oracle",
    "almost_global_coords",
    "coords_residual",
    "lft_image_check",
    "mode_agreement_orderfit",
]

#: the one working precision of the layer, in decimal digits
DPS = 40

#: zero of E4 on the upper half plane; at this modulus the weight-4 Laurent
#: data of wp vanishes and the printed eps^6 coordinate corrections are the
#: leading ones (used by the coordinate-residual suites)
EQUIANHARMONIC_TAU = complex(0.5, math.sqrt(3) / 2)

#: characteristics [a; b] realizing the six two-torus products, a.b = 0
_PAIR_CHARS = {
    (3, 3): ((0, 0), (0, 0)),
    (2, 3): ((0.5, 0), (0, 0)),
    (3, 2): ((0, 0.5), (0, 0)),
    (2, 4): ((0.5, 0), (0, 0.5)),
    (3, 4): ((0, 0), (0, 0.5)),
    (2, 2): ((0.5, 0.5), (0, 0)),
}


@dataclass(frozen=True)
class SewInput:
    """Two torus moduli with either the off-diagonal period nu or the
    sewing parameter eps (or both)."""

    tau1: complex
    tau2: complex
    nu: complex | None = None
    epsilon: float | None = None

    def __post_init__(self):
        fields = (self.tau1, self.tau2, self.nu, self.epsilon)
        if not all(cmath.isfinite(x) for x in fields if x is not None):
            raise ValueError(f"tau1, tau2, nu and epsilon must be finite, got {fields}")
        t1, t2 = complex(self.tau1).imag, complex(self.tau2).imag
        if t1 <= 0 or t2 <= 0:
            raise ValueError("both moduli need positive imaginary part")
        if self.nu is not None and t1 * t2 <= complex(self.nu).imag ** 2:
            raise ValueError("Im Omega not positive definite: Im tau1 Im tau2 <= (Im nu)^2")
        # |nu| <= 0.1 is the documented validity range of expansion mode;
        # the direct sum needs only the positive-definite Im Omega checked
        # above, so the bound is not enforced here


@dataclass(frozen=True)
class RamificationSet:
    """Normalized ramification points of the sewn genus-2 surface.

    X0 = 0, X1 = 1 and X2 = b0 occupy the normalized slots; X3, X4, X5 are
    squared-theta quotients.  ``mode_agreement`` is the max relative
    difference between direct and expansion evaluation of X3, X4, X5;
    ``degenerate`` flags nu = 0, where X3 = X4 = X5 = b0.
    """

    x3: complex
    x4: complex
    x5: complex
    b0: complex
    mode_agreement: float
    degenerate: bool = False

    @property
    def x0(self) -> complex:
        return 0j

    @property
    def x1(self) -> complex:
        return 1 + 0j

    @property
    def x2(self) -> complex:
        return self.b0


# ----------------------------------------------------------------------
# genus-1 theta constants and modulus derivatives (qspecial's kernels in mpmath)
# ----------------------------------------------------------------------

def theta_char_1d(i: int, tau, deriv: int = 0):
    """theta_i(0 | tau) or its modulus derivative d^k/dtau^k, in mpmath.

    Each term q^e picks up (2 pi i e)^k under differentiation.
    """
    if complex(tau).imag <= 0:
        raise ValueError(f"theta needs Im tau > 0, got {complex(tau)}")
    return _theta_sum(i, tau, deriv, DPS)


def theta_pair_chars(pair: tuple[int, int]):
    try:
        return _PAIR_CHARS[pair]
    except KeyError:
        raise ValueError(f"unsupported theta pair {pair}") from None


def siegel_theta_direct(inp: SewInput, a, b):
    """Genus-2 theta constant theta[a; b](0, Omega) by direct double sum.

    Omega has diagonal (tau1, tau2) and off-diagonal nu.  Square shells
    max(|n1|, |n2|) = s are added under the genus-1 kernel's rule,
    qspecial._sum_shells: until the first shell past s = 1 whose absolute
    mass sum |term| is below 10^-DPS of the sum.  The mass is read rather
    than the shell sum because a b = 1/2 characteristic makes the terms of
    a shell alternate in sign.  The sum converges for every
    positive-definite Im Omega, which ``SewInput`` checks; one that has not
    stopped by the genus-1 cap s = 600 raises.
    """
    if inp.nu is None:
        raise ValueError("direct theta sum needs nu")
    with mp.workdps(DPS):
        t1, t2, nu = (mp.mpmathify(x) for x in (inp.tau1, inp.tau2, inp.nu))
        a0, a1, b0, b1 = (mp.mpmathify(x) for x in (*a, *b))
        two_pi_i = 2j * mp.pi

        def shell(s):
            # the perimeter max(|n1|, |n2|) = s, corners once
            side = range(-s, s + 1)
            ring = dict.fromkeys(p for n in (-s, s) for m in side for p in ((n, m), (m, n)))
            part, mass = mp.mpc(0), mp.mpf(0)
            for n1, n2 in ring:
                m1, m2 = n1 + a0, n2 + a1
                ph = (t1 * m1 ** 2 / 2 + nu * m1 * m2 + t2 * m2 ** 2 / 2) + (m1 * b0 + m2 * b1)
                term = mp.exp(two_pi_i * ph)
                part += term
                mass += abs(term)
            return part, mass
        return _sum_shells(shell, mp.mpf(10) ** -DPS)


def siegel_theta_expansion(inp: SewInput, pair: tuple[int, int]):
    """Theta_{i,j} by the printed nu-expansion through nu^6.

    Theta_{i,j} = theta_i(Omega11) theta_j(Omega22) *
    (1 + sum_k (2 nu)^{2k}/(2k)! * R^{(k)}_{i,j}) with
    R^{(k)} the product of k-th modulus log-derivative ratios; no
    resummation beyond the printed orders.  The theta jets are read
    through theta_char_1d.
    """
    if inp.nu is None:
        raise ValueError("expansion mode needs nu")
    theta_pair_chars(pair)  # rejects an unsupported pair
    with mp.workdps(DPS):
        ti, tj = ([theta_char_1d(i, tau, k) for k in range(4)]
                  for i, tau in zip(pair, (inp.tau1, inp.tau2)))
        nu = mp.mpmathify(inp.nu)
        total = mp.mpf(1)
        for k in range(1, 4):
            rk = (ti[k] / ti[0]) * (tj[k] / tj[0])
            total += (2 * nu) ** (2 * k) / mp.factorial(2 * k) * rk
        return ti[0] * tj[0] * total


# ----------------------------------------------------------------------
# ramification points
# ----------------------------------------------------------------------

def _theta_sq_quotient(th: dict, num: tuple, den: tuple):
    (n1, n2), (d1, d2) = num, den
    return (th[n1] ** 2 * th[n2] ** 2) / (th[d1] ** 2 * th[d2] ** 2)


def _ram_from_thetas(th: dict):
    x3 = _theta_sq_quotient(th, ((3, 3), (3, 2)), ((2, 3), (2, 2)))
    x4 = _theta_sq_quotient(th, ((3, 2), (3, 4)), ((2, 2), (2, 4)))
    x5 = _theta_sq_quotient(th, ((3, 3), (3, 4)), ((2, 3), (2, 4)))
    return x3, x4, x5


def ramification_points(inp: SewInput) -> RamificationSet:
    """X3, X4, X5 from direct theta sums, cross-checked against expansion
    mode; b0 = theta3^4/theta2^4 at tau1.

    nu = 0 is degenerate (all three collapse onto b0) and is flagged.
    """
    degenerate = inp.nu is None or inp.nu == 0
    with mp.workdps(DPS):
        b0 = theta_char_1d(3, inp.tau1) ** 4 / theta_char_1d(2, inp.tau1) ** 4
        if degenerate:
            b0c = complex(b0)
            return RamificationSet(b0c, b0c, b0c, b0c, 0.0, degenerate=True)
        direct = {p: siegel_theta_direct(inp, *c) for p, c in _PAIR_CHARS.items()}
        expans = {p: siegel_theta_expansion(inp, p) for p in _PAIR_CHARS}
        xd = _ram_from_thetas(direct)
        xe = _ram_from_thetas(expans)
        agree = max(float(abs(d - e) / abs(d)) for d, e in zip(xd, xe))
        return RamificationSet(complex(xd[0]), complex(xd[1]), complex(xd[2]),
                               complex(b0), agree)


def x3_minus_x4_leading(inp: SewInput) -> complex:
    """Predicted leading value of X3 - X4:
    (theta3^4/theta2^4)(O11) nu^2 (pi^2/4) theta4^4(O11) theta2^4(O22)."""
    if inp.nu is None:
        raise ValueError("the X3 - X4 leading value needs nu")
    with mp.workdps(DPS):
        nu = mp.mpmathify(inp.nu)
        t2a, t3a, t4a = (theta_char_1d(i, inp.tau1) ** 4 for i in (2, 3, 4))
        t2b = theta_char_1d(2, inp.tau2) ** 4
        return complex(t3a / t2a * nu ** 2 * (mp.pi ** 2 / 4) * t4a * t2b)


def x3_x5_relative_leading(inp: SewInput, corrected: bool = True) -> complex:
    """Predicted leading value of (X3 - X5)/X5.

    ``corrected=False`` returns the quoted form with theta2^4(Omega11);
    the default replaces it by theta4^4(Omega11), which is what the nu^2
    coefficient factorizes to (flagged in the verification suite).
    """
    if inp.nu is None:
        raise ValueError("the (X3 - X5)/X5 leading value needs nu")
    with mp.workdps(DPS):
        nu = mp.mpmathify(inp.nu)
        t3b = theta_char_1d(3, inp.tau2) ** 4
        ta = theta_char_1d(4 if corrected else 2, inp.tau1) ** 4
        return complex((mp.pi ** 2 / 4) * nu ** 2 * t3b * ta)


def mode_agreement_orderfit(tau1, tau2, nus):
    """order_fit of max_{pairs} |direct - expansion| over a decreasing nu grid."""
    samples = []
    with mp.workdps(DPS):
        for nu in nus:
            inp = SewInput(tau1, tau2, nu=nu)
            worst = max(float(abs(siegel_theta_direct(inp, *c) - siegel_theta_expansion(inp, p)))
                        for p, c in _PAIR_CHARS.items())
            samples.append((float(abs(nu)), worst))
    return order_fit(samples)


# ----------------------------------------------------------------------
# Weierstrass wp for the lattice 2 pi i (Z + tau Z)
# ----------------------------------------------------------------------

def wp_coeffs(tau) -> list:
    """Laurent data of wp: z^2 wp(z) = 1 + sum_{m=1}^{14} c[m] z^{2m+2}.

    c[1] = E4/240 and c[2] = -E6/6048 for the 2 pi i scaled lattice; the
    rest follow from the standard quadratic recursion.
    """
    with mp.workdps(DPS):
        c = [mp.mpc(0)] * 15
        c[1] = _eisenstein_sum(4, tau, DPS) / 240
        c[2] = -_eisenstein_sum(6, tau, DPS) / 6048
        for k in range(3, 15):
            acc = mp.mpc(0)
            for m in range(1, k - 1):
                acc += c[m] * c[k - 1 - m]
            c[k] = mp.mpf(3) / ((2 * k + 3) * (k - 2)) * acc
        return c


def _min_lattice_norm(tau) -> float:
    """Shortest nonzero |w| on the lattice 2 pi i (Z + tau Z), by
    Lagrange-Gauss reduction of the basis (1, tau): the answer does not
    depend on which basis of the lattice tau names."""
    u, v = 1.0 + 0j, complex(tau)
    if v.imag <= 0:
        raise ValueError(f"the lattice needs Im tau > 0, got {v}")
    if abs(v) < abs(u):
        u, v = v, u
    while True:
        v -= round((v * u.conjugate()).real / abs(u) ** 2) * u
        if abs(v) >= abs(u):
            return 2 * math.pi * abs(u)
        u, v = v, u


def wp_eval(z, tau, coeffs=None):
    """wp(z | 2 pi i (Z + tau Z)) by the Laurent series about z = 0.

    Valid for |z| below ~0.75 of the shortest lattice vector; raises
    outside that disc (no analytic continuation is attempted).
    """
    with mp.workdps(DPS):
        z = mp.mpmathify(z)
        if z == 0:
            raise ValueError("wp has its pole at z = 0")
        if float(abs(z)) > 0.75 * _min_lattice_norm(tau):
            raise ValueError("z outside the convergence disc of the Laurent series")
        c = coeffs if coeffs is not None else wp_coeffs(tau)
        out = 1 / z ** 2
        for m in range(1, len(c)):
            out += c[m] * z ** (2 * m)
        return out


def wp_lattice_oracle(z, tau, radius: int = 40):
    """Independent wp oracle: truncated lattice sum with a two-term
    multipole tail correction.

    sum over |m|,|n| <= radius of 1/(z-w)^2 - 1/w^2 plus
    3 z^2 (S4 - S4_trunc) + 5 z^4 (S6 - S6_trunc), where the full lattice
    sums S4 = E4/720 and S6 = -E6/30240 are known in closed form for this
    lattice.  The box is symmetric under w -> -w, so with W = w^2, Z = z^2
    one point of each pair carries

        1/(z-w)^2 + 1/(z+w)^2 - 2/W = 2 (W + Z)/(W - Z)^2 - 2/W
                                    = 6 Z/W^2 + 10 Z^2/W^3 + R(W),
        R(W) = 2 Z^3 (7 W - 5 Z) / (W^3 (W - Z)^2),

    since (1 + x)/(1 - x)^2 - 1 - 3x - 5x^2 = x^3 (7 - 5x)/(1 - x)^2 at
    x = Z/W.  The first two terms sum to 3 Z S4_trunc + 5 Z^2 S6_trunc
    (the truncated sums are twice their half-box sums) and cancel the
    truncated parts of the tail, so the value is

        1/Z + 3 Z S4 + 5 Z^2 S6 + sum over the half box of R(W):

    the same truncated box and tail, one division per point, and small
    remainders added rather than O(1/W) terms cancelled.  z = 0 is the
    pole and raises.
    """
    with mp.workdps(DPS):
        z = mp.mpmathify(z)
        if z == 0:
            raise ValueError("wp has its pole at z = 0")
        zz = z * z
        step = 2j * mp.pi * mp.mpmathify(tau)
        rem = mp.mpc(0)
        for m in range(radius + 1):
            wm = 2j * mp.pi * m
            for n in range(-radius if m else 1, radius + 1):
                w = wm + n * step
                ww = w * w
                d = ww - zz
                rem += (7 * ww - 5 * zz) / (ww * ww * ww * d * d)
        s4 = _eisenstein_sum(4, tau, DPS) / 720
        s6 = -_eisenstein_sum(6, tau, DPS) / 30240
        return 1 / zz + 3 * zz * s4 + 5 * zz ** 2 * s6 + 2 * zz ** 3 * rem


# ----------------------------------------------------------------------
# almost global coordinates
# ----------------------------------------------------------------------

def _coordinate_maps(inp: SewInput, e):
    """wp Laurent data (c1, c2) of the two tori and the maps x -> X and
    x-hat -> X-hat of the almost-global coordinates,

        X = x / (1 + a1 e^4 (x^2 - 2 at1) + a2 e^6 (x^3 - 5 at1 x - 3 at2)),

    with a_m = c2[m] from the second torus and at_m = c1[m] from the
    first; X-hat swaps the tori.  Called at working precision DPS."""
    c1 = wp_coeffs(inp.tau1)
    c2 = wp_coeffs(inp.tau2)
    e4, e6 = e ** 4, e ** 6

    def coord(x, a, at):
        return x / (1 + a[1] * e4 * (x ** 2 - 2 * at[1])
                    + a[2] * e6 * (x ** 3 - 5 * at[1] * x - 3 * at[2]))
    return c1, c2, lambda x: coord(x, c2, c1), lambda xh: coord(xh, c1, c2)


def _check_annulus(z, eps):
    r = abs(complex(z)) / math.sqrt(eps)
    if not (0.5 - 1e-12 <= r <= 2.0 + 1e-12):
        raise ValueError(f"|z| = {abs(complex(z)):.4g} outside the sewing annulus "
                         f"[0.5, 2]*sqrt(eps)")


def almost_global_coords(inp: SewInput, z):
    """The coordinate pair (X, X-hat) at a point z of the sewing annulus.

    X = wp(z|tau1) / (1 + a1 e^4 (wp^2 - 2 at1) + a2 e^6 (wp^3 - 5 at1 wp - 3 at2))
    and symmetrically for X-hat at z-hat = eps/z, with a_m from the second
    torus and at_m from the first.
    """
    eps = inp.epsilon
    if eps is None or not (0 < eps <= 0.2):
        raise ValueError("almost-global coordinates need eps real in (0, 0.2]")
    _check_annulus(z, eps)
    with mp.workdps(DPS):
        e = mp.mpf(eps)
        c1, c2, coord, coord_hat = _coordinate_maps(inp, e)
        z = mp.mpmathify(z)
        return (coord(wp_eval(z, inp.tau1, c1)),
                coord_hat(wp_eval(e / z, inp.tau2, c2)))


def coords_residual(inp: SewInput, z) -> float:
    """|eps^2 X X-hat - 1| at a point of the annulus."""
    X, Xh = almost_global_coords(inp, z)
    with mp.workdps(DPS):
        return float(abs(mp.mpf(inp.epsilon) ** 2 * X * Xh - 1))


# ----------------------------------------------------------------------
# linear fractional image of the far ramification points
# ----------------------------------------------------------------------

def lft_image_check(inp: SewInput, k_hat: int = 0) -> dict:
    """Moebius map sending X0, X1, X2 to 0, 1, infinity, applied to
    1/(eps^2 X-hat_k), against the quoted expansion
    (theta3^4/theta2^4)(1 - (theta4^4/4) e^2 Xh - (theta4^4/4) xi2 e^4 Xh^2).

    Returns the exact image, the expansion value, their deviation, and the
    defining-property checks f(X0), f(X1) - 1.
    """
    eps = inp.epsilon
    if eps is None or not (1e-3 <= eps <= 0.1):
        raise ValueError("lft check expects eps in [1e-3, 0.1]")
    if k_hat not in (0, 1, 2):
        raise ValueError(f"k_hat {k_hat} is not a half-period index 0, 1 or 2")
    with mp.workdps(DPS):
        e = mp.mpf(eps)
        _, _, coord, coord_hat = _coordinate_maps(inp, e)
        xi0, xi1, xi2 = _half_periods(inp.tau1, DPS)
        t2, t3, t4 = (theta_char_1d(i, inp.tau1) ** 4 for i in (2, 3, 4))
        X0, X1, X2 = coord(xi0), coord(xi1), coord(xi2)
        if max(abs(X0 - X1), abs(X1 - X2), abs(X0 - X2)) < mp.mpf("1e-30"):
            raise ValueError("coincident normalization points")
        Xh = coord_hat(_half_periods(inp.tau2, DPS)[k_hat])

        def moebius(x):
            return (X1 - X2) / (X1 - X0) * (x - X0) / (x - X2)

        exact = moebius(1 / (e ** 2 * Xh))
        expansion = t3 / t2 * (1 - t4 / 4 * e ** 2 * Xh - t4 / 4 * xi2 * e ** 4 * Xh ** 2)
        return {
            "exact": exact,
            "expansion": expansion,
            "deviation": float(abs(exact - expansion)),
            "f_x0": float(abs(moebius(X0))),
            "f_x1": float(abs(moebius(X1) - 1)),
            "eps2_coeff_expected": complex(-t3 / t2 * t4 / 4 * Xh),
        }
