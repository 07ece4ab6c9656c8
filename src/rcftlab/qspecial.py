"""Modular and elliptic special functions in the conventions used here.

q-Pochhammer, Dedekind eta, Jacobi theta constants, Eisenstein series,
the Serre derivative, the two (2,5)-model characters, and Weierstrass
half-period values.

Series are exact-order objects from :mod:`rcftlab.series`.  One kernel per
object (theta, Eisenstein, half periods) serves complex128 here and mpmath
in :mod:`rcftlab.sewing` under one stopping rule, digits = 16 or dps: a theta
sum stops at a shell past n = 1 below 10^-digits of the sum, an Eisenstein
sum at a term below 10^-(digits+1) of it.

The float guard has one owner, ModularPoint: it rejects a tau that is not
finite or has Im tau below CONVERGENCE_MIN_IM = 0.8, so every float
function, which takes a ModularPoint, runs only where its sums are trusted.
_half_periods returns the three half-period values only; a caller that
needs the theta fourth powers reads them from the theta kernel.

The shell rule is one helper, _sum_shells: it adds shells n = 0, 1, ...
until the first past n = 1 whose mass is below tol times the sum, and
raises past its cap of 600 shells.  The theta kernel, the character sum
rr_numeric (at digits 16) and sewing's genus-2 direct sum all call it.

The model data live here once, exactly: CENTRAL_CHARGE = -22/5 and the Kac
weights KAC_WEIGHTS of the two primaries, h0: 0 and g0: -1/5.  The
character exponents h - c/24, the coefficient of the character equation
and every default c of the layers above are derived from them.

The mpmath branch of the theta and Eisenstein kernels is memoized: one
bounded LRU table per kernel, keyed on (i or k, tau, deriv, dps) with tau
exactly as passed, so every sewing consumer of one modulus reads each value
once.  Keying on dps keeps values of different precisions apart, and the
values kept are immutable mpmath numbers.  The complex128 branch (dps None)
serves claims with a fresh tau each and is not memoized.

A documentation note on two displays that the implementation does not
reproduce (both recorded in the verification suites as flagged cases
rather than silently corrected):

* the product (q)_inf expands as 1 - q - q^2 + q^5 + q^7 - ... by the
  pentagonal-number pattern; a source display shows "+ q^2",
* theta2^4/theta3^4 = 16 q^(1/2) (1 - 8 q^(1/2) + 44 q - 192 q^(3/2) + ...);
  a source display shows -64 for the third correction coefficient.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from types import SimpleNamespace

import mpmath as mp

from .series import TruncatedSeries

__all__ = [
    "CENTRAL_CHARGE",
    "KAC_WEIGHTS",
    "ModularPoint",
    "CharacterSeries",
    "pochhammer",
    "eta_series",
    "theta_constants",
    "eisenstein_series",
    "serre_derivative",
    "rogers_ramanujan",
    "rr_product_form",
    "character_ode_residual",
    "jacobi_identity_residual",
    "theta_numeric",
    "eta_numeric",
    "eisenstein_numeric",
    "rr_numeric",
    "weierstrass_e_values",
    "e_cubic_residual",
    "serre_e_identity_residuals",
    "b0_expansion_check",
]

#: numeric evaluation guard: adaptive sums are only trusted above this
CONVERGENCE_MIN_IM = 0.8

#: central charge of the (2,5) minimal model
CENTRAL_CHARGE = Fraction(-22, 5)

#: Kac weights h_{1,1} and h_{1,2} of the (2,5) model, keyed by character
KAC_WEIGHTS = {"h0": Fraction(0), "g0": Fraction(-1, 5)}

_EIS_COEF = {2: -24, 4: 240, 6: -504}


@dataclass(frozen=True)
class ModularPoint:
    """A point tau with nome q = e^{2 pi i tau}, finite and with Im tau at
    least CONVERGENCE_MIN_IM, where the float sums are trusted."""

    tau: complex

    def __post_init__(self):
        if not (cmath.isfinite(self.tau) and self.tau.imag >= CONVERGENCE_MIN_IM):
            raise ValueError(f"tau must be finite with Im tau >= {CONVERGENCE_MIN_IM}, "
                             f"got {self.tau}")

    @property
    def q(self) -> complex:
        return cmath.exp(2j * cmath.pi * self.tau)


# ----------------------------------------------------------------------
# q-series
# ----------------------------------------------------------------------

def pochhammer(order: int) -> TruncatedSeries:
    """(q)_inf = prod_{k>=1} (1 - q^k) to the order."""
    if order < 1:
        raise ValueError("order must be >= 1")
    out = TruncatedSeries.constant(1.0, order)
    for k in range(1, order + 1):
        out = out * TruncatedSeries.from_dict(1, {0: 1.0, k: -1.0}, order)
    return out


def eta_series(order: int) -> TruncatedSeries:
    """Dedekind eta as a q-series on the 1/24 exponent grid."""
    return pochhammer(order).shifted((1, 24))


def theta_constants(order: int) -> tuple[TruncatedSeries, TruncatedSeries, TruncatedSeries]:
    """theta_2, theta_3, theta_4 at z=0 as q-series.

    theta2 = 2 q^{1/8} sum q^{n(n+1)/2} (denom 8),
    theta3 = 1 + 2 sum q^{n^2/2},  theta4 with alternating signs (denom 2).
    """
    t2 = {}
    nmax = int(math.isqrt(8 * order) + 2)
    for n in range(nmax):
        num = (2 * n + 1) ** 2  # exponent (n + 1/2)^2/2 = (2n+1)^2/8
        if num < 8 * order:
            t2[num] = t2.get(num, 0) + 2.0
    th2 = TruncatedSeries.from_dict(8, t2, 8 * order)
    t3, t4 = {0: 1.0}, {0: 1.0}
    for n in range(1, nmax):
        num = n * n  # exponent n^2/2 on the denom-2 grid
        if num < 2 * order:
            t3[num] = t3.get(num, 0) + 2.0
            t4[num] = t4.get(num, 0) + 2.0 * (-1) ** n
    th3 = TruncatedSeries.from_dict(2, t3, 2 * order)
    th4 = TruncatedSeries.from_dict(2, t4, 2 * order)
    return th2, th3, th4


def eisenstein_series(k: int, order: int) -> TruncatedSeries:
    """E_k(q) = 1 - (2k/B_k) sum sigma_{k-1}(n) q^n for k in {2, 4, 6}.

    The zeta-normalized G_k equals zeta(k) E_k.
    """
    if k not in _EIS_COEF:
        raise ValueError(f"unsupported Eisenstein weight {k}")
    sig = _divisor_sigma(k - 1, order)
    terms = {0: 1.0}
    for m in range(1, order):
        terms[m] = _EIS_COEF[k] * sig[m]
    return TruncatedSeries.from_dict(1, terms, order)


_SIGMA: dict[int, tuple[int, ...]] = {}


def _divisor_sigma(power: int, length: int) -> tuple[int, ...]:
    """sigma_power(m) for 0 <= m < length or more (sigma(0) = 0), by sieve, as
    exact Python ints so the sums built on it stay in the arithmetic of their q.
    One table per power in _SIGMA, grown on demand."""
    sig = _SIGMA.get(power, ())
    if len(sig) < length:
        table = [0] * length
        for d in range(1, length):
            dp = d ** power
            for m in range(d, length, d):
                table[m] += dp
        sig = _SIGMA[power] = tuple(table)
    return sig


def serre_derivative(f: TruncatedSeries, weight) -> TruncatedSeries:
    """Serre derivative of weight ell: q df/dq - (ell/12) E2 f."""
    ell = float(Fraction(weight) if not isinstance(weight, float) else weight)
    order = int(math.ceil(f.trunc))
    e2 = eisenstein_series(2, max(order, 2))
    return f.qdq() - (ell / 12.0) * (e2 * f)


# ----------------------------------------------------------------------
# Rogers-Ramanujan characters
# ----------------------------------------------------------------------

#: per character: the leading exponent h - c/24, the linear coefficient l of
#: the sum-form exponent n^2 + l n, and the residues mod 5 of the product form
_RR_VARIANTS = {name: (KAC_WEIGHTS[name] - CENTRAL_CHARGE / 24, lin, residues)
                for name, lin, residues in (("h0", 1, (2, 3)), ("g0", 0, (1, 4)))}


def _rr_variant(variant: str) -> tuple:
    if variant not in _RR_VARIANTS:
        raise ValueError(f"variant must be 'h0' or 'g0', got {variant!r}")
    return _RR_VARIANTS[variant]


@dataclass(frozen=True)
class CharacterSeries:
    """One torus character: variant 'h0' leads with q^{11/60}, 'g0' with q^{-1/60}."""

    variant: str
    series: TruncatedSeries = field(repr=False)

    def __post_init__(self):
        _rr_variant(self.variant)


def _rr_sum_form(variant: str, order: int) -> TruncatedSeries:
    """sum_n q^e(n)/(q)_n, with 1/(q)_n kept as a running product of the
    geometric series 1/(1 - q^n) = 1 + q^n + q^2n + ..."""
    lin = _rr_variant(variant)[1]
    out = TruncatedSeries.zero(order)
    inv = TruncatedSeries.constant(1.0, order)
    for n in itertools.count():
        e = n * n + lin * n
        if e >= order:
            return out
        if n:
            inv = inv * TruncatedSeries.from_dict(1, dict.fromkeys(range(0, order, n), 1.0), order)
        out = out + inv.shifted(e)


def rogers_ramanujan(variant: str, order: int) -> CharacterSeries:
    """Sum-form character series, shifted to its 1/60 leading exponent."""
    body = _rr_sum_form(variant, order)
    return CharacterSeries(variant, body.shifted(_rr_variant(variant)[0]))


def rr_product_form(variant: str, order: int) -> TruncatedSeries:
    """Product side of the Rogers-Ramanujan identities (without the q-power).

    h0: prod over n = +-2 mod 5 of (1-q^n)^{-1};  g0: n = +-1 mod 5.
    """
    residues = _rr_variant(variant)[2]
    den = TruncatedSeries.constant(1.0, order)
    for n in range(1, order):
        if n % 5 in residues:
            den = den * TruncatedSeries.from_dict(1, {0: 1.0, n: -1.0}, order)
    return den.inverse()


def character_ode_residual(variant: str, order: int,
                           f: TruncatedSeries | None = None) -> TruncatedSeries:
    """Residual of the second-order character equation D_2 D_0 f - (11/3600) E4 f.

    The coefficient 11/3600 is -a_h0 a_g0 of the two character exponents.
    With f one of the two characters the residual vanishes to truncation;
    passing an arbitrary series shows the equation is nontrivial.
    """
    _rr_variant(variant)
    if order < 5:
        raise ValueError("order must be >= 5")
    if f is None:
        f = rogers_ramanujan(variant, order).series
    e4 = eisenstein_series(4, order)
    lhs = serre_derivative(serre_derivative(f, 0), 2)
    return lhs + _RR_VARIANTS["h0"][0] * _RR_VARIANTS["g0"][0] * (e4 * f)


def jacobi_identity_residual(order: int) -> TruncatedSeries:
    """theta2^4 + theta4^4 - theta3^4 as a q-series (zero to truncation)."""
    th2, th3, th4 = theta_constants(order)
    return th2.pow_int(4) + th4.pow_int(4) - th3.pow_int(4)


# ----------------------------------------------------------------------
# numeric evaluation
# ----------------------------------------------------------------------

#: complex128 stand-in for the mpmath context ``mp.mp``.  Each kernel takes dps
#: last: None sums in complex128 (16 digits), k in mpmath at k digits, which
#: ``_mp_memo`` runs in mp.workdps(k) (the float path enters none).
_FLOAT = SimpleNamespace(mpmathify=complex, mpf=float, exp=cmath.exp, pi=cmath.pi)

#: values the mpmath memo of each kernel keeps; a sewing round reads about 30
_MEMO_SIZE = 256


def _mp_memo(kernel):
    """Memoize the mpmath branch of a genus-1 kernel: with dps given, the
    kernel runs in mp.workdps(dps) once per positional argument tuple (tau as
    passed, dps included) among the last _MEMO_SIZE; dps None runs as is."""
    @functools.lru_cache(maxsize=_MEMO_SIZE)
    def at_dps(*args):
        with mp.workdps(args[-1]):
            return kernel(*args)

    @functools.wraps(kernel)
    def call(*args):
        return kernel(*args) if args[-1] is None else at_dps(*args)
    call.cache_info = at_dps.cache_info
    return call


def _sum_shells(shell, tol, cap=600):
    """Sum of the parts of shell(n) -> (part, mass) over n = 0, 1, ..., up to
    the first shell past n = 1 whose mass is below tol times the sum.  A sum
    that has not stopped by shell cap raises."""
    total = 0
    for n in range(cap + 1):
        part, mass = shell(n)
        total += part
        if n > 1 and mass < tol * max(abs(total), 1e-300):
            return total
    raise ValueError(f"shell sum has not converged by shell {cap}")


@_mp_memo
def _theta_sum(i, tau, deriv, dps):
    """theta_i(0 | tau) or its deriv-th tau-derivative: shells m = 0, +-1,
    ... of e^{2 pi i (e tau + (m+a) b)} (2 pi i e)^deriv, e = (m+a)^2/2,
    each with mass |shell|."""
    ctx = _FLOAT if dps is None else mp.mp
    if i not in (2, 3, 4):
        raise ValueError(f"theta index {i} is not 2, 3 or 4")
    a, b = {2: (0.5, 0.0), 3: (0.0, 0.0), 4: (0.0, 0.5)}[i]
    tau, exp, w = ctx.mpmathify(tau), ctx.exp, 2j * ctx.pi

    def shell(n):
        part = 0j
        for m in ((n,) if n == 0 else (n, -n)):
            e = (m + a) ** 2 / 2.0
            part += (w * e) ** deriv * exp(w * (e * tau + (m + a) * b))
        return part, abs(part)
    return _sum_shells(shell, ctx.mpf(10) ** -(dps or 16))


@_mp_memo
def _eisenstein_sum(k, tau, dps):
    """E_k(tau) = 1 + coef sum sigma_{k-1}(n) q^n for k in {2, 4, 6}."""
    ctx = _FLOAT if dps is None else mp.mp
    tau = ctx.mpmathify(tau)
    if tau.imag <= 0:
        raise ValueError(f"Eisenstein sum needs Im tau > 0, got {complex(tau)}")
    digits = dps or 16
    q = ctx.exp(2j * ctx.pi * tau)
    tol = ctx.mpf(10) ** -(digits + 1)
    # past this a-priori length |q|^{n/2} < 10^-(2 digits + 4): |q|^{n/2} absorbs
    # sigma_{k-1}(n), with room for a sum cancelled to 10^-digits (E4 at rho)
    length = math.ceil((2 * digits + 4) * math.log(10) / (math.pi * float(tau.imag)))
    sig = _divisor_sigma(k - 1, length + 1)
    total = 1.0 + 0j
    for n in range(1, length + 1):
        t = _EIS_COEF[k] * sig[n] * q ** n
        total += t
        if abs(t) < tol * abs(total):
            return total
    raise ValueError(f"Eisenstein sum did not converge in {length} terms")


def _half_periods(tau, dps):
    """(xi0, xi1, xi2); see weierstrass_e_values.  With dps set, the caller
    is already at that working precision."""
    t2, t3, t4 = (_theta_sum(i, tau, 0, dps) ** 4 for i in (2, 3, 4))
    return (t4 - t2) / 12.0, (t2 + t3) / 12.0, (-t3 - t4) / 12.0


def theta_numeric(i: int, point: ModularPoint, deriv: int = 0) -> complex:
    """theta_i(0 | tau), or its deriv-th derivative with respect to tau."""
    return _theta_sum(i, point.tau, deriv, None)


def eta_numeric(point: ModularPoint) -> complex:
    q = point.q
    prod = 1.0 + 0j
    for n in itertools.count(1):
        t = q ** n
        prod *= (1.0 - t)
        if abs(t) < 1e-18:
            return cmath.exp(2j * cmath.pi * point.tau / 24) * prod


def eisenstein_numeric(k: int, point: ModularPoint) -> complex:
    if k not in _EIS_COEF:
        raise ValueError(f"unsupported Eisenstein weight {k}")
    return _eisenstein_sum(k, point.tau, None)


def rr_numeric(variant: str, point: ModularPoint) -> complex:
    """Character value at the point, via the sum form.  The leading power is
    e^(2 pi i h tau), h = 11/60 or -1/60, not a branch of q^h, so that
    chi(tau + 1) = e^(2 pi i h) chi(tau)."""
    h, lin, _ = _rr_variant(variant)
    q = point.q
    lead = cmath.exp(2j * cmath.pi * float(h) * point.tau)

    def term(n):
        t = q ** (n * n + lin * n) / math.prod([1.0 - q ** k for k in range(1, n + 1)])
        return t, abs(t)
    return lead * _sum_shells(term, 10.0 ** -16)


# ----------------------------------------------------------------------
# half-period values and their cubic
# ----------------------------------------------------------------------

def weierstrass_e_values(point: ModularPoint) -> tuple[complex, complex, complex]:
    """(xi0, xi1, xi2): Weierstrass values at the half periods of the
    lattice 2 pi i (Z + tau Z), written in quartic theta combinations.

    xi1 = (theta2^4 + theta3^4)/12, xi0 = (-theta2^4 + theta4^4)/12,
    xi2 = -(theta3^4 + theta4^4)/12; they sum to zero.
    """
    return _half_periods(point.tau, None)


def e_cubic_residual(point: ModularPoint) -> float:
    """Max residual of xi^3 - 30 G4' xi - 70 G6' over the three half-period
    values, with the G's taken for the 2 pi i scaled lattice:
    G_k' = G_k/(2 pi i)^k, which reduces the cubic to
    xi^3 - (E4/48) xi + E6/864 = 0.
    """
    e4 = eisenstein_numeric(4, point)
    e6 = eisenstein_numeric(6, point)
    res = 0.0
    for xi in weierstrass_e_values(point):
        res = max(res, abs(xi ** 3 - e4 / 48.0 * xi + e6 / 864.0))
    return res


def serre_e_identity_residuals(point: ModularPoint) -> dict[int, float]:
    """|(-2 D theta_k / theta_k) - e_k| for k = 2, 3, 4, evaluated at the point.

    D is the Serre derivative at weight 1/2; e_2 = xi2, e_3 = xi0, e_4 = xi1.
    """
    xi0, xi1, xi2 = weierstrass_e_values(point)
    e2n = eisenstein_numeric(2, point)
    expected = {2: xi2, 3: xi0, 4: xi1}
    out = {}
    for k in (2, 3, 4):
        th = theta_numeric(k, point)
        dth = theta_numeric(k, point, deriv=1) / (2j * cmath.pi)  # (1/2pi i) d/dtau
        serre = dth - (0.5 / 12.0) * e2n * th
        out[k] = abs(-2.0 * serre / th - expected[k])
    return out


def b0_expansion_check(order: int = 4) -> dict:
    """theta2^4/theta3^4 on the q^(1/2) grid, against the quoted expansion.

    Returns the computed series, the first four coefficients on the half
    integer grid, the quoted coefficients 16*(1, -8, 44, -64), and the
    residual series of (computed - quoted) truncated below q^2.  The fourth
    computed coefficient is -3072 = 16*(-192); the quoted -64 does not
    match and is reported, not corrected away.
    """
    if order < 2:
        raise ValueError("order must be >= 2 on the 1/2 grid")
    th2, th3, _ = theta_constants(order + 2)
    ratio = th2.pow_int(4) / th3.pow_int(4)
    computed = [ratio.coeff(Fraction(k, 2)) for k in (1, 2, 3, 4)]
    quoted = [16.0, -128.0, 704.0, -1024.0]
    quoted_series = TruncatedSeries.from_dict(2, dict(enumerate(quoted, 1)), 4)
    residual = (ratio - quoted_series).truncated(2)
    return {
        "series": ratio,
        "computed": computed,
        "quoted": quoted,
        "residual_below_q2": residual,
    }
