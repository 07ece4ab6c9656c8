"""Tests for truncated-series arithmetic and order fitting."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcftlab.series import (
    OrderFit,
    SeriesError,
    TruncatedSeries,
    coeff_distance,
    order_fit,
)


def geom(order):
    # 1/(1-q) reference
    return TruncatedSeries(1, 0, np.ones(order), order)


def test_polynomial_product_exact():
    one_plus = TruncatedSeries.from_dict(1, {0: 1, 1: 1}, 10)
    one_minus = TruncatedSeries.from_dict(1, {0: 1, 1: -1}, 10)
    prod = one_plus * one_minus
    assert prod.coeff(0) == 1
    assert prod.coeff(1) == 0
    assert prod.coeff(2) == -1
    assert prod.trunc >= 3


def test_geometric_inverse():
    one_minus = TruncatedSeries.from_dict(1, {0: 1, 1: -1}, 12)
    inv = one_minus.inverse()
    assert coeff_distance(inv, geom(12)) < 1e-14


def test_fractional_exponent_product():
    a = TruncatedSeries.monomial(1.0, (1, 8), 4)
    b = TruncatedSeries.monomial(1.0, (1, 2), 4)
    p = a * b
    assert (p.denom, p.lead, p.trunc) == (1, Fraction(5, 8), Fraction(33, 8))
    assert p.coeff((5, 8)) == 1.0
    assert p.lead_exponent == pytest.approx(5 / 8)


def test_log_of_one_plus_q():
    a = TruncatedSeries.from_dict(1, {0: 1, 1: 1}, 12)
    lg = a.log()
    for k in range(1, 12):
        assert lg.coeff(k) == pytest.approx((-1) ** (k + 1) / k, abs=1e-14)


def test_exp_log_round_trip():
    a = TruncatedSeries.from_dict(1, {0: 1, 1: 1, 2: 1}, 30)
    back = a.log().exp()
    assert coeff_distance(back, a) < 1e-11


def test_exp_constant_part():
    a = TruncatedSeries.from_dict(1, {0: 2.0, 1: 1.0}, 8)
    e = a.exp()
    assert e.coeff(0) == pytest.approx(np.exp(2.0), rel=1e-14)
    assert e.coeff(1) == pytest.approx(np.exp(2.0), rel=1e-14)


def test_ring_axioms_random():
    rng = np.random.default_rng(3)
    order = 30

    def rand_series():
        coeffs = rng.normal(size=order) + 1j * rng.normal(size=order)
        return TruncatedSeries(1, 0, coeffs, order)

    for _ in range(5):
        a, b, c = rand_series(), rand_series(), rand_series()
        assoc = coeff_distance((a * b) * c, a * (b * c))
        dist = coeff_distance(a * (b + c), a * b + a * c)
        assert assoc < 1e-12 * max(1.0, a.max_abs_coeff() * b.max_abs_coeff() * c.max_abs_coeff())
        assert dist < 1e-12 * max(1.0, a.max_abs_coeff() * (b + c).max_abs_coeff())


def test_mul_div_round_trip():
    # divisor leading coefficient has modulus >= 1e-3; the tail is kept below
    # the lead so the inversion recurrence stays well conditioned
    rng = np.random.default_rng(7)
    order = 30
    for lead_mod in (1e-3, 0.3, 2.0, 1.0, 5.0):
        a = TruncatedSeries(1, 0, rng.normal(size=order) + 1j * rng.normal(size=order), order)
        lead = lead_mod * np.exp(2j * np.pi * rng.uniform())
        tail = 0.4 * (rng.normal(size=order - 1) + 1j * rng.normal(size=order - 1))
        b = TruncatedSeries(1, 0, np.concatenate([[1.0], tail]), order) * lead
        r = (a * b) / b
        assert coeff_distance(r, a.truncated(r.trunc)) < 1e-12 * max(1.0, a.max_abs_coeff())


def test_fraction_scalar_matches_float():
    s = TruncatedSeries(2, -1, np.linspace(-3, 5, 40) * (1 - 0.5j), 39)
    out = Fraction(11, 3600) * s
    ref = (11 / 3600) * s
    assert out.coeffs.dtype == complex
    assert (out.denom, out.lead, out.trunc) == (ref.denom, ref.lead, ref.trunc)
    assert np.array_equal(out.coeffs, ref.coeffs)


def test_division_by_zero_series_raises():
    z = TruncatedSeries.zero(10)
    a = geom(10)
    with pytest.raises(SeriesError):
        _ = a / z


def test_truncation_min_rule():
    a = TruncatedSeries(1, 0, [1, 1, 1], 3)
    b = TruncatedSeries(1, 0, np.ones(10), 10)
    assert (a + b).trunc == 3
    assert (a * b).trunc == 3  # both leading exponents are 0
    with pytest.raises(SeriesError):
        (a * b).coeff(5)


def test_pow_rational_exponent_grid():
    # (q^2)^(1/2) -> q, exercised through a nontrivial body
    a = TruncatedSeries.from_dict(1, {2: 1.0, 3: 0.5}, 12)
    r = a.pow_rational(1, 2)
    assert r.lead_exponent == 1
    assert r.coeff(1) == pytest.approx(1.0)
    sq = r * r
    assert coeff_distance(sq, a.truncated(sq.trunc)) < 1e-12


def test_shift_and_qdq():
    a = TruncatedSeries.from_dict(1, {0: 1.0, 1: 3.0}, 6)
    s = a.shifted((1, 24))
    assert (s.denom, s.lead, s.trunc) == (1, Fraction(1, 24), Fraction(145, 24))
    assert s.coeff((1, 24)) == 1.0
    d = s.qdq()
    assert d.coeff((1, 24)) == pytest.approx(1 / 24)
    assert d.coeff((25, 24)) == pytest.approx(3.0 * 25 / 24)


def test_json_round_trip():
    a = TruncatedSeries.from_dict(8, {1: 2.0 + 1.0j, 9: -1.0}, 40)
    b = TruncatedSeries.from_json(a.to_json())
    assert b.denom == a.denom and b.trunc == a.trunc
    assert coeff_distance(a, b) == 0.0


# ----------------------------------------------------------------------
# mixed exponent grids
# ----------------------------------------------------------------------

DENOMS = (1, 2, 3, 8, 24, 60)
MIXED = settings(derandomize=True, deadline=None)


def fractions(lo, hi):
    """Rationals in [lo, hi] whose denominators are drawn from DENOMS."""
    return st.sampled_from(DENOMS).flatmap(
        lambda d: st.integers(lo * d, hi * d).map(lambda n: Fraction(n, d)))


@st.composite
def mixed_series(draw, lead=fractions(-2, 2)):
    """c0 q^lead (1 + small tail) on a 1/d grid: the tail is at most 0.4 of
    the lead in sum, so inverses and logarithms stay of order one."""
    d = draw(st.sampled_from(DENOMS))
    c0 = cmath.exp(1j * draw(st.floats(0.0, 2 * math.pi)))
    tail = draw(st.lists(st.complex_numbers(max_magnitude=0.1, allow_nan=False,
                                            allow_infinity=False), max_size=4))
    e = draw(lead)
    trunc = e + Fraction(1 + len(tail) + draw(st.integers(0, 6)), d)
    return TruncatedSeries(d, e, [c0] + tail, trunc)


def assert_canonical(s):
    """Leading coefficient nonzero, nothing at/beyond trunc, and no coarser
    1/d grid holds the occupied slots."""
    if s.is_zero:
        assert (s.denom, s.lead) == (1, s.trunc)
        return
    slots = np.flatnonzero(s.coeffs)
    assert slots[0] == 0 and slots[-1] == len(s.coeffs) - 1
    assert math.gcd(s.denom, *(int(i) for i in slots)) == 1
    assert s.lead + Fraction(len(s.coeffs) - 1, s.denom) < s.trunc


def assert_close(a, b, tol=1e-12):
    assert a.trunc == b.trunc
    assert coeff_distance(a, b) <= tol
    assert_canonical(a)


@MIXED
@given(a=mixed_series(), b=mixed_series(), c=mixed_series())
def test_mixed_grid_ring_laws(a, b, c):
    assert_close(a + b, b + a, 0.0)
    assert_close(a * b, b * a)
    assert_close((a + b) + c, a + (b + c))
    assert_close((a * b) * c, a * (b * c))
    assert_close(a * (b + c), a * b + a * c)


@MIXED
@given(a=mixed_series(), b=mixed_series())
def test_mixed_grid_division_round_trip(a, b):
    r = (a * b) / b
    assert_close(r, a.truncated(r.trunc))
    one = b * b.inverse()
    assert one.trunc == b.trunc - b.lead
    assert_close(one, TruncatedSeries.constant(1.0, one.trunc))


@MIXED
@given(g=mixed_series(lead=fractions(0, 1).filter(lambda e: e > 0)))
def test_mixed_grid_exp_log(g):
    f = 1 + g * 0.3
    assert_canonical(f.log())
    assert_close(f.log().exp(), f)


@MIXED
@given(a=mixed_series(), e=fractions(-2, 2), cut=fractions(0, 2))
def test_shift_commutes_with_truncate(a, e, cut):
    t = a.trunc - cut
    left, right = a.shifted(e).truncated(t + e), a.truncated(t).shifted(e)
    assert (left.denom, left.lead, left.trunc) == (right.denom, right.lead, right.trunc)
    assert np.array_equal(left.coeffs, right.coeffs)
    assert_canonical(left)


@MIXED
@given(a=mixed_series())
def test_mixed_grid_json_round_trip(a):
    b = TruncatedSeries.from_json(a.to_json())
    assert (b.denom, b.lead, b.trunc) == (a.denom, a.lead, a.trunc)
    assert np.array_equal(b.coeffs, a.coeffs)


def test_order_fit_quadratic_exact():
    xs = [1e-2, 3e-3, 1e-3]
    fit = order_fit([(x, x ** 2) for x in xs])
    assert isinstance(fit, OrderFit)
    assert fit.slope == pytest.approx(2.0, abs=1e-6)


def test_order_fit_octic():
    xs = [1e-1, 3e-2, 1e-2, 3e-3]
    fit = order_fit([(x, 5.0 * x ** 8) for x in xs])
    assert fit.slope == pytest.approx(8.0, abs=1e-3)


def test_order_fit_validation():
    with pytest.raises(SeriesError):
        order_fit([(1e-2, 1e-4), (1e-3, 1e-6)])
    with pytest.raises(SeriesError):
        order_fit([(1e-2, 1e-4), (1e-3, 1e-6), (1e-3, 1e-8)])
    with pytest.raises(SeriesError):
        order_fit([(1e-2, 1e-4), (1e-3, -1e-6), (1e-4, 1e-8)])
