"""Tests for truncated-series arithmetic and order fitting."""

from fractions import Fraction

import numpy as np
import pytest

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
    assert p.denom == 8
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
    assert (out.denom, out.min_num, out.trunc_num) == (ref.denom, ref.min_num, ref.trunc_num)
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
    assert s.denom == 24
    assert s.coeff((1, 24)) == 1.0
    d = s.qdq()
    assert d.coeff((1, 24)) == pytest.approx(1 / 24)
    assert d.coeff((25, 24)) == pytest.approx(3.0 * 25 / 24)


def test_json_round_trip():
    a = TruncatedSeries.from_dict(8, {1: 2.0 + 1.0j, 9: -1.0}, 40)
    b = TruncatedSeries.from_json(a.to_json())
    assert b.denom == a.denom and b.trunc == a.trunc
    assert coeff_distance(a, b) == 0.0


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
