"""Genus-1 kernels against mpmath.jtheta, an independent oracle.

Thetas: the heat equation trades d/dtau for (-i pi/4) d^2/dz^2 at the nome
e^{i pi tau}, so theta_i^(k)(tau) = (-i pi/4)^k jtheta(i, 0, e^{i pi tau}, 2k).
Eisenstein: E4 = (theta2^8 + theta3^8 + theta4^8)/2 and
E6 = (theta2^4 + theta3^4)(theta3^4 + theta4^4)(theta4^4 - theta2^4)/2.
The oracle runs at 50 digits, above the 40 of the mpmath path.
"""

import mpmath as mp
import pytest

from rcftlab.qspecial import (
    ModularPoint,
    _eisenstein_sum,
    _theta_sum,
    eisenstein_numeric,
    theta_numeric,
)
from rcftlab.sewing import EQUIANHARMONIC_TAU, theta_char_1d, wp_coeffs

ORACLE_DPS = 50

#: Im tau at the float guard 0.8, the zero of E4, and a generic point
TAUS = [0.3 + 0.8j, EQUIANHARMONIC_TAU, -0.37 + 1.13j]


def jtheta_derivative(i, tau, k):
    with mp.workdps(ORACLE_DPS):
        q = mp.exp(1j * mp.pi * mp.mpmathify(tau))
        return (-1j * mp.pi / 4) ** k * mp.jtheta(i, 0, q, 2 * k)


def e4_e6(tau):
    with mp.workdps(ORACLE_DPS):
        t2, t3, t4 = (jtheta_derivative(i, tau, 0) ** 4 for i in (2, 3, 4))
        return (t2 ** 2 + t3 ** 2 + t4 ** 2) / 2, (t2 + t3) * (t3 + t4) * (t4 - t2) / 2


def rel_err(value, oracle, floor=0):
    """|value - oracle| / max(|oracle|, floor).  The Eisenstein checks use
    floor 1, their constant term, because E4 vanishes at rho."""
    with mp.workdps(ORACLE_DPS):
        return float(abs(value - oracle) / max(abs(oracle), floor))


@pytest.mark.parametrize("tau", TAUS)
@pytest.mark.parametrize("i", (2, 3, 4))
def test_theta_char_1d(i, tau):
    for k in range(4):
        assert rel_err(theta_char_1d(i, tau, k), jtheta_derivative(i, tau, k)) < 1e-35


@pytest.mark.parametrize("tau", TAUS)
@pytest.mark.parametrize("i", (2, 3, 4))
def test_theta_numeric(i, tau):
    for k in (0, 1):
        assert rel_err(theta_numeric(i, ModularPoint(tau), k),
                       jtheta_derivative(i, tau, k)) < 1e-14


@pytest.mark.parametrize("i", (0, 1, 5))
@pytest.mark.parametrize("theta", (
    lambda i: theta_char_1d(i, EQUIANHARMONIC_TAU),
    lambda i: theta_numeric(i, ModularPoint(EQUIANHARMONIC_TAU)),
), ids=("theta_char_1d", "theta_numeric"))
def test_theta_index_rejected(theta, i):
    # one check in the shared kernel, for both precisions
    with pytest.raises(ValueError, match="theta index"):
        theta(i)


@pytest.mark.parametrize("tau", TAUS)
def test_wp_coeffs_eisenstein(tau):
    e4, e6 = e4_e6(tau)
    c = wp_coeffs(tau)
    with mp.workdps(ORACLE_DPS):
        assert rel_err(240 * c[1], e4, floor=1) < 1e-35
        assert rel_err(-6048 * c[2], e6, floor=1) < 1e-35


@pytest.mark.parametrize("tau", TAUS)
def test_eisenstein_numeric(tau):
    e4, e6 = e4_e6(tau)
    pt = ModularPoint(tau)
    assert rel_err(eisenstein_numeric(4, pt), e4, floor=1) < 1e-13
    assert rel_err(eisenstein_numeric(6, pt), e6, floor=1) < 1e-13


class TestMemo:
    """The mpmath kernels are memoized on (i or k, tau, deriv, dps)."""

    TAU = 0.11 + 1.37j

    def test_theta_keyed_on_dps(self):
        # a value memoized at 40 digits must not answer a request for 60
        _theta_sum(3, self.TAU, 0, 40)
        value = _theta_sum(3, self.TAU, 0, 60)
        with mp.workdps(60):
            oracle = mp.jtheta(3, 0, mp.exp(1j * mp.pi * mp.mpmathify(self.TAU)))
            assert abs(value - oracle) < 1e-55 * abs(oracle)

    def test_eisenstein_keyed_on_dps(self):
        _eisenstein_sum(4, self.TAU, 40)
        value = _eisenstein_sum(4, self.TAU, 60)
        with mp.workdps(60):
            q = mp.exp(1j * mp.pi * mp.mpmathify(self.TAU))
            t2, t3, t4 = (mp.jtheta(i, 0, q) ** 8 for i in (2, 3, 4))
            e4 = (t2 + t3 + t4) / 2
            assert abs(value - e4) < 1e-55 * abs(e4)

    @pytest.mark.parametrize("kernel", [_theta_sum, _eisenstein_sum])
    def test_bounded(self, kernel):
        assert kernel.cache_info().maxsize is not None

    def test_float_branch_not_memoized(self):
        before = (_theta_sum.cache_info(), _eisenstein_sum.cache_info())
        tau = 0.2 + 1.05j
        assert isinstance(_theta_sum(2, tau, 1, None), complex)
        assert isinstance(_eisenstein_sum(4, tau, None), complex)
        assert (_theta_sum.cache_info(), _eisenstein_sum.cache_info()) == before

    def test_repeat_is_a_hit(self):
        tau = -0.23 + 1.61j
        first = theta_char_1d(4, tau, 2)
        hits = _theta_sum.cache_info().hits
        assert theta_char_1d(4, tau, 2) is first
        assert _theta_sum.cache_info().hits == hits + 1
