"""Tests for contour quadrature and the closed-form integral checks."""

import math

import numpy as np
import pytest

from rcftlab.contour import (
    ContourSpec,
    KIntegralReport,
    btilde,
    btilde_printed_display,
    btilde_taylor_closed,
    cauchy_coefficient,
    default_spec_for_root,
    gauss_bonnet_outer,
    node_doubling_error,
    theta_laurent,
    verify_k_integrals,
    weyl_integrals,
    weyl_outer_oracle,
)
from rcftlab.curve import CorrelatorParams, HyperCurve

from test_curve import random_curve


@pytest.fixture
def curve():
    return random_curve(np.random.default_rng(41))


@pytest.fixture
def params(curve):
    return CorrelatorParams.random_for(curve, np.random.default_rng(43))


class TestCauchy:
    def test_polynomial_coefficient(self):
        c0 = 0.3 + 0.8j
        spec = ContourSpec(c0, 0.7)
        val = cauchy_coefficient(lambda x: (x - c0) ** 3, spec, 3)
        assert val == pytest.approx(1.0, abs=1e-13)

    def test_constant_integrand(self):
        spec = ContourSpec(0.3 + 0.8j, 0.7)
        assert cauchy_coefficient(lambda x: 2.0, spec, 0) == pytest.approx(2.0, abs=1e-14)
        assert abs(cauchy_coefficient(lambda x: 2.0, spec, 1)) < 1e-14

    def test_negative_order_of_simple_pole(self):
        c0 = -0.2 + 0.1j
        spec = ContourSpec(c0, 0.5)
        val = cauchy_coefficient(lambda x: 1.0 / (x - c0), spec, -2)
        assert abs(val) < 1e-13

    @pytest.mark.parametrize("radius, nodes", [
        (float("nan"), 512), (math.inf, 512), (0.0, 512), (1.0, 64.5), (1.0, 32)])
    def test_spec_rejects_bad_circle(self, radius, nodes):
        # a nan radius and a non-integer node count (an open polygon of
        # nodes) were accepted and gave silently wrong coefficients
        with pytest.raises(ValueError):
            ContourSpec(0.0, radius, nodes)

    @pytest.mark.parametrize("center", [complex("nan"), complex(math.inf, 0.0),
                                        complex(0.0, -math.inf)])
    def test_spec_rejects_non_finite_center(self, center):
        # a nan center sampled nan nodes and returned a nan coefficient
        with pytest.raises(ValueError, match="center must be finite"):
            ContourSpec(center, 1.0)

    def test_node_doubling_gate(self, curve, params):
        spec = default_spec_for_root(curve, 0)
        err = node_doubling_error(
            lambda x: params.theta(x) / (x - curve.roots[1]), spec, 2)
        assert err < 1e-12

    def test_linearity(self):
        spec = ContourSpec(0.0, 1.0)
        f = lambda x: 1.0 + 2.0 * x + 3.0 * x ** 2
        g = lambda x: x ** 2 - 0.5 * x
        a, b = 0.7 - 0.2j, 1.3 + 0.4j
        lhs = cauchy_coefficient(lambda x: a * f(x) + b * g(x), spec, 2)
        rhs = a * cauchy_coefficient(f, spec, 2) + b * cauchy_coefficient(g, spec, 2)
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestThetaLaurent:
    def test_negative_k_vanishes(self, curve, params):
        assert abs(theta_laurent(curve, params, 0, -1)) < 1e-10

    def test_k0_is_value(self, curve, params):
        xs = curve.roots[0]
        assert theta_laurent(curve, params, 0, 0) == pytest.approx(
            params.theta(xs), rel=1e-11)

    def test_k3_third_derivative_law(self, curve, params):
        # Taylor coefficient <th'''>/3! with <th'''> = -(3c/80) p^(5) Z
        val = theta_laurent(curve, params, 0, 3)
        expected = -(3 * params.c / 80.0) * curve.dp(0.0, 5) * params.z / 6.0
        assert val == pytest.approx(expected, rel=1e-10)


class TestKIntegrals:
    def test_closed_forms_five_seeded_curves(self):
        rng = np.random.default_rng(2024)
        for _ in range(5):
            cv = random_curve(rng)
            pp = CorrelatorParams.random_for(cv, rng)
            s = int(rng.integers(0, cv.n))
            for rep in verify_k_integrals(cv, pp, s):
                assert isinstance(rep, KIntegralReport)
                assert rep.rel_err < 1e-8, f"k={rep.k}"

    def test_b11_invariance_k013(self, curve, params):
        shifted = CorrelatorParams(params.z, params.theta_coeffs, params.b11 + 1.0,
                                   params.c, curve.n, curve.a0)
        reps = zip(verify_k_integrals(curve, params, 0),
                   verify_k_integrals(curve, shifted, 0))
        for a, b in reps:
            assert abs(a.numeric - b.numeric) < 1e-10

    def test_b11_sensitivity_k2(self, curve, params):
        shifted = CorrelatorParams(params.z, params.theta_coeffs, params.b11 + 1.0,
                                   params.c, curve.n, curve.a0)
        move = abs(btilde(curve, params, 0) - btilde(curve, shifted, 0))
        assert move > 1e-3
        assert move == pytest.approx(0.5, rel=1e-9)

    def test_homogeneity_of_relative_residuals(self, curve, params):
        lam = 0.7 - 1.9j
        scaled = CorrelatorParams(lam * params.z,
                                  tuple(lam * t for t in params.theta_coeffs),
                                  lam * params.b11, params.c, curve.n, curve.a0)
        r1 = verify_k_integrals(curve, params, 1)
        r2 = verify_k_integrals(curve, scaled, 1)
        for a, b in zip(r1, r2):
            assert b.rel_err < 1e-8
            assert b.numeric == pytest.approx(lam * a.numeric, rel=1e-9)


class TestBtilde:
    def test_quadrature_vs_taylor_closed(self, curve, params):
        num = btilde(curve, params, 0)
        closed = btilde_taylor_closed(curve, params, 0)
        assert num == pytest.approx(closed, rel=1e-9)

    def test_node_doubling_stability(self, curve, params):
        spec = default_spec_for_root(curve, 0)
        big = ContourSpec(spec.center, spec.radius, 1024)
        assert abs(btilde(curve, params, 0, spec) - btilde(curve, params, 0, big)) < 1e-11

    def test_c0_trivial(self, curve):
        pz = CorrelatorParams.make(curve, 1.0, [0, 0, 0], 0.0, c=0.0)
        assert abs(btilde(curve, pz, 0)) < 1e-12

    def test_printed_display_flagged_mismatch(self, curve, params):
        # the quoted display does not match the quadrature for this model;
        # kept as a flagged discrepancy (the Taylor closed form does match)
        num = btilde(curve, params, 0)
        disp = btilde_printed_display(curve, params, 0)
        assert abs(num - disp) > 1e-3 * max(1.0, abs(num))


class TestWeylIntegrals:
    def test_rho0_zero_half(self):
        assert weyl_outer_oracle(0.0) == pytest.approx(0.5)
        out = weyl_integrals(0.0, 5.0, c=-22.0 / 5.0)
        assert out["outer_quadrature"] == pytest.approx(0.5, abs=1e-12)

    def test_quadrature_vs_oracle(self):
        out = weyl_integrals(4e-4, 5.0, c=-22.0 / 5.0)  # rho0 = 0.1
        assert abs(out["outer_quadrature"] - out["outer_oracle"]) < 1e-10

    def test_outer_approaches_minus_c_24(self):
        c = -22.0 / 5.0
        out = weyl_integrals(1e-6, 1.0, c)
        assert out["dI_outer_per_dlogeps"] == pytest.approx(-c / 24.0, rel=1e-5)

    def test_guard(self):
        with pytest.raises(ValueError):
            weyl_integrals(0.02, 1.0, c=-22.0 / 5.0)

    @pytest.mark.parametrize("eps, radius", [(-0.5, 1.0), (-2.0, 1.0), (math.nan, 1.0),
                                             (1e-3, math.inf)])
    def test_negative_or_nonfinite_rho0_sq_rejected(self, eps, radius):
        # at eps = -0.5 both returned values; at eps = -2 quad met the pole
        # of the integrands at t = -1
        with pytest.raises(ValueError, match="theta_radius"):
            weyl_integrals(eps, radius, c=-22.0 / 5.0)
        with pytest.raises(ValueError, match="theta_radius"):
            gauss_bonnet_outer(eps, radius)

    def test_gauss_bonnet_pattern(self):
        out = gauss_bonnet_outer(1e-5, 1.0)
        assert abs(out["numeric"] - out["closed_form"]) < 1e-10
        assert out["numeric"] == pytest.approx(out["g0_pattern"], rel=1e-4)
        assert out["g0_pattern"] == pytest.approx(4.0 * math.pi)
