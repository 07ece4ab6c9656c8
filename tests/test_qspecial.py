"""Tests for the modular/elliptic special functions."""

import cmath
import math
from fractions import Fraction

import pytest

from rcftlab.qspecial import (
    CENTRAL_CHARGE,
    KAC_WEIGHTS,
    CharacterSeries,
    ModularPoint,
    b0_expansion_check,
    character_ode_residual,
    e_cubic_residual,
    eisenstein_numeric,
    eisenstein_series,
    eta_numeric,
    eta_series,
    jacobi_identity_residual,
    pochhammer,
    rogers_ramanujan,
    rr_numeric,
    rr_product_form,
    serre_derivative,
    serre_e_identity_residuals,
    theta_constants,
    theta_numeric,
    weierstrass_e_values,
)
from rcftlab.qspecial import _rr_sum_form, _sum_shells
from rcftlab.series import TruncatedSeries, coeff_distance

TAU_POINTS = [ModularPoint(1.5j), ModularPoint(0.3 + 1.2j)]


class TestPochhammer:
    def test_infinite_pentagonal(self):
        # oracle: direct expansion of prod (1 - q^k); exponents are the
        # generalized pentagonal numbers with signs (-1)^k
        p = pochhammer(15)
        expected = {0: 1, 1: -1, 2: -1, 5: 1, 7: 1, 12: -1}
        for e, v in expected.items():
            assert p.coeff(e) == pytest.approx(v, abs=1e-12)
        assert p.coeff(3) == 0 and p.coeff(4) == 0

    def test_constant_term(self):
        assert pochhammer(5).coeff(0) == 1


class TestEta:
    def test_leading_exponent(self):
        e = eta_series(8)
        assert e.lead_exponent == Fraction(1, 24)

    def test_q2_coefficient_from_product(self):
        # direct product expansion gives -1 at q^(1/24 + 2); the "+q^2"
        # seen in one source display is not reproduced (see module docs)
        e = eta_series(8)
        assert e.coeff(Fraction(1, 24) + 2) == pytest.approx(-1, abs=1e-12)

    def test_eta_24_leading(self):
        e24 = eta_series(3).pow_int(24)
        assert e24.lead_exponent == 1
        assert e24.coeff(1) == pytest.approx(1, abs=1e-12)


class TestTheta:
    def test_theta2_first_terms(self):
        th2, _, _ = theta_constants(12)
        base = Fraction(1, 8)
        for k, v in [(0, 2.0), (1, 2.0), (3, 2.0), (6, 2.0), (2, 0.0)]:
            assert th2.coeff(base + k) == pytest.approx(v, abs=1e-12)

    def test_theta4_first_terms(self):
        _, _, th4 = theta_constants(12)
        assert th4.coeff(0) == 1
        assert th4.coeff(Fraction(1, 2)) == -2
        assert th4.coeff(2) == 2

    def test_jacobi_identity_order_40(self):
        res = jacobi_identity_residual(40)
        assert res.max_abs_coeff() < 1e-9


class TestEisenstein:
    def test_e2_divisor_sums(self):
        e2 = eisenstein_series(2, 6)
        assert e2.coeff(0) == 1
        assert e2.coeff(1) == -24      # sigma_1(1) = 1
        assert e2.coeff(2) == -72      # sigma_1(2) = 3
        assert e2.coeff(3) == -96      # sigma_1(3) = 4

    def test_e4_constant(self):
        assert eisenstein_series(4, 4).coeff(0) == 1

    def test_unsupported_weight(self):
        with pytest.raises(ValueError):
            eisenstein_series(8, 4)


class TestSerreDerivative:
    def test_on_constant(self):
        one = TruncatedSeries.constant(1.0, 20)
        d = serre_derivative(one, 0)
        assert d.max_abs_coeff() == 0

    def test_weight0_constant_times_e2(self):
        one = TruncatedSeries.constant(1.0, 20)
        d = serre_derivative(one, 12)  # ell=12 makes the prefactor -1
        assert coeff_distance(d, -eisenstein_series(2, 20)) < 1e-12

    def test_eta_log_derivative(self):
        # q d/dq log eta = E2/24, checked through eta^(-2/5):
        # q d/dq log(eta^(-2/5)) = -E2/60
        order = 24
        em25 = eta_series(order).pow_rational(-2, 5)
        lead = em25.lead_exponent
        assert lead == Fraction(-1, 60)
        body = em25.shifted(-lead)   # integer-grid body, leading coefficient 1
        logd = body.log().qdq() + float(lead)
        target = eisenstein_series(2, order) * (-1.0 / 60.0)
        assert coeff_distance(logd.truncated(target.trunc), target) < 1e-11


class TestRogersRamanujan:
    def test_h0_coefficients(self):
        h0 = rogers_ramanujan("h0", 12)
        assert isinstance(h0, CharacterSeries)
        body = h0.series.shifted(Fraction(-11, 60))
        expected = [1, 0, 1, 1, 1, 1, 2]
        for k, v in enumerate(expected):
            assert body.coeff(k) == pytest.approx(v, abs=1e-12)

    def test_g0_coefficients(self):
        body = rogers_ramanujan("g0", 12).series.shifted(Fraction(1, 60))
        expected = [1, 1, 1, 1, 2, 2, 3]
        for k, v in enumerate(expected):
            assert body.coeff(k) == pytest.approx(v, abs=1e-12)

    @pytest.mark.parametrize("variant", ["h0", "g0"])
    def test_sum_equals_product_order_30(self, variant):
        shift = Fraction(11, 60) if variant == "h0" else Fraction(-1, 60)
        body = rogers_ramanujan(variant, 30).series.shifted(-shift)
        prod = rr_product_form(variant, 30)
        assert coeff_distance(body, prod) < 1e-9

    @pytest.mark.parametrize("variant", ["h0", "g0"])
    def test_character_ode(self, variant):
        res = character_ode_residual(variant, 30)
        assert res.max_abs_coeff() < 1e-9

    @pytest.mark.parametrize("variant", ["h0", "g0"])
    @pytest.mark.parametrize("order", [30, 200])
    def test_character_stored_on_integer_grid(self, variant, order):
        # q^h (1 + ...) keeps h as its lead and its body on the integer grid
        s = rogers_ramanujan(variant, order).series
        assert s.denom == 1 and len(s.coeffs) <= order

    @pytest.mark.parametrize("call", [
        lambda v: rogers_ramanujan(v, 10),
        lambda v: rr_product_form(v, 10),
        lambda v: _rr_sum_form(v, 10),
        lambda v: rr_numeric(v, ModularPoint(1.2j)),
        lambda v: CharacterSeries(v, TruncatedSeries.constant(1.0, 5)),
        lambda v: character_ode_residual(v, 10),
        lambda v: character_ode_residual(v, 10, TruncatedSeries.constant(1.0, 10)),
    ], ids=["rogers_ramanujan", "rr_product_form", "_rr_sum_form", "rr_numeric",
            "CharacterSeries", "character_ode_residual", "character_ode_residual_f"])
    def test_unknown_variant_rejected(self, call):
        # an unknown name must not fall through to the g0 character
        with pytest.raises(ValueError, match="variant"):
            call("x0")

    def test_character_ode_nonsolution(self):
        one = TruncatedSeries.constant(1.0, 30)
        res = character_ode_residual("h0", 30, f=one)
        # residual is -(11/3600) E4, leading coefficient 11/3600 > 1e-3
        assert abs(res.coeff(0)) > 1e-3


class TestModelData:
    """The (2,5) data against the Kac formulas at (p, p') = (2, 5)."""

    P, P_PRIME = 2, 5

    def kac_weight(self, r, s):
        p, pp = self.P, self.P_PRIME
        return Fraction((pp * r - p * s) ** 2 - (pp - p) ** 2, 4 * p * pp)

    def exponents(self):
        return {name: h - CENTRAL_CHARGE / 24 for name, h in KAC_WEIGHTS.items()}

    def test_central_charge(self):
        p, pp = self.P, self.P_PRIME
        assert CENTRAL_CHARGE == 1 - Fraction(6 * (pp - p) ** 2, p * pp)
        assert float(CENTRAL_CHARGE) == -22.0 / 5.0

    def test_kac_weights(self):
        assert KAC_WEIGHTS == {"h0": self.kac_weight(1, 1), "g0": self.kac_weight(1, 2)}

    def test_exponent_sum_and_product(self):
        # the second-order modular equation D^2 chi - a_h0 a_g0 E4 chi = 0 has
        # exponents summing to 1/6 (Mathur-Mukhi-Sen)
        a = self.exponents()
        assert a["h0"] + a["g0"] == Fraction(1, 6)
        assert a["h0"] * a["g0"] == Fraction(-11, 3600)

    @pytest.mark.parametrize("variant", ["h0", "g0"])
    def test_character_leads_with_derived_exponent(self, variant):
        series = rogers_ramanujan(variant, 12).series
        assert series.lead_exponent == self.exponents()[variant]
        assert series.coeff(series.lead_exponent) == 1


class TestShellSum:
    def test_stops_past_shell_one(self):
        calls = []

        def shell(n):
            calls.append(n)
            return 2.0 ** -n, 0.0
        assert _sum_shells(shell, 1e-16) == 1.75 and calls == [0, 1, 2]

    def test_raises_at_cap(self):
        calls = []

        def shell(n):
            calls.append(n)
            return 1.0, 1.0
        with pytest.raises(ValueError, match="shell 5"):
            _sum_shells(shell, 1e-16, 5)
        assert calls == list(range(6))
        with pytest.raises(ValueError, match="shell 600"):
            _sum_shells(lambda n: (1.0, 1.0), 1e-16)


class TestNumericEvaluation:
    def test_theta_series_vs_numeric(self):
        pt = ModularPoint(1.5j)
        th2, th3, th4 = theta_constants(30)
        q = pt.q
        for i, s in ((2, th2), (3, th3), (4, th4)):
            val = sum(v * q ** e for e, v in s.terms())
            assert theta_numeric(i, pt) == pytest.approx(val, rel=1e-12)

    def test_eta_numeric_vs_series(self):
        pt = ModularPoint(1.1j)
        s = eta_series(40)
        q = pt.q
        val = sum(v * q ** e for e, v in s.terms())
        assert eta_numeric(pt) == pytest.approx(val, rel=1e-12)

    def test_guard(self):
        with pytest.raises(ValueError):
            theta_numeric(3, ModularPoint(0.5j))

    @pytest.mark.parametrize("tau", [complex("nan+1j"), complex("inf+1j"),
                                     complex(0.3, math.inf), complex(0.3, math.nan),
                                     0.79j, 0.3 + 0.5j])
    def test_point_rejected_at_construction(self, tau):
        # ModularPoint holds the one float guard: a non-finite tau passed a
        # bare Im tau > 0 check, and eta_numeric then never returned
        with pytest.raises(ValueError, match="tau"):
            ModularPoint(tau)

    def test_rr_numeric_vs_series(self):
        pt = ModularPoint(1.3j)
        q = pt.q
        s = rogers_ramanujan("g0", 40).series
        val = sum(v * q ** e for e, v in s.terms())
        assert rr_numeric("g0", pt) == pytest.approx(val, rel=1e-10)

    @pytest.mark.parametrize("variant", ["h0", "g0"])
    def test_rr_numeric_translation_law(self, variant):
        # chi(tau + 1) = e^(2 pi i h) chi(tau); a principal-branch q^h is
        # 1-periodic in tau instead
        h = Fraction(11, 60) if variant == "h0" else Fraction(-1, 60)
        tau = 0.2 + 1.1j
        chi = rr_numeric(variant, ModularPoint(tau))
        moved = rr_numeric(variant, ModularPoint(tau + 1))
        assert abs(moved - cmath.exp(2j * cmath.pi * h) * chi) < 1e-13 * abs(chi)

    @pytest.mark.parametrize("variant", ["h0", "g0"])
    def test_rr_numeric_vs_series_off_axis(self, variant):
        # Re tau > 1/2, summed as e^(2 pi i tau e): q ** e would take the
        # principal branch of q^(11/60) and q^(-1/60)
        pt = ModularPoint(0.7 + 1.2j)
        s = rogers_ramanujan(variant, 40).series
        val = sum(v * cmath.exp(2j * cmath.pi * pt.tau * e) for e, v in s.terms())
        assert rr_numeric(variant, pt) == pytest.approx(val, rel=1e-10)


class TestHalfPeriods:
    @pytest.mark.parametrize("pt", TAU_POINTS)
    def test_sum_zero(self, pt):
        xi0, xi1, xi2 = weierstrass_e_values(pt)
        assert abs(xi0 + xi1 + xi2) < 1e-12

    @pytest.mark.parametrize("pt", TAU_POINTS)
    def test_quarter_fourth_powers(self, pt):
        xi0, xi1, xi2 = weierstrass_e_values(pt)
        t2 = theta_numeric(2, pt) ** 4
        t3 = theta_numeric(3, pt) ** 4
        t4 = theta_numeric(4, pt) ** 4
        assert abs((xi1 - xi0) - t2 / 4) < 1e-12
        assert abs((xi0 - xi2) - t4 / 4) < 1e-12
        assert abs((xi1 - xi2) - t3 / 4) < 1e-12

    @pytest.mark.parametrize("pt", TAU_POINTS)
    def test_cubic_resolved_normalization(self, pt):
        assert e_cubic_residual(pt) < 1e-8

    @pytest.mark.parametrize("pt", TAU_POINTS)
    def test_serre_e_identity(self, pt):
        res = serre_e_identity_residuals(pt)
        assert max(res.values()) < 1e-8


class TestB0Expansion:
    def test_first_three_coefficients(self):
        out = b0_expansion_check(4)
        assert out["computed"][0] == pytest.approx(16.0, rel=1e-9)
        assert out["computed"][1] == pytest.approx(-128.0, rel=1e-9)
        assert out["computed"][2] == pytest.approx(704.0, rel=1e-9)

    def test_fourth_coefficient_component(self):
        # computed by direct series division; differs from the quoted -1024
        out = b0_expansion_check(4)
        assert out["computed"][3] == pytest.approx(-3072.0, rel=1e-9)

    def test_residual_truncated_below_q32(self):
        # the quoted expansion agrees with the computed one through q
        out = b0_expansion_check(4)
        assert abs(out["residual_below_q2"].truncated(Fraction(3, 2)).max_abs_coeff()) < 1e-9
