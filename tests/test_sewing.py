"""Tests for the genus-2 sewing construction."""

import ast
import inspect
import math

import mpmath as mp
import pytest

from rcftlab import sewing
from rcftlab.series import order_fit
from rcftlab.sewing import (
    EQUIANHARMONIC_TAU,
    RamificationSet,
    SewInput,
    almost_global_coords,
    coords_residual,
    lft_image_check,
    mode_agreement_orderfit,
    ramification_points,
    siegel_theta_direct,
    siegel_theta_expansion,
    theta_char_1d,
    theta_pair_chars,
    wp_coeffs,
    wp_eval,
    wp_lattice_oracle,
    x3_minus_x4_leading,
    x3_x5_relative_leading,
)

TAU = 1.5j
NU_GRID = (1e-2, 3e-3, 1e-3)
PAIRS = ((3, 3), (2, 3), (3, 2), (2, 4), (3, 4), (2, 2))


def test_sew_input_rejects_indefinite_im_omega():
    # Im Omega = [[1.5, 2], [2, 1.5]] has determinant -1.75
    with pytest.raises(ValueError, match="positive definite"):
        SewInput(1.5j, 1.5j, nu=2j)
    with pytest.raises(ValueError, match="positive definite"):
        SewInput(1.5j, 1.5j, nu=1.5j)  # determinant 0
    SewInput(1.5j, 1.5j, nu=0.3 + 1.4j)  # determinant 0.29 > 0


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("name", ["tau1", "tau2", "nu", "epsilon"])
def test_sew_input_rejects_non_finite(name, bad):
    # a NaN tau1 passed the Im checks, and the direct sum then walked all
    # 600 shells before it raised
    fields = {"tau1": 1.5j, "tau2": 1.5j, "nu": 0.01, "epsilon": 0.01}
    fields[name] = bad if name == "epsilon" else complex(bad, fields[name].imag)
    with pytest.raises(ValueError, match="finite"):
        SewInput(**fields)


def test_theta_kernel_read_only_through_theta_char_1d():
    # the layer keeps no theta table of its own: every theta and theta
    # derivative comes through the one accessor, and so through the memo
    tree = ast.parse(inspect.getsource(sewing))
    readers = [top.name for top in tree.body if isinstance(top, ast.FunctionDef)
               and any(isinstance(node, ast.Name) and node.id == "_theta_sum"
                       for node in ast.walk(top))]
    assert readers == ["theta_char_1d"]


class TestDirectSum:
    def test_nu_zero_factorizes_33(self):
        inp = SewInput(TAU, TAU, nu=0.0)
        a, b = theta_pair_chars((3, 3))
        v = siegel_theta_direct(inp, a, b)
        t3 = theta_char_1d(3, TAU)
        assert abs(v - t3 * t3) < 1e-13

    def test_nu_zero_factorizes_23(self):
        inp = SewInput(1.5j, 1.1j, nu=0.0)
        a, b = theta_pair_chars((2, 3))
        v = siegel_theta_direct(inp, a, b)
        t2 = theta_char_1d(2, 1.5j)
        t3 = theta_char_1d(3, 1.1j)
        assert abs(v - t2 * t3) < 1e-13

    def test_all_pairs_reduce_at_nu0(self):
        inp = SewInput(1.5j, 1.2j, nu=0.0)
        for (i, j) in PAIRS:
            a, b = theta_pair_chars((i, j))
            v = siegel_theta_direct(inp, a, b)
            prod = theta_char_1d(i, 1.5j) * theta_char_1d(j, 1.2j)
            assert abs(v - prod) < 1e-13 * max(1.0, abs(prod))

    @pytest.mark.parametrize("im_tau", [1.1, 2.0])
    @pytest.mark.parametrize("nu", [1e-2, 0.8, 0.3 + 0.2j])
    def test_against_fixed_box(self, im_tau, nu):
        # any positive-definite Im Omega is summed, a large real nu included;
        # the oracle is the box |n1|, |n2| <= 14 at 60 digits
        inp = SewInput(0.1 + im_tau * 1j, im_tau * 1j, nu=nu)
        for pair in PAIRS:
            a, b = theta_pair_chars(pair)
            with mp.workdps(60):
                t1, t2, w = (mp.mpmathify(x) for x in (inp.tau1, inp.tau2, nu))
                ref = mp.mpc(0)
                for n1 in range(-14, 15):
                    for n2 in range(-14, 15):
                        m1, m2 = n1 + a[0], n2 + a[1]
                        ph = t1 * m1 ** 2 / 2 + w * m1 * m2 + t2 * m2 ** 2 / 2
                        ref += mp.exp(2j * mp.pi * (ph + m1 * b[0] + m2 * b[1]))
                v = siegel_theta_direct(inp, a, b)
                assert abs(v - ref) < 1e-35 * abs(ref), pair

    def test_swap_symmetry(self):
        # swapping the tori transposes the characteristic entries
        i1 = SewInput(1.5j, 0.2 + 1.1j, nu=0.013)
        i2 = SewInput(0.2 + 1.1j, 1.5j, nu=0.013)
        v1 = siegel_theta_direct(i1, (0.5, 0.0), (0.0, 0.5))
        v2 = siegel_theta_direct(i2, (0.0, 0.5), (0.5, 0.0))
        assert abs(v1 - v2) < 1e-25


class TestExpansion:
    def test_direct_vs_expansion_point(self):
        inp = SewInput(TAU, TAU, nu=0.01)
        for pair in [(3, 3), (2, 2), (2, 4)]:
            a, b = theta_pair_chars(pair)
            d = siegel_theta_direct(inp, a, b)
            e = siegel_theta_expansion(inp, pair)
            assert abs(d - e) < 1e-12

    def test_nu2_coefficient_of_33(self):
        # (2 nu)^2/2! * (th3'/th3)(tau1)(th3'/th3)(tau2)
        with mp.workdps(40):
            nu = mp.mpf("1e-8")
            inp = SewInput(TAU, TAU, nu=float(nu))
            e = siegel_theta_expansion(inp, (3, 3))
            t3 = theta_char_1d(3, TAU)
            r1 = theta_char_1d(3, TAU, 1) / t3
            lead = t3 * t3
            measured = (e / lead - 1) / nu ** 2
            assert abs(measured - 2 * r1 * r1) < 1e-10

    def test_residual_slope_at_least_7(self):
        fit = mode_agreement_orderfit(TAU, TAU, NU_GRID)
        assert fit.slope >= 7.0

    def test_unsupported_pair(self):
        with pytest.raises(ValueError):
            siegel_theta_expansion(SewInput(TAU, TAU, nu=0.01), (4, 4))


class TestRamificationPoints:
    def test_degenerate_flagged(self):
        rs = ramification_points(SewInput(TAU, TAU, nu=0.0))
        assert rs.degenerate
        assert rs.x3 == rs.b0 and rs.x4 == rs.b0 and rs.x5 == rs.b0

    def test_mode_agreement_small(self):
        rs = ramification_points(SewInput(TAU, TAU, nu=1e-3))
        assert isinstance(rs, RamificationSet)
        assert rs.mode_agreement < 1e-10
        assert not rs.degenerate
        assert rs.x2 == rs.b0 and rs.x0 == 0 and rs.x1 == 1

    def test_x5_to_b0_limit_slope(self):
        samples = []
        for nu in NU_GRID:
            rs = ramification_points(SewInput(TAU, TAU, nu=nu))
            samples.append((nu, abs(rs.x5 - rs.b0) / abs(rs.b0)))
        fit = order_fit(samples)
        assert abs(fit.slope - 2.0) <= 0.2

    def test_xk_minus_b0_slopes(self):
        errs = {3: [], 4: [], 5: []}
        for nu in NU_GRID:
            rs = ramification_points(SewInput(TAU, TAU, nu=nu))
            errs[3].append((nu, abs(rs.x3 - rs.b0)))
            errs[4].append((nu, abs(rs.x4 - rs.b0)))
            errs[5].append((nu, abs(rs.x5 - rs.b0)))
        for k in (3, 4, 5):
            assert abs(order_fit(errs[k]).slope - 2.0) <= 0.2

    def test_quotient_claims_slope(self):
        t2b = complex(theta_char_1d(2, TAU)) ** 4
        t3b = complex(theta_char_1d(3, TAU)) ** 4
        q1, q2 = [], []
        for nu in NU_GRID:
            rs = ramification_points(SewInput(TAU, TAU, nu=nu))
            q1.append((nu, abs((rs.x5 - rs.x3) / (rs.x4 - rs.x3) / (t3b / t2b) - 1)))
            q2.append((nu, abs((rs.x4 - rs.x5) / (rs.x3 - rs.x5) / (1 - t2b / t3b) - 1)))
        assert abs(order_fit(q1).slope - 2.0) <= 0.2
        assert abs(order_fit(q2).slope - 2.0) <= 0.2

    def test_x3_minus_x4_leading_ratio(self):
        samples = []
        for nu in NU_GRID:
            inp = SewInput(TAU, TAU, nu=nu)
            rs = ramification_points(inp)
            pred = x3_minus_x4_leading(inp)
            samples.append((nu, abs((rs.x3 - rs.x4) / pred - 1)))
        assert samples[0][1] < 0.01  # ratio -> 1
        assert abs(order_fit(samples).slope - 2.0) <= 0.2

    def test_x3_x5_relative_corrected_vs_quoted(self):
        # the corrected theta4^4(Omega11) form converges at slope 2; the
        # quoted theta2^4 form stalls at a constant relative offset
        corr, quoted = [], []
        for nu in NU_GRID:
            inp = SewInput(TAU, TAU, nu=nu)
            rs = ramification_points(inp)
            val = (rs.x3 - rs.x5) / rs.x5
            corr.append((nu, abs(val / x3_x5_relative_leading(inp) - 1)))
            quoted.append((nu, abs(val / x3_x5_relative_leading(inp, corrected=False) - 1)))
        assert abs(order_fit(corr).slope - 2.0) <= 0.2
        assert abs(order_fit(quoted).slope) < 0.5  # flagged: no convergence


class TestWeierstrass:
    def test_laurent_vs_lattice_oracle_overlap_ring(self):
        c = wp_coeffs(TAU)
        for z in (1.0, 0.8 + 0.5j, 1.2j):
            a = wp_eval(z, TAU, c)
            b = wp_lattice_oracle(z, TAU, radius=40)
            assert abs(a - b) < 1e-10 * max(1.0, abs(a))

    def test_a1_matches_lattice_oracle(self):
        # extract the z^4 coefficient of z^2 wp from the oracle
        c = wp_coeffs(TAU)
        z = mp.mpf("0.3")
        approx = (wp_lattice_oracle(z, TAU, radius=40) * z ** 2 - 1) / z ** 4
        assert abs(approx - c[1]) < 1e-3 * max(1.0, abs(c[1]))

    def test_half_period_values(self):
        from rcftlab.qspecial import ModularPoint, weierstrass_e_values
        xi0, xi1, xi2 = weierstrass_e_values(ModularPoint(TAU))
        tau = TAU
        assert abs(wp_lattice_oracle(1j * mp.pi, tau) - xi2) < 1e-10
        assert abs(wp_lattice_oracle(1j * mp.pi * tau, tau) - xi1) < 1e-10
        assert abs(wp_lattice_oracle(1j * mp.pi * (1 + tau), tau) - xi0) < 1e-10

    def test_outside_disc_raises(self):
        with pytest.raises(ValueError):
            wp_eval(6.0, TAU)

    def test_disc_guard_independent_of_lattice_basis(self):
        # 3 + 0.25i and 0.25i name one lattice, whose shortest vector is
        # 2 pi 0.25i; a basis-dependent guard let z = 1.5 through at
        # 3 + 0.25i and returned 80.29 where the lattice sum gives 199.52
        for tau in (3 + 0.25j, 0.25j):
            with pytest.raises(ValueError, match="convergence disc"):
                wp_eval(1.5, tau)
        a, b = wp_eval(0.5, 3 + 0.25j), wp_eval(0.5, 0.25j)
        assert abs(a - b) < 1e-30
        assert float(a.real) == pytest.approx(4.315798376967321, rel=1e-14)
        # a real tau spans no lattice, even with Laurent data passed in
        with pytest.raises(ValueError, match="Im tau > 0"):
            wp_eval(0.5, 2.0, wp_coeffs(TAU))

    @pytest.mark.parametrize("z, tau", [
        (1.0, TAU),
        (0.7 - 0.9j, -0.21 + 1.17j),
        (0.98j * math.pi, 0.13 + 1.8j),  # near the half period pi i
    ])
    def test_oracle_vs_term_by_term_box(self, z, tau):
        # the remainder form against the plain truncated sum over the same
        # box, with S4, S6 from jtheta at 60 digits
        radius = 5
        with mp.workdps(60):
            zz, t = mp.mpmathify(z), mp.mpmathify(tau)
            q = mp.exp(1j * mp.pi * t)
            t2, t3, t4 = (mp.jtheta(i, 0, q) ** 4 for i in (2, 3, 4))
            s4 = (t2 ** 2 + t3 ** 2 + t4 ** 2) / 2 / 720
            s6 = -(t2 + t3) * (t3 + t4) * (t4 - t2) / 2 / 30240
            ref = 1 / zz ** 2
            for m in range(-radius, radius + 1):
                for n in range(-radius, radius + 1):
                    if (m, n) != (0, 0):
                        w = 2j * mp.pi * (m + n * t)
                        ref += 1 / (zz - w) ** 2 - 1 / w ** 2
                        s4 -= w ** -4
                        s6 -= w ** -6
            ref += 3 * zz ** 2 * s4 + 5 * zz ** 4 * s6
            value = wp_lattice_oracle(z, tau, radius=radius)
            assert abs(value - ref) < 1e-35 * abs(ref)

    def test_pair_remainder_identity(self):
        sympy = pytest.importorskip("sympy")
        z, w = sympy.symbols("z w")
        Z, W = z ** 2, w ** 2
        pair = 1 / (z - w) ** 2 + 1 / (z + w) ** 2 - 2 / W - 6 * Z / W ** 2 - 10 * Z ** 2 / W ** 3
        rem = 2 * Z ** 3 * (7 * W - 5 * Z) / (W ** 3 * (W - Z) ** 2)
        assert sympy.simplify(pair - rem) == 0

    def test_oracle_pole_raises(self):
        with pytest.raises(ValueError, match="pole"):
            wp_lattice_oracle(0, TAU)

    def test_laurent_pole_raises(self):
        # the same error as the oracle, not a ZeroDivisionError
        with pytest.raises(ValueError, match="pole"):
            wp_eval(0, TAU)


@pytest.mark.parametrize("leading", [
    x3_minus_x4_leading,
    x3_x5_relative_leading,
    lambda inp: x3_x5_relative_leading(inp, corrected=False),
])
def test_leading_values_need_nu(leading):
    with pytest.raises(ValueError, match="needs nu"):
        leading(SewInput(TAU, TAU))


class TestCoordinates:
    def test_eps_to_zero_limit(self):
        # X -> wp(z|tau1): corrections carry eps^4
        for eps in (0.05, 0.01):
            z = math.sqrt(eps) * complex(math.cos(0.4), math.sin(0.4))
            X, _ = almost_global_coords(SewInput(TAU, TAU, epsilon=eps), z)
            P = wp_eval(z, TAU)
            assert abs(X / P - 1) < 1e-4 * max(1.0, abs(P))

    def test_annulus_guard(self):
        with pytest.raises(ValueError):
            almost_global_coords(SewInput(TAU, TAU, epsilon=0.05), 1.0)

    def test_residual_slope_generic_tau_is_quartic(self):
        # at generic moduli the dropped eps^8-coefficient bracket terms
        # (weight-4 Laurent data) dominate on the annulus: slope 4
        samples = []
        for eps in (0.1, 0.05, 0.025):
            z = math.sqrt(eps) * complex(math.cos(0.37), math.sin(0.37))
            samples.append((eps, coords_residual(SewInput(TAU, TAU, epsilon=eps), z)))
        assert abs(order_fit(samples).slope - 4.0) < 0.2

    def test_residual_slope_at_least_6_equianharmonic(self):
        tau = EQUIANHARMONIC_TAU
        samples = []
        for eps in (0.1, 0.05, 0.025):
            z = math.sqrt(eps) * complex(math.cos(0.37), math.sin(0.37))
            samples.append((eps, coords_residual(SewInput(tau, tau, epsilon=eps), z)))
        fit = order_fit(samples)
        assert fit.slope >= 6.0


class TestLftImage:
    def test_defining_properties(self):
        out = lft_image_check(SewInput(TAU, 0.1 + 1.3j, epsilon=0.05))
        assert out["f_x0"] < 1e-20
        assert out["f_x1"] < 1e-20

    def test_deviation_slope_at_least_5(self):
        # every half period of the second torus, not only xi0 (k_hat = 0)
        for k_hat in (0, 1, 2):
            samples = []
            for eps in (0.1, 0.05, 0.025):
                out = lft_image_check(SewInput(TAU, 0.1 + 1.3j, epsilon=eps), k_hat)
                samples.append((eps, out["deviation"]))
            assert order_fit(samples).slope >= 5.0, k_hat

    def test_eps2_coefficient(self):
        # finite difference in eps^2 of the exact image reproduces
        # -(theta3^4/theta2^4)(theta4^4/4) Xh
        inp = lft_image_check(SewInput(TAU, 0.1 + 1.3j, epsilon=1e-3))
        t3 = complex(theta_char_1d(3, TAU)) ** 4
        t2 = complex(theta_char_1d(2, TAU)) ** 4
        b0 = t3 / t2
        measured = (complex(inp["exact"]) - b0) / (1e-3) ** 2
        assert abs(measured - inp["eps2_coeff_expected"]) < 5e-3 * abs(measured)

    @pytest.mark.parametrize("k_hat", (-1, 3))
    def test_k_hat_out_of_range(self, k_hat):
        # -1 must not wrap to xi2, nor 3 surface as an IndexError
        with pytest.raises(ValueError, match="k_hat"):
            lft_image_check(SewInput(TAU, 0.1 + 1.3j, epsilon=0.05), k_hat=k_hat)


_NU_INP = SewInput(TAU, 0.1 + 1.3j, nu=0.01)
_EPS_INP = SewInput(TAU, 0.1 + 1.3j, epsilon=0.05)
_Z = math.sqrt(0.05) * complex(math.cos(0.37), math.sin(0.37))


@pytest.mark.parametrize("call", [
    lambda: theta_char_1d(3, TAU),
    lambda: siegel_theta_direct(_NU_INP, (0.5, 0.0), (0.0, 0.5)),
    lambda: siegel_theta_expansion(_NU_INP, (2, 4)),
    lambda: ramification_points(_NU_INP),
    lambda: x3_minus_x4_leading(_NU_INP),
    lambda: x3_x5_relative_leading(_NU_INP),
    lambda: mode_agreement_orderfit(TAU, 0.1 + 1.3j, (1e-2, 5e-3, 2e-3)),
    lambda: wp_coeffs(TAU),
    lambda: wp_eval(0.8 + 0.5j, TAU),
    lambda: wp_lattice_oracle(0.8 + 0.5j, TAU),
    lambda: almost_global_coords(_EPS_INP, _Z),
    lambda: coords_residual(_EPS_INP, _Z),
    lambda: lft_image_check(_EPS_INP),
], ids=["theta_char_1d", "siegel_theta_direct", "siegel_theta_expansion",
        "ramification_points", "x3_minus_x4_leading", "x3_x5_relative_leading",
        "mode_agreement_orderfit", "wp_coeffs", "wp_eval", "wp_lattice_oracle",
        "almost_global_coords", "coords_residual", "lft_image_check"])
def test_result_independent_of_caller_precision(call):
    # the layer works at sewing.DPS whatever the caller's mp.dps
    with mp.workdps(15):
        low = call()
    with mp.workdps(80):
        high = call()
    assert low == high
