"""Tests for the ODE systems, indicial analysis, and monodromy."""

import cmath
import itertools
import math
import signal
from fractions import Fraction

import numpy as np
import pytest
import sympy
from sympy.polys.matrices import DomainMatrix
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from rcftlab.curve import CorrelatorParams, HyperCurve, omega_s
from rcftlab.odesys import (
    CollisionBrackets,
    ExactState5,
    IndicialData,
    admissible_chains,
    collision_brackets,
    degeneration_limits,
    det3_residual,
    determinant_factor_roots,
    euler_monodromy,
    exact_corollary_residual,
    exact_matrix,
    exact_rhs,
    fibonacci_equation_count,
    frobenius_exponents,
    indicial_quadratic,
    integrate_path,
    leading_matrix_2,
    leading_matrix_5,
    monodromy_collision,
    third_value_check,
    twist_exponent,
)
from rcftlab.odesys import _rows5
from rcftlab.qspecial import ModularPoint, rr_numeric

from test_curve import random_curve

C25 = -22.0 / 5.0
SEVEN_TENTHS, ELEVEN_TENTHS = Fraction(7, 10), Fraction(11, 10)


@pytest.fixture
def curve():
    return random_curve(np.random.default_rng(61))


@pytest.fixture
def params(curve):
    return CorrelatorParams.random_for(curve, np.random.default_rng(67))


class TestExactSystem:
    def test_first_row_identity(self, curve):
        rng = np.random.default_rng(3)
        state = ExactState5(*(complex(*rng.normal(size=2)) for _ in range(5)))
        s = 1
        d = exact_rhs(curve, s, state)
        p1 = curve.p_prime_at_root(s)
        om = omega_s(curve, s)
        lhs = d.z * p1
        rhs = 2.0 * state.th + (C25 / 8.0) * om * p1 * state.z
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))

    def test_c0_trivial_state(self, curve):
        d = exact_rhs(curve, 0, ExactState5(1.0, 0, 0, 0, 0), c=0.0)
        assert all(abs(v) < 1e-15 for v in d.as_array())

    def test_corollary_consistency(self, curve):
        rng = np.random.default_rng(5)
        for s in range(curve.n):
            state = ExactState5(*(complex(*rng.normal(size=2)) for _ in range(5)))
            assert exact_corollary_residual(curve, s, state) < 1e-10

    def test_printed_c25_coefficients(self):
        # the theorem rows quote 1607/24000 and 143/2400 at c = -22/5;
        # the generic-c assembly must reproduce them
        assert (111.0 / 2000.0 - C25 / 384.0) == pytest.approx(1607.0 / 24000.0,
                                                               rel=1e-14)
        assert (11.0 / 400.0 - 7.0 * C25 / 960.0) == pytest.approx(143.0 / 2400.0,
                                                                   rel=1e-14)

    def test_root_motion_derivative_rule(self, curve):
        # d_{X_s} p^(k)(X_s) = (k/(k+1)) p^(k+1)(X_s) under root motion
        s, h = 1, 1e-6
        for k in (1, 2, 3, 4):
            def pk(shift):
                moved = list(curve.roots)
                moved[s] = moved[s] + shift
                cv = HyperCurve(curve.a0, moved)
                return cv.dp(cv.roots[s], k)
            fd = (pk(h) - pk(-h)) / (2 * h)
            expected = k / (k + 1.0) * curve.dp(curve.roots[s], k + 1)
            assert abs(fd - expected) < 1e-5 * max(1.0, abs(expected))

    def test_collision_guard(self, curve):
        cv = HyperCurve(1.0, [0.0, 1e-5, 1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            exact_rhs(cv, 0, ExactState5(1, 0, 0, 0, 0))
        # X -> lambda X neither makes nor removes a collision
        big = HyperCurve(1.0, [1e3 * r for r in cv.roots])
        with pytest.raises(ValueError):
            exact_rhs(big, 0, ExactState5(1, 0, 0, 0, 0))
        small = HyperCurve(curve.a0, [1e-6 * r for r in curve.roots])
        for s in range(small.n):
            d = exact_rhs(small, s, ExactState5(1, 0, 0, 0, 0))
            assert np.all(np.isfinite(d.as_array()))

    def test_root_index_out_of_range(self):
        # s = -1 must not wrap to the last root (and report a collision of
        # X_s with itself)
        cv = HyperCurve(1, [0, 1, 2, 3, 4.5])
        for s in (-1, 5):
            with pytest.raises(ValueError, match="out of range"):
                exact_rhs(cv, s, ExactState5(1, 0, 0, 0, 0))

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(offsets=st.lists(st.complex_numbers(max_magnitude=0.4), min_size=5,
                            max_size=5),
           s=st.integers(0, 4),
           log_scale=st.floats(-2.0, 2.0),
           phase=st.floats(0.0, 2 * math.pi),
           shift=st.complex_numbers(max_magnitude=3.0))
    def test_entry_weights(self, offsets, s, log_scale, phase, shift):
        # with a0 fixed, X -> lambda X scales entry (i, j) by
        # lambda^(w_i - w_j - 1), w = (0, 3, 2, 1, 4) for (<1>, <th>, <th'>,
        # <th''>, B~); a translation of all roots changes nothing.  Roots sit
        # within 0.4 of a regular pentagon of radius 1.5, so no two are
        # closer than 0.96.
        a0 = 1.3 - 0.4j
        roots = [1.5 * cmath.exp(2j * math.pi * k / 5) + d
                 for k, d in enumerate(offsets)]
        a = exact_matrix(HyperCurve(a0, roots), s)
        size = np.abs(a).max()
        lam = 10.0 ** log_scale * cmath.exp(1j * phase)
        w = np.array([0, 3, 2, 1, 4])
        scaled = exact_matrix(HyperCurve(a0, [lam * r for r in roots]), s)
        back = lam ** (1 + w[None, :] - w[:, None]) * scaled
        assert np.abs(back - a).max() <= 1e-12 * size
        moved = exact_matrix(HyperCurve(a0, [r + shift for r in roots]), s)
        assert np.abs(moved - a).max() <= 1e-12 * size

    def test_flagged_btilde_row_residue_spectrum(self):
        # Flagged discrepancy, pinned as transcribed: the residue of the
        # exact system at X_s -> X_t (eigenvalues of h A at X_s = X_t + h,
        # Richardson-extrapolated in h).  Fibonacci fusion in the pinched
        # channel predicts ubar + c/8 = {3/20 (three times), 11/20 (twice)}
        # from twist_exponent; the transcribed B~ row, with its
        # (7c/640) p''^2/p' coefficient, gives {3/20, 3/20, 11/20} and the
        # irrational pair 7/20 +- sqrt(17/40) instead.  A coefficient of
        # 7c/320 would sit 0.45 away at both ends.
        expected = sorted([0.35 - math.sqrt(17 / 40), 0.15, 0.15, 0.55,
                           0.35 + math.sqrt(17 / 40)])
        configs = [  # (a0, X_t, spectators, direction of h)
            (1.0, 0.0, (-1.0, 0.5, 2.0), 1.0),
            (0.7 - 0.2j, 0.3 + 0.2j, (-1.2 + 0.4j, 1.1 - 0.3j, 2.0 + 1.0j),
             cmath.exp(0.7j)),
            (2.0, 1.0, (-1.0, -0.5, 1.5), 1j),
            (1.0, 0.0, (1.0, 1j, -1 - 1j), cmath.exp(2.1j)),
        ]
        for a0, xt, spectators, direction in configs:
            def residue_spectrum(h):
                cv = HyperCurve(a0, [xt + h, xt, *spectators])
                return np.sort(np.linalg.eigvals(h * exact_matrix(cv, 0)).real)
            h = 5e-3 * direction
            extrapolated = 2 * residue_spectrum(h / 2) - residue_spectrum(h)
            assert extrapolated == pytest.approx(expected, abs=2e-2)


class TestIndicialQuadratic:
    def test_c25_roots(self):
        u1, u2 = indicial_quadratic(C25)
        assert u1 == pytest.approx(1.1, abs=1e-14)
        assert u2 == pytest.approx(0.7, abs=1e-14)

    def test_c0_roots(self):
        u1, u2 = indicial_quadratic(0.0)
        assert u1 == pytest.approx(1.8, abs=1e-14)
        assert u2 == pytest.approx(0.0, abs=1e-14)

    def test_sum_product(self):
        for c in (C25, -1.3, 0.4):
            u1, u2 = indicial_quadratic(c)
            assert u1 + u2 == pytest.approx(1.8, abs=1e-14)
            # Vieta on ubar^2 - (9/5) ubar - 7c/40 = 0
            assert u1 * u2 == pytest.approx(-7 * c / 40.0, abs=1e-14)

    def test_exponents_u(self):
        u = frobenius_exponents(C25)
        assert u[0] == pytest.approx(11.0 / 20.0, abs=1e-14)
        assert u[1] == pytest.approx(3.0 / 20.0, abs=1e-14)


class TestTwistExponent:
    def test_h0(self):
        assert twist_exponent(0.0, C25) == pytest.approx(1.1, abs=1e-14)

    def test_h_minus_fifth(self):
        assert twist_exponent(-0.2, C25) == pytest.approx(0.7, abs=1e-14)

    def test_cancellation(self):
        assert twist_exponent(C25 / 8.0, C25) == 0.0


def acceptance_brackets() -> CollisionBrackets:
    """Collision configuration with vanishing spectator e2 (so the p4
    bracket vanishes and the printed (20, 7, 0) eigenvector pattern
    extends to the 5x5).  At p4 = 0 the eigenvalue 7/10 has geometric
    multiplicity 3, not the generic 2; see the rcftlab.odesys module
    docstring for the row relation."""
    return collision_brackets([-1.0, -0.5, 1.5])


def generic_brackets() -> CollisionBrackets:
    """Collision configuration with a nonzero p4 bracket: e2 of the
    spectator reciprocals {1, -2, -1/2} is -3/2, so p4 = -36."""
    return collision_brackets([-1.0, 0.5, 2.0])


class TestCollisionBrackets:
    def test_no_spectator_rejected(self):
        # with m = 0, e[m - 1] wrapped to e[-1] and gave p3 = 48
        with pytest.raises(ValueError, match="spectator"):
            collision_brackets([])

    def test_spectator_at_xs_rejected(self):
        # spectators sit relative to X_s = 0; a zero difference divided by zero
        with pytest.raises(ValueError, match="none at X_s = 0"):
            collision_brackets([-1.0, 0j, 2.0])

    @pytest.mark.parametrize("s", [2.0 ** -500, 2.0 ** 500], ids=["tiny", "huge"])
    def test_scale_covariant_at_extreme_scales(self, s):
        # e_3 of the differences is 6 s^3, which a raw product underflows
        # to 0 at s = 2^-500 and overflows to inf at s = 2^500; the
        # brackets scale like 1/s and 1/s^2, exactly for a power of two
        unit = collision_brackets([1.0, -2.0, 3.0])
        assert (unit.p3, unit.p4) == (-40, -8)
        br = collision_brackets([s, -2.0 * s, 3.0 * s])
        assert br.p3 == unit.p3 / s
        assert br.p4 == unit.p4 / s / s

    def test_unrepresentable_spread_rejected(self):
        # the product of the differences underflows even after scaling
        with pytest.raises(ValueError, match="not finite"):
            collision_brackets([1.0, 1e-300, 3e-300])


class TestLeadingMatrix5:
    def test_bracket_configuration(self):
        br = acceptance_brackets()
        assert br.p4 == 0                  # e2 of {-1, -1/2, 3/2} reciprocals is 0
        assert br.p3 == pytest.approx(48.0 * (1.0 + 2.0 - 2.0 / 3.0))
        assert br.p33 == pytest.approx(br.p3 ** 2)

    def test_eigenvalues(self):
        data = leading_matrix_5(acceptance_brackets())
        assert isinstance(data, IndicialData)
        assert data.eigenvalues == (SEVEN_TENTHS, ELEVEN_TENTHS)
        assert data.algebraic_multiplicities == (3, 2)

    def test_seven_tenths_geometric_multiplicity_2(self):
        # generic brackets (p4 != 0); at p4 = 0 the multiplicity is 3
        br = generic_brackets()
        assert br.p4 == pytest.approx(-36.0)
        data = leading_matrix_5(br)
        lam, gm, vecs = data.eigenvalue_near(SEVEN_TENTHS)
        assert gm == 2
        m = data.matrix
        for v in vecs:
            assert np.linalg.norm(m @ v - complex(lam) * v) < 1e-10 * np.linalg.norm(v)

    def test_eigenvector_20_7_0(self):
        data = leading_matrix_5(acceptance_brackets())
        lam = complex(data.eigenvalue_near(SEVEN_TENTHS)[0])
        target = np.array([20.0, 7.0, 0.0, 0.0, 0.0], dtype=complex)
        m = data.matrix
        # complete (20,7,0,.,.) within the kernel: solve for the last two slots
        a = np.array([[m[3, 3] - lam, m[3, 4]], [m[4, 3], m[4, 4] - lam]])
        b = -np.array([m[3, :3] @ target[:3], m[4, :3] @ target[:3]])
        tail, *_ = np.linalg.lstsq(a, b, rcond=None)
        target[3], target[4] = tail
        assert np.linalg.norm(m @ target - lam * target) < 1e-10 * np.linalg.norm(target)

    def test_eleven_tenths_eigenvector_in_3x3_block(self):
        # the 3x3 block carries (1, 11/20, (11/60) [p'''/p']_{-1}); the
        # quoted display doubles the second entry (its normalization uses
        # ubar a = 2b), which is reported, not reproduced
        br = acceptance_brackets()
        data = leading_matrix_5(br)
        m3 = data.matrix[:3, :3]
        v = np.array([1.0, 11.0 / 20.0, 11.0 / 60.0 * br.p3], dtype=complex)
        assert np.linalg.norm(m3 @ v - 1.1 * v) < 1e-10 * np.linalg.norm(v)

    def test_no_logarithmic_solution_for_tested_configuration(self):
        # geometric multiplicity equals algebraic multiplicity for every
        # repeated eigenvalue of the tested configuration
        data = leading_matrix_5(acceptance_brackets())
        assert data.eigenvalues == (SEVEN_TENTHS, ELEVEN_TENTHS)
        assert data.geometric_multiplicities == data.algebraic_multiplicities == (3, 2)

    @pytest.mark.parametrize("spectators", [
        [-1.0, 0.5, 2.0], [-1e3, 0.5e3, 2e3], [-1e5, 0.5e5, 2e5],
        [-1.0, 0.5, 2.0 + 0.3j],
    ], ids=["scale1", "scale1e3", "scale1e5", "complex"])
    def test_jordan_data_at_nonzero_p4(self, spectators):
        # p4 != 0 in every case (-3.6e-9 at scale 1e5); the Jordan data is
        # exact, so neither the scale nor complex spectators change it
        br = collision_brackets(spectators)
        assert br.p4 != 0
        data = leading_matrix_5(br)
        assert data.eigenvalues == (SEVEN_TENTHS, ELEVEN_TENTHS)
        assert data.algebraic_multiplicities == (3, 2)
        assert data.geometric_multiplicities == (2, 1)
        m = data.matrix
        for lam, vecs in zip(data.eigenvalues, data.eigenvectors):
            for v in vecs:
                assert (np.linalg.norm(m @ v - complex(lam) * v)
                        < 1e-12 * np.abs(m).max() * np.linalg.norm(v))

    def test_printed_matrix_jordan_structure_symbolic(self):
        # the module docstring's hand derivation, identically in the p3 and
        # p4 brackets (p33 = p3^2) at c = -22/5
        p3, p4, lam = sympy.symbols("p3 p4 lam")
        m = sympy.Matrix(_rows5(p3, p4, sympy.Rational(-22, 5), sympy.Integer(1)))
        eye = sympy.eye(5)
        assert sympy.expand((m - lam * eye).det()
                            + (10 * lam - 11) ** 2 * (10 * lam - 7) ** 3 / 10 ** 5) == 0
        m7 = m - sympy.Rational(7, 10) * eye
        m11 = m - sympy.Rational(11, 10) * eye
        def rank(a):  # exact, over the rational functions of the brackets
            return DomainMatrix.from_Matrix(a).to_field().rank()
        assert rank(m7) == 3 and rank(m7.subs(p4, 0)) == 2
        assert rank(m11) == 4 and rank(m11.subs(p4, 0)) == 3
        # a polynomial in p4 is a multiple of p4 iff it vanishes at p4 = 0,
        # so every 4x4 minor of M - 11/10 is a multiple of p4
        at_p4_0 = m11.subs(p4, 0)
        for rows, cols in itertools.product(itertools.combinations(range(5), 4),
                                            repeat=2):
            assert sympy.expand(at_p4_0.extract(list(rows), list(cols)).det()) == 0

    def test_determinant_factor_flagged(self):
        out = determinant_factor_roots()
        assert out["computed"] == pytest.approx((0.7, 1.1), abs=1e-12)
        assert out["quoted"] == (0.7, 0.9)
        assert out["flagged"]

    def test_flagged_eleven_tenths_jordan_block(self):
        # Flagged discrepancy, pinned as printed: at p4 != 0 the double
        # eigenvalue 11/10 has one eigenvector, a 2x2 Jordan block, so the
        # printed matrix predicts a logarithmic solution in the 11/10
        # channel as well as in the 7/10 one; at p4 = 0 both are semisimple
        data = leading_matrix_5(generic_brackets())
        lam, gm, _ = data.eigenvalue_near(ELEVEN_TENTHS)
        assert data.algebraic_multiplicities[data.eigenvalues.index(lam)] == 2
        assert gm == 1
        assert leading_matrix_5(acceptance_brackets()).eigenvalue_near(ELEVEN_TENTHS)[1] == 2

    def test_third_value(self):
        assert third_value_check(C25) == pytest.approx(0.7)
        assert third_value_check(0.0) == pytest.approx(0.7)  # c-free entry

    def test_det3_factorization_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            ubar = complex(*rng.normal(size=2))
            p3 = complex(*rng.normal(size=2))
            assert abs(det3_residual(ubar, p3, C25)) < 1e-12


class TestIntegratePath:
    def test_zero_rhs_constant(self):
        out = integrate_path(lambda x, y: np.zeros_like(y), [1.0 + 2.0j, -3.0],
                             [0.0, 1.0, 1.0 + 1.0j])
        assert np.allclose(out["endpoint"], [1.0 + 2.0j, -3.0])

    def test_tolerance_halving(self):
        a = np.array([[0.1, 1.0], [0.0, -0.2]], dtype=complex)

        def rhs(x, y):
            return a @ y * np.exp(-x)

        y0 = [1.0, 1.0 - 0.5j]
        path = [0.0, 2.0 + 0.3j]
        e1 = integrate_path(rhs, y0, path, rtol=1e-8, atol=1e-10)["endpoint"]
        e2 = integrate_path(rhs, y0, path, rtol=5e-9, atol=5e-11)["endpoint"]
        assert np.abs(e1 - e2).max() < 10 * 1e-8

    def test_euler_model_monodromy(self):
        rng = np.random.default_rng(13)
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        a *= 0.4
        mon = euler_monodromy(a, radius=0.7)
        assert np.abs(mon - expm(2j * np.pi * a)).max() < 1e-8

    def test_euler_model_monodromy_5x5(self):
        rng = np.random.default_rng(19)
        a = 0.15 * (rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
        mon = euler_monodromy(a, radius=0.7)
        assert np.abs(mon - expm(2j * np.pi * a)).max() < 1e-8

    def test_euler_monodromy_radius_sweep(self):
        a = np.array([[0.25, 0.5], [0.1, -0.3]], dtype=complex)
        ref = expm(2j * np.pi * a)
        for r in (0.2, 0.5, 1.5):
            assert np.abs(euler_monodromy(a, radius=r) - ref).max() < 1e-8

    @staticmethod
    def _euler_rhs(a):
        n = a.shape[0]
        return lambda x, y: (a @ y.reshape(n, n) / x).ravel()

    @pytest.mark.parametrize("n, scale, radius, seed", [
        (2, 0.4, 0.2, 1), (2, 0.15, 1.5, 2), (5, 0.15, 0.7, 3), (5, 0.4, 1.2, 4)])
    def test_side_power_matches_full_polygon(self, n, scale, radius, seed):
        # oracle: the fundamental matrix carried around all 24 sides of the
        # polygon, one solve per side, at euler_monodromy's tolerances
        rng = np.random.default_rng(seed)
        a = scale * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        polygon = [radius * cmath.exp(2j * cmath.pi * k / 24) for k in range(25)]
        full = integrate_path(self._euler_rhs(a), np.eye(n, dtype=complex).ravel(),
                              polygon, 1e-12, 1e-14)["endpoint"].reshape(n, n)
        mon = euler_monodromy(a, radius)
        assert np.abs(mon - full).max() / max(1.0, np.abs(full).max()) < 1e-10

    def test_side_transports_equal(self):
        # X -> e^{2 pi i/24} X maps side k onto side k + 1 and leaves
        # (A/X) dX unchanged, so every side transports by the same matrix
        rng = np.random.default_rng(23)
        a = 0.3 * (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        y0 = np.eye(3, dtype=complex).ravel()

        def side(k):
            ends = [0.8 * cmath.exp(2j * cmath.pi * j / 24) for j in (k, k + 1)]
            return integrate_path(self._euler_rhs(a), y0, ends, 1e-12, 1e-14)["endpoint"]

        t0 = side(0)
        for k in (7, 13, 23):
            assert np.abs(side(k) - t0).max() < 1e-12

    @pytest.mark.parametrize("call", [
        lambda: integrate_path(lambda x, y: y / x, [1.0], [0, 1]),
        lambda: euler_monodromy(np.eye(2), 0),
        lambda: monodromy_collision(C25, 0),
    ], ids=["integrate_path", "euler_monodromy", "monodromy_collision"])
    def test_rhs_not_finite_at_segment_start(self, call):
        # a pole at a segment's start made the stepper's first step nan and
        # its step loop never end; the alarm turns such a hang into a failure
        def hang(signum, frame):
            raise TimeoutError("no return within 10 s")

        previous = signal.signal(signal.SIGALRM, hang)
        signal.alarm(10)
        try:
            with np.errstate(divide="ignore", invalid="ignore"), \
                    pytest.raises(ValueError, match="not finite"):
                call()
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)


class TestMonodromyCollision:
    def test_phases(self):
        out = monodromy_collision(C25)
        assert out["phases"][0] == pytest.approx(11.0 / 20.0, abs=1e-6)
        assert out["phases"][1] == pytest.approx(3.0 / 20.0, abs=1e-6)

    def test_unit_moduli(self):
        out = monodromy_collision(C25)
        for m in out["moduli"]:
            assert m == pytest.approx(1.0, abs=1e-8)

    def test_expm_oracle(self):
        out = monodromy_collision(C25)
        assert out["oracle_deviation"] < 1e-8

    def test_indicial_match(self):
        m = leading_matrix_2(C25)
        u = sorted(np.linalg.eigvals(m).real, reverse=True)
        assert u == pytest.approx([11.0 / 20.0, 3.0 / 20.0], abs=1e-12)


class TestFibonacci:
    def test_table_counts(self):
        assert [fibonacci_equation_count(n) for n in range(3, 8)] == [2, 3, 5, 8, 13]

    def test_n5_chain_listing(self):
        chains = set(admissible_chains(5))
        assert chains == {(), (0,), (1,), (2,), (0, 2)}

    def test_n7_triple_chain(self):
        assert (0, 2, 4) in admissible_chains(7)
        assert fibonacci_equation_count(7) == 13

    def test_recursion_to_20(self):
        f = {n: fibonacci_equation_count(n) for n in range(3, 21)}
        f[1] = f[2] = 1
        for n in range(3, 21):
            assert f[n] == f[n - 1] + f[n - 2]

    def test_flagged_against_verlinde_count(self):
        # pins both sequences and fixes neither: the genus-g (2,5) Verlinde
        # count D^(2g-2) (1 + d^(2-2g)) and the chain count F_(2g+1) agree
        # only up to genus 2
        d = (1 - math.sqrt(5)) / 2
        dd = 1 + d * d  # D^2
        verlinde = [dd ** (g - 1) * (1 + d ** (2 - 2 * g)) for g in range(1, 6)]
        assert verlinde == pytest.approx([2, 5, 15, 50, 175], rel=1e-12)
        chains = [fibonacci_equation_count(2 * g + 1) for g in range(1, 6)]
        assert chains == [2, 5, 13, 34, 89]


class TestDegenerationLimits:
    def test_products(self):
        t1, t2 = 1.5j, 1.2j
        out = degeneration_limits(t1, t2, eps=0.01)
        h1 = rr_numeric("h0", ModularPoint(t1))
        g2 = rr_numeric("g0", ModularPoint(t2))
        assert out["h0g0"] == pytest.approx(h1 * g2, rel=1e-12)
        assert out["eps_power"] == -0.2
        assert out["fifth_solution"] == pytest.approx(
            0.01 ** -0.2 * out["eta_product_m2_5"], rel=1e-12)

    @pytest.mark.parametrize("eps", [-0.1, 0.0, math.inf, math.nan])
    def test_eps_not_positive_finite_rejected(self, eps):
        # eps = -0.1 returned a complex fifth solution, eps = 0 divided by zero
        with pytest.raises(ValueError, match="eps"):
            degeneration_limits(1.5j, 1.2j, eps=eps)
