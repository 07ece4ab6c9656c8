"""Tests for hyperelliptic-curve utilities and the n=5 correlator model."""

import cmath
import math

import numpy as np
import pytest

from rcftlab.contour import (
    ContourSpec,
    btilde,
    btilde_printed_display,
    btilde_taylor_closed,
    cauchy_coefficient,
    default_spec_for_root,
    k_integral_closed,
    theta_laurent,
    verify_k_integrals,
)
from rcftlab.curve import (
    CorrelatorParams,
    HyperCurve,
    TwoPointValue,
    admissible_graphs,
    assemble_two_point_graphs,
    b_poly,
    beta_prime_closed,
    beta_third_closed,
    beta_value,
    count_cycles,
    f_pair,
    graph_weight_terms,
    omega_s,
    psi_prime_closed,
    psi_value,
    two_point,
    two_point_regular,
)
from rcftlab.odesys import ExactState5, exact_corollary_residual, exact_matrix
from rcftlab.series import order_fit


def random_curve(rng, n=5, min_sep=0.35):
    while True:
        roots = rng.normal(0, 1.2, n) + 1j * rng.normal(0, 1.2, n)
        if all(abs(roots[i] - roots[j]) > min_sep
               for i in range(n) for j in range(i + 1, n)):
            a0 = complex(*rng.normal(size=2))
            if abs(a0) > 0.3:
                return HyperCurve(a0, roots)


@pytest.fixture
def curve():
    return random_curve(np.random.default_rng(5))


@pytest.fixture
def params(curve):
    return CorrelatorParams.random_for(curve, np.random.default_rng(17))


class TestHyperCurve:
    def test_p_vanishes_at_roots(self, curve):
        for r in curve.roots:
            assert abs(curve.p(r)) < 1e-10

    def test_p_prime_product_formula(self, curve):
        for s in range(curve.n):
            assert curve.p_prime_at_root(s) == pytest.approx(
                curve.dp(curve.roots[s], 1), rel=1e-10)

    def test_derivatives_vs_finite_difference(self, curve):
        # Richardson-extrapolated central differences; plain stencils sit at
        # the 1e-6 noise floor for k = 3, the extrapolation clears it
        import math

        def stencil(xs, k, h):
            return sum(
                (-1) ** m * math.comb(k, m) * curve.p(xs + (k / 2 - m) * h)
                for m in range(k + 1)) / h ** k

        for s in (0, 2):
            xs = curve.roots[s]
            h = 1e-3 * curve.nearest_other_root_distance(s)
            for k in (2, 3):
                d = (4 * stencil(xs, k, h / 2) - stencil(xs, k, h)) / 3
                assert abs(curve.dp(xs, k) - d) < 1e-6 * max(1.0, abs(d))

    def test_dp_at_root_sum_formula(self, curve):
        for s in range(curve.n):
            derivs = curve._root_jet(s)[2]
            for k in range(1, curve.n + 1):
                assert derivs[k] == pytest.approx(curve.dp(curve.roots[s], k), rel=1e-9)

    def test_negative_derivative_order_rejected(self, curve, params):
        # a negative order must not wrap to the top derivative or fall
        # through to the undifferentiated value
        x = 0.3 + 0.1j
        with pytest.raises(ValueError, match="negative"):
            curve.dp(x, -1)
        with pytest.raises(ValueError, match="negative"):
            params.theta(x, -1)
        with pytest.raises(ValueError, match="negative"):
            beta_value(curve, params, x, deriv=-2)

    def test_root_index_out_of_range(self):
        # a negative index must not wrap to the last root
        cv = HyperCurve(1, [0, 1, 2, 3, 4.5])
        pp = CorrelatorParams.random_for(cv, np.random.default_rng(5))
        assert cv.p_prime_at_root(4) == 4.5 * 3.5 * 2.5 * 1.5
        for s in (-1, 5):
            with pytest.raises(ValueError, match="out of range"):
                cv.p_prime_at_root(s)
            with pytest.raises(ValueError, match="out of range"):
                cv._root_jet(s)
            with pytest.raises(ValueError, match="out of range"):
                cv.nearest_other_root_distance(s)
            with pytest.raises(ValueError, match="out of range"):
                omega_s(cv, s)
            with pytest.raises(ValueError, match="out of range"):
                cv.root(s)
        # every root-local function of the upper layers reads X_s through
        # HyperCurve.root; at s = 4 each runs
        spec = default_spec_for_root(cv, 0)
        state = ExactState5(1, 0.5, 0.25, 0.125, 0.0625)
        root_local = {
            "theta_laurent": lambda s: theta_laurent(cv, pp, s, 0),
            "k_integral_closed": lambda s: k_integral_closed(cv, pp, s, 0),
            "verify_k_integrals": lambda s: [r.numeric for r in verify_k_integrals(cv, pp, s)],
            "btilde": lambda s: btilde(cv, pp, s),
            "btilde(spec)": lambda s: btilde(cv, pp, s, spec),
            "btilde_taylor_closed": lambda s: btilde_taylor_closed(cv, pp, s),
            "btilde_printed_display": lambda s: btilde_printed_display(cv, pp, s),
            "two_point_regular": lambda s: two_point_regular(cv, pp, 0.5 + 0.5j, s),
            "exact_matrix": lambda s: exact_matrix(cv, s),
            "exact_corollary_residual": lambda s: exact_corollary_residual(cv, s, state),
        }
        for name, call in root_local.items():
            assert np.all(np.isfinite(call(4))), name
            for s in (-1, 5):
                with pytest.raises(ValueError, match="out of range"):
                    call(s)

    def test_root_jet_is_the_plain_sum_and_product(self):
        # omega_s and p'(X_s) equal, to the bit, the sum of the reciprocal
        # spectator differences and their product with a0
        rng = np.random.default_rng(23)
        for _ in range(40):
            cv = random_curve(rng)
            for s in range(cv.n):
                d = [cv.roots[s] - r for t, r in enumerate(cv.roots) if t != s]
                assert omega_s(cv, s) == sum(1.0 / v for v in d)
                assert cv.p_prime_at_root(s) == math.prod(d, start=cv.a0)

    def test_x_s_read_once_per_walk(self, monkeypatch):
        # each root-local read walks the spectators once, through one read
        # of X_s: exact_matrix reads it once for p^(k), the gaps and omega_s
        cv = random_curve(np.random.default_rng(11))
        pp = CorrelatorParams.random_for(cv, np.random.default_rng(12))
        state = ExactState5(1, 0.5, 0.25, 0.125, 0.0625)
        reads = []
        root = HyperCurve.root
        monkeypatch.setattr(HyperCurve, "root",
                            lambda self, s: reads.append(s) or root(self, s))
        for name, call, most in (
                ("exact_matrix", lambda: exact_matrix(cv, 2), 1),
                ("exact_corollary_residual",
                 lambda: exact_corollary_residual(cv, 2, state), 3),
                ("verify_k_integrals", lambda: verify_k_integrals(cv, pp, 2), 10)):
            reads.clear()
            call()
            assert 1 <= len(reads) <= most, (name, len(reads))

    def test_degree_bound(self, curve):
        assert curve.dp(0.3 + 0.1j, curve.n + 1) == 0

    def test_rejects_near_collision(self):
        with pytest.raises(ValueError):
            HyperCurve(1.0, [0, 1e-9, 1.0, 2.0, 3.0])
        # the guard is relative to the root spread: a unit-spaced shape at
        # scale 1e-9 is a curve, a 1e-5 gap at scale 1e3 is a collision
        HyperCurve(1.0, [0, 1e-9, 2e-9, 3e-9, 5e-9])
        with pytest.raises(ValueError):
            HyperCurve(1.0, [0, 1e3, 1e3 + 1e-5, 2e3, 3e3])

    @pytest.mark.parametrize("a0, roots", [
        (1.0, [0, 1, 2, 3, float("nan")]),
        (float("nan"), [0, 1, 2, 3, 4]),
        (1.0, [0, 1, 2, 3, complex(0.0, math.inf)]),
        (math.inf, [0, 1, 2, 3, 4]),
    ], ids=["nan root", "nan a0", "inf root", "inf a0"])
    def test_rejects_non_finite_input(self, a0, roots):
        # a nan root or a0 passed the distinctness test (a nan comparison is
        # False) and gave nan root data; an infinite root was rejected as a
        # collision with the root spread inf
        with pytest.raises(ValueError, match="must be finite"):
            HyperCurve(a0, roots)

    def test_json_round_trip(self, curve):
        c2 = HyperCurve.from_json(curve.to_json())
        assert c2.a0 == curve.a0 and c2.roots == curve.roots


class TestFPair:
    def test_root_argument(self, curve):
        xs = curve.roots[1]
        x = xs + 0.7 + 0.2j
        val = f_pair(curve, x, xs)  # y2 = 0 there
        assert val == pytest.approx(curve.p(x) / (x - xs) ** 2, rel=1e-12)

    def test_symmetry(self, curve):
        a, b = 0.4 + 0.9j, -1.1 + 0.3j
        assert f_pair(curve, a, b) == pytest.approx(f_pair(curve, b, a), rel=1e-12)

    def test_quartic_identity(self, curve):
        rng = np.random.default_rng(2)
        for _ in range(5):
            x1, x2 = (complex(*rng.normal(size=2)) for _ in range(2))
            y1, y2 = curve.y(x1), curve.y(x2)
            lhs = (y1 + y2) ** 4
            rhs = 2 * (y1 + y2) ** 2 * (curve.p(x1) + curve.p(x2)) \
                - (curve.p(x1) - curve.p(x2)) ** 2
            assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


class TestSchwarzian:
    def test_polynomial_vs_fd(self, curve):
        # exact derivatives against Taylor coefficients p^(k)(x)/k! sampled
        # on the circle |z - x| = 0.5
        x = 0.9 - 0.4j
        exact = curve.schwarzian_p(x)
        a1, a2, a3 = cauchy_coefficient(curve.p, ContourSpec(x, 0.5), (1, 2, 3))
        fd = 6.0 * a3 / a1 - 1.5 * (2.0 * a2 / a1) ** 2
        assert abs(exact - fd) < 1e-6 * max(1.0, abs(exact))

    def test_bivariate_expansion_order(self, curve):
        # (p1-p2)^2/(p1'p2') (x1-x2)^{-2} - [1 - (x1-x2)^2 (S1+S2)/12] = O(d^4)
        x0 = 0.3 + 0.2j
        samples = []
        for d in (1e-1, 3e-2, 1e-2):
            x1, x2 = x0 + d / 2, x0 - d / 2
            lhs = (curve.p(x1) - curve.p(x2)) ** 2 \
                / (curve.dp(x1, 1) * curve.dp(x2, 1)) / d ** 2
            rhs = 1 - d ** 2 * (curve.schwarzian_p(x1) + curve.schwarzian_p(x2)) / 12
            samples.append((d, abs(lhs - rhs)))
        assert abs(order_fit(samples).slope - 4.0) < 0.3


class TestOmega:
    def test_three_root_arithmetic(self):
        c = HyperCurve(1.0, [0.0, 1.0, 2.0])
        assert omega_s(c, 0) == pytest.approx(-1.5)

    def test_total_antisymmetry(self, curve):
        assert abs(sum(omega_s(curve, s) for s in range(curve.n))) < 1e-12

    def test_collision_divergence(self):
        vals = []
        for d in (1e-2, 1e-3):
            c = HyperCurve(1.0, [0.0, d, 1.0, 2.0, 3.0])
            vals.append(omega_s(c, 0))
        assert abs(vals[1]) > 8 * abs(vals[0])  # ~ 1/d growth


class TestCorrelatorParams:
    def test_leading_coefficient_law(self, curve, params):
        n, c = curve.n, params.c
        lead = params.theta_coeffs[-1]
        assert lead == pytest.approx(-(c / 32) * (n * n - 1) * curve.a0 * params.z,
                                     rel=1e-12)

    def test_violating_leading_coefficient_rejected(self, curve):
        with pytest.raises(ValueError):
            CorrelatorParams(1.0, (0, 0, 0, 1.0), 0.0)

    def test_theta_degree_bound(self, curve, params):
        # coefficient of x^{n-1} and above vanishes: the model polynomial
        # has exactly n-1 coefficients
        assert len(params.theta_coeffs) == curve.n - 1
        with pytest.raises(ValueError, match="theta coefficients"):
            CorrelatorParams(params.z, params.theta_coeffs[1:], params.b11)
        assert params.theta(0.0, curve.n - 1) == 0


class TestPsi:
    def test_finite_at_roots(self, curve, params):
        for s in range(curve.n):
            v = psi_value(curve, params, curve.roots[s])
            assert np.isfinite(v.real) and np.isfinite(v.imag)

    def test_prime_closed_vs_fd(self, curve, params):
        h = 1e-5
        for s in (0, 3):
            xs = curve.roots[s]
            fd = (psi_value(curve, params, xs + h) - psi_value(curve, params, xs - h)) / (2 * h)
            closed = psi_prime_closed(curve, params, xs)
            assert abs(closed - fd) < 1e-7 * max(1.0, abs(closed))


class TestBeta:
    def test_prime_closed_vs_fd(self, curve, params):
        for x in (0.2 + 0.1j, -0.7 + 0.4j, curve.roots[2]):
            fd = beta_value(curve, params, x, deriv=1)
            assert abs(beta_prime_closed(curve, params, x) - fd) \
                < 1e-7 * max(1.0, abs(fd))

    def test_third_closed_vs_fd(self, curve, params):
        for x in (0.2 + 0.1j, curve.roots[0]):
            d3 = beta_value(curve, params, x, deriv=3)
            assert abs(beta_third_closed(curve, params, x) - d3) \
                < 1e-6 * max(1.0, abs(d3))

    def test_three_random_curves_numeric_derivatives(self):
        rng = np.random.default_rng(23)
        h = 1e-5
        for _ in range(3):
            cv = random_curve(rng)
            pp = CorrelatorParams.random_for(cv, rng)
            x = complex(*rng.normal(size=2))
            fd1 = (beta_value(cv, pp, x + h) - beta_value(cv, pp, x - h)) / (2 * h)
            assert abs(beta_prime_closed(cv, pp, x) - fd1) < 1e-6 * max(1.0, abs(fd1))

    def test_diagonal_is_beta(self, curve, params):
        x = 0.31 - 0.77j
        assert b_poly(curve, params, x, x) == pytest.approx(
            beta_value(curve, params, x), rel=1e-10)

    def test_b11_shift_is_separation_quadratic(self, curve, params):
        shifted = CorrelatorParams(params.z, params.theta_coeffs, params.b11 + 1.0,
                                   params.c, curve.n, curve.a0)
        x1, x2 = 0.4 + 0.2j, -0.3 + 0.8j
        d = b_poly(curve, params, x1, x2) - b_poly(curve, shifted, x1, x2)
        assert d == pytest.approx(0.5 * (x1 - x2) ** 2, rel=1e-10)


class TestTwoPoint:
    def test_symmetry(self, curve, params):
        x1, x2 = 0.8 + 0.1j, -0.5 - 0.4j
        a = two_point(curve, params, x1, x2)
        b = two_point(curve, params, x2, x1)
        assert a.even == pytest.approx(b.even, rel=1e-12)
        assert a.odd_coeff == pytest.approx(b.odd_coeff, rel=1e-12)

    def test_sheet_flip_invariance(self, curve, params):
        x1, x2 = 0.8 + 0.1j, -0.5 - 0.4j
        tp = two_point(curve, params, x1, x2)
        assert isinstance(tp, TwoPointValue)
        y1, y2 = curve.y(x1), curve.y(x2)
        assert tp.total(y1, y2) == pytest.approx(tp.total(-y1, -y2), rel=1e-12)

    def test_fourth_order_pole_coefficient(self):
        # (c/4) p1 p2 Z as x1 -> x2, extracted numerically
        rng = np.random.default_rng(31)
        for _ in range(3):
            cv = random_curve(rng)
            pp = CorrelatorParams.random_for(cv, rng)
            x0 = complex(*rng.normal(size=2))
            d = 1e-3
            vals = two_point(cv, pp, x0 + d / 2, x0 - d / 2).even * d ** 4
            expected = (pp.c / 4) * cv.p(x0) ** 2 * pp.z
            assert abs(vals - expected) < 1e-5 * max(1.0, abs(expected))

    def test_coincident_rejected(self, curve, params):
        with pytest.raises(ValueError):
            two_point(curve, params, 0.3, 0.3)

    def test_node_array_matches_scalar_calls(self, curve, params):
        x2 = curve.roots[1]
        xs = x2 + 0.2 * np.exp(2j * np.pi * np.arange(512) / 512)
        tp = two_point(curve, params, xs, x2)
        ref = [two_point(curve, params, complex(x), x2) for x in xs]
        even = np.array([r.even for r in ref])
        odd = np.array([r.odd_coeff for r in ref])
        assert np.abs(tp.even - even).max() < 1e-13 * np.abs(even).max()
        assert np.abs(tp.odd_coeff - odd).max() < 1e-13 * np.abs(odd).max()

    def test_coincident_node_in_array_rejected(self, curve, params):
        xs = np.array([0.1 + 0.2j, 0.3, -0.4j])
        with pytest.raises(ValueError, match="distinct"):
            two_point(curve, params, xs, 0.3)

    def test_c_zero_trivial(self, curve):
        pz = CorrelatorParams.make(curve, 1.0, [0, 0, 0], 0.0, c=0.0)
        tp = two_point(curve, pz, 0.6, -0.9)
        assert tp.even == 0 and tp.odd_coeff == 0


class TestGraphs:
    def test_counts_match_bruteforce_fixtures(self):
        # brute-force oracle: filter all edge subsets by degree conditions
        def brute(N):
            edges = [(i, j) for i in range(N) for j in range(N) if i != j]
            count = 0
            for mask in range(1 << len(edges)):
                chosen = [edges[k] for k in range(len(edges)) if mask >> k & 1]
                if all(sum(1 for e in chosen if e[0] == v) <= 1
                       and sum(1 for e in chosen if e[1] == v) <= 1
                       for v in range(N)):
                    count += 1
            return count

        fixtures = {1: 1, 2: 4, 3: 18}
        for N, expected in fixtures.items():
            assert len(admissible_graphs(N)) == expected
            assert brute(N) == expected

    def test_n1_single_graph(self):
        gs = admissible_graphs(1)
        assert gs == [()]

    def test_guard(self):
        with pytest.raises(ValueError):
            admissible_graphs(5)

    def test_cycle_counting(self):
        assert count_cycles(((0, 1), (1, 0)), 2) == 1
        assert count_cycles(((0, 1),), 2) == 0
        assert count_cycles(((0, 1), (1, 2), (2, 0)), 3) == 1
        assert count_cycles((), 3) == 0

    def test_two_point_assembly_structure(self, curve, params):
        x1, x2 = 0.8 + 0.3j, -0.2 - 0.6j
        out = assemble_two_point_graphs(curve, params, x1, x2)
        # the four graphs realize exactly the three-term formula
        assert out["total"] == pytest.approx(out["reference"], rel=1e-10)
        c = params.c
        f12 = f_pair(curve, x1, x2)
        by_graph = dict(out["pieces"])
        assert by_graph[((0, 1), (1, 0))] == pytest.approx(
            (c / 32) * f12 ** 2 * params.z, rel=1e-12)
        assert by_graph[((0, 1),)] == pytest.approx(
            0.25 * f12 * params.theta(x1), rel=1e-12)
        assert by_graph[((1, 0),)] == pytest.approx(
            0.25 * f12 * params.theta(x2), rel=1e-12)

    def test_weight_terms(self):
        w = graph_weight_terms(((0, 1),), 2)
        assert w["loops"] == 0 and w["residual_vertices"] == [0]
