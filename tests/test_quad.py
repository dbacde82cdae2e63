"""Gauss rules of the classical and rational weights, and the one inner product
of polynomials under each weight."""

import math
from fractions import Fraction as F

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad as adaptive_quad

from exopoly import quad
from exopoly.polycore import Poly
from exopoly.quad import QuadratureError, WeightSpec, golub_welsch, gram_matrix, integrate

from oracles import jacobi_moment, laguerre_moment, log_laguerre_moment

LEGENDRE = WeightSpec.jacobi(0, 0)


class TestGolubWelsch:
    def test_legendre_two_point(self):
        rule = golub_welsch(quad.recurrence_coefficients(LEGENDRE, 2))
        assert rule.nodes == pytest.approx([-1 / math.sqrt(3), 1 / math.sqrt(3)])
        assert rule.weights == pytest.approx([1.0, 1.0])
        assert rule.exact_degree == 3

    def test_laguerre_one_point_from_moments(self):
        k = F(1, 2)
        w = WeightSpec.laguerre(k)
        rule = golub_welsch(quad.recurrence_coefficients(w, 1))
        # node = first moment / mass, weight = mass
        assert rule.nodes == pytest.approx([1.5])
        assert rule.weights == pytest.approx([math.gamma(1.5)])

    def test_jacobi_one_point_from_moments(self):
        alpha, beta = 1.0, 2.0
        w = WeightSpec.jacobi(1, 2)
        rule = golub_welsch(quad.recurrence_coefficients(w, 1))
        mass = jacobi_moment(alpha, beta, 0)
        mean = jacobi_moment(alpha, beta, 1) / mass
        assert rule.nodes == pytest.approx([mean])
        assert rule.nodes == pytest.approx([(beta - alpha) / (alpha + beta + 2)])
        assert rule.weights == pytest.approx([mass])

    @pytest.mark.parametrize("n", [1, 2, 5, 16])
    def test_exactness_through_degree_2n_minus_1(self, n):
        w = WeightSpec.laguerre(F(3, 2))
        rule = golub_welsch(quad.recurrence_coefficients(w, n))
        for p in range(2 * n):
            scale = log_laguerre_moment(1.5, p)
            approx = rule.integrate(lambda x: np.exp(p * np.log(x) - scale))
            assert abs(approx - 1.0) < 1e-12, (n, p)
        wj = WeightSpec.jacobi(F(1, 2), F(3, 2))
        rule = golub_welsch(quad.recurrence_coefficients(wj, n))
        mass = jacobi_moment(F(1, 2), F(3, 2), 0)
        for p in range(2 * n):
            exact = jacobi_moment(F(1, 2), F(3, 2), p)
            # relative to the weight mass: odd-ish moments pass through zero
            assert abs(rule.integrate(lambda x: x**p) - exact) < 1e-12 * mass, (n, p)

    @pytest.mark.parametrize("make", [
        lambda: WeightSpec.laguerre(F(1)),
        lambda: WeightSpec.laguerre(F(7, 2)),
        lambda: WeightSpec.jacobi(F(2), F(5)),
        lambda: WeightSpec.jacobi(F(1, 2), F(3, 2)),
    ])
    def test_weights_positive_up_to_128(self, make):
        w = make()
        for n in (16, 64, 128):
            rule = golub_welsch(quad.recurrence_coefficients(w, n))
            assert np.all(rule.weights > 0)
            assert np.all(np.diff(rule.nodes) > 0)

    def test_rule_csv(self):
        rule = golub_welsch(quad.recurrence_coefficients(LEGENDRE, 2))
        text = rule.to_csv(header="rule=legendre,n=2")
        assert text.startswith("# rule=legendre,n=2\nnode,weight\n")
        assert len(text.strip().splitlines()) == 4


class TestIntegrate:
    def test_plain_exponential_mass(self):
        mass = integrate(np.ones(1), WeightSpec.laguerre(0))
        assert mass == pytest.approx(1.0)
        assert integrate(2.0, WeightSpec.laguerre(0)) == 2 * mass  # a scalar is a constant

    def test_x1_laguerre_against_adaptive_oracle(self):
        val = integrate(np.ones(1), WeightSpec.x1_laguerre(1))
        oracle, err = adaptive_quad(lambda x: x * np.exp(-x) / (x + 1) ** 2, 0, np.inf,
                                    epsabs=1e-14, epsrel=1e-14, limit=400)
        assert err < 1e-13
        assert abs(val - oracle) < 1e-12

    def test_rational_factor_cancellation(self):
        # (x+k+1)(x+k)^2 under the rational weight reduces to pure Gamma moments
        k = F(7, 2)
        kf = float(k)
        val = integrate(Poly((k + 1, 1)) * Poly((k, 1)) * Poly((k, 1)),
                        WeightSpec.x1_laguerre(k))
        exact = laguerre_moment(kf, 1) + (kf + 1) * laguerre_moment(kf, 0)
        assert abs(val - exact) < 1e-12 * exact

    def test_linearity(self):
        w = WeightSpec.x1_laguerre(2)
        f = np.array([1.0, 2.0, 1.0])  # (1+x)^2
        g = np.array([0.0, 0.0, 1.0])  # x^2
        lhs = integrate(f + g, w)
        fi, gi = integrate(f, w), integrate(g, w)
        assert abs(lhs - fi - gi) < 1e-12 * (abs(fi) + abs(gi))

    def test_exact_zero_integrand(self):
        assert integrate(np.zeros(3), WeightSpec.jacobi(1, 2)) == 0.0

    def test_callable_rejected(self):
        with pytest.raises(TypeError, match="polynomials only"):
            integrate(lambda x: np.ones_like(x), WeightSpec.x1_laguerre(1))

    def test_x1_jacobi_nodes_clear_the_pole(self):
        w = WeightSpec.x1_jacobi(F(1), F(2))
        b = float(w.pole)
        rule = quad.gauss_rule(w, 64)
        assert np.min(np.abs(rule.nodes - b)) > abs(b) - 1 > 0


class TestGramMatrix:
    def test_classical_laguerre_norms(self):
        k = F(3, 2)
        kf = float(k)
        polys = [  # classical members, exact coefficients
            __import__("exopoly").laguerre_classical(n, k) for n in range(4)
        ]
        g = gram_matrix(polys, WeightSpec.laguerre(k))
        for n in range(4):
            expected = math.gamma(kf + n + 1) / math.factorial(n)
            assert g[n, n] == pytest.approx(expected, rel=1e-13)
        off = np.abs(g - np.diag(np.diag(g)))
        assert np.max(off) < 1e-12 * np.max(np.diag(g))

    def test_single_polynomial_positive_norm(self):
        g = gram_matrix([np.array([1.0, 2.0])], WeightSpec.jacobi(1, 1))
        assert g.shape == (1, 1)
        assert g[0, 0] > 0

    @pytest.mark.parametrize("weight", [WeightSpec.x1_laguerre(F(7, 2)),
                                        WeightSpec.x1_jacobi(F(2), F(5))],
                             ids=["x1-laguerre", "x1-jacobi"])
    def test_matches_mpmath_moments(self, weight):
        polys = [Poly((1, 2)), Poly((F(-1, 3), 0, 1)), np.array([0.5, -1.0, 0.25, 1.0]),
                 np.array([2.0, 0.0, 0.0, 0.0, -1.0])]
        others = [Poly((3,)), np.array([1.0, 1.0])]
        moments = _mpmath_moments(weight, 9)

        def ref(p, q):
            # sum_ij p_i q_j m_(i+j), carried at 30 digits
            with mpmath.workdps(30):
                cp, cq = ([_mp(c) for c in f.coeffs] if isinstance(f, Poly)
                          else [mpmath.mpf(float(c)) for c in f] for f in (p, q))
                return float(mpmath.fsum(a * b * moments[i + j]
                                         for i, a in enumerate(cp)
                                         for j, b in enumerate(cq)))

        g = gram_matrix(polys, weight)
        h = gram_matrix(polys, weight, others=others)
        assert g.shape == (4, 4) and h.shape == (4, 2)
        norms = [ref(p, p) for p in polys]
        other_norms = [ref(q, q) for q in others]
        for i, p in enumerate(polys):
            for j, q in enumerate(polys):
                assert abs(g[i, j] - ref(p, q)) <= 1e-13 * math.sqrt(norms[i] * norms[j])
            for j, q in enumerate(others):
                assert abs(h[i, j] - ref(p, q)) <= 1e-13 * math.sqrt(norms[i] * other_norms[j])

    def test_callable_rejected(self):
        with pytest.raises(TypeError, match="polynomials only"):
            gram_matrix([lambda x: x], WeightSpec.x1_laguerre(1))

    def test_rule_size_is_exact_by_degree(self, monkeypatch):
        sizes = []
        rule_of = quad.gauss_rule
        monkeypatch.setattr(quad, "gauss_rule",
                            lambda w, n: sizes.append(n) or rule_of(w, n))
        w = WeightSpec.x1_jacobi(F(1), F(2))
        gram_matrix([np.ones(4), np.ones(6)], w)  # degrees 3 and 5
        gram_matrix([np.ones(4)], w, others=[np.ones(3)])  # degrees 3 and 2
        assert sizes == [6, 3]

    def test_symmetry_exact(self):
        k = F(1)
        polys = [np.array([1.0]), np.array([0.0, 1.0]), np.array([1.0, 0.0, 2.0])]
        g = gram_matrix(polys, WeightSpec.x1_laguerre(k))
        assert np.array_equal(g, g.T)


class TestWeightSpec:
    def test_x1_jacobi_pole_guard(self):
        with pytest.raises(ValueError):
            WeightSpec.x1_jacobi(F(1), F(1))  # alpha == beta
        # alpha=-1/2, beta=1/2 gives b = 0: pole inside the interval
        with pytest.raises(ValueError):
            WeightSpec.x1_jacobi(F(-1, 2), F(1, 2))

    def test_x1_laguerre_requires_positive_k(self):
        with pytest.raises(ValueError):
            WeightSpec.x1_laguerre(0)


def _mp(q: F):
    return mpmath.mpf(q.numerator) / q.denominator


def _mpmath_moments(weight: WeightSpec, count: int) -> list[float]:
    """int x^j W(x) dx for j < count by mpmath tanh-sinh at 30 digits."""
    with mpmath.workdps(30):
        if weight.kind == "x1-laguerre":
            k = _mp(weight.k)
            density = lambda x: x**k * mpmath.exp(-x) / (x + k) ** 2
            pieces = [0, 1, 10, 40, mpmath.inf]
        else:
            a, b, z = _mp(weight.alpha), _mp(weight.beta), _mp(weight.pole)
            density = lambda x: (1 - x) ** a * (1 + x) ** b / (x - z) ** 2
            pieces = [-1, 0, 1]
        return [float(mpmath.quad(lambda x: x**j * density(x), pieces))
                for j in range(count)]


RATIONAL_WEIGHTS = [WeightSpec.x1_laguerre(F(1, 2)), WeightSpec.x1_laguerre(F(1)),
                    WeightSpec.x1_laguerre(F(7, 2)), WeightSpec.x1_jacobi(F(1), F(2)),
                    WeightSpec.x1_jacobi(F(1, 2), F(3, 2)), WeightSpec.x1_jacobi(F(2), F(1))]


class TestRationalWeightRule:
    @pytest.mark.parametrize("weight", RATIONAL_WEIGHTS,
                             ids=["k=1/2", "k=1", "k=7/2", "ab=1,2", "ab=1/2,3/2", "ab=2,1"])
    def test_moments_against_mpmath(self, weight):
        nu = 10
        rule = quad.gauss_rule(weight, nu)
        assert rule.exact_degree == 2 * nu - 1
        exact = _mpmath_moments(weight, 2 * nu)
        for j, m in enumerate(exact):
            approx = float(np.sum(rule.weights * rule.nodes**j))
            # Laguerre moments are positive; on [-1, 1] |m_j| <= m_0 bounds them
            scale = abs(m) if weight.kind == "x1-laguerre" else exact[0]
            assert abs(approx - m) <= 1e-14 * scale, (j, approx, m)

    def test_pole_of_each_default_pair(self):
        assert [w.pole for w in RATIONAL_WEIGHTS] == [F(-1, 2), -1, F(-7, 2), 3, 2, -3]

    def test_shorter_recurrence_is_a_prefix(self):
        w = WeightSpec.x1_laguerre(F(1, 3))
        quad._WEIGHT_RECURRENCE_CACHE.pop(w, None)
        short = quad.weight_recurrence(w, 5)
        quad._WEIGHT_RECURRENCE_CACHE.pop(w, None)
        long = quad.weight_recurrence(w, 40)
        assert short.mu0 == long.mu0
        assert np.array_equal(short.a, long.a[:5]) and np.array_equal(short.b, long.b[:5])

    def test_equal_specs_share_one_cached_recurrence(self):
        w, same = WeightSpec.x1_laguerre("1/2"), WeightSpec.x1_laguerre(F(1, 2))
        quad._WEIGHT_RECURRENCE_CACHE.pop(w, None)
        quad.weight_recurrence(w, 6)
        cached = quad._WEIGHT_RECURRENCE_CACHE[w]
        assert quad._WEIGHT_RECURRENCE_CACHE[same] is cached
        assert np.array_equal(quad.weight_recurrence(same, 6).a, cached.a)

    def test_unsettled_continued_fraction_is_loud(self, monkeypatch):
        monkeypatch.setattr(quad, "_CF_MAX", 2**10)
        w = WeightSpec.x1_laguerre(F(1, 100))  # needs 2^15 steps to settle
        quad._WEIGHT_RECURRENCE_CACHE.pop(w, None)
        with pytest.raises(QuadratureError, match="did not settle"):
            quad.weight_recurrence(w, 4)

    def test_classical_kinds_use_the_classical_rule(self):
        w = WeightSpec.laguerre(F(3, 2))
        rule = quad.gauss_rule(w, 8)
        classical = golub_welsch(quad.recurrence_coefficients(w, 8))
        assert np.array_equal(rule.nodes, classical.nodes)
        assert np.array_equal(rule.weights, classical.weights)


rationals = st.builds(F, st.integers(1, 5000), st.just(100))


def _positive_rule_or_error(weight: WeightSpec, nu: int):
    try:
        rule = quad.gauss_rule(weight, nu)
    except QuadratureError:
        return
    lo, hi = (0.0, math.inf) if weight.kind.endswith("laguerre") else (-1.0, 1.0)
    assert np.all(rule.weights > 0) and np.all(np.isfinite(rule.weights))
    assert np.all(np.diff(rule.nodes) > 0)
    assert lo < rule.nodes[0] and rule.nodes[-1] < hi


class TestRationalWeightSweep:
    @given(rationals, st.integers(1, 24))
    @settings(max_examples=40, deadline=None)
    def test_laguerre(self, k, nu):
        _positive_rule_or_error(WeightSpec.x1_laguerre(k), nu)

    @given(st.builds(F, st.integers(-99, 5000), st.just(100)),
           st.builds(F, st.integers(-99, 5000), st.just(100)), st.integers(1, 24))
    @settings(max_examples=40, deadline=None)
    def test_jacobi(self, alpha, beta, nu):
        assume(alpha != beta and abs((beta + alpha) / (beta - alpha)) > 1)
        _positive_rule_or_error(WeightSpec.x1_jacobi(alpha, beta), nu)
