"""Exceptional family construction: three routes, exact equations, weights."""

import hashlib
import json
import math
from fractions import Fraction as F
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import sympy

from exopoly.polycore import DiffOp, JacobiConstants, Poly
from exopoly.quad import QuadratureError, WeightSpec, gram_matrix
from exopoly.verify import VerificationConfig, run_verification
from exopoly.xop import (
    XFamilySpec,
    best_approximation_errors,
    coefficient_rel_diff,
    emit_family_csv,
    family_by_route,
    gram_schmidt_family,
    operator_family,
    x1_jacobi_ode_residual,
    x1_jacobi_op_route,
    x1_laguerre_ode_residual,
    x1_laguerre_op_route,
    xj_index_scan,
    xj_laguerre_ode_residual,
    xj_polynomial_solve,
    xj_quotient_certificate,
    xj_quotient_residual,
    xj_quotient_solve,
    _DarbouxSeed,
    _darboux_seed,
    _darboux_table,
    _jacobi_table,
    _laguerre_table,
    _pencil,
    _PENCILS,
    _quotient_charpoly,
    _quotient_rows,
)

from oracles import (coefficient, derivative, frac_nullspace, gram_schmidt_by_qr,
                     poly_from_floats)

K_SAMPLES = (F(1), F(2), F(7, 2))
AB_SAMPLES = ((F(1), F(2)), (F(2), F(5)), (F(1, 2), F(3, 2)))


class TestLaguerreOperatorRoute:
    def test_lowest_member_from_constant(self):
        k = F(7, 2)
        assert x1_laguerre_op_route(0, k) == Poly((-(k + 1), -1))

    def test_lowest_member_proportional_to_seed(self):
        # v_1 = x + k + 1
        k = F(2)
        out = x1_laguerre_op_route(0, k)
        assert out.monic() == Poly((k + 1, 1))

    def test_second_member(self):
        k = F(3)
        assert x1_laguerre_op_route(1, k) == Poly((-k * (k + 2), 0, 1))

    @pytest.mark.parametrize("k", K_SAMPLES)
    def test_eigenrelation_exact_to_n10(self, k):
        family = operator_family(XFamilySpec(family="laguerre", k=k), 10)
        for n, f in enumerate(family, 1):
            assert f.degree == n
            assert x1_laguerre_ode_residual(f, k, n).is_zero, n


class TestLaguerreOdeResidual:
    def test_seed_is_the_first_eigenpolynomial(self):
        k = F(5, 4)
        assert x1_laguerre_ode_residual(Poly((k + 1, 1)), k, 1).is_zero

    def test_constants_are_never_eigenpolynomials(self):
        k = F(3, 2)
        for n in range(1, 6):
            res = x1_laguerre_ode_residual(Poly.one(), k, n)
            assert res == Poly((k * (2 - n), -n))

    def test_wrong_eigenvalue_index_is_nonzero(self):
        k = F(1)
        f = x1_laguerre_op_route(2, k)
        assert not x1_laguerre_ode_residual(f, k, 2).is_zero


class TestJacobiOperatorRoute:
    def test_example_alpha1_beta3(self):
        out = x1_jacobi_op_route(0, 1, 3)
        assert out == Poly((18, -6))
        # proportional to u_1 = x - c with c = 3
        assert out.monic() == Poly((-3, 1))

    @pytest.mark.parametrize("ab", AB_SAMPLES)
    def test_eigenrelation_exact_to_n10(self, ab):
        alpha, beta = ab
        family = operator_family(XFamilySpec(family="jacobi", alpha=alpha, beta=beta), 10)
        for n, f in enumerate(family, 1):
            assert f.degree == n
            assert x1_jacobi_ode_residual(f, alpha, beta, n).is_zero, n

    def test_equal_parameters_rejected(self):
        with pytest.raises(ValueError):
            x1_jacobi_op_route(1, 2, 2)
        with pytest.raises(ValueError):
            x1_jacobi_ode_residual(Poly.one(), 2, 2, 1)

    def test_seed_solves_index_one(self):
        alpha, beta = F(1), F(3)
        assert x1_jacobi_ode_residual(Poly((-3, 1)), alpha, beta, 1).is_zero

    def test_constant_never_solves(self):
        assert not x1_jacobi_ode_residual(Poly.one(), 1, 3, 2).is_zero


class TestXjEquation:
    @given(
        st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=6),
                 min_size=1, max_size=5),
        st.fractions(min_value=F(1, 4), max_value=5, max_denominator=4),
        st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=40, deadline=None)
    def test_j1_reduces_to_x1(self, coeffs, k, n):
        f = Poly(coeffs)
        assert xj_laguerre_ode_residual(f, k, 1, n) == x1_laguerre_ode_residual(f, k, n)

    def test_seed_case_through_xj(self):
        k = F(2)
        assert xj_laguerre_ode_residual(Poly((k + 1, 1)), k, 1, 1).is_zero

    def test_nullspace_j1_matches_operator_route(self):
        k = F(7, 2)
        family = operator_family(XFamilySpec(family="laguerre", k=k), 8)
        for n, member in enumerate(family, 1):
            sols = xj_polynomial_solve(k, 1, n, n)
            assert len(sols) == 1
            assert sols[0] == member.monic()

    def test_no_degree_zero_member(self):
        assert xj_polynomial_solve(F(1), 1, 0, 1) == []

    def test_printed_j2_equation_has_empty_nullspaces(self):
        # the codimension-2 equation as printed admits no polynomial solutions
        # at generic k; the index scan is the reported evidence
        assert xj_index_scan(F(1), 2, range(2, 7), 6) == {}
        assert xj_index_scan(F(2), 2, range(2, 7), 6) == {}

    def test_quotient_solve_j1_contains_the_family_branch(self):
        # beside per-state branches, A = 1 is present at every n and carries
        # exactly the exceptional family member
        k = 2.0
        family = operator_family(XFamilySpec(family="laguerre", k=F(2)), 4)
        for n in (1, 2, 4):
            sols = [s for s in xj_quotient_solve(k, 1, n)
                    if abs(s["A"] - 1.0) < 1e-8]
            assert len(sols) == 1
            assert sols[0]["B"] == pytest.approx(-2 * k)
            expect = np.array(family[n - 1].monic().to_floats())
            assert sols[0]["f"] == pytest.approx(expect, abs=1e-9)

    def test_quotient_solve_j2_instances_verify(self):
        for k in (1.0, 3.5):
            sols = xj_quotient_solve(k, 2, 3)
            assert sols, "expected nontrivial codimension-2 instances"
            for s in sols:
                res = xj_quotient_residual(poly_from_floats(s["f"]), k, 2, F(s["A"]))
                assert max(map(abs, res.to_floats()), default=0.0) < 1e-9
                assert s["B"] == pytest.approx(-6 * k)
                assert s["c"] == pytest.approx(1.0)

    def test_quotient_solve_j2_coefficient_is_state_dependent(self):
        a2 = sorted(s["A"] for s in xj_quotient_solve(1.0, 2, 2))
        a3 = sorted(s["A"] for s in xj_quotient_solve(1.0, 2, 3))
        assert not np.isclose(a2, 2.0).any()  # the printed value j=2 never occurs
        assert min(abs(x - y) for x in a2 for y in a3) > 0.2

    def test_quotient_solve_j2_coefficients_at_k1(self):
        # the A values are the roots of A(A^2+A-14) at n = 2 and of
        # (A-3)(A^3+A^2-30A-24) at n = 3 (sympy, from the exact matrix)
        for n, char in ((2, [1, 1, -14, 0]), (3, np.polymul([1, -3], [1, 1, -30, -24]))):
            found = sorted(s["A"] for s in xj_quotient_solve(F(1), 2, n))
            assert found == pytest.approx(sorted(np.roots(char).real), abs=1e-9)


small_rationals = st.fractions(min_value=-5, max_value=5, max_denominator=4)
positive_k = st.fractions(min_value=F(1, 4), max_value=5, max_denominator=4)


class TestQuotientEigenproblem:
    """The exact characteristic polynomial chi_n of xj_quotient_solve."""

    @pytest.mark.parametrize("k", [F(1), F(2), F(7, 2), F(1, 3)])
    def test_a_equal_one_is_a_root_of_every_j1_chi(self, k):
        # (A - 1) divides chi_n, and the eigenvector phi_0(1) + ... +
        # phi_n(1) t^n is the exceptional member of index n, shifted to t = x + k
        family = operator_family(XFamilySpec(family="laguerre", k=k), 6)
        for n, member in enumerate(family, 1):
            rows, den = _quotient_rows(k, 1, n)
            chi, phi = _quotient_charpoly(rows, den)
            assert chi.degree == n + 1
            assert divmod(chi, Poly((-1, 1)))[1].is_zero
            assert len(phi) == n + 1 and phi[n] == Poly.one()
            vector = Poly([p(1) for p in phi]).shift(k)
            assert vector.monic() == member.monic()

    @given(positive_k, st.integers(min_value=1, max_value=3), st.data())
    @settings(max_examples=25, deadline=None)  # sympy is the slow side
    def test_a_values_are_sympys_kept_roots(self, k, j, data):
        # n up to 2j + 3 reaches the zero super-diagonal entry at t^(2j+1),
        # where chi_n and phi_0 can share roots
        n = data.draw(st.integers(min_value=j, max_value=2 * j + 3), label="n")
        t, a = sympy.symbols("t A")
        kq = sympy.Rational(k.numerator, k.denominator)
        x, b = t - kq, -j * (j + 1) * kq
        # rows t^1..t^(n+1) of the cleared identity on F = t^d, at A = 0
        cols = []
        for d in range(n + 1):
            g = t ** (d - j)
            expr = sympy.cancel(t ** (j + 2) * (x * g.diff(t, 2) + (kq + 1 - x) * g.diff(t)
                                                + (n - j - b / t**2) * g))
            cols.append([sympy.Poly(expr, t).coeff_monomial(t**r) for r in range(1, n + 2)])
        m = sympy.Matrix(n + 1, n + 1, lambda r, d: cols[d][r])
        chi = m.charpoly(a)  # the A term is -A t F: rows read (m - A) phi = 0
        # the null vector's t^0 coordinate is the (0, 0) cofactor
        phi_0 = m[1:, 1:].charpoly(a)
        kept = sympy.Poly(sympy.sqf_part(chi.as_expr()), a)
        while (common := sympy.gcd(kept, phi_0.as_expr())).degree(a) > 0:
            kept = sympy.Poly(sympy.quo(kept.as_expr(), common.as_expr()), a)
        expect = [float(r.evalf(30)) for r in kept.real_roots()]
        found = [s["A"] for s in xj_quotient_solve(k, j, n)]
        assert len(found) == len(expect)
        for got, root in zip(found, expect):
            assert abs(got - root) <= 2 * math.ulp(root)

    @given(st.fractions(min_value=F(1, 1000), max_value=1000, max_denominator=1000),
           st.integers(min_value=1, max_value=3), st.data())
    @settings(max_examples=60, deadline=None)
    def test_certificate_reads_zero(self, k, j, data):
        # chi_n divides every coefficient of the identity on F with A free,
        # through the gcd branch n > 2j as well
        n = data.draw(st.integers(min_value=j, max_value=2 * j + 3), label="n")
        assert xj_quotient_certificate(k, j, n) == 0


class TestQuotientIdentityAgainstSympy:
    """The cleared quotient identity, the one exact evaluator behind the
    theorem suite's X1 rows and negative control, against sympy's expansion."""

    @given(st.lists(small_rationals, min_size=1, max_size=6), positive_k,
           st.integers(min_value=1, max_value=3), small_rationals)
    @settings(max_examples=40, deadline=None)  # sympy is the slow side
    def test_cleared_coefficients(self, f, k, j, A):
        x = sympy.Symbol("x")
        f = Poly(f)
        kq, aq = (sympy.Rational(v.numerator, v.denominator) for v in (k, A))
        bq, cq = -j * (j + 1) * kq, f.degree - j
        g = sum(sympy.Rational(v.numerator, v.denominator) * x**i
                for i, v in enumerate(f.coeffs)) / (x + kq) ** j
        clear = (x + kq) ** (j + 2)
        # the bracket's three terms, each cleared to a polynomial on its own
        exact = sum(sympy.cancel(clear * t)
                    for t in (x * g.diff(x, 2), (kq + 1 - x) * g.diff(x),
                              (cq - aq / (x + kq) - bq / (x + kq) ** 2) * g))
        coeffs = sympy.Poly(exact, x).all_coeffs()[::-1]
        assert xj_quotient_residual(f, k, j, A) == Poly(F(int(v.p), int(v.q)) for v in coeffs)

    @given(st.lists(small_rationals, min_size=1, max_size=6), positive_k)
    @settings(max_examples=40, deadline=None)
    def test_j1_quotient_is_the_x1_equation(self, f, k):
        # at A = 1 the cleared j=1 quotient identity of a degree-n f is
        # -(x+k) times the cleared X1 residual at index n, for every f
        f = Poly(f)
        expect = -Poly((k, 1)) * x1_laguerre_ode_residual(f, k, f.degree)
        assert xj_quotient_residual(f, k, 1, 1) == expect


class TestGramSchmidtRoute:
    def test_laguerre_first_member(self):
        w = WeightSpec.x1_laguerre(F(1))
        fam = gram_schmidt_family(w, 1)
        assert fam[0][-1] > 0
        assert fam[0] / fam[0][-1] == pytest.approx([2.0, 1.0], abs=1e-13)

    def test_jacobi_first_member(self):
        w = WeightSpec.x1_jacobi(F(1), F(3))
        fam = gram_schmidt_family(w, 1)
        assert fam[0] / fam[0][-1] == pytest.approx([-3.0, 1.0], abs=1e-13)

    @pytest.mark.parametrize("weight", [WeightSpec.x1_laguerre(F(2)),
                                        WeightSpec.x1_jacobi(F(1, 2), F(3, 2)),
                                        WeightSpec.x1_jacobi(F(2), F(1))],
                             ids=["x1-laguerre", "x1-jacobi", "x1-jacobi-negative-pole"])
    def test_members_lie_in_the_seed_span(self, weight):
        # the seeds span the kernel of l(p) = p(z) - d p'(z): Laguerre z = -k,
        # d = 1; Jacobi z = b, d = b - c
        if weight.kind == "x1-laguerre":
            z, d = -float(weight.k), 1.0
        else:
            jc = JacobiConstants.from_parameters(weight.alpha, weight.beta)
            z, d = float(jc.b), float(jc.b - jc.c)
        pp = np.polynomial.polynomial
        for member in gram_schmidt_family(weight, 12):
            ell = pp.polyval(z, member) - d * pp.polyval(z, pp.polyder(member))
            scale = pp.polyval(abs(z), np.abs(member)) + abs(d) * pp.polyval(
                abs(z), np.abs(pp.polyder(member)))
            assert abs(ell) <= 1e-13 * scale

    @pytest.mark.parametrize("params, slope", [
        *(({"k": k}, F(1)) for k in (*K_SAMPLES, F(1, 3))),
        *(({"alpha": a, "beta": b}, slope) for a, b, slope in (
            (F(1), F(2), F(-1, 2)), (F(1, 2), F(3, 2), F(-1, 2)), (F(2), F(5), F(-3, 2)),
            (F(3, 2), F(1, 2), F(1, 2))))],
        ids=lambda v: ",".join(f"{key}={val}" for key, val in v.items())
        if isinstance(v, dict) else f"slope={v}")
    def test_seed_functional_holds_on_the_operator_members(self, params, slope):
        # 1/d = r(z) + r_den'(z)/r_den(z) + eta''(z)/eta'(z) of the seed,
        # and every operator-route member f has f'(z)/f(z) = 1/d exactly
        spec = XFamilySpec(family="laguerre" if "k" in params else "jacobi", **params)
        weight = spec.weight()
        z = weight.pole
        seed = _darboux_seed(weight)
        eta, r_num, r_den = Poly(seed.eta), Poly(seed.r_num), Poly(seed.r_den)
        inv_d = (r_num(z) / r_den(z) + derivative(r_den)(z) / r_den(z)
                 + derivative(derivative(eta))(z) / derivative(eta)(z))
        assert inv_d == slope
        for f in operator_family(spec, 8):
            assert derivative(f)(z) / f(z) == inv_d

    def test_orthonormality_k1(self):
        w = WeightSpec.x1_laguerre(F(1))
        fam = gram_schmidt_family(w, 6)
        g = gram_matrix(fam, w)
        assert np.max(np.abs(g - np.eye(6))) < 1e-10

    @pytest.mark.parametrize("weight", [WeightSpec.x1_laguerre(F(7, 2)),
                                        WeightSpec.x1_jacobi(F(2), F(5))],
                             ids=["x1-laguerre", "x1-jacobi"])
    def test_members_depend_only_on_earlier_seeds(self, weight):
        short, long = gram_schmidt_family(weight, 8), gram_schmidt_family(weight, 10)
        assert len(short) == 8
        assert all(np.array_equal(a, b) for a, b in zip(short, long[:8]))

    @given(st.one_of(
        st.builds(WeightSpec.x1_laguerre, st.builds(F, st.integers(1, 5000), st.just(100))),
        st.builds(lambda a, b: (a, b), st.builds(F, st.integers(-99, 5000), st.just(100)),
                  st.builds(F, st.integers(-99, 5000), st.just(100)))
        .filter(lambda ab: ab[0] != ab[1] and abs((ab[1] + ab[0]) / (ab[1] - ab[0])) > 1)
        .map(lambda ab: WeightSpec.x1_jacobi(*ab))),
        st.integers(1, 24))
    @settings(max_examples=40, deadline=None)
    def test_closed_form_matches_a_qr(self, weight, count):
        # the rational-weight sweep's domain; the closed-form basis against
        # one numpy QR of the bidiagonal seed matrix
        try:
            closed = gram_schmidt_family(weight, count)
        except QuadratureError:
            return
        for member, ref in zip(closed, gram_schmidt_by_qr(weight, count)):
            assert np.max(np.abs(member - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_degrees_and_positive_leading(self):
        w = WeightSpec.x1_jacobi(F(2), F(5))
        fam = gram_schmidt_family(w, 5)
        for i, member in enumerate(fam, start=1):
            assert len(member) - 1 == i
            assert member[-1] > 0


class TestRouteAgreement:
    @pytest.mark.parametrize("k", K_SAMPLES)
    def test_laguerre_three_routes(self, k):
        spec = XFamilySpec(family="laguerre", k=k)
        families = [family_by_route(spec, 6, route)
                    for route in ("operator", "nullspace", "gram-schmidt")]
        for op, ns, gs in zip(*families):
            assert op.monic() == ns  # exact
            assert coefficient_rel_diff(gs, op) < 1e-9

    @pytest.mark.parametrize("ab", AB_SAMPLES)
    def test_jacobi_three_routes(self, ab):
        alpha, beta = ab
        spec = XFamilySpec(family="jacobi", alpha=alpha, beta=beta)
        families = [family_by_route(spec, 6, route)
                    for route in ("operator", "nullspace", "gram-schmidt")]
        for op, ns, gs in zip(*families):
            assert op.monic() == ns
            assert coefficient_rel_diff(gs, op) < 1e-9

    def test_alpha_below_zero_splits_the_routes(self):
        # 0 >= alpha > -1: P^(alpha-1, beta+1) does not exist, so the ladder
        # refuses, while the weight (pole b = -3) and both other routes stand
        spec = XFamilySpec(family="jacobi", alpha=F(-1, 2), beta=F(-1, 4))
        for build in (lambda: x1_jacobi_op_route(0, spec.alpha, spec.beta),
                      lambda: operator_family(spec, 4)):
            with pytest.raises(ValueError, match=r"P\^\(alpha-1, beta\+1\) exists"):
                build()
        gs = family_by_route(spec, 4, "gram-schmidt")
        for n, ns in enumerate(family_by_route(spec, 4, "nullspace"), 1):
            assert ns.degree == n
            assert x1_jacobi_ode_residual(ns, spec.alpha, spec.beta, n).is_zero
            assert coefficient_rel_diff(gs[n - 1], ns) < 1e-9

    def test_pole_inside_the_interval_leaves_only_the_nullspace_route(self):
        # alpha and beta of opposite signs put the pole b = -1/3 inside
        # [-1, 1]: there is no weight, so no seed for the ladder either
        spec = XFamilySpec(family="jacobi", alpha=F(1), beta=F(-1, 2))
        for route in ("operator", "gram-schmidt"):
            with pytest.raises(ValueError, match=r"pole inside \[-1,1\]"):
                family_by_route(spec, 3, route)
        for n, ns in enumerate(family_by_route(spec, 3, "nullspace"), 1):
            assert x1_jacobi_ode_residual(ns, spec.alpha, spec.beta, n).is_zero

    def test_no_degree_zero_member_via_routes(self):
        spec = XFamilySpec(family="laguerre", k=F(1))
        with pytest.raises(ValueError):
            family_by_route(spec, 0, "operator")

    def test_spec_has_no_codimension(self):
        # every route builds X1 members, so a codimension is not accepted
        with pytest.raises(TypeError):
            XFamilySpec(family="laguerre", k=F(1), j=2)


ROUTES = ("operator", "nullspace", "gram-schmidt")
ROUTE_SPECS = (XFamilySpec(family="laguerre", k=F(7, 2)),
               XFamilySpec(family="jacobi", alpha=F(1, 2), beta=F(3, 2)))


def _degree(member) -> int:
    return member.degree if isinstance(member, Poly) else len(member) - 1


class TestFamilyByRoute:
    """The dispatcher hands out members 1..n of a route, one family a call."""

    @pytest.mark.parametrize("route", ROUTES)
    @pytest.mark.parametrize("spec", ROUTE_SPECS, ids=lambda s: s.family)
    def test_n_members_of_degrees_1_to_n(self, spec, route):
        for n in (1, 2, 5):
            family = family_by_route(spec, n, route)
            assert [_degree(m) for m in family] == list(range(1, n + 1))

    @pytest.mark.parametrize("route", ROUTES)
    @pytest.mark.parametrize("spec", ROUTE_SPECS, ids=lambda s: s.family)
    def test_shorter_family_is_a_prefix(self, spec, route):
        short, long = family_by_route(spec, 4, route), family_by_route(spec, 7, route)
        for a, b in zip(short, long):
            if route == "gram-schmidt":
                assert np.array_equal(a, b)  # bitwise
            else:
                assert a == b

    @pytest.mark.parametrize("spec", ROUTE_SPECS, ids=lambda s: s.family)
    def test_nullspace_family_is_the_monic_operator_family(self, spec):
        ops = family_by_route(spec, 8, "operator")
        assert family_by_route(spec, 8, "nullspace") == [p.monic() for p in ops]

    def test_unknown_route_named(self):
        with pytest.raises(ValueError, match="'ladder'"):
            family_by_route(ROUTE_SPECS[0], 3, "ladder")


def _mp(q: F):
    return mpmath.mpf(q.numerator) / q.denominator


def _mpmath_errors(spec: XFamilySpec, count: int) -> list[float]:
    """err_1..err_count at 60 digits: the weight's moments by tanh-sinh and
    the exact operator-route members, which are orthogonal, so that
    err_N^2 = (1, 1) - sum_{n <= N} (1, p_n)^2 / (p_n, p_n)."""
    with mpmath.workdps(60):
        if spec.family == "laguerre":
            k = _mp(spec.k)
            density = lambda x: x**k * mpmath.exp(-x) / (x + k) ** 2
            pieces = [0, 1, 10, 40, mpmath.inf]
        else:
            a, b, z = _mp(spec.alpha), _mp(spec.beta), _mp(spec.weight().pole)
            density = lambda x: (1 - x) ** a * (1 + x) ** b / (x - z) ** 2
            pieces = [-1, 0, 1]
        moments = [mpmath.quad(lambda x: x**j * density(x), pieces)
                   for j in range(2 * count + 1)]

        def inner(p: Poly, q: Poly):
            return mpmath.fsum(_mp(u) * _mp(v) * moments[i + j]
                               for i, u in enumerate(p.coeffs)
                               for j, v in enumerate(q.coeffs))

        square, errors = moments[0], []
        for p in operator_family(spec, count):
            square -= inner(Poly.one(), p) ** 2 / inner(p, p)
            errors.append(float(mpmath.sqrt(square)))
        return errors


class TestCompletenessProxy:
    def test_strictly_decreasing_errors(self):
        errs = best_approximation_errors(WeightSpec.x1_laguerre(F(1)), 10)
        assert len(errs) == 10 and all(type(e) is float for e in errs)
        assert all(errs[i + 1] < errs[i] for i in range(9))

    @pytest.mark.parametrize("spec", [XFamilySpec(family="laguerre", k=F(3)),
                                      XFamilySpec(family="jacobi", alpha=F(2), beta=F(3))],
                             ids=["laguerre-k3", "jacobi-2-3"])
    def test_matches_a_60_digit_reference(self, spec):
        # where a Gauss-rule sum ||1||^2 - sum proj^2 loses the digits: it is
        # 1.9e-8 off at k = 3, and stalls at 5.9e-9 for Jacobi (2, 3)
        ref = _mpmath_errors(spec, 10)
        got = best_approximation_errors(spec.weight(), 10)
        assert all(abs(g - r) <= 1e-13 * r for g, r in zip(got, ref))

    @given(st.one_of(
        st.floats(math.log(0.01), math.log(170))
        .map(lambda u: WeightSpec.x1_laguerre(
            min(max(F(math.exp(u)).limit_denominator(1000), F(1, 100)), F(170)))),
        st.tuples(st.builds(F, st.integers(1, 100000), st.just(100)),
                  st.builds(F, st.integers(1, 100000), st.just(100)))
        .filter(lambda ab: ab[0] != ab[1])
        .map(lambda ab: WeightSpec.x1_jacobi(*ab))),
        st.integers(1, 24))
    @settings(max_examples=60, deadline=None)
    def test_strictly_decreasing_or_named_failure(self, weight, count):
        # k log-uniform in [1/100, 170], and alpha, beta in (0, 1000]
        try:
            errs = best_approximation_errors(weight, count)
        except (QuadratureError, ValueError):
            return
        assert len(errs) == count and all(e > 0 and math.isfinite(e) for e in errs)
        assert all(b < a for a, b in zip(errs, errs[1:]))


def test_emit_family_csv_exact_and_float():
    spec = XFamilySpec(family="laguerre", k=F(1))
    exact = family_by_route(spec, 2, "operator")
    text = emit_family_csv(exact, "operator", "k=1")
    lines = text.strip().splitlines()
    assert lines[0] == "degree,coefficients,route,params"
    assert lines[1].startswith('1,"-2/1 -1/1"')
    floats = gram_schmidt_family(spec.weight(), 2)
    text = emit_family_csv(floats, "gram-schmidt", "k=1")
    assert "gram-schmidt" in text


# sha256 of json.dumps([p.to_json() for p in members 1..40]) per default
# family, computed with the Fraction-based core this one replaced
OPERATOR_DIGESTS = {
    ("laguerre", "1"): "6c313b8a5cacb17c42f25bcba839e70cb3037247fa80a44de861ca3f11e2d374",
    ("laguerre", "2"): "997f0fb9058223c9d99a4494d23dc009af4f48de7fcffc8f73e9e3fc9d171c77",
    ("laguerre", "7/2"): "7ac0a276da0b1818aab0e74233f2e04df16296a721d4bd69d85f575bf25838b0",
    ("jacobi", "1", "2"): "fdfd3d6cec0a15519e1e3ed49e8f0562ca962a24430c600da2342bed078d03c8",
    ("jacobi", "2", "5"): "b45723cbb8330e5161f61a02d2b43b3046d9b6a6d2e99628f4ba46404cb92e40",
    ("jacobi", "1/2", "3/2"): "af9e62425ba0f0533550f1a1505e00315996d3ae59c39ded3c6740335e833a52",
}


def _default_families():
    cfg = VerificationConfig.from_dict({})
    return ([(("laguerre", str(k)), XFamilySpec(family="laguerre", k=k))
             for k in cfg.laguerre_k]
            + [(("jacobi", str(a), str(b)), XFamilySpec(family="jacobi", alpha=a, beta=b))
               for a, b in cfg.jacobi_alpha_beta])


class TestOperatorPencil:
    """The operators combined from T_0 and M equal the ones built straight
    from the coefficient tables, term for term."""

    SPECS = [spec for _, spec in _default_families()] + [
        XFamilySpec(family="jacobi", alpha=F(-1, 2), beta=F(-1, 4)),
        XFamilySpec(family="laguerre", k=F(1, 1000))]

    @staticmethod
    def _from_table(spec: XFamilySpec, n) -> DiffOp:
        if spec.family == "laguerre":
            return DiffOp(_laguerre_table(spec.k, 1, F(n)))
        jc = JacobiConstants.from_parameters(spec.alpha, spec.beta)
        lam = (F(n) - 1) * (spec.alpha + spec.beta + n)
        return DiffOp(_jacobi_table(jc.a, jc.b, jc.c, lam))

    @pytest.mark.parametrize("spec", SPECS, ids=lambda spec: ",".join(
        [spec.family] + [f"{key}={getattr(spec, key)}" for key in ("k", "alpha", "beta")
                         if getattr(spec, key) is not None]))
    def test_index_1_to_40_and_five_halves(self, spec):
        for n in [*range(1, 41), F(5, 2)]:
            ours, table = spec.operator(n), self._from_table(spec, n)
            size = math.floor(n) + 3
            assert ours.den == table.den, n
            assert ours.monomial_matrix(size) == table.monomial_matrix(size), n


def test_default_campaign_builds_24_pencils():
    # 6 Laguerre and 3 Jacobi X1 operators and 15 quotient operators, each
    # built once into the one pencil cache and kept there
    _pencil.cache_clear()
    run_verification(VerificationConfig.from_dict({}))
    info = _pencil.cache_info()
    assert info.misses == info.currsize == 24
    assert info.misses <= _PENCILS


class TestPinnedOperatorCoefficients:
    def test_every_default_family_is_pinned(self):
        assert [key for key, _ in _default_families()] == list(OPERATOR_DIGESTS)

    @pytest.mark.parametrize("key", list(OPERATOR_DIGESTS), ids=",".join)
    def test_members_1_to_40(self, key):
        spec = dict(_default_families())[key]
        members = family_by_route(spec, 40, "operator")
        text = json.dumps([p.to_json() for p in members])
        assert hashlib.sha256(text.encode()).hexdigest() == OPERATOR_DIGESTS[key]


# ---------------------------------------------------------------------------
# the operator tables, and the nullspace route against the Poly-image oracle
# ---------------------------------------------------------------------------

SX = sympy.Symbol("x")
SF = sympy.Function("f")(SX)


def _expand_table(table: dict):
    """sum of c x^s f^(o) over the table's terms."""
    return sum(c * SX**s * sympy.diff(SF, SX, o) for (s, o), c in table.items())


def _d(order: int):
    return sympy.diff(SF, SX, order)


class TestOperatorTablesAgainstSympy:
    """Each table expands to the equation printed in its function's
    docstring, for symbolic parameters."""

    def test_codimension_j_laguerre(self):
        k, j, n = sympy.symbols("k j n")
        printed = (-SX * (SX + k) * _d(2)
                   + ((SX - k) * (k + SX + 1) - 2 * SX * (j - 1)) * _d(1)
                   - j * (SX - k) * SF - (n - j) * (SX + k) * SF)
        assert sympy.expand(_expand_table(_laguerre_table(k, j, n)) - printed) == 0

    def test_x1_jacobi(self):
        alpha, beta, n = sympy.symbols("alpha beta n")
        a = (beta - alpha) / 2
        b = (beta + alpha) / (beta - alpha)
        c = b + 1 / a
        lam = (n - 1) * (alpha + beta + n)
        printed = ((b - SX) * (SX**2 - 1) * _d(2)
                   + 2 * a * (1 - b * SX) * ((SX - c) * _d(1) - SF)
                   - lam * (b - SX) * SF)
        table = _jacobi_table(a, b, c, lam)
        assert sympy.simplify(_expand_table(table) - printed) == 0

    def test_laguerre_ladder(self):
        k = sympy.Symbol("k")
        printed = (SX + k) * (_d(1) - SF) - SF
        table = _darboux_table(_DarbouxSeed(eta=(k, 1), r_num=(1,), r_den=(1,), scale=1))
        assert sympy.expand(_expand_table(table) - printed) == 0

    def test_jacobi_ladder(self):
        alpha, beta = sympy.symbols("alpha beta")
        printed = ((alpha + beta - (beta - alpha) * SX)
                   * ((1 + SX) * _d(1) + (beta + 1) * SF)
                   + (beta - alpha) * (1 + SX) * SF)
        seed = _DarbouxSeed(eta=(-(alpha + beta) / (beta - alpha), 1), r_num=(-(beta + 1),),
                            r_den=(1, 1), scale=alpha - beta)
        assert sympy.simplify(_expand_table(_darboux_table(seed)) - printed) == 0


def _laguerre_residual_by_products(f: Poly, k, j: int, n) -> Poly:
    """The codimension-j Laguerre residual from Poly products alone."""
    x, fp = Poly.x(), derivative(f)
    first = Poly((-k, 1)) * Poly((k + 1, 1)) - (2 * (j - 1)) * x
    zeroth = j * Poly((-k, 1)) + (n - j) * Poly((k, 1))
    return -(x * Poly((k, 1))) * derivative(fp) + first * fp - zeroth * f


def _jacobi_residual_by_products(f: Poly, alpha, beta, n) -> Poly:
    """The X1 Jacobi residual from Poly products alone."""
    jc = JacobiConstants.from_parameters(alpha, beta)
    lam = (n - 1) * (alpha + beta + n)
    fp = derivative(f)
    b_minus_x = Poly((jc.b, -1))
    return (b_minus_x * Poly((-1, 0, 1)) * derivative(fp)
            + 2 * jc.a * Poly((1, -jc.b)) * (Poly((-jc.c, 1)) * fp - f)
            - lam * b_minus_x * f)


def _nullspace_by_images(residual, max_degree: int) -> list[Poly]:
    """Monic nullspace basis from the Poly image of each monomial, solved by
    the test oracle's own Gauss-Jordan elimination."""
    images = [residual(Poly([0] * d + [1])) for d in range(max_degree + 1)]
    nrows = max(1, max(img.degree for img in images) + 1)
    rows = [[coefficient(img, r) for img in images] for r in range(nrows)]
    return [Poly(vec).monic() for vec in frac_nullspace(rows)]


_POOL = json.loads((Path(__file__).resolve().parent.parent / "bench" / "workloads.json")
                   .read_text())["pool"]
POOL_K = [F(k) for k in _POOL["laguerre_k"]]
POOL_AB = [(F(a), F(b)) for a, b in _POOL["jacobi_alpha_beta"]]


class TestNullspaceRouteAgainstImageOracle:
    @pytest.mark.parametrize("k", POOL_K, ids=str)
    def test_laguerre_route(self, k):
        spec = XFamilySpec(family="laguerre", k=k)
        family = family_by_route(spec, 12, "nullspace")
        for n in range(1, 13):
            oracle = _nullspace_by_images(
                lambda f: _laguerre_residual_by_products(f, k, 1, n), n)
            assert [family[n - 1]] == oracle, n

    @pytest.mark.parametrize("ab", POOL_AB, ids=lambda ab: f"{ab[0]},{ab[1]}")
    def test_jacobi_route(self, ab):
        spec = XFamilySpec(family="jacobi", alpha=ab[0], beta=ab[1])
        family = family_by_route(spec, 12, "nullspace")
        for n in range(1, 13):
            oracle = _nullspace_by_images(
                lambda f: _jacobi_residual_by_products(f, *ab, n), n)
            assert [family[n - 1]] == oracle, n

    @pytest.mark.parametrize("j", [1, 2])
    @pytest.mark.parametrize("k", POOL_K, ids=str)
    def test_xj_polynomial_solve(self, k, j):
        for n in range(0, 13):
            oracle = _nullspace_by_images(
                lambda f: _laguerre_residual_by_products(f, k, j, n), 12)
            assert xj_polynomial_solve(k, j, n, 12) == oracle, n
