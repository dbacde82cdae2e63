"""Exact polynomial arithmetic and the classical families."""

import math
from fractions import Fraction as F

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from exopoly.polycore import (
    DiffOp,
    JacobiConstants,
    Poly,
    as_rational,
    jacobi_classical,
    jacobi_family,
    laguerre_classical,
    laguerre_family,
    poly_gcd,
    rational_nullspace,
    _sturm_chain,
    rational_str,
    real_roots,
)

from oracles import (X, classical_jacobi_table, classical_laguerre_table,
                     classical_ode_residual, coefficient, derivative, horner_reference,
                     jacobi_by_ode_system, laguerre_by_ode_system)


rationals = st.fractions(
    min_value=-10, max_value=10, max_denominator=12
)
small_polys = st.lists(rationals, min_size=0, max_size=6).map(Poly)
# raw coefficient lists, trailing zeros and all, so construction is exercised
raw_coeffs = st.lists(st.one_of(rationals, st.integers(-50, 50), st.just(F(0))),
                      min_size=0, max_size=7)
any_polys = raw_coeffs.map(Poly)
nonzero_polys = any_polys.filter(lambda p: not p.is_zero)

SX = sympy.Symbol("x")
# sympy is the slow side of every comparison; 40 examples keep tier-1 quick
oracle_settings = settings(max_examples=40, deadline=None)


def to_sympy(p: Poly) -> sympy.Poly:
    coeffs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)]
    return sympy.Poly(coeffs or [0], SX, domain=sympy.QQ)


def from_sympy(sp: sympy.Poly) -> Poly:
    return Poly(F(int(c.p), int(c.q)) for c in reversed(sp.all_coeffs()))


def assert_canonical(p: Poly) -> None:
    nums, den = p._num, p._den
    assert all(type(c) is int for c in nums) and type(den) is int
    assert den > 0
    if not nums:
        assert den == 1 and p.degree == -1
        return
    assert nums[-1] != 0
    assert math.gcd(den, *nums) == 1
    assert p.coeffs == tuple(F(c, den) for c in nums)


class TestPolyArithmetic:
    def test_derivative_power_rule(self):
        k = F(3)
        p = Poly((-k * (k + 2), 0, 1))  # x^2 - k(k+2)
        assert derivative(p) == Poly((0, 2))

    def test_difference_of_squares(self):
        k = F(5, 2)
        assert Poly((k, 1)) * Poly((-k, 1)) == Poly((-k * k, 0, 1))

    def test_derivative_of_constant_is_zero(self):
        assert derivative(Poly((7,))).is_zero

    def test_exact_evaluation_and_float_evaluation(self):
        p = Poly((F(1, 3), 0, 1))
        assert p(F(1, 2)) == F(7, 12)
        assert p(0.5) == pytest.approx(7 / 12)

    @pytest.mark.parametrize("other", [1, F(1, 2), 0.5])
    def test_scalar_sum_and_difference_raise_type_error(self, other):
        # only Poly + Poly is defined, on either side; `p * 2` is scaling
        p = Poly((1, 1))
        for op in (lambda: p + other, lambda: p - other,
                   lambda: other + p, lambda: other - p):
            with pytest.raises(TypeError):
                op()

    @given(small_polys, small_polys)
    @settings(deadline=None)
    def test_addition_roundtrip(self, p, q):
        assert (p + q) - q == p

    @given(small_polys, rationals, rationals)
    @settings(deadline=None)
    def test_shift_is_evaluation_at_x_plus_s(self, p, s, x):
        assert p.shift(s)(x) == p(x + s)

    def test_decimal_literals_read_exactly(self):
        assert as_rational(2.5) == F(5, 2)
        assert as_rational(0.1) == F(1, 10)
        assert as_rational("7/2") == F(7, 2)
        with pytest.raises(TypeError):
            as_rational(True)
        # from_floats reads the binary value instead
        assert Poly.from_floats([0.1, np.float64(0.5)]) == Poly((F(0.1), F(1, 2)))
        assert Poly((0.1,)) == Poly((F(1, 10),))

    def test_numpy_scalars_read_as_python_numbers(self):
        # numpy 2 prints np.float64(0.5) as its repr, which is no literal
        assert as_rational(np.float64(0.5)) == F(1, 2)
        assert as_rational(np.float32(0.25)) == F(1, 4)
        assert as_rational(np.int64(-3)) == -3
        assert Poly(np.array([0.5, 1.0])) == Poly((F(1, 2), 1))
        assert Poly(np.arange(3)) == Poly((0, 1, 2))
        with pytest.raises(TypeError):
            as_rational(np.bool_(True))
        with pytest.raises(ValueError):
            as_rational(np.float64("nan"))

    def test_serialization_roundtrip(self):
        p = Poly(("-3/2", 0, "5/7"))
        assert p.to_json() == ["-3/2", "0/1", "5/7"]
        assert Poly(map(F, p.to_json())) == p
        assert rational_str(as_rational("-3/2")) == "-3/2"


class TestIntegerPolyAgainstSympy:
    """The integer-numerator Poly against sympy.Poly over QQ."""

    @given(raw_coeffs)
    @oracle_settings
    def test_construction_is_canonical(self, coeffs):
        p = Poly(coeffs)
        assert_canonical(p)
        assert p == from_sympy(to_sympy(p))
        assert p.coeffs == tuple(F(c) for c in coeffs)[: p.degree + 1]
        assert not any(F(c) for c in coeffs[p.degree + 1:])

    @given(any_polys, nonzero_polys)
    @oracle_settings
    def test_divmod(self, a, b):
        q, r = divmod(a, b)
        assert_canonical(q)
        assert_canonical(r)
        sq, sr = sympy.div(to_sympy(a), to_sympy(b))
        assert (q, r) == (from_sympy(sq), from_sympy(sr))

    def test_divmod_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            divmod(Poly((1, 2)), Poly.zero())

    @given(nonzero_polys, any_polys, small_polys)
    @oracle_settings
    def test_gcd(self, a, b, common):
        if not common.is_zero:
            a, b = a * common, b * common
        g = poly_gcd(a, b)
        assert_canonical(g)
        assert g == from_sympy(sympy.gcd(to_sympy(a), to_sympy(b)).monic())

    def test_zero_polynomial_forms(self):
        for zero in (Poly(), Poly((0, F(0), "0/7")), Poly.zero(), Poly((3,)) - Poly((3,)),
                     Poly((F(-1, 2), 4)).scale(0), derivative(Poly((5,)))):
            assert_canonical(zero)
            assert zero._num == () and zero._den == 1
            assert zero == Poly.zero() and hash(zero) == hash(Poly.zero())
            assert zero.to_json() == []

    def test_negative_inputs_keep_a_positive_denominator(self):
        p = Poly((F(-3, 4), F(6, -8), -9))
        assert (p._num, p._den) == ((-3, -3, -36), 4)
        assert p.scale(F(-4, 3)) == Poly((1, 1, 12))
        assert p.monic() == Poly((F(1, 12), F(1, 12), 1))

    @given(any_polys, any_polys)
    @oracle_settings
    def test_add_sub_mul(self, p, q):
        sp, sq = to_sympy(p), to_sympy(q)
        for ours, theirs in ((p + q, sp + sq), (p - q, sp - sq), (p * q, sp * sq),
                             (-p, -sp)):
            assert_canonical(ours)
            assert ours == from_sympy(theirs)

    @given(any_polys, st.one_of(rationals, st.integers(-20, 20)))
    @oracle_settings
    def test_scale(self, p, c):
        for ours in (p.scale(c), c * p, p * c):
            assert_canonical(ours)
            assert ours == from_sympy(to_sympy(p) * sympy.Rational(F(c).numerator,
                                                                   F(c).denominator))

    @given(any_polys)
    @oracle_settings
    def test_derivative(self, p):
        d = derivative(p)
        assert_canonical(d)
        assert d == from_sympy(to_sympy(p).diff(SX))

    @given(nonzero_polys)
    @oracle_settings
    def test_monic(self, p):
        m = p.monic()
        assert_canonical(m)
        assert m == from_sympy(to_sympy(p).monic())
        assert m.leading == 1

    @given(any_polys, st.one_of(rationals, st.integers(-30, 30)))
    @oracle_settings
    def test_exact_call(self, p, v):
        value = p(v)
        assert isinstance(value, F)
        q = F(v)
        assert value == F(to_sympy(p).eval(sympy.Rational(q.numerator, q.denominator)))

    @given(any_polys, st.lists(st.floats(-40, 40), min_size=1, max_size=50),
           st.floats(-40, 40))
    @oracle_settings
    def test_float_call_is_the_reference_horner_bitwise(self, p, points, scalar):
        # one work array updated in place: the same IEEE operations, in the
        # same order, as a new array per step; the input grid is left alone
        x = np.array(points)
        before = x.copy()
        got, want = p(x), horner_reference(p, x)
        assert got.dtype == want.dtype == np.float64
        assert got.tobytes() == want.tobytes()
        assert x.tobytes() == before.tobytes()
        assert np.float64(p(scalar)).tobytes() == np.float64(horner_reference(p, scalar)).tobytes()

    @given(raw_coeffs, raw_coeffs)
    @oracle_settings
    def test_hash_consistent_with_eq(self, a, b):
        p, q = Poly(a), Poly(b)
        assert (p == q) == (p.coeffs == q.coeffs)
        if p == q:
            assert hash(p) == hash(q)
        # the same value spelled as strings, with a trailing zero appended
        spelled = Poly([str(F(c)) for c in a] + ["0/3"])
        assert spelled == p and hash(spelled) == hash(p)

    @given(any_polys)
    @oracle_settings
    def test_json_roundtrip(self, p):
        js = p.to_json()
        assert js == [f"{c.numerator}/{c.denominator}" for c in p.coeffs]
        back = Poly(map(F, js))
        assert back == p and back.to_json() == js
        assert_canonical(back)


def _assert_next_to(found: list[float], exact: list) -> None:
    """Each float is within a float step or two of its exact root."""
    assert len(found) == len(exact)
    for got, root in zip(found, exact):
        assert abs(F(got) - root) <= 2 * F(math.ulp(float(root)))


class TestRealRoots:
    @given(st.lists(st.fractions(min_value=-1000, max_value=1000, max_denominator=1000),
                    min_size=1, max_size=6),
           st.lists(st.integers(1, 3), min_size=6, max_size=6),
           st.fractions(min_value=F(1, 100), max_value=100, max_denominator=100),
           st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(bool))
    @oracle_settings
    def test_rational_roots_with_multiplicity(self, roots, powers, gap, lead):
        # repeated roots come back once, and x^2 + gap adds no real root
        p = Poly((gap, 0, 1)).scale(lead)
        for root, power in zip(roots, powers):
            for _ in range(power):
                p = p * Poly((-root, 1))
        _assert_next_to(real_roots(p), sorted(set(roots)))

    @given(st.lists(st.integers(-30, 30), min_size=2, max_size=8).filter(lambda c: c[-1]))
    @oracle_settings
    def test_against_sympy(self, coeffs):
        p = Poly(coeffs)
        if p.degree < 1:
            return
        exact = sorted(set(to_sympy(p).real_roots()))
        _assert_next_to(real_roots(p), [F(str(r.evalf(40))) for r in exact])

    def test_close_tiny_and_large_roots(self):
        roots = [F(-10**6), F(-1, 10**9), F(0), F(1, 3), F(1, 3) + F(1, 10**12), F(10**5)]
        p = Poly.one()
        for root in roots:
            p = p * Poly((-root, 1))
        _assert_next_to(real_roots(p), roots)
        assert real_roots(p)[2] == 0.0

    def test_roots_closer_than_a_float_step(self):
        # both roots lie between the neighbouring floats 1 and 1 + 2^-52, so
        # no float splits them; each still comes back, next to its root
        roots = [1 + F(1, 2**60), 1 + F(1, 2**59)]
        _assert_next_to(real_roots(Poly((-roots[0], 1)) * Poly((-roots[1], 1))), roots)

    @given(st.lists(st.integers(-40, 40), min_size=2, max_size=9).filter(lambda c: c[-1]),
           st.integers(1, 12))
    @oracle_settings
    def test_sturm_chain_negates_the_primitive_remainders(self, coeffs, den):
        # the remainder-only pseudo-division gives the terms Poly.__divmod__
        # gives: each the negated remainder of the two before, made primitive
        p = Poly([F(c, den) for c in coeffs])
        chain = _sturm_chain(p)
        d = derivative(p)
        assert chain[0] == p and chain[1].monic() == d.monic() and chain[1].leading * d.leading > 0
        for a, b, c in zip(chain, chain[1:], chain[2:]):
            r = divmod(a, b)[1].coeffs
            ints = [int(q * math.lcm(*(v.denominator for v in r))) for q in r]
            assert c == Poly([-v // math.gcd(*ints) for v in ints])
        assert chain[-1].degree == 0 or divmod(chain[-2], chain[-1])[1].is_zero

    def test_no_real_roots_and_constants(self):
        assert real_roots(Poly((1, 0, 1))) == []
        with pytest.raises(ValueError, match="nonconstant"):
            real_roots(Poly((3,)))


class TestClassicalFamilies:
    def test_degree_zero_members(self):
        assert laguerre_classical(0, F(5, 2)) == Poly.one()
        assert jacobi_classical(0, 1, 2) == Poly.one()

    def test_laguerre_first_members_match_ode_oracle(self):
        # oracle values frozen from the equation's coefficient recursion
        assert laguerre_classical(1, 2) == Poly((3, -1))
        assert laguerre_classical(2, 0) == Poly((1, -2, F(1, 2)))
        for n in (1, 2, 5):
            for m in (F(0), F(1), F(5, 2)):
                assert laguerre_classical(n, m) == Poly(laguerre_by_ode_system(n, m))

    def test_jacobi_first_members_match_ode_oracle(self):
        assert jacobi_classical(1, 1, 1) == Poly((0, 2))
        for alpha, beta in ((F(1), F(2)), (F(2), F(5)), (F(1, 2), F(3, 2))):
            expected = Poly((F(alpha - beta, 2), F(alpha + beta + 2, 2)))
            assert jacobi_classical(1, alpha, beta) == expected
        for n in (2, 3, 6):
            for alpha, beta in ((F(1), F(2)), (F(1, 2), F(3, 2))):
                assert jacobi_classical(n, alpha, beta) == Poly(
                    jacobi_by_ode_system(n, alpha, beta)
                )

    def test_against_sympy(self):
        x = sympy.Symbol("x")
        for n, member in enumerate(laguerre_family(40, F(5, 2))):
            theirs = sympy.Poly(
                sympy.laguerre_poly(n, x, sympy.Rational(5, 2)), x
            ).all_coeffs()[::-1]
            assert [sympy.Rational(c.numerator, c.denominator)
                    for c in member.coeffs] == list(theirs), n
        for n, member in enumerate(jacobi_family(40, F(2), F(5))):
            theirs = sympy.Poly(sympy.jacobi_poly(n, 2, 5, x), x).all_coeffs()[::-1]
            assert [sympy.Rational(c.numerator, c.denominator)
                    for c in member.coeffs] == list(theirs), n

    @oracle_settings
    @given(st.integers(0, 15),
           st.one_of(st.fractions(min_value=-1, max_value=8, max_denominator=30)
                     .filter(lambda m: m > -1),
                     st.integers(-15, -1)))
    def test_laguerre_integer_recurrence_against_sympy(self, n, m):
        for i, member in enumerate(laguerre_family(n, m)):
            theirs = sympy.laguerre_poly(i, SX, sympy.Rational(m.numerator, m.denominator),
                                         polys=True)
            assert member == from_sympy(theirs), (i, m)
            assert_canonical(member)
        # at the negative integer m = -n, L_n^(-n) = (-x)^n / n!
        assert laguerre_classical(n, -n) == Poly(
            [0] * n + [F((-1) ** n, math.factorial(n))])

    @oracle_settings
    @given(st.integers(0, 15), st.data())
    def test_jacobi_integer_recurrence_against_sympy(self, n, data):
        param = st.fractions(min_value=-1, max_value=6,
                             max_denominator=30).filter(lambda v: v > -1)
        alpha, beta = data.draw(st.one_of(
            st.tuples(param, param),
            param.map(lambda a: (a, a)),
            # alpha + beta = -1 needs both in (-1, 0)
            param.filter(lambda a: a < 0).map(lambda a: (a, -1 - a)),
            st.just((F(-1, 2), F(-1, 4)))))
        sa = sympy.Rational(alpha.numerator, alpha.denominator)
        sb = sympy.Rational(beta.numerator, beta.denominator)
        for i, member in enumerate(jacobi_family(n, alpha, beta)):
            theirs = sympy.jacobi_poly(i, sa, sb, SX, polys=True)
            assert member == from_sympy(theirs), (i, alpha, beta)
            assert_canonical(member)

    def test_single_member_is_the_family_member(self):
        lag, jac = laguerre_family(12, F(7, 3)), jacobi_family(12, F(1, 2), F(3, 2))
        assert len(lag) == len(jac) == 13
        for n in (0, 1, 2, 7, 12):
            assert laguerre_classical(n, F(7, 3)) == lag[n]
            assert jacobi_classical(n, F(1, 2), F(3, 2)) == jac[n]
        assert laguerre_family(0, 1) == [Poly.one()]
        with pytest.raises(ValueError):
            laguerre_family(-1, 1)
        with pytest.raises(ValueError):
            jacobi_family(3, -1, 2)

    def test_laguerre_leading_coefficient(self):
        import math

        for n in (1, 3, 7):
            lead = laguerre_classical(n, F(5, 2)).leading
            assert lead == F((-1) ** n, math.factorial(n))


class TestOdeResidual:
    def test_laguerre_eigenpolynomial_gives_zero(self):
        m = F(5, 2)
        assert classical_ode_residual(laguerre_classical(2, m), "laguerre", m, 2).is_zero

    def test_constant_is_the_n0_eigenfunction(self):
        assert classical_ode_residual(Poly.one(), "laguerre", F(3), 0).is_zero

    def test_x_is_not_an_eigenpolynomial(self):
        m = F(7, 3)
        res = classical_ode_residual(X, "laguerre", m, 1)
        assert res == Poly((m + 1,))

    @pytest.mark.parametrize("m", [F(0), F(1), F(5, 2)])
    def test_laguerre_family_up_to_12(self, m):
        for n in range(13):
            res = classical_ode_residual(laguerre_classical(n, m), "laguerre", m, n)
            assert res.is_zero, (m, n)

    @pytest.mark.parametrize("ab", [(F(1), F(2)), (F(2), F(5)), (F(1, 2), F(3, 2))])
    def test_jacobi_family_up_to_12(self, ab):
        alpha, beta = ab
        for n in range(13):
            eig = n * (n + alpha + beta + 1)
            res = classical_ode_residual(
                jacobi_classical(n, alpha, beta), "jacobi", (alpha, beta), eig
            )
            assert res.is_zero, (alpha, beta, n)


class TestJacobiConstants:
    def test_example_values(self):
        jc = JacobiConstants.from_parameters(1, 3)
        assert (jc.a, jc.b, jc.c) == (F(1), F(2), F(3))

    def test_b_exceeds_one_for_positive_parameters(self):
        for alpha, beta in ((F(1), F(2)), (F(2), F(5)), (F(1, 2), F(3, 2))):
            jc = JacobiConstants.from_parameters(alpha, beta)
            assert abs(jc.b) > 1

    def test_equal_parameters_rejected(self):
        with pytest.raises(ValueError):
            JacobiConstants.from_parameters(2, 2)


def test_rational_nullspace_small_system():
    rows = [[F(1), F(2), F(3)], [F(2), F(4), F(6)]]
    basis = rational_nullspace(rows)
    assert len(basis) == 2
    for vec in basis:
        assert sum(r * v for r, v in zip(rows[0], vec)) == 0


def _sympy_nullspace(rows):
    mat = sympy.Matrix([[sympy.Rational(F(v).numerator, F(v).denominator) for v in r]
                        for r in rows])
    return [[F(int(v.p), int(v.q)) for v in vec] for vec in mat.nullspace()]


@st.composite
def rank_deficient(draw):
    """Products (nrows x rank)(rank x ncols) of small rationals, some rows zeroed."""
    nrows, ncols = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    rank = draw(st.integers(0, min(nrows, ncols)))
    entry = st.fractions(min_value=-6, max_value=6, max_denominator=5)
    left = [[draw(entry) for _ in range(rank)] for _ in range(nrows)]
    right = [[draw(entry) for _ in range(ncols)] for _ in range(rank)]
    zeroed = draw(st.sets(st.integers(0, nrows - 1)))
    return [[F(0) if i in zeroed else sum((left[i][k] * right[k][j] for k in range(rank)), F(0))
             for j in range(ncols)] for i in range(nrows)]


class TestNullspaceAgainstSympy:
    @given(rank_deficient())
    @settings(max_examples=60, deadline=None)
    def test_random_rank_deficient(self, rows):
        assert rational_nullspace(rows) == _sympy_nullspace(rows)

    @pytest.mark.parametrize("rows", [
        [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
        [[0]],
        [[1, 2, 3, 4, 5, 6]],
        [[0, 0, 0], [F(1, 2), F(-1, 3), 2], [0, 0, 0], [1, F(-2, 3), 4]],
        [[2, -4, 6, 0, 1, F(7, 5)], [1, -2, 3, 1, 0, 0], [3, -6, 9, 1, 1, F(7, 5)]],
        [[F(1, 3), 1], [1, 3], [F(-1, 6), F(-1, 2)]],
    ], ids=["all-zero", "one-zero", "wide-rank1", "zero-rows", "wide-rank2", "tall"])
    def test_edge_shapes(self, rows):
        basis = rational_nullspace(rows)
        assert basis == _sympy_nullspace(rows)
        for vec in basis:
            assert all(sum(F(r) * v for r, v in zip(row, vec)) == 0 for row in rows)

    def test_empty_matrix(self):
        assert rational_nullspace([]) == []


# operator coefficients a0, a1, a2 of degree <= 3, and f of degree <= 10
coefficient_polys = st.lists(rationals, min_size=0, max_size=4).map(Poly)
operand_polys = st.lists(rationals, min_size=0, max_size=11).map(Poly)


def diffop_of(*coefficients: Poly) -> DiffOp:
    """a0 + a1 D + a2 D^2 + ... as a DiffOp, one term per coefficient."""
    return DiffOp({(s, o): coefficient(a, s)
                   for o, a in enumerate(coefficients) for s in range(a.degree + 1)})


def monomial(d: int) -> Poly:
    return Poly([0] * d + [1])


def expand_table(table: dict, g, x):
    """sum of c x^s g^(o) over the table's terms, for a sympy expression g."""
    return sum(c * x**s * sympy.diff(g, x, o) for (s, o), c in table.items())


class TestDiffOp:
    @given(coefficient_polys, coefficient_polys, coefficient_polys, operand_polys)
    @settings(max_examples=80, deadline=None)
    def test_apply_matches_the_poly_expression(self, a0, a1, a2, f):
        fp = derivative(f)
        out = diffop_of(a0, a1, a2)(f)
        assert out == a2 * derivative(fp) + a1 * fp + a0 * f
        assert_canonical(out)

    @given(coefficient_polys, coefficient_polys, coefficient_polys, st.integers(1, 11))
    @settings(max_examples=80, deadline=None)
    def test_monomial_matrix_columns(self, a0, a1, a2, size):
        op = diffop_of(a0, a1, a2)
        rows = op.monomial_matrix(size)
        assert all(len(row) == size and all(type(v) is int for v in row) for row in rows)
        assert len(rows) == 1 or any(rows[-1])
        for d in range(size):
            assert Poly(row[d] for row in rows) == op(monomial(d)).scale(op.den)

    def test_zero_operator(self):
        zero = DiffOp({})
        assert zero.den == 1
        assert zero(Poly((1, 2, 3))).is_zero
        assert zero.monomial_matrix(3) == [[0, 0, 0]]
        assert DiffOp({(0, 0): 0, (3, 2): F(0)}).monomial_matrix(2) == [[0, 0]]

    def test_zero_operand_and_lowering_operators(self):
        op = DiffOp({(1, 2): F(1, 2), (0, 0): 3})
        assert op(Poly.zero()).is_zero
        assert DiffOp({(0, 2): 1})(X) == Poly.zero()
        assert DiffOp({(0, 1): F(2, 3)})(Poly((5, 6, 9))) == Poly((4, 12))
        # D on a constant: every column maps to x^-1 or lower, so one zero row
        assert DiffOp({(0, 1): 1}).monomial_matrix(1) == [[0]]

    def test_terms_share_one_reduced_denominator(self):
        op = DiffOp({(0, 0): F(2, 3), (1, 1): F(4, 9)})
        assert op.den == 9
        assert DiffOp({(0, 0): F(2, 3), (1, 1): F(4, 3)}).den == 3
        assert DiffOp({(0, 0): 6, (2, 1): 4}).den == 1

    def test_negative_shift_or_order_rejected(self):
        with pytest.raises(ValueError):
            DiffOp({(-1, 0): 1})
        with pytest.raises(ValueError):
            DiffOp({(0, -1): 1})


class TestClassicalTablesAgainstSympy:
    """The tables behind :func:`classical_ode_residual` expand to the
    equations its docstring prints, for symbolic parameters."""

    def test_laguerre(self):
        m, lam = sympy.symbols("m lam")
        g = sympy.Function("g")(SX)
        printed = SX * g.diff(SX, 2) + (m + 1 - SX) * g.diff(SX) + lam * g
        table = classical_laguerre_table(m, lam)
        assert sympy.expand(expand_table(table, g, SX) - printed) == 0

    def test_jacobi(self):
        alpha, beta, lam = sympy.symbols("alpha beta lam")
        g = sympy.Function("g")(SX)
        printed = ((1 - SX**2) * g.diff(SX, 2)
                   + (beta - alpha - (alpha + beta + 2) * SX) * g.diff(SX) + lam * g)
        table = classical_jacobi_table(alpha, beta, lam)
        assert sympy.expand(expand_table(table, g, SX) - printed) == 0
