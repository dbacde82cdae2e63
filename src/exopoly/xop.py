"""Exceptional (X1 and Xj) Laguerre and Jacobi polynomials.

Three independent construction routes are provided and cross-checked:

* the first-order ladder operator applied to a classical polynomial
  (exact rational coefficients),
* the exact nullspace of the cleared exceptional differential equation,
* Gram-Schmidt orthogonalization of the seed sequences under the rational
  weight (floating point, in the orthonormal basis of the weight's own
  recurrence, where each member is one closed-form unit vector).

The defining equations are verified as exact polynomial identities: each
cleared equation, and each first-order ladder, is a `polycore.DiffOp` built
from its parameters by a coefficient table; the "residual" functions apply
it and return the equation's left-hand side with denominators cleared,
which is the zero polynomial precisely on eigenpolynomials, and the
nullspace route hands the operator's integer matrix on monomials to the
exact nullspace solver.  Every exact operator here is affine in one
scalar: the index n (Laguerre), lam = (n-1)(alpha+beta+n) (Jacobi) or the
quotient coefficient A (below).  So each coefficient table, which stays the
one home of its coefficients, is read once per parameter set, at the scalar
0 and 1, into an integer pencil (T_0, M) kept in one cache, and the operator
at any value v of the scalar, T_0 + v M, is combined from it in integers
(see "operator pencils" below).

The quotient identity of the codimension-j extensions, for g = f/(x+k)^j,
is one more table, written in the shifted variable t = x + k and affine in
its coefficient A: the exact :func:`xj_quotient_residual` applies it to f
shifted by -k and shifts the result back, and :func:`xj_quotient_solve`
reads its eigenproblem off the same operator's matrix on t-monomials.  That
matrix is integer and tridiagonal, so one backward recurrence over exact
polynomials in A gives both its characteristic polynomial and the
eigenvector's coordinates; the A values are the characteristic polynomial's
real roots, certified by exact signs (:func:`polycore.real_roots`), and the
eigenvector at each is those coordinates evaluated exactly there: no float
eigen-solve, no thresholds.

Each family fact has one home that every route reads: the Jacobi constants
a, b, c in :class:`polycore.JacobiConstants`, the pole in ``quad.WeightSpec.pole``,
the classical family the ladder raises in :meth:`XFamilySpec.seeds`, the
Darboux seed phi = g eta of the weight (eta = x - pole, r = g'/g and the
ladder's scale) in :func:`_darboux_seed`, and the cleared equation in
:meth:`XFamilySpec.operator`.  The ladder (:meth:`XFamilySpec.ladder`, the
Darboux step :func:`_darboux_table`) and the Gram-Schmidt route's seed
functional are both read from the seed; the completeness proxy is a closed
form in that functional.  Every operator-route member, one at a time or a
whole family, comes from :func:`operator_family`, and :func:`family_by_route`
hands out members 1..n of any route.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from . import quad
from .polycore import (
    DiffOp,
    JacobiConstants,
    Poly,
    RationalLike,
    _clear,
    _ratio,
    _three_term_step,
    _Value,
    as_rational,
    jacobi_classical,
    jacobi_family,
    laguerre_classical,
    laguerre_family,
    poly_gcd,
    rational_nullspace,
    real_roots,
)


class XFamilySpec(_Value):
    """Identifies one X1 family: base family ("laguerre" or "jacobi") and
    parameters."""

    _fields = ("family", "k", "alpha", "beta")

    def __init__(self, family: str, k: Optional[Fraction] = None,
                 alpha: Optional[Fraction] = None, beta: Optional[Fraction] = None):
        self.__dict__.update(family=family, k=k, alpha=alpha, beta=beta)
        if self.family == "laguerre":
            if self.k is None or self.k <= 0:
                raise ValueError("exceptional Laguerre requires k > 0")
        elif self.family == "jacobi":
            if self.alpha is None or self.beta is None:
                raise ValueError("exceptional Jacobi requires alpha and beta")
            if self.alpha <= -1 or self.beta <= -1 or self.alpha == self.beta:
                raise ValueError("need alpha, beta > -1 and alpha != beta")
        else:
            raise ValueError(f"unknown family {self.family!r}")

    def weight(self) -> quad.WeightSpec:
        if self.family == "laguerre":
            return quad.WeightSpec.x1_laguerre(self.k)
        return quad.WeightSpec.x1_jacobi(self.alpha, self.beta)

    def ode_residual(self, f: Poly, n: int) -> Poly:
        """Cleared residual of this family's X1 equation at index n."""
        if self.family == "laguerre":
            return x1_laguerre_ode_residual(f, self.k, n)
        return x1_jacobi_ode_residual(f, self.alpha, self.beta, n)

    def operator(self, n: RationalLike) -> DiffOp:
        """The cleared operator of this family's X1 equation at index n; its
        value on f is :meth:`ode_residual`."""
        if self.family == "laguerre":
            return _laguerre_operator(self.k, 1, n)
        return _jacobi_operator(self.alpha, self.beta, n)

    def classical(self, n: int) -> Poly:
        """The classical L_n^(k) resp. P_n^(alpha, beta) of this family's parameters."""
        if self.family == "laguerre":
            return laguerre_classical(n, self.k)
        return jacobi_classical(n, self.alpha, self.beta)

    def seeds(self, n: int) -> list[Poly]:
        """The classical family the ladder raises, degrees 0..n: L^(k-1)
        resp. P^(alpha-1, beta+1)."""
        if self.family == "laguerre":
            return laguerre_family(n, self.k - 1)
        return jacobi_family(n, self.alpha - 1, self.beta + 1)

    def ladder(self) -> DiffOp:
        """The first-order ladder, the Darboux step of the weight's seed
        (:func:`_darboux_table`): degree nu of :meth:`seeds` goes to the
        member of index nu+1."""
        if self.family == "jacobi" and self.alpha <= 0:
            raise ValueError("requires alpha > 0 so P^(alpha-1, beta+1) exists")
        return DiffOp(_darboux_table(_darboux_seed(self.weight())))


class _DarbouxSeed(_Value):
    """The seed phi = g eta of an X1 weight's Darboux step, polynomials as
    ascending coefficient tuples: eta = x - pole, r = g'/g = r_num / r_den,
    and the ladder's scale."""

    _fields = ("eta", "r_num", "r_den", "scale")

    def __init__(self, eta: tuple, r_num: tuple, r_den: tuple, scale: RationalLike):
        self.__dict__.update(eta=eta, r_num=r_num, r_den=r_den, scale=scale)


def _darboux_seed(weight: quad.WeightSpec) -> _DarbouxSeed:
    """The seed of an x1 weight: g = e^x (Laguerre) or (1+x)^(-beta-1)
    (Jacobi), with scale 1 resp. alpha - beta, the normalization of the
    published ladders (Gomez-Ullate, Kamran, Milson, J. Phys. A 43, 2010;
    Quesne, J. Phys. A 41, 2008)."""
    eta = (-weight.pole, 1)
    if weight.kind == "x1-laguerre":
        return _DarbouxSeed(eta, (1,), (1,), 1)
    return _DarbouxSeed(eta, (-(weight.beta + 1),), (1, 1), weight.alpha - weight.beta)


# ---------------------------------------------------------------------------
# operator routes
# ---------------------------------------------------------------------------

def x1_laguerre_op_route(nu: int, k: RationalLike) -> Poly:
    """Ladder-operator construction of the exceptional Laguerre member.

    Applies (x+k)(d/dx - 1) - 1 to the classical L_nu^(k-1); the result has
    degree nu+1 and satisfies the exceptional equation at index n = nu+1.
    """
    return operator_family(XFamilySpec(family="laguerre", k=as_rational(k)), nu + 1)[nu]


def x1_jacobi_op_route(n: int, alpha: RationalLike, beta: RationalLike) -> Poly:
    """Ladder-operator construction of the exceptional Jacobi member.

    Applies [alpha+beta-(beta-alpha)x]((1+x) d/dx + beta + 1) + (beta-alpha)(1+x)
    to the classical P_n^(alpha-1, beta+1); the result has degree n+1 and is
    proportional to the exceptional member of index n+1.  The proportionality
    constant is whatever it is -- measured, never assumed.
    """
    spec = XFamilySpec(family="jacobi", alpha=as_rational(alpha), beta=as_rational(beta))
    return operator_family(spec, n + 1)[n]


def operator_family(spec: XFamilySpec, n_max: int) -> list[Poly]:
    """Operator-route members of index 1..n_max (entry i has index i+1), from
    one pass over the classical family."""
    if n_max < 1:
        raise ValueError("exceptional families have no degree-0 member")
    ladder = spec.ladder()
    return [ladder(p) for p in spec.seeds(n_max - 1)]


# Operator tables {(shift, order): coefficient}, one term c x^shift D^order
# each: plain arithmetic on the parameters, so they also expand symbolically.

def _darboux_table(seed: _DarbouxSeed) -> dict:
    """The Darboux step y -> scale r_den (eta y' - (r eta + eta') y), the
    ladder of :meth:`XFamilySpec.ladder`."""
    eta, r_num, r_den, scale = seed.eta, seed.r_num, seed.r_den, seed.scale
    d_eta = [j * v for j, v in enumerate(eta)][1:]
    table: dict = {}
    for order, c, a, b in ((1, scale, r_den, eta), (0, -scale, r_num, eta),
                           (0, -scale, r_den, d_eta)):
        for i, u in enumerate(a):
            for j, v in enumerate(b):
                table[i + j, order] = table.get((i + j, order), 0) + c * u * v
    return table


# ---------------------------------------------------------------------------
# operator pencils
# ---------------------------------------------------------------------------

# Each table below, called as table(*params, t), is an operator affine in its
# last argument t: T_0 + t M.  A pencil holds the term keys (shift, order),
# the integer terms of T_0 and of M, and their common denominator.
_Pencil = tuple[tuple[tuple[int, int], ...], tuple[int, ...], tuple[int, ...], int]
# parameter sets whose pencils are kept: a campaign builds 24 on {} and on
# {"n_max": 12, "n_eigen_max": 40} (6 Laguerre and 3 Jacobi X1 operators, 15
# quotient operators), and 18 on {"laguerre_k": ["1/3", "5/2", "70"],
# "suites": ["theorem"]}
_PENCILS = 64


@functools.lru_cache(maxsize=_PENCILS)
def _pencil(table: Callable[..., dict], params: tuple) -> _Pencil:
    """T_0 and M of the operator ``table(*params, t)``, read off the table at
    t = 0 and 1 and cleared to integers over one denominator."""
    at0, at1 = table(*params, 0), table(*params, 1)
    keys = tuple(at0)
    nums, den = _clear([*(at0[key] for key in keys),
                        *(at1[key] - at0[key] for key in keys)])
    return keys, tuple(nums[:len(keys)]), tuple(nums[len(keys):]), den


def _operator(table: Callable[..., dict], params: tuple, t: RationalLike) -> DiffOp:
    """The operator ``table(*params, t)``: T_0 + t M of its cached pencil,
    combined in integers."""
    keys, t0, m, den = _pencil(table, params)
    p, q = _ratio(t)
    return DiffOp._from_ints(zip(keys, [q * a + p * b for a, b in zip(t0, m)]),
                             q * den)


# ---------------------------------------------------------------------------
# cleared differential-equation residuals
# ---------------------------------------------------------------------------

def x1_laguerre_ode_residual(f: Poly, k: RationalLike, n: int) -> Poly:
    """Cleared residual of the exceptional Laguerre equation at eigenvalue index n.

    -x(x+k) f'' + (x-k)[(k+x+1) f' - f] - (n-1)(x+k) f, exactly: the
    codimension-j equation of :func:`xj_laguerre_ode_residual` at j=1.  Zero
    polynomial iff f is the index-n eigenpolynomial (the eigenvalue being
    n-1 in the uncleared equation).
    """
    return _laguerre_operator(k, 1, n)(f)


def x1_jacobi_ode_residual(f: Poly, alpha: RationalLike, beta: RationalLike,
                           n: int) -> Poly:
    """Cleared residual of the exceptional Jacobi equation at index n.

    (b-x)(x^2-1) f'' + 2a(1-bx)[(x-c) f' - f] - lambda (b-x) f with
    lambda = (n-1)(alpha+beta+n) and a, b, c the derived constants.
    """
    return _jacobi_operator(alpha, beta, n)(f)


def _jacobi_operator(alpha: RationalLike, beta: RationalLike,
                     n: RationalLike) -> DiffOp:
    """The cleared X1 Jacobi operator at index n: :func:`_jacobi_table` at
    lam = (n-1)(alpha+beta+n)."""
    al, be, n = as_rational(alpha), as_rational(beta), as_rational(n)
    return _operator(_x1_jacobi_table, (al, be), (n - 1) * (al + be + n))


def _x1_jacobi_table(alpha, beta, lam) -> dict:
    """:func:`_jacobi_table` of the constants of alpha and beta, so that the
    pencil is keyed by the parameters and the constants are derived once."""
    jc = JacobiConstants.from_parameters(alpha, beta)
    return _jacobi_table(jc.a, jc.b, jc.c, lam)


def _jacobi_table(a, b, c, lam) -> dict:
    """The X1 Jacobi operator
    (b-x)(x^2-1) D^2 + 2a(1-bx)(x-c) D - 2a(1-bx) - lam (b-x)."""
    return {(0, 2): -b, (1, 2): 1, (2, 2): b, (3, 2): -1,
            (0, 1): -2 * a * c, (1, 1): 2 * a * (1 + b * c), (2, 1): -2 * a * b,
            (0, 0): -2 * a - lam * b, (1, 0): 2 * a * b + lam}


def xj_laguerre_ode_residual(f: Poly, k: RationalLike, j: int, n: RationalLike) -> Poly:
    """Cleared residual of the codimension-j exceptional Laguerre equation.

    -x(x+k) f'' + [(x-k)(k+x+1) - 2x(j-1)] f' - j(x-k) f - (n-j)(x+k) f.
    Reduces to :func:`x1_laguerre_ode_residual` at j=1.  The index n is
    accepted as a free rational: which n admit polynomial solutions is a
    question for :func:`xj_polynomial_solve`, not an assumption.
    """
    return _laguerre_operator(k, j, n)(f)


def _laguerre_operator(k: RationalLike, j: int, n: RationalLike) -> DiffOp:
    """The one operator of both Laguerre residuals (private, so a traced
    public name never calls the other): :func:`_laguerre_table` at n."""
    if j < 1:
        raise ValueError("codimension j must be >= 1")
    return _operator(_laguerre_table, (as_rational(k), j), n)


def _laguerre_table(k, j, n) -> dict:
    """The codimension-j Laguerre operator
    -x(x+k) D^2 + [(x-k)(x+k+1) - 2(j-1)x] D - [j(x-k) + (n-j)(x+k)]."""
    return {(1, 2): -k, (2, 2): -1,
            (0, 1): -k * (k + 1), (1, 1): 3 - 2 * j, (2, 1): 1,
            (0, 0): (2 * j - n) * k, (1, 0): -n}


def xj_polynomial_solve(k: RationalLike, j: int, n: RationalLike,
                        max_degree: int) -> list[Poly]:
    """Exact basis of polynomial solutions of the codimension-j equation.

    Builds the residual's action on monomials and computes the rational
    nullspace up to the requested degree.  An empty list is a legitimate
    answer (for j >= 2 the equation as stated generically has none).
    Basis vectors are returned monic.
    """
    if max_degree < 1:
        raise ValueError("max_degree must be >= 1")
    return _monomial_nullspace(_laguerre_operator(k, j, n), max_degree)


def _monomial_nullspace(op: DiffOp, max_degree: int) -> list[Poly]:
    """Monic exact basis of the polynomials of degree <= max_degree that the
    operator ``op`` sends to the zero polynomial."""
    rows = op.monomial_matrix(max_degree + 1)
    return [Poly(vec).monic() for vec in rational_nullspace(rows)]


def xj_index_scan(k: RationalLike, j: int, n_values, max_degree: int) -> dict:
    """Report which indices n admit polynomial solutions, and their degrees."""
    found = {}
    for n in n_values:
        sols = xj_polynomial_solve(k, j, n, max_degree)
        if sols:
            found[str(as_rational(n))] = [p.degree for p in sols]
    return found


# ---------------------------------------------------------------------------
# quotient-compatible Xj instances (an eigenproblem in the shifted variable)
# ---------------------------------------------------------------------------

def xj_quotient_residual(f: Poly, k: RationalLike, j: int, A: RationalLike) -> Poly:
    """The cleared quotient identity for g = f/(x+k)^j, exactly.

    (x+k)^(j+2) [x g'' + (k+1-x) g' + (c - A/(x+k) - B/(x+k)^2) g] with
    c = deg(f) - j and B = -j(j+1)k, as a polynomial in x; the zero
    polynomial iff the identity holds.  B is not free: the t^0 coefficient
    of the identity in t = x + k is -(kj(j+1) + B) f(-k), so an f with
    f(-k) != 0 forces this B.  f is shifted to F(t) = f(t-k), the operator
    of :func:`_quotient_table` at this A applied, and the result shifted
    back.
    """
    if j < 1:
        raise ValueError("codimension j must be >= 1")
    kq = as_rational(k)
    return _operator(_quotient_table, (kq, j, f.degree - j), A)(f.shift(-kq)).shift(kq)


def _quotient_table(k, j, c, A) -> dict:
    """The quotient identity in t = x + k, cleared by t^(j+2), at
    B = -j(j+1)k, on g = F/t^j:
    (t-k) t^2 F'' + [(2k+1-t) t^2 - 2j t (t-k)] F' + [(c+j) t^2 + (j(j-2k) - A) t] F."""
    return {(3, 2): 1, (2, 2): -k, (3, 1): -1, (2, 1): 2 * k + 1 - 2 * j,
            (1, 1): 2 * j * k, (2, 0): c + j, (1, 0): j * (j - 2 * k) - A}


def xj_quotient_solve(k: RationalLike, j: int, n: int) -> list[dict]:
    """Polynomials f of degree n for which f/(x+k)^j solves a rational extension
    of the Laguerre equation.

    Demands  x g'' + (k+1-x) g' + (c - A/(x+k) - B/(x+k)^2) g = 0  with
    g = f/(x+k)^j.  Writing F(t) = f(t-k) in the shifted variable t = x+k and
    matching powers of t forces c = n-j and, whenever f(-k) != 0 (the
    non-reducible case), B = -j(j+1)k; the remaining unknowns are exactly the
    eigenpairs of a small tridiagonal matrix, with A the eigenvalue: rows
    t^1..t^(n+1) of the :func:`_quotient_table` operator on t^0..t^n (rows
    t^0 and t^(n+2) vanish by the choice of B and c).  Its sub-diagonal
    never vanishes, so each eigenvalue has one eigenvector, of degree n, and
    :func:`_quotient_charpoly` gives the characteristic polynomial chi_n and
    the eigenvector's coordinates phi_0..phi_n, with F(0) = phi_0 = f(-k), as
    exact polynomials in A.  The A values are the distinct real roots of chi_n
    at which F(0) is not zero: :func:`polycore.real_roots` of chi_n with every
    root it shares with F(0) divided out, each a float next to the exact root,
    ascending.  No float eigen-solve and no threshold decides which roots
    count.  Each returned entry {"f": ascending monic float coefficients, "A",
    "B", "c", "residual"} holds the eigenvector, the phi_i evaluated exactly
    at the float A, rounded once, and is re-verified against the exact
    :func:`xj_quotient_residual` of the rounded f at the float A, the Poly
    returned as "residual".

    Solutions with f(-k) = 0 are reducible (the quotient collapses to a lower
    codimension) and are dropped.  For j = 1, A = 1 is an exact root of every
    chi_n and carries the exceptional family; the remaining branches -- all
    of them for j >= 2 -- have n-dependent A, so no single n-independent
    potential of this form exists beyond the A = 1 family.
    """
    if j < 1 or n < j:
        raise ValueError("need j >= 1 and n >= j")
    kq = as_rational(k)
    rows, den = _quotient_rows(kq, j, n)
    kept, phi = _quotient_charpoly(rows, den)
    # Down the rows, gcd(chi, phi_0) = gcd(phi_i, phi_(i+1)) while the
    # super-diagonal R[i][i+1] = den k (i+1)(2j-i) is not zero, and phi_n = 1:
    # so chi and phi_0 can share a root only when n > 2j.  Then the shared
    # roots go, at any multiplicity.
    if not all(rows[i][i + 1] for i in range(n)):
        while (common := poly_gcd(kept, phi[0])).degree > 0:
            kept = divmod(kept, common)[0]
    out = []
    for a_real in real_roots(kept):
        # F(t) at this A, exact, and back to f(x) = F(x+k), rounded once
        a_exact = Fraction(a_real)
        fcoef = np.array(Poly([p(a_exact) for p in phi]).shift(kq).to_floats())
        resid = xj_quotient_residual(Poly.from_floats(fcoef), kq, j, a_exact)
        if max(map(abs, resid.to_floats()), default=0.0) > 1e-7 * max(
                1.0, float(np.max(np.abs(fcoef)))):
            continue
        out.append({"f": fcoef, "A": a_real, "B": float(-j * (j + 1) * kq),
                    "c": float(n - j), "residual": resid})
    return out


def _quotient_rows(k: Fraction, j: int, n: int) -> tuple[list[list[int]], int]:
    """Rows t^1..t^(n+1) of the quotient operator at A = 0 on t^0..t^n, as
    integers over the returned denominator: the matrix of
    :func:`xj_quotient_solve`."""
    op = _operator(_quotient_table, (k, j, n - j), 0)
    return op.monomial_matrix(n + 1)[1:n + 2], op.den


def _quotient_charpoly(rows: list[list[int]], den: int) -> tuple[Poly, list[Poly]]:
    """chi_n(A), up to a constant factor, and phi_0(A), ..., phi_n(A): the
    eigenproblem of :func:`xj_quotient_solve` in exact polynomials of A.

    ``rows`` are the integer rows t^1..t^(n+1) of the operator's matrix R on
    t^0..t^n, over its denominator den.  Row i reads
    R[i][i-1] phi_(i-1) + R[i][i] phi_i + R[i][i+1] phi_(i+1) = den A phi_i.
    The sub-diagonal R[i][i-1] = den (n - i + 1) never vanishes, so rows
    n..1, run backward from phi_n = 1, give each phi_(i-1) as one three-term
    step; row 0, which that recurrence leaves unused, is then
    chi_n(A) = (den A - R[0][0]) phi_0 - R[0][1] phi_1, of degree n + 1.  At a
    root A of chi_n, F(t) = phi_0(A) + phi_1(A) t + ... + phi_n(A) t^n is the
    eigenvector, and every eigenvector at A is a multiple of it.
    """
    n = len(rows) - 1
    phi = [Poly.zero()] * n + [Poly.one(), Poly.zero()]  # phi_0..phi_(n+1)
    for i in range(n, 0, -1):
        row = rows[i]
        above = row[i + 1] if i < n else 0
        phi[i - 1] = _three_term_step(phi[i], phi[i + 1], row[i - 1], -row[i], den, above)
    return _three_term_step(phi[0], phi[1], 1, -rows[0][0], den, rows[0][1]), phi[:-1]


# ---------------------------------------------------------------------------
# Gram-Schmidt route
# ---------------------------------------------------------------------------

def gram_schmidt_family(weight: quad.WeightSpec, count: int) -> list[np.ndarray]:
    """First ``count`` members of the exceptional family: the seed sequence
    orthonormalized under the rational weight, in floating point.

    Works in the basis q_0..q_count of polynomials orthonormal for the weight,
    from :func:`quad.weight_recurrence`, where the weight's inner product is
    the Euclidean one.  The seeds span the kernel of l(p) = p(z) - d p'(z), z
    the pole and 1/d = r(z) + r_den'(z)/r_den(z) + eta''(z)/eta'(z) read from
    the weight's Darboux seed (:func:`_darboux_seed`): d = 1 (Laguerre) or
    b - c = -2/(beta-alpha) (Jacobi) (Gomez-Ullate, Kamran, Milson, J. Approx.
    Theory 162, 2010), so the seeds of degree <= i span the vectors v of
    q-coordinates 0..i with l_0 v_0 + ... + l_i v_i = 0, l_m = l(q_m).
    Member i is the unit vector there orthogonal to the same space one degree
    down, in closed form
    u_i = (-(l_i / h) (l_0, ..., l_(i-1)) / s, s / h) with
    s = ||(l_0, ..., l_(i-1))|| and h = hypot(s, l_i): the Gram-Schmidt of the
    seeds under the weight, with no quadrature and no factorization.  Its
    monomial coefficients, sum_m u_i[m] times those of q_m, are sums of
    element-wise products by ``np.add.reduce``, not a BLAS product.  Members
    are unit-norm with positive leading coefficient; member i has degree i
    and reads only l_0..l_i, so a shorter family is bitwise a prefix of a
    longer one.  Raises QuadratureError if the weight's recurrence does not
    settle or l vanishes on some q_i.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    C, ell = _orthonormal_basis(weight, count)
    members = []
    for i in range(1, count + 1):
        s = math.hypot(*ell[:i])
        h = math.hypot(s, ell[i])
        u = np.append(-(ell[i] / h) * ell[:i] / s, s / h)
        member = np.add.reduce(C[: i + 1, : i + 1] * u, axis=1)
        members.append(member if member[-1] > 0 else -member)
    return members


def _orthonormal_basis(weight: quad.WeightSpec, count: int) -> tuple[np.ndarray, np.ndarray]:
    """C, whose column i holds the ascending coefficients of q_i, and the seed
    functional's values l(q_0), ..., l(q_count), for :func:`gram_schmidt_family`.
    """
    # the recurrence first: its overflow check names the parameter that a
    # pole too large for a float comes from
    rec = quad.weight_recurrence(weight, count + 1)
    # d = 1 / (r(z) + r_den'(z) / r_den(z) + eta''(z) / eta'(z)), exactly
    zq, D = weight.pole, DiffOp({(0, 1): 1})
    seed = _darboux_seed(weight)
    eta, r_num, r_den = Poly(seed.eta), Poly(seed.r_num), Poly(seed.r_den)
    d = float(1 / ((r_num(zq) + D(r_den)(zq)) / r_den(zq) + D(D(eta))(zq) / D(eta)(zq)))
    z = float(zq)
    s = np.sqrt(rec.b)  # s[i] links q_{i-1} and q_i; s[0] is unused
    # column i: ascending coefficients of q_i, then q_i(z) and q_i'(z), all
    # carried by the orthonormal recurrence s_{i+1} q_{i+1} = (x-a_i) q_i - s_i q_{i-1}
    Q = np.zeros((count + 3, count + 1))
    Q[0, 0] = Q[-2, 0] = 1.0 / np.sqrt(rec.mu0)
    for i in range(count):
        q = Q[:, i]
        xq = np.concatenate(([0.0], q[:count], [z * q[-2], q[-2] + z * q[-1]]))
        nxt = xq - rec.a[i] * q
        if i:
            nxt -= s[i] * Q[:, i - 1]
        Q[:, i + 1] = nxt / s[i + 1]
    C, ell = Q[:-2], Q[-2] - d * Q[-1]
    if not np.all(np.isfinite(ell)) or np.any(ell[:-1] == 0):
        raise quad.QuadratureError("the seed functional vanishes on an orthonormal "
                                   "polynomial of the weight")
    return C, ell


def best_approximation_errors(weight: quad.WeightSpec, count: int) -> list[float]:
    """L2(weight) errors err_1..err_count of the best approximation of 1 by
    members 1..N of :func:`gram_schmidt_family`: strictly decreasing in N (the
    completeness proxy) while the seed functional's l_N = l(q_N) != 0.

    In the weight's orthonormal basis 1 = sqrt(mu0) q_0, and members 1..N span
    the vectors orthogonal to (l_0, ..., l_N), so
    err_N = sqrt(mu0) |l_0| / ||(l_0, ..., l_N)||: no quadrature, and no
    difference of near-equal squares to cancel to 0.
    """
    ell = _orthonormal_basis(weight, count)[1].tolist()
    one = math.sqrt(quad.weight_recurrence(weight, 1).mu0) * abs(ell[0])
    return [one / math.hypot(*ell[: n + 1]) for n in range(1, count + 1)]


# ---------------------------------------------------------------------------
# route comparison
# ---------------------------------------------------------------------------

def unit_leading(coeffs) -> np.ndarray:
    """Scale a coefficient array (or exact Poly) to leading coefficient 1."""
    arr = np.asarray(coeffs.to_floats() if isinstance(coeffs, Poly) else coeffs,
                     dtype=float)
    if not len(arr) or arr[-1] == 0:
        raise ValueError("cannot normalize an empty or degenerate polynomial")
    return arr / arr[-1]


def coefficient_rel_diff(p, q) -> float:
    """Coefficientwise relative difference after unit-leading normalization."""
    a, b = unit_leading(p), unit_leading(q)
    if len(a) != len(b):
        return float("inf")
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


def family_by_route(spec: XFamilySpec, n: int, route: str) -> list:
    """Members of index 1..n by route: "operator" | "nullspace" (exact Polys,
    nullspace members monic) or "gram-schmidt" (float arrays)."""
    if n < 1:
        raise ValueError("exceptional families have no degree-0 member")
    if route == "operator":
        return operator_family(spec, n)
    if route == "nullspace":
        members = []
        for i in range(1, n + 1):
            sols = _monomial_nullspace(spec.operator(i), i)
            if len(sols) != 1:
                raise ValueError(
                    f"nullspace route expected exactly one solution, got {len(sols)}"
                )
            members.append(sols[0])
        return members
    if route == "gram-schmidt":
        return gram_schmidt_family(spec.weight(), n)
    raise ValueError(f"unknown route {route!r}")


def member_coefficients(member) -> list:
    """Ascending coefficients: "num/den" strings of a Poly, floats of an array."""
    if isinstance(member, Poly):
        return member.to_json()
    return [float(c) for c in np.asarray(member, dtype=float)]


def emit_family_csv(members, route: str, params: str) -> str:
    """CSV table: degree, coefficient list, route tag, params.

    Coefficients are written as :func:`member_coefficients` gives them
    ("num/den" or decimals), space-separated within a row.
    """
    lines = ["degree,coefficients,route,params"]
    for member in members:
        coeffs = member_coefficients(member)
        lines.append(f'{len(coeffs) - 1},"{" ".join(map(str, coeffs))}",{route},"{params}"')
    return "\n".join(lines) + "\n"
