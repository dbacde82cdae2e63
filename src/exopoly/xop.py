"""Exceptional (X1 and Xj) Laguerre and Jacobi polynomials.

Three independent construction routes are provided and cross-checked:

* the first-order ladder operator applied to a classical polynomial
  (exact rational coefficients),
* the exact nullspace of the cleared exceptional differential equation,
* Gram-Schmidt orthogonalization of the seed sequences under the rational
  weight (floating point, in the orthonormal basis of the weight's own
  recurrence).

The defining equations are verified as exact polynomial identities: each
cleared equation, and each first-order ladder, is a `polycore.DiffOp` built
from its parameters by a coefficient table; the "residual" functions apply
it and return the equation's left-hand side with denominators cleared,
which is the zero polynomial precisely on eigenpolynomials, and the
nullspace route hands the operator's integer matrix on monomials to the
exact nullspace solver.  Each X1 operator is affine in its index, so the
coefficient tables, which stay the one home of the coefficients, are read
once per family at two index values, and every index's operator is combined
from those two in integers (see "operator pencils" below).

Each family fact has one home that every route reads: the Jacobi constants
a, b, c in :class:`polycore.JacobiConstants`, the pole in ``quad.WeightSpec.pole``,
the classical family the ladder raises in :meth:`XFamilySpec.seeds`, the ladder
in :meth:`XFamilySpec.ladder`, the cleared equation in
:meth:`XFamilySpec.operator`, and the seed functional, read off the pole, in
:func:`gram_schmidt_family`.  Every operator-route member, one at a time or a
whole family, comes from :func:`operator_family`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from . import quad
from .polycore import (
    DiffOp,
    JacobiConstants,
    Poly,
    RationalLike,
    _clear,
    _ratio,
    as_rational,
    jacobi_classical,
    jacobi_family,
    laguerre_classical,
    laguerre_family,
    rational_nullspace,
)


@dataclass(frozen=True)
class XFamilySpec:
    """Identifies one X1 family: base family and parameters."""

    family: str  # "laguerre" | "jacobi"
    k: Optional[Fraction] = None
    alpha: Optional[Fraction] = None
    beta: Optional[Fraction] = None

    def __post_init__(self):
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
        """The first-order ladder: degree nu of :meth:`seeds` goes to the
        member of index nu+1."""
        if self.family == "laguerre":
            return DiffOp(_laguerre_ladder_table(self.k))
        if self.alpha <= 0:
            raise ValueError("requires alpha > 0 so P^(alpha-1, beta+1) exists")
        return DiffOp(_jacobi_ladder_table(self.alpha, self.beta))


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

def _laguerre_ladder_table(k) -> dict:
    """The Laguerre ladder (x+k)(d/dx - 1) - 1 = (x+k) D - (x+k+1)."""
    return {(0, 1): k, (1, 1): 1, (0, 0): -(k + 1), (1, 0): -1}


def _jacobi_ladder_table(al, be) -> dict:
    """The Jacobi ladder
    [alpha+beta-(beta-alpha)x]((1+x) d/dx + beta + 1) + (beta-alpha)(1+x);
    with p = alpha+beta and q = beta-alpha it is
    (p + (p-q) x - q x^2) D + p(beta+1) + q - q beta x."""
    p, q = al + be, be - al
    return {(0, 1): p, (1, 1): p - q, (2, 1): -q, (0, 0): p * (be + 1) + q,
            (1, 0): -q * be}


# ---------------------------------------------------------------------------
# operator pencils
# ---------------------------------------------------------------------------

# A cleared X1 operator is T_0 + t M, with t = n for Laguerre and
# t = lam = (n-1)(alpha+beta+n) for Jacobi.  A pencil holds the term keys
# (shift, order), the integer terms of T_0 and of M, and their common
# denominator.
_Pencil = tuple[tuple[tuple[int, int], ...], tuple[int, ...], tuple[int, ...], int]
# families whose pencils are kept; a campaign runs a handful
_PENCILS = 64


def _pencil(at0: dict, at1: dict) -> _Pencil:
    """T_0 and M of an operator whose coefficient table is ``at0`` at index
    value 0 and ``at1`` at 1, cleared to integers over one denominator."""
    keys = tuple(at0)
    nums, den = _clear([*(at0[key] for key in keys),
                        *(at1[key] - at0[key] for key in keys)])
    return keys, tuple(nums[:len(keys)]), tuple(nums[len(keys):]), den


def _pencil_at(pencil: _Pencil, p: int, q: int) -> DiffOp:
    """The operator T_0 + (p/q) M, q > 0."""
    keys, t0, m, den = pencil
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
    """The cleared X1 Jacobi operator at index n: T_0 + lam M with
    lam = (n-1)(alpha+beta+n), combined in integers."""
    pencil, s = _jacobi_pencil(_ratio(alpha), _ratio(beta))
    p, r = _ratio(n)
    # lam = (p/r - 1)(s + p/r) over the positive denominator s.den r^2
    sn, sd = s.numerator, s.denominator
    return _pencil_at(pencil, (p - r) * (sn * r + p * sd), sd * r * r)


@functools.lru_cache(maxsize=_PENCILS)
def _jacobi_pencil(alpha: tuple[int, int],
                   beta: tuple[int, int]) -> tuple[_Pencil, Fraction]:
    """The X1 Jacobi operator as T_0 + lam M, read off :func:`_jacobi_table`
    at lam = 0 and 1, with alpha + beta; the parameters come as (numerator,
    denominator), which hash faster than Fractions."""
    al, be = Fraction(*alpha), Fraction(*beta)
    jc = JacobiConstants.from_parameters(al, be)
    return (_pencil(_jacobi_table(jc.a, jc.b, jc.c, 0),
                    _jacobi_table(jc.a, jc.b, jc.c, 1)), al + be)


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
    public name never calls the other): T_0 + n M, combined in integers."""
    if j < 1:
        raise ValueError("codimension j must be >= 1")
    return _pencil_at(_laguerre_pencil(_ratio(k), j), *_ratio(n))


@functools.lru_cache(maxsize=_PENCILS)
def _laguerre_pencil(k: tuple[int, int], j: int) -> _Pencil:
    """The codimension-j Laguerre operator as T_0 + n M, read off
    :func:`_laguerre_table` at n = 0 and 1; k comes as (numerator,
    denominator)."""
    kq = Fraction(*k)
    return _pencil(_laguerre_table(kq, j, 0), _laguerre_table(kq, j, 1))


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
# quotient-compatible Xj instances (tridiagonal eigenproblem in the shifted variable)
# ---------------------------------------------------------------------------

def xj_quotient_residual_coeffs(f: np.ndarray, k: float, j: int,
                                A: float, B: float, c: float) -> np.ndarray:
    """Coefficients of the cleared quotient identity for g = f/(x+k)^j.

    Returns (x+k)^(j+2) * [x g'' + (k+1-x) g' + (c - A/(x+k) - B/(x+k)^2) g]
    as a float coefficient array; all-zero (to roundoff) iff the identity holds.
    """
    f = np.asarray(f, dtype=float)
    powers = np.arange(len(f))
    # f' and f'' padded with zeros to len(f), so every product below has a
    # fixed length and the top coefficient of the result is exactly 0
    fp = np.append(f[1:] * powers[1:], 0.0)
    fpp = np.append(fp[1:] * powers[1:], 0.0)
    t = np.array([k, 1.0])  # x + k
    t2 = np.convolve(t, t)
    inner1 = np.convolve(fp, t)
    inner2 = np.convolve(fpp, t2)  # (x+k)^2 f'' - 2j (x+k) f' + j(j+1) f
    inner2[:-1] -= 2.0 * j * inner1
    inner2[:-2] += j * (j + 1) * f
    inner1[:-1] -= j * f  # (x+k) f' - j f
    out = np.convolve(np.convolve(np.array([k + 1, -1.0]), t), inner1)
    out[1:] += inner2  # x * inner2
    pot = c * t2
    pot[:2] -= A * t
    pot[0] -= B
    out[:-1] += np.convolve(pot, f)
    return out[:-1]


def xj_quotient_solve(k: float, j: int, n: int) -> list[dict]:
    """Polynomials f of degree n for which f/(x+k)^j solves a rational extension
    of the Laguerre equation.

    Demands  x g'' + (k+1-x) g' + (c - A/(x+k) - B/(x+k)^2) g = 0  with
    g = f/(x+k)^j.  Writing F(t) = f(t-k) in the shifted variable t = x+k and
    matching powers of t forces c = n-j and, whenever f(-k) != 0 (the
    non-reducible case), B = -j(j+1)k; the remaining unknowns are exactly the
    eigenpairs of a small tridiagonal matrix, with A the eigenvalue.  Each
    returned entry {"f": ascending monic float coefficients, "A", "B", "c"}
    has been re-verified against the cleared identity.

    Solutions with f(-k) = 0 are reducible (the quotient collapses to a lower
    codimension) and are dropped.  For j = 1 the branch A = 1
    appears at every n and carries the exceptional family; the remaining
    branches -- all of them for j >= 2 -- have n-dependent A, so no single
    n-independent potential of this form exists beyond the A = 1 family.
    """
    if j < 1 or n < j:
        raise ValueError("need j >= 1 and n >= j")
    kf = float(k)
    B = -j * (j + 1) * kf
    c = float(n - j)
    size = n + 1
    # coefficient matrix of the identity in the t-monomial basis; the t^(i+1)
    # row carries the -A t F term, so A is a plain eigenvalue
    m = np.zeros((size, size))
    for i in range(size):
        q = (i - j) * (i - j - 1)  # from t^2 F'' - 2j t F' + j(j+1) F on t^i
        m[i, i] = q + (i - j) * (2 * kf + 1)
        if i >= 1:
            m[i - 1, i] = -kf * q - B
        if i + 1 < size:
            m[i + 1, i] = n - i
    vals, vecs = np.linalg.eig(m)
    out = []
    for idx in np.argsort(vals.real):
        a_val = vals[idx]
        if abs(a_val.imag) > 1e-9 * (1 + abs(a_val.real)):
            continue
        phi = vecs[:, idx].real
        if abs(phi[-1]) < 1e-10:
            continue  # degree < n; belongs to a lower index
        phi = phi / phi[-1]
        if abs(phi[0]) < 1e-8 * np.max(np.abs(phi)):
            continue
        # back to f(x) = sum_p phi_p (x+k)^p
        fcoef = np.zeros(size)
        powk = np.array([1.0])
        for p in range(size):
            fcoef[: len(powk)] += phi[p] * powk
            powk = np.convolve(powk, [kf, 1.0])
        resid = xj_quotient_residual_coeffs(fcoef, kf, j, float(a_val.real), B, c)
        if np.max(np.abs(resid)) > 1e-7 * max(1.0, float(np.max(np.abs(fcoef)))):
            continue
        if not any(abs(e["A"] - a_val.real) < 1e-9 for e in out):
            out.append({"f": fcoef, "A": float(a_val.real), "B": B, "c": c})
    return out


# ---------------------------------------------------------------------------
# Gram-Schmidt route
# ---------------------------------------------------------------------------

def gram_schmidt_family(weight: quad.WeightSpec, count: int) -> list[np.ndarray]:
    """First ``count`` members of the exceptional family: the seed sequence
    orthonormalized under the rational weight, in floating point.

    Works in the basis q_0..q_count of polynomials orthonormal for the weight,
    from :func:`quad.weight_recurrence`, where the weight's inner product is
    the Euclidean one.  The seeds span the kernel of l(p) = p(z) - d p'(z), z
    the pole and d = 1 (Laguerre) or b - c = -2/(beta-alpha) (Jacobi)
    (Gomez-Ullate, Kamran, Milson, J. Approx. Theory 162, 2010).  phi_i =
    q_i - (l(q_i)/l(q_{i-1})) q_{i-1} has degree i and l(phi_i) = 0, so
    phi_1..phi_n span the same flag as the seeds; one QR of the bidiagonal
    matrix of the phi in q-coordinates is their Gram-Schmidt under the
    weight, with no quadrature.  Members are unit-norm with positive leading
    coefficient; member i has degree i and depends only on phi_1..phi_i, so a
    shorter family is a prefix of a longer one.  Raises QuadratureError if the
    weight's recurrence does not settle or l vanishes on some q_i.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    # the recurrence first: its overflow check names the parameter that a
    # pole too large for a float comes from
    rec = quad.weight_recurrence(weight, count + 1)
    z = float(weight.pole)
    d = 1.0 if weight.kind == "x1-laguerre" else float(-2 / (weight.beta - weight.alpha))
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
    # phi_i in q-coordinates: -l(q_i)/l(q_{i-1}) at q_{i-1}, 1 at q_i
    cols = np.arange(count)
    phi = np.zeros((count + 1, count))
    phi[cols + 1, cols] = 1.0
    phi[cols, cols] = -ell[1:] / ell[:-1]
    U = np.linalg.qr(phi)[0]
    members = []
    for i in range(1, count + 1):
        member = C[: i + 1, : i + 1] @ U[: i + 1, i - 1]
        members.append(member if member[-1] > 0 else -member)
    return members


def best_approximation_errors(weight: quad.WeightSpec,
                              members: list[np.ndarray]) -> list[float]:
    """L2(weight) best-approximation error of the constant 1 by the first N members.

    err_N^2 = ||1||^2 - sum_{i<=N} (1, e_i)^2 for orthonormal members; the
    sequence strictly decreasing in N is the completeness proxy.
    """
    one = np.array([1.0])
    total, *proj = quad.gram_matrix([one], weight, others=[one, *members])[0]
    acc = np.cumsum(np.square(proj))
    return [float(np.sqrt(max(total - a, 0.0))) for a in acc]


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


def family_by_route(spec: XFamilySpec, n: int, route: str):
    """Dispatch one member by route: "operator" | "nullspace" (exact Poly) or
    "gram-schmidt" (float array)."""
    if n < 1:
        raise ValueError("exceptional families have no degree-0 member")
    if route == "operator":
        return operator_family(spec, n)[n - 1]
    if route == "nullspace":
        sols = _monomial_nullspace(spec.operator(n), n)
        if len(sols) != 1:
            raise ValueError(
                f"nullspace route expected exactly one solution, got {len(sols)}"
            )
        return sols[0]
    if route == "gram-schmidt":
        return gram_schmidt_family(spec.weight(), n)[n - 1]
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
