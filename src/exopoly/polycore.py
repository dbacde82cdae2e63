"""Exact rational polynomial algebra and classical orthogonal polynomials.

Everything in this module is exact: a polynomial is a tuple of integer
numerators over one positive common denominator (``coeffs`` shows them as
`fractions.Fraction`), the nullspace solver eliminates on integers, no
floating point ever enters, and an identity that holds here holds as a
theorem, not as a numerical coincidence.  The rest of the package builds the
exceptional families out of these primitives and only drops to floats at the
quadrature/eigensolver layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

RationalLike = Union[Fraction, int, str, float]


def as_rational(value) -> Fraction:
    """Coerce ints, Fractions, "num/den"/decimal strings, and float literals
    to an exact Fraction.

    Floats are read as their shortest decimal literal (0.1 -> 1/10), not as
    the underlying binary value; exact work should still prefer strings or
    Fractions.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a rational scalar")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, float):
        if not value == value or value in (float("inf"), float("-inf")):
            raise ValueError("non-finite value is not rational")
        return Fraction(repr(value))
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def rational_str(value: RationalLike) -> str:
    """Canonical "num/den" form (denominator always written, always positive)."""
    q = as_rational(value)
    return f"{q.numerator}/{q.denominator}"


class Poly:
    """Dense univariate polynomial with exact rational coefficients.

    Stored as a tuple of integer numerators, ascending in the power of the
    variable, over one positive common denominator.  The form is canonical:
    no trailing zero numerators and ``gcd(content, den) == 1``, so the zero
    polynomial is ``()`` over 1 with ``degree == -1``, and two polynomials are
    equal exactly when their numerators and denominators are.  ``coeffs`` is
    a read-only view of the coefficients as Fractions.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, coeffs: Iterable[RationalLike] = ()):
        self._set(*_clear(coeffs))

    def _set(self, nums: list[int], den: int) -> None:
        """Store ``nums / den`` (den > 0) in canonical form."""
        while nums and not nums[-1]:
            nums.pop()
        if not nums:
            self._num, self._den = (), 1
            return
        g = math.gcd(den, *nums)
        if g != 1:
            nums = [c // g for c in nums]
            den //= g
        self._num, self._den = tuple(nums), den

    @classmethod
    def _from_ints(cls, nums: list[int], den: int = 1) -> "Poly":
        """The polynomial ``nums / den``; ``den`` must be positive."""
        out = cls.__new__(cls)
        out._set(nums, den)
        return out

    @staticmethod
    def zero() -> "Poly":
        return Poly(())

    @staticmethod
    def one() -> "Poly":
        return Poly((1,))

    @staticmethod
    def x() -> "Poly":
        return Poly((0, 1))

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        den = self._den
        return tuple(Fraction(c, den) for c in self._num)

    @property
    def degree(self) -> int:
        return len(self._num) - 1

    @property
    def is_zero(self) -> bool:
        return not self._num

    @property
    def leading(self) -> Fraction:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return Fraction(self._num[-1], self._den)

    def coefficient(self, power: int) -> Fraction:
        if 0 <= power < len(self._num):
            return Fraction(self._num[power], self._den)
        return Fraction(0)

    # ring operations ------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        da, db = self._den, other._den
        den = da * db // math.gcd(da, db)
        fa, fb = den // da, den // db
        a = [c * fa for c in self._num] if fa != 1 else list(self._num)
        b = [c * fb for c in other._num] if fb != 1 else other._num
        if len(a) < len(b):
            a, b = list(b), a
        for i, c in enumerate(b):
            a[i] += c
        return Poly._from_ints(a, den)

    def __neg__(self) -> "Poly":
        out = Poly.__new__(Poly)
        out._num, out._den = tuple(-c for c in self._num), self._den
        return out

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Poly):
            a, b = self._num, other._num
            if not a or not b:
                return Poly.zero()
            if len(a) < len(b):
                a, b = b, a
            out = [0] * (len(a) + len(b) - 1)
            for j, bj in enumerate(b):
                if bj:
                    for i, ai in enumerate(a, j):
                        out[i] += ai * bj
            return Poly._from_ints(out, self._den * other._den)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c: RationalLike) -> "Poly":
        n, d = _ratio(c)
        return Poly._from_ints([n * a for a in self._num], self._den * d)

    def derivative(self) -> "Poly":
        return Poly._from_ints([i * c for i, c in enumerate(self._num) if i], self._den)

    # evaluation -----------------------------------------------------------

    def __call__(self, value):
        """Horner evaluation: exact for Fraction/int input, float for float.

        Also evaluates on anything supporting * and + (e.g. numpy arrays),
        with coefficients coerced to float in that case.
        """
        if isinstance(value, (Fraction, int)):
            p, q = _ratio(value)
            acc, qpow = 0, 1
            for c in reversed(self._num):
                acc = acc * p + c * qpow
                qpow *= q
            # acc = q^deg * den * f(p/q), and qpow = q^(deg+1)
            return Fraction(acc * q, self._den * qpow)
        acc = 0.0 * value
        for c in reversed(self.to_floats()):
            acc = acc * value + c
        return acc

    def monic(self) -> "Poly":
        return self.scale(1 / self.leading)

    def to_floats(self) -> list[float]:
        # int / int is correctly rounded, the same value float(Fraction) gives
        den = self._den
        return [c / den for c in self._num]

    # serialization --------------------------------------------------------

    def to_json(self) -> list[str]:
        """JSON form: array of "num/den" strings, ascending power."""
        return [rational_str(c) for c in self.coeffs]

    @staticmethod
    def from_json(items: Sequence[str]) -> "Poly":
        return Poly(Fraction(s) for s in items)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Poly) and self._den == other._den
                and self._num == other._num)

    def __hash__(self) -> int:
        return hash((self._num, self._den))

    def __repr__(self) -> str:
        if self.is_zero:
            return "Poly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            cs = str(c)
            terms.append(cs if i == 0 else (f"{cs}*x^{i}" if i > 1 else f"{cs}*x"))
        return "Poly(" + " + ".join(terms) + ")"


def _ratio(value) -> tuple[int, int]:
    """(numerator, positive denominator) of an exact rational scalar."""
    if type(value) is int:
        return value, 1
    q = as_rational(value)
    return q.numerator, q.denominator


def _clear(values: Iterable[RationalLike]) -> tuple[list[int], int]:
    """Integer numerators over the least common denominator of ``values``."""
    pairs = [_ratio(v) for v in values]
    den = math.lcm(*(d for _, d in pairs)) if pairs else 1
    return [n * (den // d) for n, d in pairs], den


X = Poly.x()


# ---------------------------------------------------------------------------
# classical families
# ---------------------------------------------------------------------------

def laguerre_family(n: int, m: RationalLike) -> list[Poly]:
    """Generalized Laguerre polynomials L_0^(m) .. L_n^(m), exact coefficients.

    Standard normalization: leading coefficient (-1)^i / i!.  One pass of the
    three-term recurrence
        (i+1) L_{i+1} = (2i + 1 + m - x) L_i - (i + m) L_{i-1}.
    The parameter m may be any rational (non-integer values are first-class).
    """
    if n < 0:
        raise ValueError("degree must be >= 0")
    mq = as_rational(m)
    fam = [Poly.one(), Poly((1 + mq, -1))]
    for i in range(1, n):
        nxt = (Poly((2 * i + 1 + mq, -1)) * fam[i] - (i + mq) * fam[i - 1]).scale(
            Fraction(1, i + 1)
        )
        fam.append(nxt)
    return fam[: n + 1]


def laguerre_classical(n: int, m: RationalLike) -> Poly:
    """Generalized Laguerre polynomial L_n^(m); see :func:`laguerre_family`."""
    return laguerre_family(n, m)[n]


def jacobi_family(n: int, alpha: RationalLike, beta: RationalLike) -> list[Poly]:
    """Jacobi polynomials P_0^(alpha,beta) .. P_n^(alpha,beta), exact coefficients.

    Standard normalization P_i(1) = binomial(i + alpha, i), from one pass of
    the three-term recurrence.  Requires alpha, beta > -1 so the family is
    orthogonal under its weight.
    """
    if n < 0:
        raise ValueError("degree must be >= 0")
    a, b = as_rational(alpha), as_rational(beta)
    if a <= -1 or b <= -1:
        raise ValueError("jacobi parameters must satisfy alpha, beta > -1")
    s = a + b
    fam = [Poly.one(), Poly((Fraction(a - b, 2), Fraction(s + 2, 2)))]
    for i in range(2, n + 1):
        c1 = 2 * i * (i + s) * (2 * i + s - 2)
        c2 = (2 * i + s - 1) * (a * a - b * b)
        c3 = (2 * i + s - 1) * (2 * i + s) * (2 * i + s - 2)
        c4 = 2 * (i + a - 1) * (i + b - 1) * (2 * i + s)
        fam.append((Poly((c2, c3)) * fam[i - 1] - c4 * fam[i - 2]).scale(1 / c1))
    return fam[: n + 1]


def jacobi_classical(n: int, alpha: RationalLike, beta: RationalLike) -> Poly:
    """Jacobi polynomial P_n^(alpha,beta); see :func:`jacobi_family`."""
    return jacobi_family(n, alpha, beta)[n]


@dataclass(frozen=True)
class JacobiConstants:
    """The derived constants a = (beta-alpha)/2, b = (beta+alpha)/(beta-alpha),
    c = b + 1/a that control the exceptional Jacobi construction.

    For alpha, beta > -1 with alpha != beta and both positive, |b| > 1, which
    keeps the rational weight denominator (x - b)^2 away from [-1, 1].
    """

    a: Fraction
    b: Fraction
    c: Fraction

    @staticmethod
    def from_parameters(alpha: RationalLike, beta: RationalLike) -> "JacobiConstants":
        al, be = as_rational(alpha), as_rational(beta)
        if al == be:
            raise ValueError("alpha == beta leaves the constants a, b, c undefined")
        a = (be - al) / 2
        b = (be + al) / (be - al)
        return JacobiConstants(a=a, b=b, c=b + 1 / a)


def classical_ode_residual(g: Poly, family: str, params, eig: RationalLike) -> Poly:
    """Exact residual of the classical Laguerre/Jacobi differential equation.

    family="laguerre": params is m, residual = x g'' + (m+1-x) g' + eig*g.
    family="jacobi":   params is (alpha, beta),
                       residual = (1-z^2) g'' + [beta-alpha-(alpha+beta+2) z] g' + eig*g.

    ``eig`` is the degree-based eigenvalue: n for Laguerre and
    n(n+alpha+beta+1) for Jacobi.  The residual is the zero polynomial exactly
    when g is an eigenpolynomial at that eigenvalue.
    """
    lam = as_rational(eig)
    gp, gpp = g.derivative(), g.derivative().derivative()
    if family == "laguerre":
        m = as_rational(params)
        return X * gpp + Poly((m + 1, -1)) * gp + lam * g
    if family == "jacobi":
        alpha, beta = (as_rational(params[0]), as_rational(params[1]))
        return (
            Poly((1, 0, -1)) * gpp
            + Poly((beta - alpha, -(alpha + beta + 2))) * gp
            + lam * g
        )
    raise ValueError(f"unknown family {family!r}")


# ---------------------------------------------------------------------------
# exact linear algebra (small systems only)
# ---------------------------------------------------------------------------

def rational_nullspace(rows: list[list[RationalLike]]) -> list[list[Fraction]]:
    """Exact basis of the nullspace of a small rational matrix.

    One vector per free (non-pivot) column, with 1 in that column and 0 in
    the other free columns.  Each row is cleared to integers, then reduced by
    fraction-free Gauss-Jordan elimination (Bareiss, Math. Comp. 22 (1968)
    565-578): every entry stays an integer minor of the cleared matrix, each
    division by the previous pivot is exact, and at the end every pivot
    equals the last one, ``d``, so the reduced row echelon form is M / d.
    """
    if not rows:
        return []
    mat = [_clear(row)[0] for row in rows]
    nrows, ncols = len(mat), len(mat[0])
    pivots: list[int] = []
    prev = 1
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        pivot = next((i for i in range(r, nrows) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        top = mat[r]
        p = top[c]
        for i in range(nrows):
            if i == r:
                continue
            row, f = mat[i], mat[i][c]
            if f:
                mat[i] = [(p * v - f * w) // prev for v, w in zip(row, top)]
            elif p != prev:
                mat[i] = [p * v // prev for v in row]
        pivots.append(c)
        prev = p
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = Fraction(-mat[r][fc], prev)
        basis.append(vec)
    return basis
