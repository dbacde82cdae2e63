"""Exact rational polynomial algebra and classical orthogonal polynomials.

Everything in this module is exact: a polynomial is a tuple of integer
numerators over one positive common denominator (``coeffs`` shows them as
`fractions.Fraction`), a differential operator with polynomial coefficients
(`DiffOp`) is a set of integer terms over one denominator, the nullspace
solver eliminates on integers, and an identity that holds here holds as a
theorem, not as a numerical coincidence.  Floats enter in one place only:
:func:`real_roots` returns each real root of an exact polynomial as a float,
found by float Newton steps but placed next to the root by exact signs.

Each exact computation is written once: every three-term recurrence (the
classical families, and the quotient eigenproblem of ``xop``) steps through
:func:`_three_term_step`; every division, in :func:`poly_gcd` and in the
Sturm sequence of :func:`real_roots`, is the integer pseudo-division of
``Poly.__divmod__``; and every exact evaluation, ``Poly.__call__`` at a
rational, the signs that certify a root and ``quad``'s values at the Gauss
nodes, is the integer Horner pass of :func:`_scaled_value`.  The rest of
the package builds the exceptional families out of these primitives and
only drops to floats at the quadrature/eigensolver layer.
"""

from __future__ import annotations

import bisect
import math
import numbers
import operator
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

RationalLike = Union[Fraction, int, str, float]


def as_rational(value) -> Fraction:
    """Coerce ints, Fractions, "num/den"/decimal strings, and float literals
    to an exact Fraction.

    Floats are read as their shortest decimal literal (0.1 -> 1/10), not as
    the underlying binary value; exact work should still prefer strings or
    Fractions.  Other integers and reals (numpy scalars among them) are read
    as the int or float they convert to.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a rational scalar")
    if isinstance(value, numbers.Integral):
        return Fraction(int(value))
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, numbers.Real):
        value = float(value)
        if not math.isfinite(value):
            raise ValueError("non-finite value is not rational")
        return Fraction(repr(value))
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def rational_str(value: RationalLike) -> str:
    """Canonical "num/den" form (denominator always written, always positive)."""
    q = as_rational(value)
    return f"{q.numerator}/{q.denominator}"


class _Value:
    """Base of the package's value records (``JacobiConstants``, ``WeightSpec``,
    ``Grid``, ``XFamilySpec``, the presets): ``==`` and ``hash`` read the
    tuple of the fields named in ``_fields``, ``repr`` shows them, and no
    attribute can be set or deleted once ``__init__`` has stored the fields
    into ``__dict__``.  Records of two different classes are never equal."""

    _fields: tuple[str, ...] = ()

    def _astuple(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


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

    # ring operations ------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
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
        if not isinstance(other, Poly):
            return NotImplemented
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

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        """Quotient and remainder, deg(remainder) < deg(other), exactly.

        Pseudo-division on the numerators: with l the leading numerator of
        ``other`` and e = deg(self) - deg(other) + 1, l^e self = q other + r
        holds in integers, one scaled subtraction per quotient term.
        """
        b = other._num
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
        if len(self._num) < len(b):
            return Poly.zero(), self
        quot, rem = _pseudo_divide(self._num, b, quotient=True)
        # l^e self = q other + r over self's den, other's den carried by q
        den = self._den * b[-1] ** len(quot)
        sign = -1 if den < 0 else 1
        return (Poly._from_ints([sign * v * other._den for v in quot], sign * den),
                Poly._from_ints([sign * v for v in rem], sign * den))

    # evaluation -----------------------------------------------------------

    def __call__(self, value):
        """Horner evaluation: exact for Fraction/int input (one integer pass,
        :func:`_scaled_value`), float for float.

        Also evaluates on anything supporting * and + (e.g. numpy arrays),
        with coefficients coerced to float in that case.  An array is
        evaluated in one work array, ``acc *= value; acc += c`` per
        coefficient: the same IEEE operations in the same order as
        ``acc = acc * value + c``, without two new arrays a degree.
        """
        if isinstance(value, (Fraction, int)):
            p, q = _ratio(value)
            return Fraction(_scaled_value(self._num, p, q),
                            self._den * q ** max(self.degree, 0))
        acc = 0.0 * value  # a new array, or an immutable scalar rebound below
        for c in reversed(self.to_floats()):
            acc *= value
            acc += c
        return acc

    def monic(self) -> "Poly":
        return self.scale(1 / self.leading)

    def shift(self, s: RationalLike) -> "Poly":
        """p(x + s), by an integer Taylor shift.

        With s = a/b and degree d, b^d p(x + a/b) = P(b x + a) for the
        integer polynomial P whose coefficient i is b^(d-i) times p's; P is
        shifted by a in integer Horner steps, and coefficient i of the result
        is then scaled by b^i.
        """
        a, b = _ratio(s)
        d = len(self._num) - 1
        if d < 1 or not a:
            return self
        bpow = [1]
        for _ in range(d):
            bpow.append(bpow[-1] * b)
        c = [v * bpow[d - i] for i, v in enumerate(self._num)]
        for i in range(d):
            for m in range(d - 1, i - 1, -1):
                c[m] += a * c[m + 1]
        return Poly._from_ints([v * w for v, w in zip(c, bpow)], self._den * bpow[d])

    def to_floats(self) -> list[float]:
        # int / int is correctly rounded, the same value float(Fraction) gives
        den = self._den
        return [c / den for c in self._num]

    # serialization --------------------------------------------------------

    def to_json(self) -> list[str]:
        """JSON form: array of "num/den" strings, ascending power."""
        return [rational_str(c) for c in self.coeffs]

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
    values = list(values)
    if all(type(v) is int for v in values):
        return values, 1
    pairs = [_ratio(v) for v in values]
    den = math.lcm(*(d for _, d in pairs)) if pairs else 1
    return [n * (den // d) for n, d in pairs], den


class DiffOp:
    """Exact linear differential operator with polynomial coefficients.

    L = sum of terms (c/den) x^s D^o, D = d/dx, built from a table
    ``{(s, o): c}`` of exact scalars and stored as integer numerators over one
    positive common denominator (zero terms dropped, content and denominator
    coprime).  The cleared equations of this package are second order,
    a0 + a1 D + a2 D^2 with a_o = sum_s c_(s,o) x^s, but any order works.
    ``L(f)`` is one integer pass over f's numerators and one normalization;
    ``L.monomial_matrix(size)`` is den*L on 1, x, ..., x^(size-1) as an
    integer matrix, read straight off the terms.
    """

    __slots__ = ("_by_order", "_den", "_reach")

    def __init__(self, table: Mapping[tuple[int, int], RationalLike]):
        if any(s < 0 or o < 0 for s, o in table):
            raise ValueError("term shifts and orders must be >= 0")
        nums, den = _clear(table.values())
        self._set(zip(table, nums), den)

    def _set(self, terms: Iterable[tuple[tuple[int, int], int]], den: int) -> None:
        """Store the terms ``((s, o), c)``, the operator sum (c/den) x^s D^o
        (den > 0), in canonical form."""
        terms = [(o, s, c) for (s, o), c in terms if c]
        g = math.gcd(den, *(c for _, _, c in terms))
        by_order: dict[int, list[tuple[int, int]]] = {}
        for o, s, c in sorted(terms):
            by_order.setdefault(o, []).append((s, c // g))
        self._by_order = tuple((o, tuple(shifts)) for o, shifts in by_order.items())
        self._den = den // g
        # the largest rise in degree, s - o, over the terms
        self._reach = max((s - o for o, s, _ in terms), default=0)

    @classmethod
    def _from_ints(cls, terms: Iterable[tuple[tuple[int, int], int]],
                   den: int = 1) -> "DiffOp":
        """The operator of integer terms ``((s, o), c)`` over ``den``; ``den``
        must be positive and the shifts and orders >= 0."""
        out = cls.__new__(cls)
        out._set(terms, den)
        return out

    @property
    def den(self) -> int:
        """The common denominator of the terms."""
        return self._den

    def __call__(self, f: Poly) -> Poly:
        fn = f._num
        out = [0] * max(len(fn) + self._reach, 0)
        for o, shifts in self._by_order:
            # D^o x^d = perm(d, o) x^(d-o); g[i] is the image of f's x^(i+o) term
            g = [math.perm(d, o) * fn[d] for d in range(o, len(fn))] if o else fn
            for s, c in shifts:
                for i, v in enumerate(g, s):
                    out[i] += c * v
        return Poly._from_ints(out, self._den * f._den)

    def monomial_matrix(self, size: int) -> list[list[int]]:
        """Integer matrix of den*L on the monomials 1..x^(size-1): column d
        holds the numerators of den*L(x^d), row r the power x^r.  Trailing
        zero rows are dropped; at least one row is kept."""
        rows = [[0] * size for _ in range(max(size + self._reach, 1))]
        for o, shifts in self._by_order:
            for d in range(o, size):
                w = math.perm(d, o)
                for s, c in shifts:
                    rows[d - o + s][d] += c * w
        while len(rows) > 1 and not any(rows[-1]):
            rows.pop()
        return rows


# ---------------------------------------------------------------------------
# classical families
# ---------------------------------------------------------------------------

def laguerre_family(n: int, m: RationalLike) -> list[Poly]:
    """Generalized Laguerre polynomials L_0^(m) .. L_n^(m), exact coefficients.

    Standard normalization: leading coefficient (-1)^i / i!.  One pass of the
    three-term recurrence
        (i+1) L_{i+1} = (2i + 1 + m - x) L_i - (i + m) L_{i-1},
    run on integers: with m = p/q cleared once, q times each coefficient is
    an integer, and every step is one :func:`_three_term_step`.
    The parameter m may be any rational (non-integer values are first-class).
    """
    if n < 0:
        raise ValueError("degree must be >= 0")
    p, q = _ratio(m)
    fam = [Poly.one(), Poly._from_ints([q + p, -q], q)]
    for i in range(1, n):
        fam.append(_three_term_step(fam[i], fam[i - 1], (i + 1) * q,
                                    (2 * i + 1) * q + p, -q, i * q + p))
    return fam[: n + 1]


def _three_term_step(cur: Poly, prev: Poly, c1: int, c2: int, c3: int,
                     c4: int) -> Poly:
    """The next member ((c2 + c3 x) cur - c4 prev) / c1 of a three-term
    recurrence with integer coefficients, c1 > 0: one integer pass over the
    numerators of cur and prev, brought to their least common denominator,
    and one normalization."""
    a, b = cur._num, prev._num
    g = math.gcd(cur._den, prev._den)
    fa, fb = prev._den // g, cur._den // g
    k2, k3, k4 = c2 * fa, c3 * fa, c4 * fb
    out = [k2 * v for v in a]
    out.append(0)
    for i, v in enumerate(a, 1):
        out[i] += k3 * v
    for i, v in enumerate(b):
        out[i] -= k4 * v
    return Poly._from_ints(out, c1 * cur._den * fa)


def laguerre_classical(n: int, m: RationalLike) -> Poly:
    """Generalized Laguerre polynomial L_n^(m); see :func:`laguerre_family`."""
    return laguerre_family(n, m)[n]


def jacobi_family(n: int, alpha: RationalLike, beta: RationalLike) -> list[Poly]:
    """Jacobi polynomials P_0^(alpha,beta) .. P_n^(alpha,beta), exact coefficients.

    Standard normalization P_i(1) = binomial(i + alpha, i), from one pass of
    the three-term recurrence c1 P_i = (c2 + c3 x) P_{i-1} - c4 P_{i-2} with
    s = alpha + beta and
        c1 = 2i (i+s) (2i+s-2),            c2 = (2i+s-1) (alpha^2 - beta^2),
        c3 = (2i+s-1) (2i+s) (2i+s-2),     c4 = 2 (i+alpha-1) (i+beta-1) (2i+s),
    run on integers: alpha = p/q and beta = r/q are cleared to one common q
    once, so q^3 times each c is an integer, and every step is one
    :func:`_three_term_step`.  Requires alpha, beta > -1 so the family is
    orthogonal under its weight.
    """
    if n < 0:
        raise ValueError("degree must be >= 0")
    (p, r), q = _clear((alpha, beta))
    if p <= -q or r <= -q:
        raise ValueError("jacobi parameters must satisfy alpha, beta > -1")
    ab = p + r  # q (alpha + beta)
    fam = [Poly.one(), Poly._from_ints([p - r, ab + 2 * q], 2 * q)]
    for i in range(2, n + 1):
        # q (2i+s-2), q (2i+s-1) and q (2i+s), all positive
        t0, t1, t2 = 2 * (i - 1) * q + ab, (2 * i - 1) * q + ab, 2 * i * q + ab
        c1 = 2 * i * q * (i * q + ab) * t0
        c2 = t1 * (p * p - r * r)
        c3 = t1 * t2 * t0
        c4 = 2 * ((i - 1) * q + p) * ((i - 1) * q + r) * t2
        fam.append(_three_term_step(fam[i - 1], fam[i - 2], c1, c2, c3, c4))
    return fam[: n + 1]


def jacobi_classical(n: int, alpha: RationalLike, beta: RationalLike) -> Poly:
    """Jacobi polynomial P_n^(alpha,beta); see :func:`jacobi_family`."""
    return jacobi_family(n, alpha, beta)[n]


class JacobiConstants(_Value):
    """The derived constants a = (beta-alpha)/2, b = (beta+alpha)/(beta-alpha),
    c = b + 1/a that control the exceptional Jacobi construction.

    For alpha, beta > -1 with alpha != beta and both positive, |b| > 1, which
    keeps the rational weight denominator (x - b)^2 away from [-1, 1].
    """

    _fields = ("a", "b", "c")

    def __init__(self, a: Fraction, b: Fraction, c: Fraction):
        self.__dict__.update(a=a, b=b, c=c)

    @staticmethod
    def from_parameters(alpha: RationalLike, beta: RationalLike) -> "JacobiConstants":
        al, be = as_rational(alpha), as_rational(beta)
        if al == be:
            raise ValueError("alpha == beta leaves the constants a, b, c undefined")
        a = (be - al) / 2
        b = (be + al) / (be - al)
        return JacobiConstants(a=a, b=b, c=b + 1 / a)


# ---------------------------------------------------------------------------
# exact linear algebra (small systems only)
# ---------------------------------------------------------------------------

def rational_nullspace(rows: list[list[RationalLike]]) -> list[list[Fraction]]:
    """Exact basis of the nullspace of a small rational matrix.

    One vector per free (non-pivot) column, with 1 in that column and 0 in
    the other free columns: the basis read off the reduced row echelon form,
    so it is unique.  Each row is cleared to integers and the matrix brought
    to echelon form by fraction-free elimination below the pivots, every new
    row divided by the gcd of its entries; each basis vector is then solved
    for by integer back substitution over one common denominator.  Only rows
    with a nonzero entry under a pivot are touched, so a banded matrix (an
    operator on monomials) costs little more than its band.
    """
    if not rows:
        return []
    mat = [_clear(row)[0] for row in rows]
    nrows, ncols = len(mat), len(mat[0])
    pivots: list[int] = []
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
        for i in range(r + 1, nrows):
            f = mat[i][c]
            if f:
                row = [p * v - f * w for v, w in zip(mat[i], top)]
                g = math.gcd(*row)
                mat[i] = [v // g for v in row] if g > 1 else row
        pivots.append(c)
    basis = []
    for fc in sorted(set(range(ncols)) - set(pivots)):
        # the vector is num / den on columns 0..fc; the rest is 0
        num, den = [0] * fc + [1], 1
        for r in range(bisect.bisect(pivots, fc) - 1, -1, -1):
            pc, row = pivots[r], mat[r]
            s = sum(map(operator.mul, row[pc + 1:fc + 1], num[pc + 1:]))
            if s:
                p = row[pc]
                num = [v * p for v in num]
                num[pc] = -s
                den *= p
                g = math.gcd(den, *num)
                if g > 1:
                    num = [v // g for v in num]
                    den //= g
        basis.append([Fraction(v, den) for v in num] + [Fraction(0)] * (ncols - fc - 1))
    return basis


# ---------------------------------------------------------------------------
# gcd and real roots (small polynomials only)
# ---------------------------------------------------------------------------

def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor of a and b, not both zero, by Euclid's
    algorithm on exact remainders."""
    while not b.is_zero:
        a, b = b, divmod(a, b)[1]
    return a.monic()


# float Newton steps per root, at most
_NEWTON_STEPS = 100


def real_roots(p: Poly) -> list[float]:
    """The distinct real roots of the nonconstant p, ascending, each as a
    float within one float step of the root: p is zero there, or p's exact
    signs at the float's two neighbours differ.

    A Sturm sequence, run on p's squarefree part, isolates each root in an
    interval (lo, hi] between dyadic floats, halving from a power of 2 above
    every root.  Newton steps on p's float values bring each root to one
    float x; exact signs 1, 2, 4, ... float steps either side of x then
    bracket the root, and bisection on exact signs takes the bracket down
    to two neighbouring floats.  An exact sign is one integer Horner pass
    over the numerators at x = a/b, about as fast as a float pass.
    """
    if p.degree < 1:
        raise ValueError("real_roots needs a nonconstant polynomial")
    chain = _sturm_chain(p)
    if chain[-1].degree > 0:  # then it is gcd(p, p'), up to a constant
        p = divmod(p, chain[-1])[0]
        chain = _sturm_chain(p)

    def variations(x: float) -> int:
        a, b = x.as_integer_ratio()
        return _variations([_scaled_value(q._num, a, b) for q in chain])

    # every distinct real root: the variations at -inf less those at +inf;
    # the numerators over one positive denominator carry the signs
    top = [q._num[-1] for q in chain]
    total = _variations([c if q.degree % 2 == 0 else -c for c, q in zip(top, chain)]) \
        - _variations(top)
    # a power of 2 at Fujiwara's bound 2 max |c_(n-i)/c_n|^(1/i), from float
    # ratios, doubled until the counts at +-bound see every root
    floats = p.to_floats()[::-1]
    fujiwara = 2 * max(abs(c / floats[0]) ** (1 / i) for i, c in enumerate(floats) if i)
    bound = 2.0 ** math.frexp(fujiwara)[1]
    while (v_lo := variations(-bound)) - (v_hi := variations(bound)) != total:
        bound *= 2
    roots, stack = [], [(-bound, bound, v_lo, v_hi)]
    while stack:
        lo, hi, v_lo, v_hi = stack.pop()
        if v_lo - v_hi == 1:
            roots.append(_isolated_root(p, lo, hi))
        elif v_lo > v_hi:
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:  # roots closer than one float step
                roots += [hi] * (v_lo - v_hi)
                continue
            v_mid = variations(mid)
            stack += [(mid, hi, v_mid, v_hi), (lo, mid, v_lo, v_mid)]
    return roots


def _pseudo_divide(a: Sequence[int], b: Sequence[int],
                   quotient: bool) -> tuple[list[int], list[int]]:
    """Integer pseudo-division of ascending numerators, len(a) >= len(b):
    with l the leading entry of b and e = len(a) - len(b) + 1,
    l^e a = q b + r, one scaled subtraction per quotient term.  Returns q
    (empty unless ``quotient`` asks for it, highest power last) and r, whose
    len(b) - 1 entries may end in zeros."""
    rem, nb, lead, quot = list(a), len(b), b[-1], []
    for top in range(len(rem) - 1, nb - 2, -1):
        c = rem[top]
        rem = [v * lead for v in rem[:top]]
        for i, v in enumerate(b[:-1], top - nb + 1):
            rem[i] -= c * v
        if quotient:
            quot = [v * lead for v in quot]
            quot.append(c)
    quot.reverse()
    return quot, rem


def _sturm_chain(p: Poly) -> list[Poly]:
    """The Sturm sequence of p: p, p' and the negated remainders of Euclid's
    algorithm on them, down to the last nonzero one.  Each term after p is a
    positive multiple of the exact one in integers: p' as the derivative of
    p's numerators, each remainder the primitive part of the integer
    pseudo-remainder (:func:`_pseudo_divide`, no quotient), its sign that of
    the remainder."""
    chain = [p, Poly._from_ints([i * c for i, c in enumerate(p._num)][1:])]
    while chain[-1].degree > 0:
        a, b = chain[-2]._num, chain[-1]._num
        rem = _pseudo_divide(a, b, quotient=False)[1]
        while rem and not rem[-1]:
            rem.pop()
        if not rem:
            break
        # l^e a = q b + r: the remainder's sign flips with l^e's, and the chain negates it
        flip = 1 if b[-1] < 0 and (len(a) - len(b)) % 2 == 0 else -1
        g = math.gcd(*rem)
        chain.append(Poly._from_ints([flip * c // g for c in rem]))
    return chain


def _variations(values: list) -> int:
    """Sign changes along ``values``, zeros skipped."""
    signs = [v > 0 for v in values if v]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def _scaled_value(nums: tuple[int, ...], a: int, b: int) -> int:
    """b^deg p(a/b), b > 0, of the polynomial with integer coefficients
    ``nums`` (ascending): an integer of p's sign at a/b."""
    acc, bpow = 0, 1
    for c in reversed(nums):
        acc = acc * a + c * bpow
        bpow *= b
    return acc


def _sign_at(p: Poly, x: float) -> int:
    """The exact sign of p at the float x."""
    value = _scaled_value(p._num, *x.as_integer_ratio())
    return (value > 0) - (value < 0)


def _isolated_root(p: Poly, lo: float, hi: float) -> float:
    """The float at the one root of p in (lo, hi]."""
    s_hi = _sign_at(p, hi)
    if not s_hi:
        return hi
    # start where the chord through the float values at lo and hi crosses 0
    v_lo, v_hi = p(lo), p(hi)
    x = lo - v_lo * (hi - lo) / (v_hi - v_lo) if v_hi != v_lo else lo
    a, b, x = lo, hi, x if lo < x < hi else 0.5 * (lo + hi)
    floats = p.to_floats()[::-1]
    for _ in range(_NEWTON_STEPS):
        v = dv = 0.0
        for c in floats:
            dv = dv * x + v
            v = v * x + c
        if v == 0.0:
            break
        if (v > 0.0) == (s_hi > 0):
            b = x
        else:
            a = x
        step = x - v / dv if dv else 0.5 * (a + b)
        if abs(step - x) <= 4 * math.ulp(x):  # rounding noise: exact signs take over
            break
        x = step if a < step < b else 0.5 * (a + b)
    step = math.ulp(x)
    while True:
        # lo's sign is -s_hi, or 0 where lo is the root below (lo, hi]
        a, b = max(x - step, lo), min(x + step, hi)
        s_a = -s_hi if a == lo else _sign_at(p, a)
        s_b = _sign_at(p, b)
        if not s_a * s_b:
            return b if s_a else a
        if s_a != s_b:
            if step == math.ulp(x):
                return x
            break
        step *= 2
    while a < (mid := 0.5 * (a + b)) < b:
        s = _sign_at(p, mid)
        if not s:
            return mid
        if s == s_b:
            b = mid
        else:
            a = mid
    return b
