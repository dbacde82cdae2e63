"""Gaussian quadrature for the classical weights and for their rational
extensions.

The rational weights  x^k e^-x / (x+k)^2  on (0, inf)  and
(1-x)^a (1+x)^b / (x-b)^2  on [-1, 1]  are dlambda/(x-z)^2 for a classical
dlambda and a pole z = -k resp. b outside the support.  Their own monic
recurrence comes from the classical one by two linear-divisor modifications
(:func:`weight_recurrence`).  :func:`gauss_rule` is the one Gauss rule of any
weight: Golub-Welsch on the classical recurrence for the classical kinds, on
:func:`weight_recurrence` for the x1 kinds.

:func:`gram_matrix` is the one discrete inner product per weight: it
integrates polynomials on one such rule, sized to be exact by degree, as
numpy reductions of element-wise products, not BLAS products.  An exact
polynomial is evaluated exactly at the nodes and rounded once, and each
row of values and the weights are scaled by powers of two, so that the
cosines of inner products too large for a float stay finite
(:func:`_scaled_gram`).  :func:`integrate` is its 1x1 case, one polynomial
against the constant 1.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .polycore import JacobiConstants, Poly, RationalLike, _scaled_value, _Value, as_rational
from .solver import tridiagonal_eigh


class QuadratureError(RuntimeError):
    """Raised when a recurrence or a Gauss rule cannot be built."""


class WeightSpec(_Value):
    """A weight function for orthogonality integrals.

    kind is one of "laguerre", "jacobi", "x1-laguerre", "x1-jacobi"; the x1
    kinds carry the extra rational factor 1/(x+k)^2 resp. 1/(x-b)^2 on top of
    the classical density.  For x1-jacobi the parameters must keep |b| > 1 so
    that the denominator never vanishes on [-1, 1].
    """

    _fields = ("kind", "k", "alpha", "beta")

    def __init__(self, kind: str, k: Optional[Fraction] = None,
                 alpha: Optional[Fraction] = None, beta: Optional[Fraction] = None):
        self.__dict__.update(kind=kind, k=k, alpha=alpha, beta=beta)
        if self.kind in ("laguerre", "x1-laguerre"):
            if self.k is None:
                raise ValueError(f"{self.kind} weight needs parameter k")
            if self.kind == "x1-laguerre" and self.k <= 0:
                raise ValueError("x1-laguerre weight requires k > 0")
            if self.kind == "laguerre" and self.k <= -1:
                raise ValueError("laguerre weight requires k > -1")
        elif self.kind in ("jacobi", "x1-jacobi"):
            if self.alpha is None or self.beta is None:
                raise ValueError(f"{self.kind} weight needs alpha and beta")
            if self.alpha <= -1 or self.beta <= -1:
                raise ValueError("jacobi weight requires alpha, beta > -1")
            # the pole raises ValueError for alpha == beta, where b is undefined
            if self.kind == "x1-jacobi" and abs(self.pole) <= 1:
                raise ValueError(
                    "x1-jacobi weight has a pole inside [-1,1]: |b| <= 1"
                )
        else:
            raise ValueError(f"unknown weight kind {self.kind!r}")

    # constructors ---------------------------------------------------------

    @staticmethod
    def laguerre(k: RationalLike) -> "WeightSpec":
        return WeightSpec(kind="laguerre", k=as_rational(k))

    @staticmethod
    def x1_laguerre(k: RationalLike) -> "WeightSpec":
        return WeightSpec(kind="x1-laguerre", k=as_rational(k))

    @staticmethod
    def jacobi(alpha: RationalLike, beta: RationalLike) -> "WeightSpec":
        return WeightSpec(kind="jacobi", alpha=as_rational(alpha), beta=as_rational(beta))

    @staticmethod
    def x1_jacobi(alpha: RationalLike, beta: RationalLike) -> "WeightSpec":
        return WeightSpec(
            kind="x1-jacobi", alpha=as_rational(alpha), beta=as_rational(beta)
        )

    # properties -----------------------------------------------------------

    @property
    def domain(self) -> tuple[float, float]:
        if self.kind in ("laguerre", "x1-laguerre"):
            return (0.0, math.inf)
        return (-1.0, 1.0)

    @property
    def is_rational_extension(self) -> bool:
        return self.kind.startswith("x1-")

    def classical_base(self) -> "WeightSpec":
        """The classical weight underlying an x1 kind (identity otherwise)."""
        if self.kind == "x1-laguerre":
            return WeightSpec.laguerre(self.k)
        if self.kind == "x1-jacobi":
            return WeightSpec.jacobi(self.alpha, self.beta)
        return self

    @property
    def pole(self) -> Fraction:
        """The double pole z of the x1 factor 1/(x-z)^2: -k resp. JacobiConstants.b."""
        if self.kind == "x1-laguerre":
            return -self.k
        if self.kind == "x1-jacobi":
            return JacobiConstants.from_parameters(self.alpha, self.beta).b
        raise ValueError("only the x1 kinds have a pole")


class Recurrence:
    """Monic three-term recurrence p_{i+1} = (x - a_i) p_i - b_i p_{i-1}.

    ``mu0`` is the total mass of the weight; b_0 is unused by the recurrence
    itself but kept 0 by convention.
    """

    def __init__(self, a: np.ndarray, b: np.ndarray, mu0: float):
        self.a = a
        self.b = b
        self.mu0 = mu0


def recurrence_coefficients(weight: WeightSpec, n: int) -> Recurrence:
    """Three-term recurrence coefficients of the classical weight, length n.

    Raises ValueError naming the parameter when the mass or a coefficient does
    not fit a float (e.g. Gamma(k+1) past k ~ 170).
    """
    if n < 1:
        raise ValueError(f"recurrence needs n >= 1 coefficients, got n={n}")
    w = weight.classical_base()
    i = np.arange(n, dtype=float)
    try:
        if w.kind == "laguerre":
            k = float(w.k)
            a, b, mu0 = 2 * i + k + 1, i * (i + k), math.gamma(k + 1)
        else:
            al, be = float(w.alpha), float(w.beta)
            s = al + be
            a = np.empty(n)
            b = np.zeros(n)
            a[0] = (be - al) / (s + 2)
            if n > 1:
                ii = i[1:]
                a[1:] = (be**2 - al**2) / ((2 * ii + s) * (2 * ii + s + 2))
                # i = 1 written with the (1 + s) factor cancelled so s = -1 stays finite
                b[1] = 4 * (1 + al) * (1 + be) / ((2 + s) ** 2 * (3 + s))
                if n > 2:
                    jj = i[2:]
                    b[2:] = (
                        4 * jj * (jj + al) * (jj + be) * (jj + s)
                        / ((2 * jj + s) ** 2 * (2 * jj + s + 1) * (2 * jj + s - 1))
                    )
            # all in log space: 2^(s+1) alone overflows long before the mass does
            mu0 = math.exp((s + 1) * math.log(2) + math.lgamma(al + 1)
                           + math.lgamma(be + 1) - math.lgamma(s + 2))
    except OverflowError:
        mu0 = math.inf  # a and b may be unset; the test below stops at mu0
    if not (math.isfinite(mu0) and np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        name = "k" if w.kind == "laguerre" else ("alpha" if w.alpha >= w.beta else "beta")
        raise ValueError(f"{w.kind} weight parameter {name} is too large: the mass or "
                         "recurrence coefficients overflow a float")
    return Recurrence(a=a, b=b, mu0=mu0)


class QuadratureRule:
    """Nodes/weights of an n-point Gauss rule; exact through degree 2n-1."""

    def __init__(self, nodes: np.ndarray, weights: np.ndarray, exact_degree: int):
        self.nodes = nodes
        self.weights = weights
        self.exact_degree = exact_degree

    def integrate(self, f: Callable[[np.ndarray], np.ndarray]) -> float:
        return float(np.add.reduce(self.weights * np.asarray(f(self.nodes), dtype=float)))

    def to_csv(self, header: str = "") -> str:
        lines = []
        if header:
            lines.append(f"# {header}")
        lines.append("node,weight")
        for x, w in zip(self.nodes, self.weights):
            lines.append(f"{float(x)!r},{float(w)!r}")
        return "\n".join(lines) + "\n"


def golub_welsch(rec: Recurrence) -> QuadratureRule:
    """Gauss rule with one node per recurrence coefficient, from the symmetric
    tridiagonal Jacobi matrix.

    Nodes are the eigenvalues of the Jacobi matrix (via the tridiagonal
    solver of :mod:`exopoly.solver`).  Weights use the equivalent Christoffel
    form w_i = 1 / sum_m ptilde_m(x_i)^2 evaluated in log scale: the naive
    "first eigenvector component squared" loses the extreme Laguerre weights
    to absolute-precision underflow already around n = 32, whereas this form
    keeps every weight positive and relatively accurate.
    """
    n = len(rec.a)
    if n < 1:
        raise ValueError("rule needs at least one node")
    if np.any(rec.b[1:n] <= 0):
        raise QuadratureError("recurrence coefficients are not from a positive measure")
    diag = np.asarray(rec.a[:n], dtype=float)
    off = np.sqrt(np.asarray(rec.b[1:n], dtype=float))
    nodes = np.atleast_1d(tridiagonal_eigh(diag, off))
    weights = _christoffel_weights(rec, nodes)
    if np.any(weights < 0) or not np.all(np.isfinite(weights)):
        raise QuadratureError("negative quadrature weight produced")
    # true weights below ~1e-308 (possible past n ~ 256 on unbounded domains)
    # underflow to +0.0; their contributions are below representability anyway
    if n <= 128 and np.any(weights == 0):
        raise QuadratureError("unexpected zero quadrature weight at small n")
    return QuadratureRule(nodes=nodes, weights=weights, exact_degree=2 * n - 1)


def _christoffel_weights(rec: Recurrence, nodes: np.ndarray) -> np.ndarray:
    """w_i = 1 / sum_{m<n} ptilde_m(x_i)^2 with the orthonormal recurrence,
    n the number of nodes.

    The orthonormal values are carried as q * exp(s) with a per-node log
    scale s, and the sum is accumulated with logaddexp, so extreme nodes
    (where the true weight is ~1e-200) neither overflow nor flush to zero.
    """
    x, n = nodes, nodes.size
    q_prev = np.zeros_like(x)
    q = np.ones_like(x)
    s = np.full_like(x, -0.5 * math.log(rec.mu0))  # ptilde_0 = 1/sqrt(mu0)
    log_sum = 2 * s.copy()
    sqrt_b = np.sqrt(np.maximum(rec.b[:n], 0.0))
    for m in range(n - 1):
        q_next = ((x - rec.a[m]) * q - sqrt_b[m] * q_prev) / sqrt_b[m + 1]
        q_prev, q = q, q_next
        mag = np.maximum(np.abs(q), np.abs(q_prev))
        big = mag > 1e120
        if np.any(big):
            q[big] *= 1e-120
            q_prev[big] *= 1e-120
            s[big] += math.log(1e120)
        nz = q != 0
        log_sum[nz] = np.logaddexp(log_sum[nz], 2 * (np.log(np.abs(q[nz])) + s[nz]))
    return np.exp(-log_sum)


# ---------------------------------------------------------------------------
# Gauss rules of the rational weights themselves
# ---------------------------------------------------------------------------

_CF_START = 128
_CF_MAX = 2**17

_WEIGHT_RECURRENCE_CACHE: dict[WeightSpec, Recurrence] = {}


def _divide_linear(a: np.ndarray, b: np.ndarray, mu0: float,
                   z: float) -> tuple[np.ndarray, np.ndarray, float]:
    """Monic recurrence of dlambda/(t-z) from the length-n recurrence of
    dlambda, for z outside the support; the result has length n-1.

    The Cauchy integrals rho_m = int pi_m dlambda/(t-z) are the minimal
    solution of the recurrence; their ratios r_m = rho_m/rho_{m-1} come from
    the backward continued fraction r_m = b_m/((z-a_m) - r_{m+1}) started
    from r_n = 0, and then (Gautschi, OUP 2004, section 2.4)
    a'_m = a_m - r_m + r_{m+1},  b'_m = b_m + r_m (a_m - a_{m-1} - r_m + r_{m+1}),
    with r_0 = 0 and the new mass rho_0 = mu0/(r_1 - (z-a_0)).  The new
    measure is negative when z lies above the support; only its mass then
    changes sign.
    """
    n = len(a)
    al, be = a.tolist(), b.tolist()
    r = [0.0] * (n + 1)
    try:
        for m in range(n - 1, 0, -1):
            r[m] = be[m] / ((z - al[m]) - r[m + 1])
        rho0 = mu0 / (r[1] - (z - al[0]))
    except ZeroDivisionError:
        raise QuadratureError(f"continued fraction for the pole z={z} hit a zero "
                              "denominator") from None
    r = np.array(r)
    a_new = a[:-1] - r[:-2] + r[1:-1]
    b_new = np.zeros(n - 1)
    b_new[1:] = b[1:-1] + r[1:-2] * (a[1:-1] - a[:-2] - r[1:-2] + r[2:-1])
    return a_new, b_new, rho0


def weight_recurrence(weight: WeightSpec, n: int) -> Recurrence:
    """The first n monic recurrence coefficients of an x1 weight itself.

    Divides the classical recurrence twice by (t-z), z the pole, with
    :func:`_divide_linear`.  The backward continued fraction starts at
    _CF_START coefficients and doubles until the first n coefficients and the
    mass repeat bit for bit, so a shorter request returns a prefix of a
    longer one; past _CF_MAX it raises QuadratureError.  Cached per weight.
    """
    if n < 1:
        raise ValueError(f"recurrence needs n >= 1 coefficients, got n={n}")
    rec = _WEIGHT_RECURRENCE_CACHE.get(weight)
    if rec is None or len(rec.a) < n:
        rec = _divided_recurrence(weight, n)
        _WEIGHT_RECURRENCE_CACHE[weight] = rec
    return Recurrence(a=rec.a[:n], b=rec.b[:n], mu0=rec.mu0)


def _divided_recurrence(weight: WeightSpec, n: int) -> Recurrence:
    length, prev = _CF_START, None
    while length < n + 2:
        length *= 2
    while length <= _CF_MAX:
        base = recurrence_coefficients(weight, length)
        # after the overflow check of the first base, which names the parameter
        z = float(weight.pole)
        a, b, mu0 = _divide_linear(*_divide_linear(base.a, base.b, base.mu0, z), z)
        cur = np.concatenate([a[:n], b[:n], [mu0]])
        if prev is not None and np.array_equal(prev, cur):
            break
        prev, length = cur, 2 * length
    else:
        raise QuadratureError(f"{weight.kind} recurrence did not settle within "
                              f"{_CF_MAX} continued-fraction steps")
    if not (mu0 > 0 and np.all(b[1:n] > 0)):
        raise QuadratureError(f"{weight.kind} recurrence is not from a positive measure")
    return Recurrence(a=a[:n].copy(), b=b[:n].copy(), mu0=mu0)


def gauss_rule(weight: WeightSpec, n: int) -> QuadratureRule:
    """n-point Gauss rule of the weight itself (exact through degree 2n-1):
    the rule of :func:`recurrence_coefficients` for the classical kinds, of
    :func:`weight_recurrence` for the x1 kinds."""
    if weight.is_rational_extension:
        return golub_welsch(weight_recurrence(weight, n))
    return golub_welsch(recurrence_coefficients(weight, n))


def _degree(f) -> int:
    if isinstance(f, Poly):
        return max(f.degree, 0)
    if callable(f):
        raise TypeError("gram_matrix integrates polynomials only (a Poly or a "
                        "coefficient array), not a callable")
    return max(len(np.atleast_1d(f)) - 1, 0)


def _scaled_rows(fs: Sequence[Union[Poly, np.ndarray]],
                 x: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Row i holds fs[i] at the nodes x times 2^-e[i], with e[i] the integer
    that brings the row's largest magnitude to about 1: no row overflows,
    however large the polynomial's values, and the scale comes off exactly.

    A Poly, integer numerators over den, is evaluated exactly at each node
    a/2^s = ``x.as_integer_ratio()``: its value there is n / (den 2^(s deg)),
    n by integer Horner (:func:`polycore._scaled_value`), rounded once by one
    correctly rounded integer division that takes the scale with it.
    Anything else is read as ascending float coefficients and evaluated by
    ``np.polyval``; a constant is broadcast.
    """
    # a float's ratio has a power-of-two denominator b = 2^s
    ratios = [(a, b, b.bit_length() - 1)
              for a, b in map(float.as_integer_ratio, x.tolist())]
    rows, exps = [], []
    for f in fs:
        if isinstance(f, Poly):
            deg, den = max(f.degree, 0), f._den
            vals = [(_scaled_value(f._num, a, b), s * deg) for a, b, s in ratios]
            # 2^(e-1) < |n / (den 2^t)| < 2^(e+1) at the largest
            e = max((n.bit_length() - t - den.bit_length() for n, t in vals if n),
                    default=0)
            rows.append([n / (den << (t + e)) if t + e >= 0 else (n << -(t + e)) / den
                         for n, t in vals])
        else:
            vals = np.broadcast_to(np.polyval(
                np.atleast_1d(np.asarray(f, dtype=float))[::-1], x), x.shape)
            e = _exponent(vals)
            rows.append(np.ldexp(vals, -e))
        exps.append(e)
    return np.array(rows, dtype=float), exps


def _exponent(values: np.ndarray) -> int:
    """e with max |values| in [2^(e-1), 2^e); 0 for all zeros or a non-finite
    maximum."""
    return math.frexp(float(np.max(np.abs(values))))[1]


def _scaled_gram(
    polys: Sequence[Union[Poly, np.ndarray]],
    weight: WeightSpec,
    others: Optional[Sequence[Union[Poly, np.ndarray]]] = None,
) -> tuple[np.ndarray, list[int], list[int]]:
    """(G, e, f) with G[i, j] 2^(e[i] + f[j]) the inner product (polys[i],
    others[j]): the Gram matrix of :func:`gram_matrix` with each row's
    values (:func:`_scaled_rows`) and the Gauss weights scaled by powers of
    two to a largest magnitude of about 1, so that no product or sum
    overflows where the inner products themselves would.  Cosines
    G[i, j] / sqrt(G[i, i] G[j, j]) are those of the inner products.

    Each entry is a sum of element-wise products by ``np.add.reduce``, not a
    BLAS product.
    """
    if not len(polys):
        raise ValueError("gram_matrix needs at least one polynomial")
    right_polys = polys if others is None else others
    degree = max(map(_degree, polys)) + max(map(_degree, right_polys), default=0)
    rule = gauss_rule(weight, degree // 2 + 1)
    vals, e = _scaled_rows(polys, rule.nodes)
    right, f = (vals, e) if others is None else _scaled_rows(others, rule.nodes)
    ew = _exponent(rule.weights)
    gram = np.add.reduce(
        (vals * np.ldexp(rule.weights, -ew))[:, None, :] * right[None, :, :], axis=-1)
    if others is None:
        lower = np.tril_indices(len(polys), -1)
        gram[lower] = gram.T[lower]
    return gram, [v + ew for v in e], f


def gram_matrix(
    polys: Sequence[Union[Poly, np.ndarray]],
    weight: WeightSpec,
    others: Optional[Sequence[Union[Poly, np.ndarray]]] = None,
) -> np.ndarray:
    """Matrix of inner products (polys[i], others[j]) under the weight.

    Without ``others`` it is the Gram matrix of ``polys``, with the upper
    triangle mirrored so the result is symmetric by construction.  Every
    entry comes from one :func:`gauss_rule` of nu = floor((deg p + deg q)/2)
    + 1 nodes, the largest degrees over both lists, so it is exact by degree.
    A Poly is evaluated exactly at the nodes and rounded once; a coefficient
    array by ``np.polyval``.  The sums are numpy reductions of element-wise
    products (:func:`_scaled_gram`), so no BLAS kernel runs; the power-of-two
    scales come off exactly, and an entry too large for a float reads inf.
    A callable is refused with TypeError.
    """
    gram, e, f = _scaled_gram(polys, weight, others)
    # C-int exponents of the result's own shape: ldexp's native loop, where
    # broadcast int64 exponents fault in numpy's integer add and cast loops
    return np.ldexp(gram, np.array([[a + b for b in f] for a in e], dtype=np.intc))


def integrate(f: Union[Poly, np.ndarray], weight: WeightSpec) -> float:
    """Integral of the polynomial f (a Poly or a coefficient array) against the
    weight: the 1x1 :func:`gram_matrix` of f and the constant 1, exact by
    degree.  A callable is refused with gram_matrix's TypeError."""
    return float(gram_matrix([f], weight, others=[np.ones(1)])[0, 0])
