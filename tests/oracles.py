"""Independent oracles used by the tests.

Deliberately self-contained: the classical-polynomial oracle solves the
differential equation's coefficient system directly with its own rational
Gaussian elimination, so it shares no code path with the recurrence-based
generation it is used to check.
"""

from fractions import Fraction
import math


def frac_nullspace(rows):
    """Nullspace basis of a small matrix of Fractions (local implementation)."""
    mat = [list(r) for r in rows]
    ncols = len(mat[0])
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = Fraction(1) / mat[r][c]
        mat[r] = [v * inv for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [v - f * w for v, w in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for rr, pc in enumerate(pivots):
            vec[pc] = -mat[rr][free]
        basis.append(vec)
    return basis


def laguerre_by_ode_system(n, m):
    """L_n^(m) coefficients (ascending) from the equation's coefficient recursion.

    x g'' + (m+1-x) g' + n g = 0 forces
    (p+1)(p+m+1) c_{p+1} = (p - n) c_p; normalized by L_n^(m)(0) = C(n+m, n).
    """
    m = Fraction(m)
    c0 = Fraction(1)
    for i in range(1, n + 1):
        c0 *= (m + i) / i
    coeffs = [c0]
    for p in range(n):
        coeffs.append(coeffs[-1] * (p - n) / ((p + 1) * (p + m + 1)))
    return coeffs


def jacobi_by_ode_system(n, alpha, beta):
    """P_n^(alpha,beta) coefficients (ascending) by solving the equation's
    coefficient system exactly, normalized by P_n(1) = C(n+alpha, n)."""
    a, b = Fraction(alpha), Fraction(beta)
    lam = n * (n + a + b + 1)
    ncols = n + 1
    rows = []
    for p in range(n + 1):
        row = [Fraction(0)] * ncols
        if p + 2 <= n:
            row[p + 2] += Fraction((p + 2) * (p + 1))
        if p + 1 <= n:
            row[p + 1] += (b - a) * (p + 1)
        row[p] += -Fraction(p * (p - 1)) - (a + b + 2) * p + lam
        rows.append(row)
    basis = frac_nullspace(rows)
    assert len(basis) == 1, f"expected unique eigenpolynomial, got {len(basis)}"
    vec = basis[0]
    value_at_1 = sum(vec)
    target = Fraction(1)
    for i in range(1, n + 1):
        target *= (a + i) / i
    scale = target / value_at_1
    return [c * scale for c in vec]


def laguerre_moment(k: float, p: int) -> float:
    """integral_0^inf x^p x^k e^-x dx = Gamma(k+p+1)."""
    return math.gamma(k + p + 1)


def log_laguerre_moment(k: float, p: int) -> float:
    return math.lgamma(k + p + 1)


def jacobi_mass(alpha: float, beta: float) -> float:
    """integral_-1^1 (1-x)^alpha (1+x)^beta dx = 2^(a+b+1) B(a+1, b+1)."""
    return 2.0 ** (alpha + beta + 1) * math.exp(
        math.lgamma(alpha + 1) + math.lgamma(beta + 1) - math.lgamma(alpha + beta + 2)
    )


def jacobi_moment_ratio(alpha, beta, p: int) -> Fraction:
    """Exact m_p / m_0 for the Jacobi weight with rational parameters.

    Beta-expansion with the Beta-function ratios reduced to rational products,
    so the alternating sum suffers no floating-point cancellation:
    m_p/m_0 = sum_j C(p,j) (-2)^j prod_{i=1..j} (alpha+i)/(alpha+beta+1+i).
    """
    a, b = Fraction(alpha), Fraction(beta)
    total = Fraction(0)
    ratio = Fraction(1)  # B(a+j+1, b+1)/B(a+1, b+1)
    for j in range(p + 1):
        total += math.comb(p, j) * Fraction(-2) ** j * ratio
        ratio *= (a + j + 1) / (a + b + j + 2)
    return total


def jacobi_moment(alpha, beta, p: int) -> float:
    """integral_-1^1 x^p (1-x)^alpha (1+x)^beta dx, cancellation-free."""
    return float(jacobi_moment_ratio(alpha, beta, p)) * jacobi_mass(
        float(alpha), float(beta)
    )


def eigen_lowest(op, count, grid=None):
    """Lowest ``count`` eigenpairs of a tridiagonal operator by LAPACK bisection
    and inverse iteration (``stein``, through scipy ``eigh_tridiagonal``).

    The solver's reference for its coarse-to-fine levels and refined vectors.
    Vectors are normalized in the h-weighted grid norm when ``grid`` is given
    (as GridFunctions), in the Euclidean norm otherwise.
    """
    import numpy as np
    from scipy.linalg import eigh_tridiagonal

    from exopoly.solver import GridFunction

    if count < 1 or count > op.n:
        raise ValueError("count must be between 1 and the matrix size")
    w, v = eigh_tridiagonal(op.diag, op.off, select="i", select_range=(0, count - 1))
    pairs = []
    for i in range(count):
        vec = v[:, i] / math.sqrt(math.fsum(v[:, i] ** 2))
        if grid is not None:
            vec = GridFunction(grid, vec / math.sqrt(grid.h))
        pairs.append((float(w[i]), vec))
    return pairs
