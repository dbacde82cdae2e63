"""Independent oracles used by the tests.

Deliberately self-contained: the classical-polynomial oracle solves the
differential equation's coefficient system directly with its own rational
Gaussian elimination, so it shares no code path with the recurrence-based
generation it is used to check.  The classical equations' residuals apply
their coefficient tables with the package's ``DiffOp``.
"""

from fractions import Fraction
import math

from exopoly.polycore import DiffOp, Poly

X = Poly.x()


def derivative(p: Poly) -> Poly:
    """d/dx of an exact polynomial, term by term from its coefficients."""
    return Poly([i * c for i, c in enumerate(p.coeffs) if i])


def coefficient(p: Poly, power: int) -> Fraction:
    """The coefficient of x^power in p (0 past the degree)."""
    return p.coeffs[power] if 0 <= power <= p.degree else Fraction(0)


def poly_from_floats(values) -> Poly:
    """The polynomial whose coefficients are the exact binary values of the
    floats ``values`` (0.5 -> 1/2, 0.1 -> 3602879701896397/2^55), where
    ``Poly`` reads a float as its shortest decimal literal."""
    return Poly([Fraction(*float(v).as_integer_ratio()) for v in values])


def horner_reference(p: Poly, x):
    """p at x by Horner with a new array per step, acc = acc * x + c, on the
    correctly rounded float coefficients."""
    acc = 0.0 * x
    for c in reversed(p.coeffs):
        acc = acc * x + float(c)
    return acc


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


def classical_ode_residual(g: Poly, family: str, params, eig) -> Poly:
    """Exact residual of the classical Laguerre/Jacobi differential equation.

    family="laguerre": params is m, residual = x g'' + (m+1-x) g' + eig*g.
    family="jacobi":   params is (alpha, beta),
                       residual = (1-z^2) g'' + [beta-alpha-(alpha+beta+2) z] g' + eig*g.

    ``eig`` is the degree-based eigenvalue: n for Laguerre and
    n(n+alpha+beta+1) for Jacobi.  The residual is the zero polynomial exactly
    when g is an eigenpolynomial at that eigenvalue.
    """
    lam = Fraction(eig)
    if family == "laguerre":
        return DiffOp(classical_laguerre_table(Fraction(params), lam))(g)
    if family == "jacobi":
        alpha, beta = Fraction(params[0]), Fraction(params[1])
        return DiffOp(classical_jacobi_table(alpha, beta, lam))(g)
    raise ValueError(f"unknown family {family!r}")


# Operator tables {(shift, order): coefficient}, one term c x^shift D^order
# each: plain arithmetic on the parameters, so they also expand symbolically.

def classical_laguerre_table(m, lam) -> dict:
    """x D^2 + (m+1-x) D + lam."""
    return {(1, 2): 1, (0, 1): m + 1, (1, 1): -1, (0, 0): lam}


def classical_jacobi_table(alpha, beta, lam) -> dict:
    """(1-z^2) D^2 + [beta-alpha-(alpha+beta+2) z] D + lam."""
    return {(0, 2): 1, (2, 2): -1, (0, 1): beta - alpha,
            (1, 1): -(alpha + beta + 2), (0, 0): lam}


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



def hamiltonian_residual(state, potential, grid) -> float:
    """Relative grid residual ||(H - E) psi|| / ||psi|| of a closed-form state,
    with H the solver's 3-point discretization (norm-independent)."""
    from exopoly.solver import discretize

    psi = state.on_grid(grid, normalize=False).values
    r = discretize(potential, grid).matvec(psi) - state.energy * psi
    return math.sqrt(math.fsum(r * r) / math.fsum(psi * psi))


def gram_schmidt_by_qr(weight, count):
    """The Gram-Schmidt route's members by one numpy QR of the bidiagonal
    matrix of phi_i = q_i - (l(q_i)/l(q_{i-1})) q_{i-1} in the weight's
    orthonormal basis: the factorization that ``xop.gram_schmidt_family``
    writes in closed form.  Same basis, functional and sign rule."""
    import numpy as np

    from exopoly.xop import _orthonormal_basis

    C, ell = _orthonormal_basis(weight, count)
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
