"""Finite-difference Schrödinger eigensolver on a uniform grid.

The Hamiltonian convention everywhere is H = -d^2/dx^2 + V(x) with Dirichlet
boundaries at both ends of the (truncated) domain, discretized with the
standard 3-point Laplacian.  The symmetric tridiagonal eigenproblems go
through LAPACK's bisection (scipy ``eigh_tridiagonal``), which also serves
the Golub-Welsch construction in :mod:`exopoly.quad`.  Eigenvectors, by
inverse iteration, are computed only when asked for: the verify path's
spectrum checks read eigenvalues alone (:func:`lowest_levels`), and
:func:`solve_spectrum` adds vectors and residuals for ``exopoly spectrum``.

Inner products and norms of grid vectors are numpy reductions, not
``np.dot``/``np.linalg.norm``.  Those hand vectors of more than about ten
thousand elements to BLAS ``ddot``, which OpenBLAS runs on its thread pool;
on a 2-vCPU machine each such call cost about 8 ms, against microseconds for
the reduction, and inverse iteration makes the same threaded calls.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.linalg import eigh_tridiagonal


class SolverError(RuntimeError):
    """Raised when a discretization or eigensolve cannot proceed."""


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """sum(a * b) by numpy's pairwise reduction, kept off the BLAS thread pool."""
    return float(np.add.reduce(a * b))


@dataclass(frozen=True)
class Grid:
    """Uniform grid with N interior points on (a, b); h = (b-a)/(N+1).

    Dirichlet values at a and b are implicit and never stored.  For radial
    problems a = 0 is the exact boundary point of the half-line; the potential
    is only ever evaluated at interior nodes, so centrifugal terms are safe.
    """

    a: float
    b: float
    n: int

    def __post_init__(self):
        if not self.a < self.b:
            raise ValueError("grid requires a < b")
        if self.n < 16:
            raise ValueError("grid requires at least 16 interior points")

    @property
    def h(self) -> float:
        return (self.b - self.a) / (self.n + 1)

    def points(self) -> np.ndarray:
        return self.a + self.h * np.arange(1, self.n + 1)


@dataclass
class GridFunction:
    """Values of a function at the interior nodes of a Grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.n,):
            raise ValueError("values must match the grid size")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("grid function contains non-finite values")

    def norm(self) -> float:
        return math.sqrt(self.grid.h * _dot(self.values, self.values))

    def inner(self, other: "GridFunction") -> float:
        return self.grid.h * _dot(self.values, other.values)

    def normalized(self) -> "GridFunction":
        nrm = self.norm()
        if nrm == 0:
            raise ValueError("cannot normalize the zero grid function")
        return GridFunction(self.grid, self.values / nrm)


@dataclass(frozen=True)
class Tridiagonal:
    """Symmetric tridiagonal operator: main diagonal and (constant-length-1) off diagonal."""

    diag: np.ndarray
    off: np.ndarray

    @property
    def n(self) -> int:
        return len(self.diag)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        out = self.diag * v
        out[:-1] += self.off * v[1:]
        out[1:] += self.off * v[:-1]
        return out


def discretize(potential: Callable[[np.ndarray], np.ndarray], grid: Grid) -> Tridiagonal:
    """3-point discretization of -d^2/dx^2 + V with Dirichlet boundaries.

    Diagonal entries 2/h^2 + V(x_i), off-diagonal -1/h^2.  A potential that
    evaluates to a non-finite value anywhere on the grid is rejected, naming
    the offending node.
    """
    x = grid.points()
    v = np.asarray(potential(x), dtype=float)
    if v.shape == ():
        v = np.full(grid.n, float(v))
    bad = np.flatnonzero(~np.isfinite(v))
    if bad.size:
        raise SolverError(f"potential is not finite at grid node x={float(x[bad[0]])!r}")
    h2 = grid.h**2
    return Tridiagonal(diag=2.0 / h2 + v, off=np.full(grid.n - 1, -1.0 / h2))


def tridiagonal_eigh(
    diag: np.ndarray,
    off: np.ndarray,
    count: Optional[int] = None,
    values_only: bool = False,
):
    """Eigen-decomposition of a symmetric tridiagonal matrix, ascending.

    With ``count`` set, only the lowest ``count`` eigenvalues are computed, by
    bisection on Sturm sequences; otherwise the full spectrum.  Eigenvectors
    (inverse iteration for ``count``) are returned alongside unless
    ``values_only``, which returns the eigenvalues alone.
    """
    select, select_range = ("a", None) if count is None else ("i", (0, count - 1))
    try:
        return eigh_tridiagonal(diag, off, eigvals_only=values_only,
                                select=select, select_range=select_range)
    except Exception as exc:  # pragma: no cover - LAPACK failures are exotic
        raise SolverError(f"tridiagonal eigensolve failed: {exc}") from exc


def _check_count(count: int, op: Tridiagonal) -> None:
    if count < 1 or count > op.n:
        raise ValueError("count must be between 1 and the matrix size")


def lowest_levels(potential: Callable[[np.ndarray], np.ndarray], grid: Grid,
                  count: int) -> list[float]:
    """Lowest ``count`` eigenvalues of -d^2/dx^2 + V on ``grid``, ascending.

    The same numbers as :func:`solve_spectrum`'s, without eigenvectors.
    """
    op = discretize(potential, grid)
    _check_count(count, op)
    w = tridiagonal_eigh(op.diag, op.off, count=count, values_only=True)
    return [float(e) for e in w]


def eigen_lowest(op: Tridiagonal, count: int, grid: Optional[Grid] = None):
    """Lowest ``count`` eigenpairs of a tridiagonal operator, ascending.

    Eigenvectors are normalized (in the h-weighted grid norm when ``grid`` is
    given, Euclidean otherwise).  Returns a list of (eigenvalue, vector) with
    vector a GridFunction when ``grid`` is given, else a plain array.
    """
    _check_count(count, op)
    w, v = tridiagonal_eigh(op.diag, op.off, count=count)
    pairs = []
    for i in range(count):
        vec = v[:, i]
        if grid is not None:
            gf = GridFunction(grid, vec / math.sqrt(grid.h * _dot(vec, vec)))
            pairs.append((float(w[i]), gf))
        else:
            pairs.append((float(w[i]), vec / math.sqrt(_dot(vec, vec))))
    return pairs


def eigen_residual(op: Tridiagonal, value: float, vec: np.ndarray) -> float:
    """Discrete residual ||T psi - E psi|| / ||psi|| (norm-independent)."""
    r = op.matvec(vec) - value * vec
    return math.sqrt(_dot(r, r) / _dot(vec, vec))


def rayleigh_quotient(op: Tridiagonal, psi) -> float:
    """<psi, T psi> / <psi, psi> for a grid function or plain vector."""
    v = psi.values if isinstance(psi, GridFunction) else np.asarray(psi, dtype=float)
    denom = _dot(v, v)
    if denom == 0.0:
        raise ValueError("rayleigh quotient of the zero vector")
    return _dot(v, op.matvec(v)) / denom


# ---------------------------------------------------------------------------
# spectrum reports and comparison
# ---------------------------------------------------------------------------

@dataclass
class SpectrumReport:
    """Eigenvalues of one Hamiltonian with per-pair discrete residuals."""

    preset: str
    params: dict
    grid: Grid
    eigenvalues: list[float]
    residuals: list[float]
    mapping: Optional[dict] = None

    def to_dict(self) -> dict:
        out = {
            "preset": self.preset,
            "params": self.params,
            "grid": {"a": self.grid.a, "b": self.grid.b, "N": self.grid.n},
            "levels": [
                {"E": e, "residual": r}
                for e, r in zip(self.eigenvalues, self.residuals)
            ],
        }
        if self.mapping is not None:
            out["mapping"] = self.mapping
        return out

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, **kwargs)

    def to_csv(self) -> str:
        lines = ["index,E,residual"]
        for i, (e, r) in enumerate(zip(self.eigenvalues, self.residuals)):
            lines.append(f"{i},{e!r},{r!r}")
        return "\n".join(lines) + "\n"


def solve_spectrum(
    potential: Callable[[np.ndarray], np.ndarray],
    grid: Grid,
    count: int,
    preset: str = "custom",
    params: Optional[dict] = None,
) -> SpectrumReport:
    """Discretize, solve for the lowest ``count`` levels, and package a report."""
    op = discretize(potential, grid)
    pairs = eigen_lowest(op, count, grid=grid)
    eigs = [e for e, _ in pairs]
    residuals = [eigen_residual(op, e, gf.values) for e, gf in pairs]
    return SpectrumReport(
        preset=preset,
        params=dict(params or {}),
        grid=grid,
        eigenvalues=eigs,
        residuals=residuals,
    )


def spectrum_compare(a: Sequence[float], b: Sequence[float], tol: float) -> dict:
    """Greedy nearest-match mapping of spectrum ``b`` into spectrum ``a``.

    Candidate pairs are taken in order of increasing |E_a - E_b| and accepted
    while both levels are unused and the gap is within ``tol``.  The result
    reports matched index pairs, the unmatched levels of each side, and the
    worst matched gap; it deliberately does not presuppose which side (if
    either) is missing a state -- the mapping itself is the evidence.
    """
    a = list(a)
    b = list(b)
    cand = sorted(
        ((abs(ea - eb), i, j) for i, ea in enumerate(a) for j, eb in enumerate(b)),
        key=lambda t: t[0],
    )
    used_a: set[int] = set()
    used_b: set[int] = set()
    pairs = []
    for gap, i, j in cand:
        if gap > tol:
            break
        if i in used_a or j in used_b:
            continue
        used_a.add(i)
        used_b.add(j)
        pairs.append({"a": i, "b": j, "diff": gap})
    pairs.sort(key=lambda p: p["a"])
    return {
        "pairs": pairs,
        "unmatched_a": [i for i in range(len(a)) if i not in used_a],
        "unmatched_b": [j for j in range(len(b)) if j not in used_b],
        "max_pair_diff": max((p["diff"] for p in pairs), default=0.0),
    }


def convergence_order(
    potential: Callable[[np.ndarray], np.ndarray],
    domain: tuple[float, float],
    exact: float,
    sizes: Sequence[int],
    level: int = 0,
) -> float:
    """Measured eigenvalue convergence exponent p in error ~ h^p.

    Solves the same problem on each grid size and fits log|E - exact| against
    log h by least squares.
    """
    hs, errs = [], []
    for n in sizes:
        g = Grid(domain[0], domain[1], n)
        hs.append(g.h)
        errs.append(abs(lowest_levels(potential, g, level + 1)[level] - exact))
    if any(e == 0 for e in errs):
        raise SolverError("exact eigenvalue hit to roundoff; cannot fit an order")
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    return float(slope)
