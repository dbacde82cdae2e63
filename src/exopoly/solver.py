"""Finite-difference Schrödinger eigensolver on a uniform grid.

The Hamiltonian convention everywhere is H = -d^2/dx^2 + V(x) with Dirichlet
boundaries at both ends of the (truncated) domain, discretized with the
standard 3-point Laplacian.  Symmetric tridiagonal eigenvalues come from
LAPACK directly (:func:`tridiagonal_eigh`, values only): ``dstevd`` for the
full spectrum, which serves the Golub-Welsch construction in
:mod:`exopoly.quad`, and bisection by ``dstebz`` for the lowest levels.
These are the routines scipy's ``eigh_tridiagonal`` picks for the same calls,
so the values are bit for bit the same.

The lowest levels on a grid (:func:`lowest_levels`, and :func:`solve_spectrum`
for ``exopoly spectrum``) come from one recursive coarse-to-fine path.  The
levels on a grid give the shifts and start vectors on the grid with 16 times
as many points: each unit vector is carried up by linear interpolation, zero
at the Dirichlet ends.  Shifted inverse / Rayleigh-quotient iteration then
refines each level on the finer grid, one O(N) LAPACK ``dgtsv`` solve a step.
From such a start one step usually brings the residual
r = ||T x - rho x|| of the unit iterate x down to the round-off floor, a few
eps*||T||, and |lambda - rho| <= r for some eigenvalue lambda (Parlett, *The
Symmetric Eigenvalue Problem*, SIAM 1998, ch. 4).  Bisection runs only at the
bottom, on a grid too small to coarsen (1/16 of its points would leave fewer
than 8 a level, or fewer than 16), e.g. 250 points under a 64000-point grid.
Every refined grid's levels are accepted only when the intervals
[rho - r, rho + r] are disjoint and ascending and one Sturm count (LAPACK
``dstebz`` with an infinite tolerance, which only counts) finds exactly
``count`` eigenvalues up to the top one: then each interval holds exactly
one of the lowest ``count`` eigenvalues.  Otherwise (a coarser grid that
misses a state, near-degenerate levels, a potential that is singular at a
coarser node) the levels on that grid come from bisection on its own
points, and the grid above starts from those.  At 64000 points (2 vCPU,
median of 7) the oscillator's 3 levels take 18 ms against 63 ms by
full-grid bisection, Scarf's 4 levels 22 ms against 74 ms; ``exopoly
spectrum`` reads its residuals from the same iterates, 19 ms against
83-102 ms for bisection plus LAPACK ``stein`` vectors, which run threaded
BLAS.

Inner products and norms of grid vectors are numpy reductions, not
``np.dot``/``np.linalg.norm``.  Those hand vectors of more than about ten
thousand elements to BLAS ``ddot``, which OpenBLAS runs on its thread pool;
on a 2-vCPU machine each such call cost about 8 ms, against microseconds for
the reduction.  Levels whose shifts come from bisection start from a fixed
pseudo-random vector, drawn by ``random.Random(0).random()``, whose sequence
Python keeps the same across versions; so the levels are bit-identical from
run to run.  (``numpy.random`` would load OpenSSL through ``secrets``, about
6 MB of resident memory, for this one vector.)

The three LAPACK routines (``dstevd``, ``dstebz``, ``dgtsv``) come from
scipy's compiled ``_flapack`` extension, loaded from its file under the
package directory that ``importlib.util.find_spec("scipy")`` names, so
neither scipy's package ``__init__`` (its test utilities, ``subprocess``,
``sysconfig``) nor ``scipy.linalg`` runs.  ``import scipy.linalg`` would
give the same routine objects, but it also loads scipy's array-API layer,
which imports ``numpy.f2py``, ``numpy.testing`` and ``numpy.ma``; without
them a cold ``exopoly`` command is set up in 0.09 s instead of 0.21 s
(2-vCPU VM, numpy 2.4, scipy 1.17).  The loader falls back to
``scipy.linalg.lapack`` where the file is not found.
With the short import, the spin of OpenBLAS's worker thread at load time
would land inside the first solve instead of inside the import; the
command-line front end pins OpenBLAS to one thread before numpy loads
(nothing here runs a threaded BLAS kernel).
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass
from importlib import machinery, util
from typing import Callable, Optional, Sequence

import numpy as np


def _flapack_file() -> Optional[str]:
    """Path of scipy's compiled LAPACK extension, or None where it is not found.

    The package is located by ``find_spec``, which does not run scipy's
    ``__init__``."""
    spec = util.find_spec("scipy")
    roots = spec.submodule_search_locations if spec is not None else None
    for root in roots or ():
        for suffix in machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, "linalg", "_flapack" + suffix)
            if os.path.isfile(path):
                return path
    return None


def _load_lapack():
    """scipy's ``_flapack`` extension loaded from its file, without importing
    ``scipy.linalg``; ``scipy.linalg.lapack`` where the file is not found.
    Either way the routines are the same objects."""
    path = _flapack_file()
    if path is None:
        from scipy.linalg import lapack
        return lapack
    name = "scipy.linalg._flapack"
    spec = util.spec_from_file_location(name, path,
                                        loader=machinery.ExtensionFileLoader(name, path))
    module = util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_LAPACK = _load_lapack()


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
        # the discretization divides by h^2: both it and 1/h^2 must be floats
        h2 = self.h * self.h
        if not (0 < h2 < math.inf and 1 / h2 < math.inf):
            raise ValueError(f"grid spacing h={self.h!r} is outside the float range: "
                             "h^2 or 1/h^2 does not fit a float")

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


def tridiagonal_eigh(diag: np.ndarray, off: np.ndarray, count: Optional[int] = None):
    """Eigenvalues of a symmetric tridiagonal matrix, ascending.

    With ``count`` set, only the lowest ``count`` are computed, by bisection
    on Sturm sequences (LAPACK ``dstebz``); otherwise the full spectrum
    (``dstevd``, values only).
    """
    d = np.asarray(diag, dtype=float)
    e = np.asarray(off, dtype=float)
    if d.ndim != 1 or e.shape != (d.size - 1,):
        raise SolverError(f"tridiagonal eigensolve needs n diagonal and n - 1 off-diagonal "
                          f"entries, got shapes {d.shape} and {e.shape}")
    if not (np.all(np.isfinite(d)) and np.all(np.isfinite(e))):
        raise SolverError("tridiagonal eigensolve needs finite entries")
    if count is not None and not 1 <= count <= d.size:
        raise SolverError(f"tridiagonal eigensolve: count must be between 1 and {d.size}, "
                          f"got {count}")
    if d.size == 1:
        return d.copy()
    if count is None:
        w, _, info = _LAPACK.dstevd(d, e, compute_v=0)
    else:  # by index: il = 1, iu = count, tol = 0, ordered by value
        m, w, _, _, info = _LAPACK.dstebz(d, e, 2, 0.0, 1.0, 1, count, 0.0, b"E")
        w = w[:m]
    if info:
        raise SolverError(f"tridiagonal eigensolve failed (LAPACK info={info})")
    return w


def _check_count(count: int, op: Tridiagonal) -> None:
    if count < 1 or count > op.n:
        raise ValueError("count must be between 1 and the matrix size")


_COARSE = 16  # a grid starts from the levels on 1/_COARSE of its points
_STEPS = 4  # shifted solves per level, at most
_FLOOR = 8.0  # a residual below _FLOOR * eps * ||T|| is at round-off
_EPS = float(np.finfo(float).eps)


def _sturm_count(op: Tridiagonal, upper: float) -> int:
    """Number of eigenvalues <= ``upper``: LAPACK dstebz on (lower bound, upper]
    with an infinite tolerance, which counts and stops."""
    lower = float(np.min(op.diag)) - 2.0 * float(np.max(np.abs(op.off)))
    lower -= abs(lower) + 1.0  # strictly below the Gershgorin bound
    if upper <= lower:
        return 0
    m, *_, info = _LAPACK.dstebz(op.diag, op.off, 1, lower, upper, 0, 0, math.inf, b"B")
    if info:
        raise SolverError(f"Sturm count failed (dstebz info={info})")
    return int(m)


def _shifted_solve(op: Tridiagonal, shift: float, x: np.ndarray) -> np.ndarray:
    """(T - shift) y = x by LAPACK dgtsv (elimination with partial pivoting),
    O(N), with y in x's memory."""
    *_, y, info = _LAPACK.dgtsv(op.off, op.diag - shift, op.off, x,
                                overwrite_d=1, overwrite_b=1)
    if info:
        raise SolverError(f"shifted tridiagonal solve failed (dgtsv info={info})")
    return y


def _refine(op: Tridiagonal, shifts, rayleigh: bool, starts=None,
            keep: bool = False) -> tuple[list[float], list[float], Optional[list[np.ndarray]]]:
    """Value and residual ||T x - value x|| of a unit vector x for each shift,
    and the vectors themselves when ``keep`` asks for them.

    Each level runs shifted inverse iteration from its own start in
    ``starts`` (an iterable, read one vector at a time), or, without
    ``starts``, from the same fixed pseudo-random vector: entries
    ``random.Random(0).random() - 0.5``, so the result is bit-identical from
    run to run.  A smooth or low-discrepancy start would be nearly orthogonal
    to some smooth eigenvectors and need more solves.  With ``rayleigh``
    the shift moves to each iterate's Rayleigh quotient (Rayleigh-quotient
    iteration) and is the returned value; otherwise the shift stays put and
    only the vector is refined.  A level stops once its residual is at
    round-off, or after ``_STEPS`` solves.

    Each right-hand side is made orthogonal to the vectors of the levels
    below before the solve, not after it: the solve then damps the round-off
    the projection leaves, so a near-degenerate partner does not hand its own
    residual on (deflating after the solve left 1.8e-5 on the second level
    of a double well, against 1.5e-8 this way).  Without ``keep`` the vectors
    are dropped on return, before anything else allocates grid-sized work
    arrays; only a coarse grid's vectors are kept, as the next grid's starts.
    """
    floor = _FLOOR * _EPS * (float(np.max(np.abs(op.diag))) + 2.0 * float(np.max(np.abs(op.off))))
    if starts is None:  # the same start for every level
        rng = random.Random(0)
        start = np.array([rng.random() for _ in range(op.n)]) - 0.5
        starts = (start.copy() for _ in shifts)
    values, residuals, vectors = [], [], []
    for shift, x in zip(shifts, starts):
        shift = float(shift)
        for _ in range(_STEPS):
            for v in vectors:
                x -= _dot(v, x) * v
            x = _shifted_solve(op, shift, x)
            x /= math.sqrt(_dot(x, x))
            tx = op.matvec(x)
            if rayleigh:
                shift = _dot(x, tx)
            tx -= shift * x
            res = math.sqrt(_dot(tx, tx))
            if res <= floor:
                break
        values.append(shift)
        residuals.append(res)
        vectors.append(x)
    return values, residuals, (vectors if keep else None)


def _carried(coarse: Grid, vectors: list[np.ndarray], grid: Grid):
    """Each coarse vector linearly interpolated onto ``grid`` (the same ends),
    with zero at the Dirichlet ends; one vector at a time."""
    nodes = np.concatenate(([coarse.a], coarse.points(), [coarse.b]))
    points = grid.points()
    for v in vectors:
        yield np.interp(points, nodes, np.concatenate(([0.0], v, [0.0])))


def _certified(op: Tridiagonal, values: list[float], residuals: list[float]) -> bool:
    """True when the residual intervals are disjoint and ascending and a
    Sturm count finds exactly len(values) eigenvalues up to the top one."""
    lo = [e - r for e, r in zip(values, residuals)]
    hi = [e + r for e, r in zip(values, residuals)]
    if not all(h < l for h, l in zip(hi, lo[1:])):
        return False
    return _sturm_count(op, hi[-1]) == len(values)


def _lowest(potential: Callable[[np.ndarray], np.ndarray], grid: Grid, count: int,
            inner: bool = False):
    """The lowest ``count`` levels on ``grid``, their residuals and, for an
    ``inner`` (coarse) call, their unit vectors.

    A grid with at least 8 points a level on 1/``_COARSE`` of its points gets
    its shifts and start vectors from the same solve on that coarser grid,
    which recurses in turn; refinement on ``grid`` and a certificate follow.
    A grid too small to coarsen, and any input the certificate does not
    accept, gets bisection on its own points instead; the residuals and
    vectors then come from refinement at the bisection values, from the fixed
    start, which leaves the values as they are.
    """
    op = discretize(potential, grid)
    _check_count(count, op)
    n_coarse = grid.n // _COARSE
    if n_coarse >= 8 * max(2, count):  # 8 coarse points a level, a 16-point grid at least
        try:
            coarse = Grid(grid.a, grid.b, n_coarse)
            shifts, _, vectors = _lowest(potential, coarse, count, inner=True)
            refined = _refine(op, shifts, rayleigh=True, starts=_carried(coarse, vectors, grid),
                              keep=inner)
            if _certified(op, *refined[:2]):
                return refined
        except SolverError:
            pass
    values = tridiagonal_eigh(op.diag, op.off, count=count)
    return _refine(op, values, rayleigh=False, keep=inner)


def lowest_levels(potential: Callable[[np.ndarray], np.ndarray], grid: Grid,
                  count: int) -> list[float]:
    """Lowest ``count`` eigenvalues of -d^2/dx^2 + V on ``grid``, ascending.

    The same numbers as :func:`solve_spectrum`'s, without residuals.
    """
    return _lowest(potential, grid, count)[0]


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
    """Discretize, solve for the lowest ``count`` levels, and package a report.

    The levels are :func:`lowest_levels`'; the residuals are those of the
    refined eigenvectors.
    """
    eigenvalues, residuals, _ = _lowest(potential, grid, count)
    return SpectrumReport(
        preset=preset,
        params=dict(params or {}),
        grid=grid,
        eigenvalues=eigenvalues,
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
) -> float:
    """Measured convergence exponent p in error ~ h^p of the lowest eigenvalue.

    Solves the same problem on each grid size and fits log|E_0 - exact|
    against log h by least squares.
    """
    hs, errs = [], []
    for n in sizes:
        g = Grid(domain[0], domain[1], n)
        hs.append(g.h)
        errs.append(abs(lowest_levels(potential, g, 1)[0] - exact))
    if any(e == 0 for e in errs):
        raise SolverError("exact eigenvalue hit to roundoff; cannot fit an order")
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    return float(slope)
