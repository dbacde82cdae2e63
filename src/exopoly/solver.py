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
[rho - r, rho + r] are disjoint and ascending and one Sturm count finds
exactly ``count`` eigenvalues up to the top one: then each interval holds
exactly one of the lowest ``count`` eigenvalues.  Otherwise (a coarser grid
that misses a state, near-degenerate levels, a potential that is singular
at a coarser node) the levels on that grid come from bisection on its own
points, and the grid above starts from those.  At 64000 points (2 vCPU,
median of 7) the oscillator's 3 levels take 18 ms against 63 ms by
full-grid bisection, Scarf's 4 levels 22 ms against 74 ms; ``exopoly
spectrum`` reads its residuals from the same iterates, 19 ms against
83-102 ms for bisection plus LAPACK ``stein`` vectors, which run threaded
BLAS.

The Sturm count is the inertia of T - upper: the number of non-positive
pivots of its LDL^T factorization, one sweep down the matrix.  LAPACK
``dpttrf`` runs the sweep and stops at the first pivot <= 0; the count
eliminates the next row past that pivot by hand (a zero pivot taken as
-pivmin, as LAPACK's bisection ``dlaebz`` takes it) and restarts ``dpttrf``
there, once per non-positive pivot.  Its only work arrays are the two
copies it factors in place, d - upper and e.  At 64000 points it takes
0.70 ms against 2.72 ms for a ``dstebz`` count by value (best of 30, 2-vCPU
VM), which allocates 5n doubles and 5n integers (3.84 MB) to return one
integer.

Inner products and norms of grid vectors are numpy reductions, not
``np.dot``/``np.linalg.norm``.  Those hand vectors of more than about ten
thousand elements to BLAS ``ddot``, which OpenBLAS runs on its thread pool;
on a 2-vCPU machine each such call cost about 8 ms, against microseconds for
the reduction.  Levels whose shifts come from bisection start from a fixed
pseudo-random vector, drawn by ``random.Random(0).random()``, whose sequence
Python keeps the same across versions; so the levels are bit-identical from
run to run.  (``numpy.random`` would load OpenSSL through ``secrets``, about
6 MB of resident memory, for this one vector.)

The four LAPACK routines (``dstevd``, ``dstebz``, ``dgtsv``, ``dpttrf``)
are plain functions of :mod:`exopoly._lapack`, called on arrays the solver
owns.  Where numpy's wheel ships its own OpenBLAS (numpy >= 2), they are
bound by ctypes from that library, which ``import numpy`` has already
mapped, so the process holds one LAPACK.  Loading scipy's ``_flapack``
instead mapped scipy's own OpenBLAS beside numpy's: ``import exopoly.cli``
left 31.4 MB resident against 29.3 MB now, and a cold ``exopoly verify`` on
``{}`` peaks at 36.7 MB against 33.6 MB (medians, 2-vCPU VM, numpy 2.4,
scipy 1.17).  Finding and binding the library takes about 0.06 ms, and a
call costs 2-4 us more than through f2py.  Where numpy ships no LAPACK
of its own (Accelerate, distro or conda builds), the same four functions
wrap scipy's ``_flapack``, loaded from its file so that neither scipy's
package ``__init__`` nor ``scipy.linalg`` runs (``scipy.linalg`` loads
``numpy.f2py``, ``numpy.testing`` and ``numpy.ma``).  The package's
``__init__`` pins OpenBLAS to one thread before numpy loads: its worker
thread spins at load time, and nothing here runs a threaded BLAS kernel.
These four are the only LAPACK routines an ``exopoly verify`` run calls:
the quotient eigenproblem of :mod:`exopoly.xop` is solved exactly, its
Gram-Schmidt basis and :func:`convergence_order`'s slope are closed forms,
so no dense ``numpy.linalg`` driver (``eig``, ``qr``, ``lstsq`` behind
``np.polyfit``) pulls its OpenBLAS code into the campaign's memory.  Nor
does any BLAS product: the Gram matrices of :mod:`exopoly.quad`, the
Gram-Schmidt members and ``QuadratureRule.integrate`` sum element-wise
products by ``np.add.reduce``, as :func:`_dot` does for grid vectors, and
the package holds no ``@`` and no ``np.dot``/``matmul``/``einsum`` call (a
test reads the source).  The first such product, on matrices of 13 rows at
most, faulted in OpenBLAS's GEMM code and reserved its 32 MB buffer: in a
cold ``exopoly verify`` on ``{}`` the library's resident pages grew by
732 KB against 448 KB without the products, the LAPACK start-up the solver
pays anyway (2-vCPU VM, numpy 2.4).

Memory: a solve for ``count`` levels on N points holds at most count + 4
grid arrays (N doubles, 512 KB at 64000 points) at once.  The peak falls at
the last level's ``dgtsv``: the ``count`` level vectors (the carried starts,
each refined in place), the three work rows :func:`_refine` makes once per
grid for ``dgtsv``'s copies of T, T x and the products of the inner
products, and the diagonal.  The off-diagonal is one value broadcast to
n - 1 entries, and the fine points the starts are interpolated on are freed
before the work rows are made.  Scarf's 4 levels at 64000 points peak at
8.01 arrays of traced heap, against 11.33 when every step made its own
copies, products and T x.  Under glibc's starting malloc thresholds arrays
of this size are mapped fresh and unmapped on free, so their pages fault in
again: about 1.5 us a 4 KiB page, map and unmap included (2-vCPU VM).  The
command-line front end (:mod:`exopoly.cli`) starts glibc at the ceiling of
its sliding thresholds, so freed arrays are reused; the solver, like any
library import, leaves the allocator alone.
"""

from __future__ import annotations

import json
import math
import random
from typing import Callable, Optional, Sequence

import numpy as np

from . import _lapack
from .polycore import _Value


class SolverError(RuntimeError):
    """Raised when a discretization or eigensolve cannot proceed."""


def _dot(a: np.ndarray, b: np.ndarray, out: Optional[np.ndarray] = None) -> float:
    """sum(a * b) by numpy's pairwise reduction, kept off the BLAS thread pool;
    the products go to ``out`` when it is given, else to a new array."""
    return float(np.add.reduce(np.multiply(a, b, out=out)))


class Grid(_Value):
    """Uniform grid with N interior points on (a, b); h = (b-a)/(N+1).

    Dirichlet values at a and b are implicit and never stored.  For radial
    problems a = 0 is the exact boundary point of the half-line; the potential
    is only ever evaluated at interior nodes, so centrifugal terms are safe.
    The ends are stored as floats and N must be an int: a fractional N would
    give an h that disagrees with the N points.
    """

    _fields = ("a", "b", "n")

    def __init__(self, a: float, b: float, n: int):
        self.__dict__.update(a=float(a), b=float(b), n=n)
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError(f"grid ends must be finite, got a={self.a!r}, b={self.b!r}")
        if not self.a < self.b:
            raise ValueError("grid requires a < b")
        if not isinstance(n, int) or isinstance(n, bool):
            raise ValueError(f"grid needs an int number of interior points, not {n!r}")
        if n < 16:
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
        """a + h * i for i = 1..N, in the one array returned."""
        x = np.arange(1, self.n + 1, dtype=float)
        x *= self.h
        x += self.a
        return x


class GridFunction:
    """Values of a function at the interior nodes of a Grid."""

    def __init__(self, grid: Grid, values: np.ndarray):
        self.grid = grid
        self.values = np.asarray(values, dtype=float)
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


class Tridiagonal:
    """Symmetric tridiagonal operator: main diagonal and (length n - 1) off diagonal.

    ``off`` may be a read-only view: :func:`discretize` makes its constant
    off-diagonal a stride-0 broadcast of one value, and nothing here writes
    into either array.
    """

    def __init__(self, diag: np.ndarray, off: np.ndarray):
        self.diag = diag
        self.off = off

    @property
    def n(self) -> int:
        return len(self.diag)

    def matvec(self, v: np.ndarray, out: Optional[np.ndarray] = None,
               tmp: Optional[np.ndarray] = None) -> np.ndarray:
        """T v, into ``out`` when given; the off-diagonal products go to
        ``tmp`` (n entries, or n - 1) when given, else to new arrays."""
        m = self.n - 1
        out = np.multiply(self.diag, v, out=out)
        out[:-1] += np.multiply(self.off, v[1:], out=None if tmp is None else tmp[:m])
        out[1:] += np.multiply(self.off, v[:-1], out=None if tmp is None else tmp[:m])
        return out


def discretize(potential: Callable[[np.ndarray], np.ndarray], grid: Grid) -> Tridiagonal:
    """3-point discretization of -d^2/dx^2 + V with Dirichlet boundaries.

    Diagonal entries 2/h^2 + V(x_i), off-diagonal -1/h^2, the latter one
    value broadcast to n - 1 entries (a read-only view, no grid array).  A
    potential that evaluates to a non-finite value anywhere on the grid is
    rejected, naming the offending node.
    """
    x = grid.points()
    v = np.asarray(potential(x), dtype=float)
    if v.shape == ():
        v = np.full(grid.n, float(v))
    bad = np.flatnonzero(~np.isfinite(v))
    if bad.size:
        raise SolverError(f"potential is not finite at grid node x={float(x[bad[0]])!r}")
    h2 = grid.h**2
    return Tridiagonal(diag=2.0 / h2 + v, off=np.broadcast_to(-1.0 / h2, (grid.n - 1,)))


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
    if count is None:  # dstevd overwrites both: the values land in w
        w = d.copy()
        info = _lapack.dstevd(w, e.copy())
    else:
        d, e = np.require(d, requirements="CW"), np.require(e, requirements="CW")
        m, w, info = _lapack.dstebz(d, e, count)
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
_SAFEMIN = float(np.finfo(float).tiny)  # LAPACK's safe minimum, dlamch("S")
_MAX = float(np.finfo(float).max)


def _sturm_count(op: Tridiagonal, upper: float) -> int:
    """Number of eigenvalues <= ``upper``: the non-positive pivots of the
    LDL^T factorization of T - upper, counted in one sweep.

    LAPACK ``dpttrf`` factors until it meets a pivot <= 0.  The sweep counts
    that pivot, eliminates the next row past it and restarts ``dpttrf`` on
    the rest; a zero pivot is taken as -pivmin, ``dstebz``'s pivmin, as
    LAPACK's bisection does."""
    d = op.diag - upper
    e = op.off.copy()
    emax = max(1.0, float(e.max()), -float(e.min())) if e.size else 1.0
    pivmin = min(_SAFEMIN * emax * emax, _MAX)  # no overflow where e^2 would
    k, count = 0, 0
    while True:
        info = _lapack.dpttrf(d[k:], e[k:])
        if info < 0:
            raise SolverError(f"Sturm count failed (dpttrf info={info})")
        if info == 0:
            return count
        count += 1
        k += info  # the first row past the pivot it stopped at
        if k == d.size:
            return count
        piv, ek = float(d[k - 1]) or -pivmin, float(e[k - 1])
        d[k] -= ek / piv * ek  # Python floats: an overflow is inf, as in dpttrf


def _shifted_solve(op: Tridiagonal, shift: float, x: np.ndarray,
                   work: Sequence[np.ndarray]) -> np.ndarray:
    """(T - shift) y = x by LAPACK dgtsv (elimination with partial pivoting),
    O(N), with y in x's memory.  dgtsv overwrites its copies of T, which go
    to the three N-entry ``work`` rows: sub-diagonal, diagonal,
    super-diagonal."""
    m = op.n - 1
    lower, diag, upper = work[0][:m], work[1], work[2][:m]
    np.copyto(lower, op.off)
    np.subtract(op.diag, shift, out=diag)
    np.copyto(upper, op.off)
    info = _lapack.dgtsv(lower, diag, upper, x)
    if info:
        raise SolverError(f"shifted tridiagonal solve failed (dgtsv info={info})")
    return x


def _refine(op: Tridiagonal, shifts, rayleigh: bool, starts=None,
            keep: bool = False) -> tuple[list[float], list[float], Optional[list[np.ndarray]]]:
    """Value and residual ||T x - value x|| of a unit vector x for each shift,
    and the vectors themselves when ``keep`` asks for them.

    Each level runs shifted inverse iteration from its own start in
    ``starts``, a list of vectors refined in place, or, without ``starts``,
    from the same fixed pseudo-random vector: entries
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
    of a double well, against 1.5e-8 this way).

    Apart from the vectors, the grid-sized arrays are three work rows made
    once: they take ``dgtsv``'s three overwritten copies of T, and between
    solves row 0 holds T x and row 1 the products of every inner product
    and projection.  Three rows rather than one (3, N) block, so each fits
    a hole an earlier grid array left in the heap: at 1,000,000 points the
    block grew the resident set by two arrays more.  Without ``keep`` the
    vectors are dropped on return; only a coarse grid's vectors are kept, as
    the next grid's starts.
    """
    work = [np.empty(op.n) for _ in range(3)]
    row0, row1 = work[0], work[1]
    floor = _FLOOR * _EPS * (float(np.max(np.abs(op.diag, out=row0)))
                             + 2.0 * float(np.max(np.abs(op.off, out=row1[:op.n - 1]))))
    if starts is None:  # the same start for every level, copied before any is refined
        rng = random.Random(0)
        start = np.fromiter((rng.random() for _ in range(op.n)), float, op.n)
        start -= 0.5
        starts = [start] + [start.copy() for _ in range(len(shifts) - 1)]
    values, residuals, vectors = [], [], []
    for shift, x in zip(shifts, starts):
        shift = float(shift)
        for _ in range(_STEPS):
            for v in vectors:
                x -= np.multiply(v, _dot(v, x, row1), out=row1)
            x = _shifted_solve(op, shift, x, work)
            x /= math.sqrt(_dot(x, x, row1))
            tx = op.matvec(x, out=row0, tmp=row1)
            if rayleigh:
                shift = _dot(x, tx, row1)
            tx -= np.multiply(x, shift, out=row1)
            res = math.sqrt(_dot(tx, tx, row1))
            if res <= floor:
                break
        values.append(shift)
        residuals.append(res)
        vectors.append(x)
    return values, residuals, (vectors if keep else None)


def _carried(coarse: Grid, vectors: list[np.ndarray], grid: Grid) -> list[np.ndarray]:
    """Each coarse vector linearly interpolated onto ``grid`` (the same ends),
    with zero at the Dirichlet ends.  All are made before any is refined, so
    the fine points are freed before the refinement's work rows exist."""
    nodes = np.concatenate(([coarse.a], coarse.points(), [coarse.b]))
    points = grid.points()
    return [np.interp(points, nodes, np.concatenate(([0.0], v, [0.0]))) for v in vectors]


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
            starts = _carried(coarse, vectors, grid)
            del vectors  # the coarse vectors are not needed past the carry
            refined = _refine(op, shifts, rayleigh=True, starts=starts, keep=inner)
            del starts  # the refined vectors, unless ``inner`` kept them
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

class SpectrumReport:
    """Eigenvalues of one Hamiltonian with per-pair discrete residuals."""

    def __init__(self, preset: str, params: dict, grid: Grid, eigenvalues: list[float],
                 residuals: list[float], mapping: Optional[dict] = None):
        self.preset = preset
        self.params = params
        self.grid = grid
        self.eigenvalues = eigenvalues
        self.residuals = residuals
        self.mapping = mapping

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
    worst matched gap (None if nothing paired); it does not presuppose which
    side (if either) is missing a state -- the mapping itself is the evidence.
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
        "max_pair_diff": max((p["diff"] for p in pairs), default=None),
    }


def convergence_order(
    potential: Callable[[np.ndarray], np.ndarray],
    domain: tuple[float, float],
    exact: float,
    sizes: Sequence[int],
) -> float:
    """Measured convergence exponent p in error ~ h^p of the lowest eigenvalue.

    Solves the same problem on each grid size and fits log|E_0 - exact|
    against log h by least squares, the slope in closed form:
    sum (u - mean u)(v - mean v) / sum (u - mean u)^2 with u = log h and
    v = log error.  Needs at least two distinct sizes.
    """
    sizes = list(sizes)
    if len(set(sizes)) < 2:
        raise ValueError(f"sizes must hold at least two distinct grid sizes, got {sizes}")
    logh, loge = [], []
    for n in sizes:
        g = Grid(domain[0], domain[1], n)
        err = abs(lowest_levels(potential, g, 1)[0] - exact)
        if err == 0:
            raise SolverError("exact eigenvalue hit to roundoff; cannot fit an order")
        logh.append(math.log(g.h))
        loge.append(math.log(err))
    mh, me = math.fsum(logh) / len(logh), math.fsum(loge) / len(loge)
    return (math.fsum((u - mh) * (v - me) for u, v in zip(logh, loge))
            / math.fsum((u - mh) ** 2 for u in logh))
