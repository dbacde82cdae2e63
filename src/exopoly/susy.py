"""Superpotentials, partner potentials, and intertwining-operator checks.

The factorization conventions are
    A = d/dx + W,   Adag = -d/dx + W,
    H+ = Adag A = -d^2/dx^2 + W^2 - W',   H- = A Adag = -d^2/dx^2 + W^2 + W',
so V+/- = W^2 -/+ W' + E and V- - V+ = 2 W'.  (Printed sources sometimes
state the difference with the opposite sign; the construction identity tested
here is the one the factorization actually implies.)

Everything preset-specific is run in verify-or-falsify mode: the printed
superpotential candidate and the printed extension identities are evaluated
and their deviations reported, never assumed.  The intertwiner that provably
maps classical oscillator states onto exceptional ones is derived from the
polynomial ladder operator and carries that construction in
:func:`oscillator_intertwiner`.
"""

from __future__ import annotations

import math
import random
import time
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .polycore import jacobi_classical
from .potentials import CoulombRadial, Oscillator3D, ScarfTrig
from .solver import Grid, GridFunction, _dot, discretize
from .xop import XFamilySpec, operator_family


class Superpotential:
    """Evaluable W and W'."""

    def __init__(self, w: Callable[[np.ndarray], np.ndarray],
                 w_prime: Callable[[np.ndarray], np.ndarray]):
        self.w = w
        self.w_prime = w_prime


class PartnerPair:
    """V+/- = W^2 -/+ W' + E, by construction."""

    def __init__(self, v_plus: Callable[[np.ndarray], np.ndarray],
                 v_minus: Callable[[np.ndarray], np.ndarray]):
        self.v_plus = v_plus
        self.v_minus = v_minus


def partner_potentials(w: Superpotential, energy: float = 0.0) -> PartnerPair:
    """Build the partner pair; V- - V+ = 2 W' identically."""

    def v_plus(x):
        return w.w(x) ** 2 - w.w_prime(x) + energy

    def v_minus(x):
        return w.w(x) ** 2 + w.w_prime(x) + energy

    return PartnerPair(v_plus=v_plus, v_minus=v_minus)


def _derivative(v: np.ndarray, h: float) -> np.ndarray:
    """Grid derivative: centered in the interior and 3-point one-sided at the
    two end nodes (no Dirichlet ghost is assumed for the derivative itself)."""
    if len(v) < 3:
        raise ValueError("grid too small for one-sided stencils")
    d = np.empty_like(v)
    inner = np.subtract(v[2:], v[:-2], out=d[1:-1])
    inner /= 2 * h
    d[0] = (-3 * v[0] + 4 * v[1] - v[2]) / (2 * h)
    d[-1] = (3 * v[-1] - 4 * v[-2] + v[-3]) / (2 * h)
    return d


def apply_A(w: Superpotential, psi: GridFunction, dagger: bool = False) -> GridFunction:
    """(d/dx + W) psi, or (-d/dx + W) psi with dagger (see :func:`_derivative`)."""
    return _apply_A(w.w(psi.grid.points()), psi, dagger)


def _apply_A(wx: np.ndarray, psi: GridFunction, dagger: bool = False) -> GridFunction:
    """:func:`apply_A` from W's values ``wx`` at psi's grid points, in the
    derivative's array."""
    d = _derivative(psi.values, psi.grid.h)
    if dagger:
        np.negative(d, out=d)
    d += wx * psi.values
    return GridFunction(psi.grid, d)


def formal_zero_mode(w: Superpotential, grid: Grid) -> GridFunction:
    """exp(-integral W) by grid quadrature; the formal kernel of A."""
    x = grid.points()
    wx = w.w(x)
    acc = np.concatenate(([0.0], np.cumsum((wx[1:] + wx[:-1]) * grid.h / 2)))
    acc -= acc.min()  # keep the exponent bounded
    return GridFunction(grid, np.exp(-acc))


def intertwine_check(w: Superpotential, grid: Grid, sources: Iterable[GridFunction],
                     targets: Iterable[GridFunction]) -> list[list[dict]]:
    """Least-squares match of A psi against each target, for each source psi.

    Entry [i][j] holds, for source i and target j, the scale s minimizing
    ||A psi_i - s psi_j|| and the relative residual ||A psi_i - s psi_j|| /
    ||psi_j||, as ``{"scale", "rel_residual"}``.  Every function must live on
    ``grid``.  A small residual certifies the classical -> exceptional
    mapping for that pairing; mismatched pairings come out O(1).

    W is evaluated on the grid once, and A psi of every source is made
    before the first target is read.  Sources and targets are read one at a
    time and dropped once used; each target's norm, inner products and
    residuals are computed in one buffer.  With generators for both, the
    grid arrays alive at once are the A psi made so far, then W's values
    (while sources are read) or one target and the buffer (while targets
    are read), and the function the generator is making.
    """
    def on_grid(psi: GridFunction) -> GridFunction:
        if psi.grid != grid:
            raise ValueError("every function must live on the given grid")
        return psi

    wx = w.w(grid.points())
    # map holds no source or target after its call, so each is freed before
    # the next one is made
    phis = [phi.values for phi in map(lambda psi: _apply_A(wx, on_grid(psi)), sources)]
    del wx
    h = grid.h

    def fit(target: GridFunction) -> list[dict]:
        t, buf = on_grid(target).values, np.empty(grid.n)
        norm = math.sqrt(h * _dot(t, t, buf))
        if norm == 0:
            raise ValueError("target function is zero")
        out = []
        for phi in phis:
            scale = h * _dot(phi, t, buf) / norm**2
            diff = np.subtract(phi, np.multiply(t, scale, out=buf), out=buf)
            GridFunction(grid, diff)  # rejects a non-finite difference
            out.append({"scale": float(scale),
                        "rel_residual": float(math.sqrt(h * _dot(diff, diff, buf)) / norm)})
        return out

    columns = list(map(fit, targets))
    return [[column[i] for column in columns] for i in range(len(phis))]


def superpotential_from_ground_state(psi0: GridFunction) -> Superpotential:
    """Diagnostic W = -psi0'/psi0 and W' by the stencil of :func:`_derivative`.

    Requires psi0 strictly positive in the grid interior (a node makes the
    log-derivative meaningless).  The returned callables interpolate the grid
    samples linearly.
    """
    v = psi0.values
    if np.any(v <= 0):
        bad = int(np.argmax(v <= 0))
        raise ValueError(
            f"ground state must be strictly positive; violated at node {bad}"
        )
    h = psi0.grid.h
    wvals = -_derivative(v, h) / v
    dw = _derivative(wvals, h)
    x0 = psi0.grid.points()

    def w(x):
        return np.interp(x, x0, wvals)

    def w_prime(x):
        return np.interp(x, x0, dw)

    return Superpotential(w=w, w_prime=w_prime)


# ---------------------------------------------------------------------------
# the oscillator intertwiner and the printed candidate
# ---------------------------------------------------------------------------

def oscillator_intertwiner(l: int) -> Superpotential:
    """Superpotential whose A = d/dx + W maps classical oscillator states with
    angular momentum l-1 onto the exceptional states with angular momentum l.

    W(x) = -l/x - x/2 - x/(x^2/2 + k), k = l + 1/2.  Derived by pushing the
    polynomial ladder operator through the oscillator prefactors; the mapping
    A psi+_nu = psi-_(nu+1) is exact at the closed-form level, so grid
    residuals of the intertwining check are pure O(h^2).
    """
    if l < 1:
        raise ValueError("need l >= 1 so the classical side l-1 is a radial channel")
    kf = l + 0.5

    def w(x):
        x = np.asarray(x, dtype=float)
        u = x**2 / 2 + kf
        return -l / x - x / 2 - x / u

    def w_prime(x):
        x = np.asarray(x, dtype=float)
        u = x**2 / 2 + kf
        return l / x**2 - 0.5 - 1.0 / u + x**2 / u**2

    return Superpotential(w=w, w_prime=w_prime)


def printed_superpotential_candidate(l: int, k: float) -> Superpotential:
    """The printed candidate W = -l/x - 1/2 - 1/(x+k), taken verbatim.

    Its variable convention is ambiguous in the source (x versus x^2/2), so it
    is audited under both readings rather than trusted; see
    :func:`verify_claims`.
    """
    kf = float(k)

    def w(x):
        x = np.asarray(x, dtype=float)
        return -l / x - 0.5 - 1.0 / (x + kf)

    def w_prime(x):
        x = np.asarray(x, dtype=float)
        return l / x**2 + 1.0 / (x + kf) ** 2

    return Superpotential(w=w, w_prime=w_prime)


def random_smooth_functions(grid: Grid, count: int, seed: int = 0) -> list[GridFunction]:
    """Seeded smooth test functions vanishing to high order at both ends.

    sin^6 envelope times a random low-order trigonometric polynomial: smooth,
    deterministic, and boundary-compatible with the Dirichlet discretization
    through the fifth derivative, so one-sided end stencils composed with the
    Laplacian stay O(h^2) accurate instead of injecting boundary jumps.  The
    four coefficients of each function are uniform on [-1, 1), drawn by
    ``random.Random(seed).random()``, whose sequence Python keeps the same
    across versions, so the functions are the same from run to run.
    """
    rng = random.Random(seed)
    x = grid.points()
    s = (x - grid.a) / (grid.b - grid.a)
    window = np.sin(np.pi * s) ** 6
    sin2, cos1 = np.sin(2 * np.pi * s), np.cos(np.pi * s)
    out = []
    for _ in range(count):
        c = [2.0 * rng.random() - 1.0 for _ in range(4)]
        bump = c[0] + c[1] * s + c[2] * sin2 + c[3] * cos1
        out.append(GridFunction(grid, window * bump).normalized())
    return out


def intertwining_operator_residual(w: Superpotential, grid: Grid,
                                   psis: Sequence[GridFunction]) -> list[float]:
    """||(A H+ - H- A) psi|| / ||psi|| for each psi on ``grid``, in order, with
    H+/- built from the same W.

    H+, H- and W's grid values are made once for all the psis.  The
    continuum identity A H+ = H- A holds exactly for any W; on the grid the
    residual is O(h^2) for smooth boundary-compatible psi.
    """
    if any(psi.grid != grid for psi in psis):
        raise ValueError("every test function must live on the given grid")
    pair = partner_potentials(w)
    h_plus = discretize(pair.v_plus, grid)
    h_minus = discretize(pair.v_minus, grid)
    wx = w.w(grid.points())

    def residual(psi: GridFunction) -> float:
        lhs = _apply_A(wx, GridFunction(grid, h_plus.matvec(psi.values)))
        rhs = h_minus.matvec(_apply_A(wx, psi).values)
        return GridFunction(grid, lhs.values - rhs).norm() / psi.norm()

    # one function's work arrays at a time: each is freed when residual returns
    return [residual(psi) for psi in psis]


# ---------------------------------------------------------------------------
# claim audit
# ---------------------------------------------------------------------------

_CLAIM_POINTS = 4000  # points of each preset's audit grid


def _row(claim: str, params: dict, dev: float, tol: Optional[float],
         status: str) -> dict:
    return {
        "claim": claim,
        "params": params,
        "max_abs_dev": float(dev),
        "tol": tol,
        "status": status,
        "done": time.perf_counter(),
    }


def verify_claims(preset: str) -> list[dict]:
    """Evaluate the preset-specific printed identities and report deviations.

    Every row carries the measured numbers; construction identities that hold
    by algebra are pass/fail at tight tolerance, while printed preset-specific
    formulas are always status "reported" (their deviations are findings, not
    test failures).  Presets: "oscillator3d", "coulomb", "scarf".

    Each row's "runtime" is the wall time since the previous row was made
    (since the call began, for the first row), so the rows' runtimes add up
    to the time of the call.
    """
    claims = {"oscillator3d": _oscillator_claims, "coulomb": _coulomb_claims,
              "scarf": _scarf_claims}
    if preset not in claims:
        raise ValueError(f"claim audit covers oscillator3d, coulomb, scarf; got {preset!r}")
    t0 = time.perf_counter()
    rows = claims[preset]()
    for row in rows:
        done = row.pop("done")
        row["runtime"] = done - t0
        t0 = done
    return rows


def _oscillator_claims() -> list[dict]:
    l = 1
    kf = l + 0.5
    grid = Grid(0.0, 12.0, _CLAIM_POINTS)
    # audit window away from the centrifugal singularity
    x = grid.points()
    win = x > 0.25
    xw = x[win]
    rows = []
    params = {"preset": "oscillator3d", "l": l, "k": kf}

    w_der = oscillator_intertwiner(l)
    pair = partner_potentials(w_der, 0.0)
    vdiff = pair.v_minus(xw) - pair.v_plus(xw)
    two_wp = 2 * w_der.w_prime(xw)
    dev = float(np.max(np.abs(vdiff - two_wp)))
    scale = float(np.max(np.abs(two_wp)))
    rows.append(_row("partner-construction-difference", params,
                     dev, 1e-10 * max(scale, 1.0),
                     "pass" if dev <= 1e-10 * max(scale, 1.0) else "fail"))

    w_printed = printed_superpotential_candidate(l, kf)
    direct = np.abs(w_printed.w(xw) - w_der.w(xw))
    rows.append(_row("superpotential-printed-direct-reading", params,
                     float(np.max(direct)), None, "reported"))
    chain = np.abs(xw * w_printed.w(xw**2 / 2) - w_der.w(xw))
    rows.append(_row("superpotential-printed-chain-rule-reading", params,
                     float(np.max(chain)), None, "reported"))

    # printed claim: 2W' equals the oscillator extension term
    osc = Oscillator3D(l=l)
    ext = osc.extension(xw)
    rows.append(_row("oscillator-extension-vs-2wprime", params,
                     float(np.max(np.abs(two_wp - ext))), None, "reported"))
    # ... and the gap is exactly the centrifugal step 2l/x^2 - 1 between the
    # partner channels, which identifies the claim's missing terms
    gap = two_wp - ext - (2 * l / xw**2 - 1.0)
    rows.append(_row("oscillator-2wprime-extension-gap-structure", params,
                     float(np.max(np.abs(gap))), None, "reported"))
    printed_rhs = -l / xw**2 + 2 * xw**2 / (xw**2 + kf) ** 2 - 1.0 / (xw**2 + kf)
    rows.append(_row("oscillator-2wprime-printed-rhs", params,
                     float(np.max(np.abs(two_wp - printed_rhs))), None, "reported"))

    # does the conventional ground-state recipe recover the intertwiner? (it should not)
    psi0 = osc.exceptional_state(1).on_grid(grid)
    if psi0.values.sum() < 0:  # closed forms are defined up to sign
        psi0 = GridFunction(grid, -psi0.values)
    w_gs = superpotential_from_ground_state(psi0)
    dev_gs = np.abs(w_gs.w(xw) - w_der.w(xw))
    rows.append(_row("ground-state-superpotential-diagnostic", params,
                     float(np.max(dev_gs)), None, "reported"))
    return rows


def _coulomb_claims() -> list[dict]:
    l = 0
    kf = 2 * l + 1
    grid = Grid(0.0, 80.0, _CLAIM_POINTS)
    r = grid.points()
    win = r > 0.5
    rw = r[win]
    params = {"preset": "coulomb", "l": l, "k": kf}
    rows = []

    # printed mapped expression: -l/r^2 + (1/r)(1/(r+k) - 2k/(r+k)^2)
    coulomb = CoulombRadial(l=l)
    printed = -l / rw**2 + (1.0 / rw) * coulomb.ve_printed(rw)
    for n in (1, 2):
        derived = coulomb.extension(rw, n)
        rows.append(_row(f"coulomb-mapped-2wprime-vs-level{n}-extension",
                         {**params, "n": n},
                         float(np.max(np.abs(printed - derived))), None, "reported"))
    return rows


def _scarf_claims() -> list[dict]:
    sc = ScarfTrig(A=3, B=1)
    a, b = sc.default_domain()
    grid = Grid(a, b, _CLAIM_POINTS)
    x = grid.points()
    z = sc.variable(x)
    params = {"preset": "scarf", "A": str(sc.A), "B": str(sc.B)}
    rows = []

    printed = sc.ve_printed(z)
    derived = sc.extension(x)
    dev = printed - derived
    rows.append(_row("scarf-printed-extension-vs-derived", params,
                     float(np.max(np.abs(dev))), None, "reported"))
    rows.append(_row("scarf-printed-extension-offset", params,
                     float(np.max(dev) - np.min(dev)), None, "reported"))

    # raising-operator normalization: measured leading-coefficient ratio vs claim
    al, be = sc.jacobi_alpha, sc.jacobi_beta
    raised = operator_family(XFamilySpec(family="jacobi", alpha=al, beta=be), 5)
    for n, out in enumerate(raised):
        ref = jacobi_classical(n + 1, al, be)
        measured = float(out.leading / ref.leading)
        claimed = float(2 * (be - al) * (be + n))
        rows.append(_row("jacobi-raising-constant",
                         {**params, "n": n, "measured": measured, "claimed": claimed},
                         abs(measured - claimed), None, "reported"))
    return rows
