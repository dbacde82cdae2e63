"""Finite-difference eigensolver: discretization, spectra, comparisons."""

import math
from fractions import Fraction as F
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal
from scipy.linalg import lapack as scipy_lapack

from exopoly import _lapack, solver
from exopoly.solver import (
    Grid,
    GridFunction,
    SolverError,
    Tridiagonal,
    convergence_order,
    discretize,
    lowest_levels,
    rayleigh_quotient,
    solve_spectrum,
    spectrum_compare,
    tridiagonal_eigh,
)

from oracles import eigen_lowest


class TestDiscretize:
    def test_free_particle_matrix_entries(self):
        g = Grid(0.0, math.pi, 16)
        op = discretize(lambda x: np.zeros_like(x), g)
        h = math.pi / 17
        assert op.diag == pytest.approx(np.full(16, 2 / h**2))
        assert op.off == pytest.approx(np.full(15, -1 / h**2))

    def test_three_point_structure_n3(self):
        # smallest meaningful case for the stencil itself
        h = math.pi / 4
        pts = np.array([h, 2 * h, 3 * h])
        diag = 2 / h**2 + np.zeros(3)
        op = Tridiagonal(diag=diag, off=np.full(2, -1 / h**2))
        v = np.array([1.0, 0.0, 0.0])
        assert op.matvec(v) == pytest.approx([2 / h**2, -1 / h**2, 0.0])

    def test_nonfinite_potential_names_the_node(self):
        g = Grid(-1.0, 1.0, 31)  # odd count puts a node at exactly 0
        with np.errstate(divide="ignore"), pytest.raises(SolverError, match="x="):
            discretize(lambda x: 1.0 / x, g)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            Grid(0.0, 1.0, 8)
        with pytest.raises(ValueError):
            Grid(1.0, 0.0, 64)

    @pytest.mark.parametrize("n", [16.5, 20.0, True, "20", np.float64(20)])
    def test_grid_size_must_be_an_int(self, n):
        # a fractional size would give an h that disagrees with the points
        with pytest.raises(ValueError, match="int number of interior points"):
            Grid(0.0, 1.0, n)

    @pytest.mark.parametrize("a,b", [(math.nan, 1.0), (0.0, math.inf), (-math.inf, 0.0),
                                     (-math.inf, math.inf)])
    def test_grid_ends_must_be_finite(self, a, b):
        with pytest.raises(ValueError, match="grid ends must be finite"):
            Grid(a, b, 20)

    def test_grid_ends_are_floats(self):
        g = Grid(F(0), F(1), 20)
        assert type(g.a) is float and type(g.b) is float
        assert g.points() == pytest.approx(np.arange(1, 21) / 21)
        assert g == Grid(0.0, 1.0, 20) and g.h == 1 / 21


class TestEigenLowest:
    def test_particle_in_a_box(self):
        g = Grid(0.0, math.pi, 4000)
        levels = lowest_levels(lambda x: np.zeros_like(x), g, 3)
        for m, e in enumerate(levels, start=1):
            assert abs(e - m**2) / m**2 < 5e-5

    def test_diagonal_matrix_exact(self):
        op = Tridiagonal(diag=np.array([1.0, 2.0, 3.0]), off=np.zeros(2))
        assert list(tridiagonal_eigh(op.diag, op.off, count=3)) == pytest.approx([1.0, 2.0, 3.0])

    def test_discrete_residual_invariant(self):
        g = Grid(0.0, 10.0, 800)
        rep = solve_spectrum(lambda x: x**2 / 4, g, 5)
        assert max(rep.residuals) < 1e-9

    def test_ascending_order_and_count_validation(self):
        g = Grid(0.0, 10.0, 200)
        eigs = lowest_levels(lambda x: x, g, 6)
        assert eigs == sorted(eigs)
        with pytest.raises(ValueError):
            lowest_levels(lambda x: x, g, 0)


class TestValuesOnly:
    def test_bit_equal_to_the_eigenpair_path(self):
        g = Grid(0.0, 10.0, 3000)
        op = discretize(lambda x: x**2 / 4 + 2 / x**2, g)
        w_only = tridiagonal_eigh(op.diag, op.off, count=5)
        pairs = eigen_lowest(op, 5)
        assert w_only.shape == (5,) and pairs[0][1].shape == (3000,)
        assert np.array_equal(w_only, [e for e, _ in pairs])

    def test_lowest_levels_are_the_spectrum_report_levels(self):
        g = Grid(0.0, 12.0, 2000)
        potential = lambda x: x**2 / 4  # noqa: E731
        assert lowest_levels(potential, g, 4) == solve_spectrum(potential, g, 4).eigenvalues
        with pytest.raises(ValueError):
            lowest_levels(potential, g, 0)


class TestTridiagonalLapack:
    """tridiagonal_eigh calls LAPACK itself, with the routines scipy's
    eigh_tridiagonal picks: the values are bit for bit the same."""

    SIZES = [1, 2, 17, 300]

    @staticmethod
    def _matrix(n):
        rng = np.random.default_rng(n)
        return rng.standard_normal(n), rng.standard_normal(n - 1)

    def _check(self, n):
        d, e = self._matrix(n)
        # strided, read-only views of the same entries give the same values
        views = [np.repeat(a, 2)[::2] for a in (d, e)]
        for view in views:
            view.flags.writeable = False
        expect = eigh_tridiagonal(d, e, eigvals_only=True)
        assert np.array_equal(tridiagonal_eigh(d, e), expect)
        assert np.array_equal(tridiagonal_eigh(*views), expect)
        for count in sorted({1, (n + 1) // 2, n}):
            expect = eigh_tridiagonal(d, e, eigvals_only=True, select="i",
                                      select_range=(0, count - 1))
            got = tridiagonal_eigh(d, e, count=count)
            assert got.shape == (count,) and np.array_equal(got, expect)
            assert np.array_equal(tridiagonal_eigh(*views, count=count), expect)

    @pytest.mark.parametrize("n", SIZES)
    def test_bit_equal_to_scipy(self, n):
        self._check(n)

    def test_fallback_loader_gives_the_same_values(self, monkeypatch):
        # where numpy ships no LAPACK of its own, the four routines wrap
        # scipy's _flapack: the same levels, bit for bit, on the four
        # 64000-point matrices of the spectral workload and on every size
        from exopoly.potentials import Oscillator3D, ScarfTrig

        loads = []
        load_flapack = _lapack._load_flapack

        def recording():
            loads.append(load_flapack())
            return loads[-1]

        monkeypatch.setattr(_lapack, "_numpy_openblas", lambda: None)
        monkeypatch.setattr(_lapack, "_load_flapack", recording)
        fallback = dict(zip(_lapack.__all__, _lapack._routines()))
        assert [module.__name__ for module in loads] == ["scipy.linalg._flapack"]
        osc, sc = Oscillator3D(l=1), ScarfTrig(A=3, B=1, energy_shift=9.0)
        cases = [(potential, preset.default_domain(), count)
                 for preset, count in ((osc, 3), (sc, 4))
                 for potential in (preset.potential, preset.extended_potential)]

        def solves():
            return [solve_spectrum(potential, Grid(*domain, 64000), count).to_json()
                    for potential, domain, count in cases]

        default = solves()
        for name, routine in fallback.items():
            monkeypatch.setattr(_lapack, name, routine)
        assert solves() == default
        for n in self.SIZES:
            self._check(n)
        # and scipy.linalg.lapack where the extension's file is not found
        monkeypatch.setattr(_lapack, "_flapack_file", lambda: None)
        assert load_flapack().__name__ == "scipy.linalg.lapack"

    @pytest.mark.parametrize("d,e", [
        ([1.0, math.nan], [0.5]), ([1.0, 2.0], [math.inf]), ([-math.inf], []),
        ([1.0, 2.0, 3.0], [0.5]), ([1.0, 2.0], [0.5, 0.5]), ([[1.0]], [])])
    def test_non_finite_or_mismatched_input_raises(self, d, e):
        with pytest.raises(SolverError):
            tridiagonal_eigh(np.array(d), np.array(e))

    @pytest.mark.parametrize("n,count", [(3, 0), (3, 4), (1, 0), (1, 2)])
    def test_count_out_of_range_raises(self, n, count):
        with pytest.raises(SolverError, match="count must be between 1 and"):
            tridiagonal_eigh(np.ones(n), np.ones(n - 1), count=count)


def _bisection(potential, grid, count):
    op = discretize(potential, grid)
    return [float(e) for e in tridiagonal_eigh(op.diag, op.off, count=count)]


def _coarse(grid):
    return Grid(grid.a, grid.b, grid.n // solver._COARSE)


smooth_potentials = st.builds(
    lambda length, a2, a1, bump, centre: (length, lambda x: (
        a2 * (x - centre * length) ** 2 + a1 * x
        + bump * np.exp(-((x - centre * length) ** 2)))),
    st.floats(4.0, 16.0), st.floats(0.0, 2.0), st.floats(-1.0, 1.0),
    st.floats(-5.0, 5.0), st.floats(0.1, 0.9))


class TestCoarseToFine:
    """Coarse bisection, refinement on the full grid, certificate, fallback."""

    @settings(max_examples=25, deadline=None)
    @given(smooth_potentials, st.integers(256, 6000), st.integers(1, 4))
    def test_agrees_with_full_grid_bisection_within_the_residual_bound(self, case, n, count):
        length, potential = case
        g = Grid(0.0, length, n)
        rep = solve_spectrum(potential, g, count)
        op = discretize(potential, g)
        scale = np.max(np.abs(op.diag)) + 2 * np.max(np.abs(op.off))
        # each certified value lies within its residual of an eigenvalue, and
        # bisection within its tolerance (a few eps * ||T||) of the same one
        for e, r, w in zip(rep.eigenvalues, rep.residuals, _bisection(potential, g, count)):
            assert abs(e - w) <= r + 4 * np.finfo(float).eps * scale
        assert rep.eigenvalues == sorted(rep.eigenvalues)

    @settings(max_examples=10, deadline=None)
    @given(smooth_potentials, st.integers(256, 6000), st.integers(1, 4))
    def test_two_calls_are_bit_identical(self, case, n, count):
        length, potential = case
        g = Grid(0.0, length, n)
        first, second = solve_spectrum(potential, g, count), solve_spectrum(potential, g, count)
        assert first.eigenvalues == second.eigenvalues == lowest_levels(potential, g, count)
        assert first.residuals == second.residuals

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 12).flatmap(lambda n: st.tuples(
        st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n),
        st.lists(st.floats(-3.0, 3.0), min_size=n - 1, max_size=n - 1),
        st.integers(0, n))))
    def test_sturm_count_matches_a_dense_eigensolve(self, case):
        diag, off, k = case
        op = Tridiagonal(diag=np.array(diag), off=np.array(off))
        dense = np.diag(op.diag) + np.diag(op.off, 1) + np.diag(op.off, -1)
        w = np.linalg.eigvalsh(dense)
        spread = 1.0 + np.max(np.abs(w))
        if k == 0:
            upper = w[0] - spread
        elif k == op.n:
            upper = w[-1] + spread
        else:
            assume(w[k] - w[k - 1] > 1e-8 * spread)
            upper = (w[k - 1] + w[k]) / 2
        assert solver._sturm_count(op, upper) == np.count_nonzero(w <= upper) == k

    def test_sturm_count_zero_and_all(self):
        op = discretize(lambda x: x**2 / 4, Grid(0.0, 10.0, 500))
        assert solver._sturm_count(op, -1.0) == 0
        assert solver._sturm_count(op, np.max(op.diag) + 2 * abs(op.off[0])) == 500

    @pytest.mark.parametrize("n", [3, 4, 6, 7, 9, 10, 99])
    def test_sturm_count_through_exact_zero_pivots(self, n):
        # T = tridiag(1, 1, 1) at upper = 0: the leading minors 1, 0, -1, -1,
        # 0, 1, ... vanish at every third order, so the sweep meets exact zero
        # pivots; the eigenvalues 1 + 2cos(j pi/(n+1)) miss 0 for these n
        minors = [1, 1]
        for _ in range(n - 1):
            minors.append(minors[-1] - minors[-2])
        assert 0 in minors
        op = Tridiagonal(diag=np.ones(n), off=np.ones(n - 1))
        w = 1 + 2 * np.cos(np.arange(1, n + 1) * np.pi / (n + 1))
        assert solver._sturm_count(op, 0.0) == np.count_nonzero(w < 0)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 8).flatmap(lambda n: st.tuples(
        st.lists(st.integers(-2, 2), min_size=n, max_size=n),
        st.lists(st.integers(-2, 2), min_size=n - 1, max_size=n - 1),
        st.integers(-2, 2))))
    def test_sturm_count_on_small_integer_matrices(self, case):
        # small integers make pivots of T - upper vanish exactly, often
        diag, off, upper = case
        op = Tridiagonal(diag=np.array(diag, dtype=float), off=np.array(off, dtype=float))
        w = np.linalg.eigvalsh(np.diag(op.diag) + np.diag(op.off, 1) + np.diag(op.off, -1))
        assume(np.min(np.abs(w - upper)) > 1e-9)
        assert solver._sturm_count(op, float(upper)) == np.count_nonzero(w < upper)

    @pytest.mark.parametrize("d,upper,count", [
        (2.0, 1.0, 0), (2.0, 2.0, 1), (2.0, 3.0, 1), (-0.0, 0.0, 1), (-1e300, -1e300, 1)])
    def test_sturm_count_of_one_row(self, d, upper, count):
        op = Tridiagonal(diag=np.array([d]), off=np.empty(0))
        assert solver._sturm_count(op, upper) == count

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(-10.0, 10.0), min_size=2, max_size=2),
           st.floats(-5.0, 5.0), st.floats(-20.0, 20.0))
    def test_sturm_count_of_two_rows(self, diag, off, upper):
        mid, rad = (diag[0] + diag[1]) / 2, math.hypot((diag[0] - diag[1]) / 2, off)
        assume(min(abs(upper - mid + rad), abs(upper - mid - rad)) > 1e-9 * (1 + abs(mid) + rad))
        op = Tridiagonal(diag=np.array(diag), off=np.array([off]))
        assert solver._sturm_count(op, upper) == int(upper > mid - rad) + int(upper > mid + rad)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 8).flatmap(lambda n: st.tuples(
        st.lists(st.floats(-4.0, 4.0), min_size=n, max_size=n),
        st.lists(st.floats(0.5, 4.0), min_size=n - 1, max_size=n - 1),
        st.floats(-4.0, 4.0),
        st.sampled_from([2.0**520, 2.0**800, 2.0**990]))))
    def test_sturm_count_where_the_off_diagonal_squares_overflow(self, case):
        # T and upper scaled by a power of two, which is exact: every e^2
        # overflows, the pivots and the count do not change
        diag, off, upper, scale = case
        w = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
        assume(np.min(np.abs(w - upper)) > 1e-9 * (1 + np.max(np.abs(w))))
        big = Tridiagonal(diag=np.array(diag) * scale, off=np.array(off) * scale)
        with np.errstate(over="ignore"):
            assert np.all(np.isinf(big.off**2))
        assert solver._sturm_count(big, upper * scale) == np.count_nonzero(w < upper)

    def test_sturm_count_agrees_with_dstebz_on_the_spectral_workload(self):
        # the four 64000-point matrices of the spectral workload, at shifts
        # between the lowest levels and 16 eps ||T|| or more off each side of
        # them: the sweep, LAPACK's bisection count and the index agree
        from exopoly.potentials import Oscillator3D, ScarfTrig

        osc, sc = Oscillator3D(l=0), ScarfTrig(A=3, B=1, energy_shift=9.0)
        for potential, domain in [(osc.potential, osc.default_domain()),
                                  (osc.extended_potential, osc.default_domain()),
                                  (sc.potential, sc.default_domain()),
                                  (sc.extended_potential, sc.default_domain())]:
            op = discretize(potential, Grid(*domain, 64000))
            norm = float(np.max(np.abs(op.diag))) + 2 * float(np.max(np.abs(op.off)))
            margin = 16 * np.finfo(float).eps * norm
            w = tridiagonal_eigh(op.diag, op.off, count=8)
            shifts = [w[0] - 1.0, *((w[:-1] + w[1:]) / 2)]
            shifts += [e + side * m * margin for e in w[:-1] for side in (-1, 1)
                       for m in (2, 4, 1000)]
            lower = float(np.min(op.diag)) - 2 * float(np.max(np.abs(op.off)))
            lower -= abs(lower) + 1
            for upper in shifts:
                assert np.min(np.abs(w - upper)) >= margin and upper < w[-1]
                # LAPACK's bisection count by value in (lower, upper]
                m, *_ = scipy_lapack.dstebz(op.diag, op.off, 1, lower, upper, 0, 0,
                                            math.inf, b"B")
                assert solver._sturm_count(op, upper) == m == np.count_nonzero(w <= upper)

    def test_spectral_workload_levels_are_certified(self, monkeypatch):
        # the workload's potentials never reach a bisection above the bottom
        # grid: 64000 -> 4000 -> 250 points, values only
        from exopoly.potentials import Oscillator3D, ScarfTrig

        sizes = []
        eigh = solver.tridiagonal_eigh

        def recording(diag, off, count=None):
            sizes.append(len(diag))
            return eigh(diag, off, count=count)

        monkeypatch.setattr(solver, "tridiagonal_eigh", recording)
        osc, sc = Oscillator3D(l=1), ScarfTrig(A=3, B=1, energy_shift=9.0)
        for preset, count in ((osc, 3), (sc, 4)):
            g = Grid(*preset.default_domain(), 64000)
            for potential in (preset.potential, preset.extended_potential):
                levels = lowest_levels(potential, g, count)
                assert levels == sorted(levels)
        assert sizes == [250] * 4


# solve_spectrum on the four 64000-point matrices of the spectral workload,
# as float.hex of each level and residual: the values the solver gave when
# every step made its own arrays, which the shared work rows must reproduce
PINNED_SPECTRA = {
    "oscillator": (["0x1.7ffffff0004e9p+0", "0x1.bfffffd7e2f81p+1", "0x1.5fffffcf08df5p+2"],
                   ["0x1.6e4b65ef11569p-28", "0x1.4df91322474bfp-28", "0x1.743fad5f1a1f7p-28"]),
    "oscillator-extended": (
        ["0x1.7fffffcd55a1dp+0", "0x1.bfffffc9753ffp+1", "0x1.5fffffc832fa5p+2"],
        ["0x1.3083c5e244a85p-28", "0x1.3f720f9cb4512p-28", "0x1.b682be2437856p-28"]),
    "scarf": (["0x1.1ffffffeb5057p+3", "0x1.fffffff88a2b5p+3", "0x1.8ffffff2fda64p+4",
               "0x1.1fffffef644c0p+5"],
              ["0x1.6083ed52f34f1p-21", "0x1.f86d6ca2f82d1p-23", "0x1.832122856960ap-24",
               "0x1.aebe26991dcbap-23"]),
    "scarf-extended": (["0x1.1ffffffef4e20p+3", "0x1.fffffff84f026p+3", "0x1.8ffffff2c9610p+4",
                        "0x1.1fffffef5f95ep+5"],
                       ["0x1.adecce891deecp-22", "0x1.b347cc30086f5p-24",
                        "0x1.ecfefd299bb63p-24", "0x1.d6a19a63ca3a0p-23"]),
}


def test_spectral_workload_spectra_are_pinned():
    from exopoly.potentials import Oscillator3D, ScarfTrig

    osc, sc = Oscillator3D(l=0), ScarfTrig(A=3, B=1, energy_shift=9.0)
    cases = {"oscillator": (osc.potential, osc, 3),
             "oscillator-extended": (osc.extended_potential, osc, 3),
             "scarf": (sc.potential, sc, 4), "scarf-extended": (sc.extended_potential, sc, 4)}
    for name, (potential, preset, count) in cases.items():
        rep = solve_spectrum(potential, Grid(*preset.default_domain(), 64000), count)
        assert ([e.hex() for e in rep.eigenvalues], [r.hex() for r in rep.residuals]) \
            == tuple(PINNED_SPECTRA[name]), name


@st.composite
def nested_cases(draw):
    """A recursion depth of 1, 2 or 3 coarsenings, a level count, and a grid
    size that reaches exactly that depth."""
    depth = draw(st.integers(1, 3))
    count = draw(st.integers(1, 2 if depth == 3 else 4))
    low = 8 * max(2, count) * solver._COARSE ** depth  # the smallest such size
    return depth, count, draw(st.integers(low, low + 2000))


def _recording(sizes, function):
    """``function``, appending the size of its operator (or diagonal) to ``sizes``."""
    def recording(first, *args, **kwargs):
        sizes.append(len(getattr(first, "diag", first)))
        return function(first, *args, **kwargs)
    return recording


def _assert_within_the_residual_bound(rep, potential, grid, count):
    op = discretize(potential, grid)
    scale = np.max(np.abs(op.diag)) + 2 * np.max(np.abs(op.off))
    for e, r, w in zip(rep.eigenvalues, rep.residuals, _bisection(potential, grid, count)):
        assert abs(e - w) <= r + 4 * np.finfo(float).eps * scale


class TestNestedLevels:
    """Each grid takes its shifts and start vectors from the certified solve
    on the grid with 1/_COARSE of its points; bisection only at the bottom."""

    def test_one_full_grid_solve_per_level(self):
        from exopoly.potentials import Oscillator3D, ScarfTrig

        osc, sc = Oscillator3D(l=1), ScarfTrig(A=3, B=1, energy_shift=9.0)

        def solve_sizes():
            sizes = []
            with patch.object(solver, "_shifted_solve", _recording(sizes, solver._shifted_solve)):
                for preset, count in ((osc, 3), (sc, 4)):
                    g = Grid(*preset.default_domain(), 64000)
                    for potential in (preset.potential, preset.extended_potential):
                        lowest_levels(potential, g, count)
            return sizes

        first = solve_sizes()
        assert first.count(64000) == 3 + 3 + 4 + 4
        assert solve_sizes() == first

    @settings(max_examples=12, deadline=None)
    @given(smooth_potentials, nested_cases())
    def test_every_depth_agrees_with_full_grid_bisection(self, case, nested):
        length, potential = case
        depth, count, n = nested
        g = Grid(0.0, length, n)
        bisections = []
        with patch.object(solver, "tridiagonal_eigh",
                          _recording(bisections, solver.tridiagonal_eigh)):
            rep = solve_spectrum(potential, g, count)
        assert bisections[0] == n // solver._COARSE**depth  # the bottom comes first
        _assert_within_the_residual_bound(rep, potential, g, count)
        again = solve_spectrum(potential, g, count)
        assert again.eigenvalues == rep.eigenvalues == lowest_levels(potential, g, count)
        assert again.residuals == rep.residuals

    def test_refusal_at_an_inner_grid(self):
        g = Grid(0.0, 10.0, 64000)  # 64000 -> 4000 -> 250 points
        nodes = Grid(0.0, 10.0, 250).points()
        x0 = (nodes[212] + nodes[213]) / 2  # midway between two bottom-grid nodes

        def potential(x):
            return (x - 5.0) ** 2 / 4 - 700.0 * np.exp(-(((x - x0) / 0.004) ** 2))

        # the bottom grid sees the oscillator alone and the 4000-point grid the
        # well's bound state too, so that grid refuses its refined levels and
        # takes bisection, whose vectors then start the full grid's levels
        bisections = []
        with patch.object(solver, "tridiagonal_eigh",
                          _recording(bisections, solver.tridiagonal_eigh)):
            rep = solve_spectrum(potential, g, 3)
        assert bisections == [250, 4000]
        assert rep.eigenvalues[0] < 0
        _assert_within_the_residual_bound(rep, potential, g, 3)
        assert lowest_levels(potential, g, 3) == rep.eigenvalues


class TestForcedFallback:
    """Inputs the certificate must refuse: the result is exactly the full-grid
    bisection's."""

    def test_narrow_well_between_coarse_nodes(self):
        g = Grid(0.0, 10.0, 4000)
        nodes = _coarse(g).points()
        x0 = (nodes[212] + nodes[213]) / 2  # midway between two coarse nodes

        def potential(x):
            return (x - 5.0) ** 2 / 4 - 700.0 * np.exp(-(((x - x0) / 0.004) ** 2))

        # the coarse grid sees the oscillator alone; the full grid binds a
        # state near -3, out in the oscillator's tail, so the refined levels
        # stay apart and only the Sturm count notices the missing one
        assert lowest_levels(potential, _coarse(g), 1)[0] > 0.4
        levels = lowest_levels(potential, g, 3)
        assert levels[0] < 0
        assert levels == _bisection(potential, g, 3)
        assert solve_spectrum(potential, g, 3).eigenvalues == levels

    def test_near_degenerate_double_well(self):
        g = Grid(-10.0, 10.0, 64000)

        def potential(x):
            return (x**2 - 25) ** 2 / 50

        levels = lowest_levels(potential, g, 4)
        assert levels == _bisection(potential, g, 4)
        assert levels[1] - levels[0] < 1e-8  # the tunnelling pair
        rep = solve_spectrum(potential, g, 4)
        assert rep.eigenvalues == levels
        assert max(rep.residuals) < 1e-6

    def test_singular_at_a_coarse_node_only(self):
        g = Grid(0.0, 10.0, 4000)
        xc = _coarse(g).points()[100]
        assert not np.any(g.points() == xc)

        def potential(x):
            return (x - 5.0) ** 2 / 4 + 0.1 / np.abs(x - xc)

        with np.errstate(divide="ignore"):
            with pytest.raises(SolverError):
                discretize(potential, _coarse(g))
            levels = lowest_levels(potential, g, 3)
            assert solve_spectrum(potential, g, 3).eigenvalues == levels
        assert levels == _bisection(potential, g, 3)

    def test_grid_too_small_to_coarsen(self):
        g = Grid(0.0, 10.0, 200)
        potential = lambda x: x**2 / 4  # noqa: E731
        assert lowest_levels(potential, g, 3) == _bisection(potential, g, 3)
        assert max(solve_spectrum(potential, g, 3).residuals) < 1e-9


class TestGridInnerProducts:
    g = Grid(0.0, 14.0, 64000)

    def test_norm_and_inner_match_exact_sums(self):
        x = self.g.points()
        f = GridFunction(self.g, x * np.exp(-(x**2) / 4))
        p = GridFunction(self.g, (1 - x / 3) * np.exp(-x / 2))
        h = self.g.h
        assert f.norm() == pytest.approx(math.sqrt(h * math.fsum(f.values**2)), rel=1e-14)
        exact = h * math.fsum(f.values * p.values)
        assert h * solver._dot(f.values, p.values) == pytest.approx(exact, rel=1e-14)

    def test_no_blas_reduction_on_grid_vectors(self, monkeypatch):
        def blas(*args, **kwargs):
            raise AssertionError("grid vector reduced through BLAS")

        x = self.g.points()
        psi = GridFunction(self.g, x * np.exp(-(x**2) / 4))
        op = discretize(lambda x: x**2 / 4, self.g)
        monkeypatch.setattr(np, "dot", blas)
        monkeypatch.setattr(np.linalg, "norm", blas)
        psi.normalized()
        rayleigh_quotient(op, psi)
        solve_spectrum(lambda x: x**2 / 4, self.g, 2)


class TestRayleigh:
    def test_exact_eigenvector_returns_eigenvalue(self):
        g = Grid(0.0, math.pi, 500)
        op = discretize(lambda x: np.zeros_like(x), g)
        e, gf = eigen_lowest(op, 1, grid=g)[0]
        # roundoff scale is eps * ||T||, and ||T|| ~ 2/h^2 here
        assert rayleigh_quotient(op, gf) == pytest.approx(e, abs=1e-12 * np.max(op.diag))

    def test_bounded_by_spectrum(self):
        rng = np.random.default_rng(5)
        op = Tridiagonal(diag=np.array([1.0, 2.0, 3.0, 4.0]), off=-np.ones(3) / 3)
        lo = tridiagonal_eigh(op.diag, op.off)
        emin, emax = lo[0], lo[-1]
        for _ in range(20):
            v = rng.standard_normal(4)
            rq = rayleigh_quotient(op, v)
            assert emin - 1e-12 <= rq <= emax + 1e-12

    def test_zero_vector_rejected(self):
        op = Tridiagonal(diag=np.ones(3), off=np.zeros(2))
        with pytest.raises(ValueError):
            rayleigh_quotient(op, np.zeros(3))


class TestSpectrumCompare:
    def test_identical_spectra(self):
        m = spectrum_compare([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], tol=1e-9)
        assert [(p["a"], p["b"]) for p in m["pairs"]] == [(0, 0), (1, 1), (2, 2)]
        assert m["unmatched_a"] == [] and m["unmatched_b"] == []
        assert m["max_pair_diff"] == 0.0

    def test_removed_ground_state_shifts_mapping(self):
        a = [1.0, 2.0, 3.0, 4.0]
        b = a[1:]
        m = spectrum_compare(a, b, tol=1e-6)
        assert [(p["a"], p["b"]) for p in m["pairs"]] == [(1, 0), (2, 1), (3, 2)]
        assert m["unmatched_a"] == [0]
        assert m["unmatched_b"] == []

    def test_tolerance_cuts_weak_matches(self):
        m = spectrum_compare([1.0, 2.0], [1.05, 3.0], tol=0.1)
        assert [(p["a"], p["b"]) for p in m["pairs"]] == [(0, 0)]
        assert m["unmatched_a"] == [1] and m["unmatched_b"] == [1]

    def test_nothing_paired_has_no_worst_gap(self):
        # 0.0 would read as a perfect match
        m = spectrum_compare([1.0, 2.0], [5.0, 6.0], tol=0.1)
        assert m["pairs"] == [] and m["unmatched_a"] == [0, 1]
        assert m["max_pair_diff"] is None


class TestConvergence:
    def test_box_order_is_two(self):
        order = convergence_order(lambda x: np.zeros_like(x), (0.0, math.pi), 1.0,
                                  (500, 1000, 2000))
        assert 1.8 <= order <= 2.2

    def test_slope_is_the_least_squares_fit(self):
        # the closed-form slope against numpy's fit of the same errors
        def box(x):
            return np.zeros_like(x)

        sizes = (300, 700, 1500, 4000)
        errs, hs = [], []
        for n in sizes:
            g = Grid(0.0, math.pi, n)
            hs.append(g.h)
            errs.append(abs(lowest_levels(box, g, 1)[0] - 1.0))
        fit = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        order = convergence_order(box, (0.0, math.pi), 1.0, sizes)
        assert order == pytest.approx(fit, rel=1e-12)

    @pytest.mark.parametrize("sizes", [(), (500,), (500, 500), [800, 800, 800]])
    def test_fewer_than_two_distinct_sizes_refused(self, sizes):
        with pytest.raises(ValueError, match="sizes"):
            convergence_order(lambda x: np.zeros_like(x), (0.0, math.pi), 1.0, sizes)

    def test_report_serialization(self):
        g = Grid(0.0, math.pi, 200)
        rep = solve_spectrum(lambda x: np.zeros_like(x), g, 2, preset="box")
        data = rep.to_dict()
        assert data["grid"] == {"a": 0.0, "b": math.pi, "N": 200}
        assert len(data["levels"]) == 2
        assert "mapping" not in data
        csv = rep.to_csv()
        assert csv.splitlines()[0] == "index,E,residual"


class TestBlockwiseEvaluation:
    B = solver._BLOCK
    SIZES = [B - 1, B, B + 1, 2 * B + 1]

    @pytest.mark.parametrize("n", SIZES)
    def test_evaluate_is_the_function_at_the_points_bitwise(self, n):
        g = Grid(-1.0, 3.0, n)
        f = lambda x: np.exp(-x) * np.sin(3 * x) + x**3  # noqa: E731
        got = g.evaluate(f)
        assert got.shape == (n,) and got.tobytes() == f(g.points()).tobytes()
        # each block's points are those of points(), bit for bit
        assert g.evaluate(lambda x: x).tobytes() == g.points().tobytes()

    def test_a_scalar_fills_its_block(self):
        g = Grid(0.0, 1.0, 2 * self.B + 1)
        assert np.array_equal(g.evaluate(lambda x: 2.5), np.full(g.n, 2.5))

    def test_rows_are_filled_one_function_each(self):
        g = Grid(0.0, 2.0, self.B + 1)
        got = g.evaluate(lambda x: (x * k for k in range(3)), out=np.empty((3, g.n)))
        assert np.array_equal(got, [g.points() * k for k in range(3)])
        with pytest.raises(ValueError):  # one row too few
            g.evaluate(lambda x: (x for _ in range(2)), out=np.empty((3, g.n)))

    @pytest.mark.parametrize("n", [1, 127, 129, *SIZES, 64000, 100003, 1000000])
    def test_dot_is_numpys_pairwise_sum_bitwise(self, n):
        # the product pieces follow numpy's pairwise halving, so no grid-sized
        # product array is needed for the same sum
        rng = np.random.default_rng(n)
        a = rng.standard_normal(n) * 10.0 ** rng.uniform(-8, 8, n)
        b = rng.standard_normal(n)
        assert solver._dot(a, b) == float(np.add.reduce(a * b))
        assert solver._dot(a, a) == float(np.add.reduce(np.multiply(a, a, out=np.empty(n))))

    def test_nonfinite_potential_names_the_first_node_in_a_later_block(self):
        g = Grid(0.0, 1.0, 2 * self.B + 1)
        x = g.points()
        first = x[self.B + 5]
        with pytest.raises(SolverError) as info:
            discretize(lambda x: np.where(x >= first, np.inf, x), g)
        assert str(info.value) == f"potential is not finite at grid node x={float(first)!r}"
        with pytest.raises(SolverError, match=f"x={float(x[0])!r}$"):
            discretize(lambda x: math.nan, g)

    def test_discretize_diagonal_is_the_full_grid_formula_bitwise(self):
        g = Grid(0.0, 14.0, 2 * self.B + 1)
        v = lambda x: x**2 / 4 + 2 / x**2  # noqa: E731
        op = discretize(v, g)
        assert op.diag.tobytes() == (2.0 / g.h**2 + v(g.points())).tobytes()
