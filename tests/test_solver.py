"""Finite-difference eigensolver: discretization, spectra, comparisons."""

import math
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal

from exopoly import solver
from exopoly.solver import (
    Grid,
    GridFunction,
    SolverError,
    Tridiagonal,
    convergence_order,
    discretize,
    eigen_residual,
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
        assert np.array_equal(tridiagonal_eigh(d, e), eigh_tridiagonal(d, e, eigvals_only=True))
        for count in sorted({1, (n + 1) // 2, n}):
            expect = eigh_tridiagonal(d, e, eigvals_only=True, select="i",
                                      select_range=(0, count - 1))
            got = tridiagonal_eigh(d, e, count=count)
            assert got.shape == (count,) and np.array_equal(got, expect)

    @pytest.mark.parametrize("n", SIZES)
    def test_bit_equal_to_scipy(self, n):
        self._check(n)

    def test_fallback_loader_gives_the_same_values(self, monkeypatch):
        monkeypatch.setattr(solver, "_flapack_file", lambda: None)
        fallback = solver._load_lapack()
        assert fallback.__name__ == "scipy.linalg.lapack"
        assert fallback.dstebz is solver._LAPACK.dstebz
        # the three routines the solver calls, on one small matrix
        d, e = self._matrix(6)
        rhs = np.arange(1.0, 7.0)
        for call in (lambda lapack: lapack.dstevd(d, e, compute_v=0)[0],
                     lambda lapack: lapack.dstebz(d, e, 2, 0.0, 1.0, 1, 3, 0.0, b"E")[1],
                     lambda lapack: lapack.dgtsv(e, d - 0.5, e, rhs)[3]):
            assert np.array_equal(call(fallback), call(solver._LAPACK))
        monkeypatch.setattr(solver, "_LAPACK", fallback)
        for n in self.SIZES:
            self._check(n)

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
        assert f.inner(p) == pytest.approx(exact, rel=1e-14)

    def test_no_blas_reduction_on_grid_vectors(self, monkeypatch):
        def blas(*args, **kwargs):
            raise AssertionError("grid vector reduced through BLAS")

        x = self.g.points()
        psi = GridFunction(self.g, x * np.exp(-(x**2) / 4))
        op = discretize(lambda x: x**2 / 4, self.g)
        monkeypatch.setattr(np, "dot", blas)
        monkeypatch.setattr(np.linalg, "norm", blas)
        psi.normalized().inner(psi)
        rayleigh_quotient(op, psi)
        eigen_residual(op, 1.5, psi.values)
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


class TestConvergence:
    def test_box_order_is_two(self):
        order = convergence_order(lambda x: np.zeros_like(x), (0.0, math.pi), 1.0,
                                  (500, 1000, 2000))
        assert 1.8 <= order <= 2.2

    def test_report_serialization(self):
        g = Grid(0.0, math.pi, 200)
        rep = solve_spectrum(lambda x: np.zeros_like(x), g, 2, preset="box")
        data = rep.to_dict()
        assert data["grid"] == {"a": 0.0, "b": math.pi, "N": 200}
        assert len(data["levels"]) == 2
        assert "mapping" not in data
        csv = rep.to_csv()
        assert csv.splitlines()[0] == "index,E,residual"
