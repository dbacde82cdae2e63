"""Finite-difference eigensolver: discretization, spectra, comparisons."""

import math

import numpy as np
import pytest

from exopoly.solver import (
    Grid,
    GridFunction,
    SolverError,
    Tridiagonal,
    convergence_order,
    discretize,
    eigen_lowest,
    eigen_residual,
    lowest_levels,
    rayleigh_quotient,
    solve_spectrum,
    spectrum_compare,
    tridiagonal_eigh,
)


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
        op = discretize(lambda x: np.zeros_like(x), g)
        pairs = eigen_lowest(op, 3, grid=g)
        for m, (e, _) in enumerate(pairs, start=1):
            assert abs(e - m**2) / m**2 < 5e-5

    def test_diagonal_matrix_exact(self):
        op = Tridiagonal(diag=np.array([1.0, 2.0, 3.0]), off=np.zeros(2))
        pairs = eigen_lowest(op, 3)
        assert [e for e, _ in pairs] == pytest.approx([1.0, 2.0, 3.0])

    def test_discrete_residual_invariant(self):
        g = Grid(0.0, 10.0, 800)
        op = discretize(lambda x: x**2 / 4, g)
        for e, gf in eigen_lowest(op, 5, grid=g):
            assert eigen_residual(op, e, gf.values) < 1e-9

    def test_ascending_order_and_count_validation(self):
        g = Grid(0.0, 10.0, 200)
        op = discretize(lambda x: x, g)
        eigs = [e for e, _ in eigen_lowest(op, 6)]
        assert eigs == sorted(eigs)
        with pytest.raises(ValueError):
            eigen_lowest(op, 0)


class TestValuesOnly:
    def test_bit_equal_to_the_eigenpair_path(self):
        g = Grid(0.0, 10.0, 3000)
        op = discretize(lambda x: x**2 / 4 + 2 / x**2, g)
        w_only = tridiagonal_eigh(op.diag, op.off, count=5, values_only=True)
        w, v = tridiagonal_eigh(op.diag, op.off, count=5)
        assert w_only.shape == (5,) and v.shape == (3000, 5)
        assert np.array_equal(w_only, w)

    def test_lowest_levels_are_the_spectrum_report_levels(self):
        g = Grid(0.0, 12.0, 2000)
        potential = lambda x: x**2 / 4  # noqa: E731
        assert lowest_levels(potential, g, 4) == solve_spectrum(potential, g, 4).eigenvalues
        with pytest.raises(ValueError):
            lowest_levels(potential, g, 0)


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
        eigen_lowest(op, 1, grid=self.g)


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
        lo = eigen_lowest(op, 4)
        emin, emax = lo[0][0], lo[-1][0]
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
