"""Preset potentials, rational extensions, closed-form eigenstates."""

from fractions import Fraction as F

import numpy as np
import pytest

from exopoly.polycore import Poly
from exopoly.potentials import (
    CoulombRadial,
    Morse,
    Oscillator3D,
    PotentialError,
    ScarfTrig,
    hamiltonian_residual,
    make_preset,
    quotient_identity_check,
    state_rayleigh,
    ve_jacobi,
    ve_laguerre,
)
from exopoly.solver import Grid
from exopoly.xop import x1_laguerre_op_route, xj_quotient_solve


class TestExtensionTerms:
    def test_laguerre_point_values(self):
        assert ve_laguerre(0.0, 1, 1) == pytest.approx(-1.0)
        assert ve_laguerre(1.0, 1, 2) == pytest.approx(-0.5)

    def test_j1_matches_the_closed_form(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = float(rng.uniform(0, 20))
            k = float(rng.uniform(0.2, 5))
            expect = 1 / (x + k) - 2 * k / (x + k) ** 2
            assert ve_laguerre(x, k, 1) == pytest.approx(expect, rel=1e-14)

    def test_jacobi_point_values_and_bound(self):
        assert ve_jacobi(0.0, 2.0) == pytest.approx(-2.0)
        assert ve_jacobi(1.0, 2.0) == pytest.approx(-6.0)
        z = np.linspace(-1, 1, 20001)
        assert np.max(np.abs(ve_jacobi(z, 2.0))) == pytest.approx(6.0)

    def test_jacobi_pole_guard(self):
        with pytest.raises(PotentialError):
            ve_jacobi(0.0, 0.5)


class TestPrintedForms:
    def test_oscillator_printed_zero_crossing(self):
        osc = Oscillator3D(l=0)
        assert osc.ve_printed(0.5) == pytest.approx(0.0)

    def test_coulomb_printed_zero_crossing(self):
        cou = CoulombRadial(l=0)
        assert cou.ve_printed(1.0) == pytest.approx(0.0)

    def test_scarf_printed_at_origin(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            b_num = rng.integers(1, 4)
            a_num = b_num + rng.integers(1, 5)
            sc = ScarfTrig(A=int(a_num), B=int(b_num))
            a, b = float(sc.A), float(sc.B)
            assert sc.ve_printed(0.0) == pytest.approx(4 * b**2 / (2 * a - 1) ** 2)

    def test_morse_printed_is_level_dependent_and_guarded(self):
        mo = Morse(A=4, B=2)
        y = np.array([0.5, 1.0, 2.0])
        v0, v1 = mo.ve_printed(y, 0), mo.ve_printed(y, 1)
        assert not np.allclose(v0, v1)
        with pytest.raises(PotentialError):
            mo.ve_printed(y, 5)  # beyond the bound spectrum


class TestClosedFormStates:
    def test_oscillator_ground_state_form(self):
        osc = Oscillator3D(l=0)
        st = osc.classical_state(0)
        assert st.energy == pytest.approx(1.5)
        assert st.polynomial == Poly.one()
        x = np.array([0.5, 1.0, 2.0])
        assert st(x) == pytest.approx(x * np.exp(-(x**2) / 4))

    def test_morse_energies(self):
        mo = Morse(A=4, B=2)
        for n in range(4):  # the bound levels n < s = A / alpha = 4
            assert mo.classical_energy(n) == pytest.approx(16 - (4 - n) ** 2)
        with pytest.raises(PotentialError):
            mo.classical_state(4)

    def test_oscillator_exceptional_lowest(self):
        osc = Oscillator3D(l=0)
        st = osc.exceptional_state(1)
        assert st.polynomial.monic() == Poly((F(1, 2) + 1, 1))  # u + k + 1, k = 1/2
        grid = Grid(0.0, 14.0, 16000)
        rq = state_rayleigh(st, osc.extended_potential, grid)
        assert abs(rq - 1.5) / 1.5 < 1e-6

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_oscillator_classical_residual_and_scaling(self, n):
        osc = Oscillator3D(l=0)
        coarse, fine = Grid(0.0, 14.0, 10000), Grid(0.0, 14.0, 20000)
        r_c = hamiltonian_residual(osc.classical_state(n), osc.potential, coarse)
        r_f = hamiltonian_residual(osc.classical_state(n), osc.potential, fine)
        assert r_f < 1e-6
        assert 3.0 < r_c / r_f < 5.0  # second-order stencil

    def test_scarf_states_both_kinds(self):
        sc = ScarfTrig(A=3, B=1)
        grid = Grid(*sc.default_domain(), 20000)
        assert hamiltonian_residual(sc.classical_state(1), sc.potential, grid) < 1e-6
        assert hamiltonian_residual(sc.exceptional_state(2), sc.extended_potential,
                                    grid) < 1e-6

    def test_coulomb_and_morse_residuals(self):
        # larger energy scales than the oscillator: the achievable bound at
        # in-scope grid sizes is ~1e-5, with clean second-order decay
        cou = CoulombRadial(l=0)
        g1, g2 = Grid(0.0, 60.0, 10000), Grid(0.0, 60.0, 20000)
        r1 = hamiltonian_residual(cou.classical_state(0), cou.potential, g1)
        r2 = hamiltonian_residual(cou.classical_state(0), cou.potential, g2)
        assert r2 < 1e-5 and 3.0 < r1 / r2 < 5.0
        r2x = hamiltonian_residual(cou.exceptional_state(1),
                                   lambda x: cou.extended_potential(x, 1), g2)
        assert r2x < 1e-5

        mo = Morse(A=4, B=2)
        gm1 = Grid(*mo.default_domain(0), 10000)
        gm2 = Grid(*mo.default_domain(0), 20000)
        r1 = hamiltonian_residual(mo.classical_state(0), mo.potential, gm1)
        r2 = hamiltonian_residual(mo.classical_state(0), mo.potential, gm2)
        assert r2 < 1e-5 and 3.0 < r1 / r2 < 5.0
        r2x = hamiltonian_residual(mo.exceptional_state(0),
                                   lambda x: mo.extended_potential(x, 0), gm2)
        assert r2x < 1e-5

    def test_square_integrability_stable_under_domain_growth(self):
        osc = Oscillator3D(l=1)
        st = osc.exceptional_state(2)
        n1 = st.on_grid(Grid(0.0, 12.0, 8000), normalize=False).norm()
        n2 = st.on_grid(Grid(0.0, 16.0, 8000), normalize=False).norm()
        assert abs(n2 - n1) / n1 < 1e-3

    def test_exceptional_needs_positive_index(self):
        with pytest.raises(PotentialError):
            Oscillator3D(l=0).exceptional_state(0)


class TestPresetRegistry:
    def test_dispatchers(self):
        assert Oscillator3D().ve_printed(0.5) == pytest.approx(0.0)
        assert Morse(A=4, B=2).ve_printed(1.0, n=0) == pytest.approx(1 / 5 - 8 / 25)
        with pytest.raises(PotentialError):
            Morse(A=4, B=2).ve_printed(1.0)  # needs the level index
        st = Oscillator3D().exceptional_state(1)
        assert st.polynomial == x1_laguerre_op_route(0, F(1, 2))
        assert st.energy == Oscillator3D().exceptional_energy(1)

    @pytest.mark.parametrize("preset,coordinate", [
        (Oscillator3D(), 0.7), (CoulombRadial(), 1.3), (ScarfTrig(A=4, B=1), 0.2)])
    def test_level_free_extensions_ignore_n(self, preset, coordinate):
        assert preset.ve_printed(coordinate, 2) == preset.ve_printed(coordinate)

    def test_make_preset_roundtrip(self):
        sc = make_preset("scarf", {"A": "3", "B": "1"})
        assert isinstance(sc, ScarfTrig)
        assert sc.params()["A"] == "3"

    def test_unknown_preset(self):
        with pytest.raises(PotentialError):
            make_preset("hydrogen", {})

    def test_bad_parameters(self):
        with pytest.raises(PotentialError):
            make_preset("scarf", {"A": "1", "B": "1"})  # violates A > |B| + a/2
        with pytest.raises(PotentialError):
            make_preset("oscillator3d", {"l": -1})
        with pytest.raises(PotentialError):
            make_preset("morse", {"A": "4", "B": "2", "bogus": 1})


class TestQuotientIdentity:
    def test_x1_members_pass(self):
        grid = Grid(0.01, 40.0, 2000)
        for k in (F(1), F(7, 2)):
            for n in (1, 3):
                f = x1_laguerre_op_route(n - 1, k)
                assert quotient_identity_check(f, k, grid) < 1e-8

    def test_wrong_polynomial_fails_loudly(self):
        from exopoly.polycore import laguerre_classical

        grid = Grid(0.01, 40.0, 2000)
        assert quotient_identity_check(laguerre_classical(2, F(1)), F(1), grid) > 1e-2

    def test_j2_instances(self):
        grid = Grid(0.01, 40.0, 2000)
        for s in xj_quotient_solve(2.0, 2, 3):
            res = quotient_identity_check(s["f"], 2.0, grid, j=2,
                                          rational_coeffs=(s["A"], s["B"]))
            assert res < 1e-8

    def test_j2_requires_coefficients(self):
        with pytest.raises(PotentialError):
            quotient_identity_check(Poly((1, 1)), F(1), Grid(0.01, 10.0, 100), j=2)
