"""Preset potentials, rational extensions, closed-form eigenstates."""

from fractions import Fraction as F

import numpy as np
import pytest

from exopoly.polycore import Poly, jacobi_classical, laguerre_classical
from exopoly.potentials import (
    CoulombRadial,
    EigenstateClosedForm,
    Morse,
    Oscillator3D,
    PotentialError,
    ScarfTrig,
    make_preset,
    quotient_identity_check,
    state_rayleigh,
    ve_laguerre,
)
from exopoly.solver import Grid, lowest_levels
from exopoly.xop import (
    x1_jacobi_op_route,
    x1_laguerre_op_route,
    xj_quotient_certificate,
    xj_quotient_solve,
)

from oracles import hamiltonian_residual


class TestExtensionTerms:
    def test_laguerre_point_values(self):
        assert ve_laguerre(0.0, 1) == pytest.approx(-1.0)

    def test_j1_matches_the_closed_form(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = float(rng.uniform(0, 20))
            k = float(rng.uniform(0.2, 5))
            expect = 1 / (x + k) - 2 * k / (x + k) ** 2
            assert ve_laguerre(x, k) == pytest.approx(expect, rel=1e-14)


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

    @pytest.mark.parametrize("preset", [Oscillator3D(l=0), Oscillator3D(l=1),
                                        ScarfTrig(A=3, B=1, energy_shift=9.0)])
    def test_state_rayleigh_matches_one_state_at_a_time(self, preset):
        grid = Grid(*preset.default_domain(), 3000)
        states = ([preset.exceptional_state(n) for n in (1, 2, 3)]
                  + [preset.classical_state(n) for n in (0, 1)])
        together = state_rayleigh(states, preset.extended_potential, grid)
        assert together == [state_rayleigh([s], preset.extended_potential, grid)[0]
                            for s in states]
        assert state_rayleigh([], preset.extended_potential, grid) == []

    def test_evaluation_leaves_the_caller_arrays_alone(self):
        # the in-place division and product touch only arrays the call made
        shared = np.linspace(1.0, 2.0, 5)
        x = np.linspace(0.0, 1.0, 5)
        for pole in (None, -3.0):
            st = EigenstateClosedForm(1.0, Poly((1, 2, 3)), lambda x: x,
                                      lambda x, z: shared, pole)
            first, second = st(x), st(x)
            expect = shared if pole is None else shared / (x - pole)
            assert np.array_equal(first, expect * st.polynomial(x))
            assert np.array_equal(second, first)
            assert np.array_equal(shared, np.linspace(1.0, 2.0, 5))
            assert np.array_equal(x, np.linspace(0.0, 1.0, 5))
        scalar = EigenstateClosedForm(1.0, Poly((1, 2, 3)), lambda x: x**2,
                                      lambda x, z: np.exp(-z), -3.0)
        assert scalar(0.5) == np.exp(-0.25) / 3.25 * 1.6875

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
        (rq,) = state_rayleigh([st], osc.extended_potential, grid)
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
        gm1 = Grid(*mo.default_domain(), 10000)
        gm2 = Grid(*mo.default_domain(), 20000)
        r1 = hamiltonian_residual(mo.classical_state(0), mo.potential, gm1)
        r2 = hamiltonian_residual(mo.classical_state(0), mo.potential, gm2)
        assert r2 < 1e-5 and 3.0 < r1 / r2 < 5.0
        r2x = hamiltonian_residual(mo.exceptional_state(0),
                                   lambda x: mo.extended_potential(x, 0), gm2)
        assert r2x < 1e-5

    def test_morse_default_domain_keeps_the_top_level(self):
        # level 3 of s = 4 decays only as y^1: an end sized from the ground
        # state clipped it, and its gap grew from 1.5e-3 to 6.0e-3 here
        mo = Morse(A=4, B=2)
        gaps = []
        for n in (16000, 64000):
            grid = Grid(*mo.default_domain(), n)
            (rq,) = state_rayleigh([mo.exceptional_state(3)],
                                   lambda x: mo.extended_potential(x, 3), grid)
            gaps.append(abs(rq - mo.exceptional_energy(3)))
        assert gaps[1] < 1e-6
        assert 12.0 < gaps[0] / gaps[1] < 20.0  # second order: h is 4 times smaller

    def test_morse_default_domain_holds_a_deep_well(self):
        # s = 20: the levels' envelope y^20 e^(-y/2) peaks at y = 40, so a
        # left end at y = 80 clipped them and their errors did not shrink
        mo = Morse(A=20, B=2)
        assert mo.default_domain()[0] == pytest.approx(-3.4109, abs=1e-4)
        errors = []
        for n in (16000, 64000):
            levels = lowest_levels(mo.potential, Grid(*mo.default_domain(), n), 20)
            errors.append([abs(levels[i] - mo.classical_energy(i)) for i in (0, 9, 19)])
        assert all(fine < coarse / 8 for coarse, fine in zip(*errors)), errors

    @pytest.mark.parametrize("a", ["4.05", "1/100"])
    def test_morse_default_domain_names_its_limit(self, a):
        # s - n = 0.05 resp. 0.01: the top level's tail would pass y = 1e-100
        with pytest.raises(ValueError, match=r"limit y = 1e-100 \(it needs s - n >= 0.08\)"):
            Morse(A=a, B=2).default_domain()
        assert Morse(A="4.1", B=2).default_domain()[1] < 200.0  # s - n = 0.1 is inside

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


    @pytest.mark.parametrize("given,stored", [
        (9.0, 9.0), (1, 1.0), ("1/2", 0.5), ("0.25", 0.25), (F(3, 4), 0.75)])
    def test_energy_shift_parsed_and_stored_as_float(self, given, stored):
        for preset in (Oscillator3D(energy_shift=given), CoulombRadial(energy_shift=given),
                       make_preset("scarf", {"A": 3, "B": 1, "energy_shift": given}),
                       make_preset("morse", {"A": 4, "B": 2, "energy_shift": given})):
            assert type(preset.energy_shift) is float and preset.energy_shift == stored

    def test_numpy_scalars_accepted(self):
        assert Oscillator3D(energy_shift=np.float64(9.0)).energy_shift == 9.0
        assert ScarfTrig(A=np.int64(3), B=1).A == 3
        assert Morse(A=np.float64(4.5), B=2).A == F(9, 2)

    @pytest.mark.parametrize("params", [{"A": "x", "B": 2}, {"A": 4, "B": 2, "energy_shift": "x"},
                                        {"A": 4, "B": 2, "energy_shift": True},
                                        {"A": 4, "B": 2, "energy_shift": None}])
    def test_non_numeric_parameters_rejected(self, params):
        with pytest.raises(PotentialError, match="bad parameters for preset morse"):
            make_preset("morse", params)

    def test_unknown_parameter_named_with_the_accepted_fields(self):
        with pytest.raises(PotentialError, match="no parameter bogus; it accepts l, energy_shift"):
            make_preset("oscillator3d", {"bogus": 1})


class TestQuotientIdentity:
    def test_x1_members_pass(self):
        for k in (F(1), F(7, 2)):
            for n in (1, 3):
                f = x1_laguerre_op_route(n - 1, k)
                assert quotient_identity_check(f, k).is_zero

    def test_wrong_polynomial_fails_loudly(self):
        from exopoly.polycore import laguerre_classical

        # -(x+k) times the cleared X1 residual of L_2^(1): degree 3, leading -(k+2)
        residual = quotient_identity_check(laguerre_classical(2, F(1)), F(1))
        assert (residual.degree, residual.leading) == (3, -3)

    def test_float_coefficients_refused(self):
        with pytest.raises(TypeError, match="exact Poly"):
            quotient_identity_check([1.0, 1.0], F(1))

    def test_j2_instances(self):
        # chi_3 divides every coefficient of the identity, so it holds exactly
        # at each A the solve returns
        assert xj_quotient_solve(2.0, 2, 3)
        assert xj_quotient_certificate(2.0, 2, 3) == 0


class TestStatesPinnedToExplicitForms:
    """The shared frame builder against each preset's states written out in full.

    Every expression keeps the order of operations of the written-out form,
    so the arrays agree bit for bit, not merely to roundoff.
    """

    @pytest.mark.parametrize("l", [0, 1])
    def test_oscillator(self, l):
        osc, k, lp1 = Oscillator3D(l=l), F(2 * l + 1, 2), l + 1
        x = np.linspace(0.05, 14.0, 701)
        u = x**2 / 2
        for n in range(4):
            st = osc.classical_state(n)
            assert st.polynomial == laguerre_classical(n, k)
            assert st.energy == 2 * n + l + 1.5
            assert np.array_equal(st(x), x**lp1 * np.exp(-(x**2) / 4) * st.polynomial(u))
        for n in range(1, 5):
            st = osc.exceptional_state(n)
            assert st.polynomial == x1_laguerre_op_route(n - 1, k)
            assert st.energy == osc.exceptional_energy(n) == 2 * (n - 1) + l + 1.5
            expect = x**lp1 * np.exp(-(x**2) / 4) / (x**2 / 2 + float(k)) * st.polynomial(u)
            assert np.array_equal(st(x), expect)

    @pytest.mark.parametrize("l", [0, 1])
    def test_coulomb(self, l):
        cou, k, lp1 = CoulombRadial(l=l), F(2 * l + 1), l + 1
        x = np.linspace(0.05, 180.0, 701)
        for n in range(4):
            st = cou.classical_state(n)
            t = x / (n + l + 1)
            assert st.polynomial == laguerre_classical(n, k)
            assert st.energy == -1.0 / (4 * (n + l + 1) ** 2)
            assert np.array_equal(st(x), t**lp1 * np.exp(-t / 2) * st.polynomial(t))
        for n in range(1, 5):
            st = cou.exceptional_state(n)
            t = x / (n + l)
            assert st.polynomial == x1_laguerre_op_route(n - 1, k)
            assert st.energy == cou.exceptional_energy(n) == -1.0 / (4 * (n + l) ** 2)
            expect = t**lp1 * np.exp(-t / 2) / (t + float(k)) * st.polynomial(t)
            assert np.array_equal(st(x), expect)

    def test_morse_partner_shares_the_level(self):
        mo = Morse(A=4, B=2)
        x = np.linspace(-3.0, 12.0, 701)
        y = (2 * 2.0 / 1.0) * np.exp(-1.0 * x)
        for n in range(4):  # the bound levels n < s = 4
            m, energy = 2 * (4 - n), 4.0**2 - (4.0 - n * 1.0) ** 2
            pref = y ** (4.0 - n) * np.exp(-y / 2)
            st = mo.classical_state(n)
            assert st.polynomial == laguerre_classical(n, m)
            assert st.energy == energy
            assert np.array_equal(st(x), pref * st.polynomial(y))
            st = mo.exceptional_state(n)
            assert st.polynomial == x1_laguerre_op_route(n, m)
            assert st.energy == mo.exceptional_energy(n) == energy
            assert np.array_equal(st(x), pref / (y + float(m)) * st.polynomial(y))
        with pytest.raises(PotentialError):
            mo.exceptional_state(4)

    def test_scarf(self):
        sc = ScarfTrig(A=3, B=1)  # s = 3, L = 1: (alpha, beta) = (3/2, 7/2), b = 5/2
        x = np.linspace(-1.5, 1.5, 701)
        z = np.sin(1.0 * x)
        pref = (1 - z) ** 1.0 * (1 + z) ** 2.0
        for n in range(4):
            st = sc.classical_state(n)
            assert st.polynomial == jacobi_classical(n, F(3, 2), F(7, 2))
            assert st.energy == (3.0 + n * 1.0) ** 2 - 3.0**2
            assert np.array_equal(st(x), pref * st.polynomial(z))
        for n in range(1, 5):
            st = sc.exceptional_state(n)
            assert st.polynomial == x1_jacobi_op_route(n - 1, F(3, 2), F(7, 2))
            assert st.energy == sc.exceptional_energy(n) == sc.classical_energy(n - 1)
            assert np.array_equal(st(x), pref / (z - 2.5) * st.polynomial(z))

    @pytest.mark.parametrize("preset,levels", [
        (Oscillator3D(l=1), [3, 1, 5, 1]), (CoulombRadial(l=1), [1, 2, 3]),
        (Morse(A=4, B=2), [0, 3, 1]), (ScarfTrig(A=3, B=1), [2, 1])])
    def test_exceptional_states_equal_one_call_per_state(self, preset, levels):
        # Morse's levels each have their own family, Coulomb's their own
        # variable; the others share one family
        x = Grid(*preset.default_domain(), 500).points()
        states = preset.exceptional_states(levels)
        assert len(states) == len(levels)
        for n, st in zip(levels, states):
            one = preset.exceptional_state(n)
            assert (st.energy, st.polynomial, st.pole) == (one.energy, one.polynomial, one.pole)
            assert np.array_equal(st(x), one(x))
        assert preset.exceptional_states([]) == []
        with pytest.raises(PotentialError):
            preset.exceptional_states([*levels, -1])

    def test_levels_outside_the_families_rejected(self):
        for preset in (Oscillator3D(), CoulombRadial(), ScarfTrig(A=3, B=1)):
            with pytest.raises(PotentialError):
                preset.classical_state(-1)
            with pytest.raises(PotentialError):
                preset.exceptional_state(0)
        with pytest.raises(PotentialError):
            Morse(A=4, B=2).exceptional_state(-1)

    def test_params_read_from_the_fields(self):
        assert Oscillator3D(l=1).params() == {"l": 1, "energy_shift": 0.0}
        assert CoulombRadial(energy_shift=0.5).params() == {"l": 0, "energy_shift": 0.5}
        assert list(Morse(A=4, B=2).params().items()) == [
            ("A", "4"), ("B", "2"), ("alpha", "1"), ("energy_shift", 0.0)]
        assert ScarfTrig(A="7/2", B=-1, alpha="1/2").params() == {
            "A": "7/2", "B": "-1", "alpha": "1/2", "energy_shift": 0.0}
