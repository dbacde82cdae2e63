"""Superpotentials, partner pairs, intertwining operators, claim audit."""

import math
import random

import numpy as np
import pytest
import sympy

from exopoly.potentials import Oscillator3D
from exopoly.solver import Grid, GridFunction
from exopoly.susy import (
    Superpotential,
    apply_A,
    formal_zero_mode,
    intertwine_check,
    intertwining_operator_residual,
    oscillator_intertwiner,
    partner_potentials,
    printed_superpotential_candidate,
    random_smooth_functions,
    superpotential_from_ground_state,
    verify_claims,
)
from exopoly.xop import x1_jacobi_op_route, x1_laguerre_op_route

W_LINEAR = Superpotential(w=lambda x: x, w_prime=lambda x: np.ones_like(x))


class TestPartnerPotentials:
    def test_linear_superpotential(self):
        pair = partner_potentials(W_LINEAR, 0.0)
        x = np.linspace(-2, 2, 9)
        assert pair.v_plus(x) == pytest.approx(x**2 - 1)
        assert pair.v_minus(x) == pytest.approx(x**2 + 1)

    def test_construction_difference_is_2wprime(self):
        w = oscillator_intertwiner(1)
        x = np.linspace(0.3, 12, 2000)
        pair = partner_potentials(w, 0.7)
        assert pair.v_minus(x) - pair.v_plus(x) == pytest.approx(2 * w.w_prime(x))

    def test_printed_candidate_values_and_symbolic_derivative(self):
        w = printed_superpotential_candidate(0, 1.0)
        assert w.w(np.array([1.0]))[0] == pytest.approx(-1.0)  # -1/2 - 1/2
        assert w.w_prime(np.array([1.0]))[0] == pytest.approx(0.25)
        # cross-check W' against symbolic differentiation
        xs = sympy.Symbol("x", positive=True)
        l, k = 2, 1.5
        expr = -l / xs - sympy.Rational(1, 2) - 1 / (xs + k)
        dexpr = sympy.lambdify(xs, sympy.diff(expr, xs))
        w2 = printed_superpotential_candidate(l, k)
        pts = np.linspace(0.2, 9.0, 50)
        assert w2.w_prime(pts) == pytest.approx(dexpr(pts), rel=1e-12)

    def test_derived_intertwiner_wprime_against_symbolic(self):
        xs = sympy.Symbol("x", positive=True)
        l = 1
        k = l + sympy.Rational(1, 2)
        expr = -l / xs - xs / 2 - xs / (xs**2 / 2 + k)
        dexpr = sympy.lambdify(xs, sympy.diff(expr, xs))
        w = oscillator_intertwiner(l)
        pts = np.linspace(0.1, 10.0, 60)
        assert w.w_prime(pts) == pytest.approx(dexpr(pts), rel=1e-12)


class TestApplyA:
    def test_annihilates_formal_zero_mode(self):
        g = Grid(-8.0, 8.0, 4000)
        zm = formal_zero_mode(W_LINEAR, g).normalized()
        assert apply_A(W_LINEAR, zm).norm() < 1e-5

    def test_adag_a_reproduces_second_order_form(self):
        g = Grid(-6.0, 6.0, 6000)
        x = g.points()
        psi = GridFunction(g, np.exp(-(x**2) / 2) * (1 + 0.3 * x))
        aa = apply_A(W_LINEAR, apply_A(W_LINEAR, psi), dagger=True)
        lap = np.gradient(np.gradient(psi.values, g.h), g.h)
        expect = -lap + (x**2 - 1) * psi.values
        inner = slice(3, -3)  # np.gradient ends are first-order only
        assert np.max(np.abs(aa.values[inner] - expect[inner])) < 2e-4

    def test_a_plus_adag_is_multiplication_by_2w(self):
        g = Grid(-5.0, 5.0, 500)
        x = g.points()
        psi = GridFunction(g, np.sin(x) * np.exp(-(x**2) / 4))
        total = apply_A(W_LINEAR, psi).values + apply_A(W_LINEAR, psi, dagger=True).values
        assert total == pytest.approx(2 * x * psi.values)


class TestIntertwining:
    def test_zero_mode_maps_to_nothing(self):
        g = Grid(-8.0, 8.0, 4000)
        zm = formal_zero_mode(W_LINEAR, g).normalized()
        ((out,),) = intertwine_check(W_LINEAR, g, [zm], [zm])
        assert abs(out["scale"]) < 1e-4
        assert out["rel_residual"] < 1e-4

    def test_oscillator_mapping_and_negative_control(self):
        w = oscillator_intertwiner(1)
        g = Grid(0.0, 14.0, 16000)
        classical = Oscillator3D(l=0)
        exceptional = Oscillator3D(l=1)
        src = classical.classical_state(1).on_grid(g)
        ((matched, mismatched),) = intertwine_check(
            w, g, [src], [exceptional.exceptional_state(n).on_grid(g) for n in (2, 3)])
        assert matched["rel_residual"] < 1e-5
        assert mismatched["rel_residual"] > 1e-1

    def test_operator_identity_for_any_w(self):
        g = Grid(-8.0, 8.0, 8000)
        worst = max(intertwining_operator_residual(W_LINEAR, g,
                                                   random_smooth_functions(g, 5, seed=11)))
        assert worst < 1e-5

    def test_factorized_operators_nearly_positive(self):
        from exopoly.solver import lowest_levels

        w = oscillator_intertwiner(1)
        g = Grid(0.0, 12.0, 4000)
        pair = partner_potentials(w, 0.0)
        for v in (pair.v_plus, pair.v_minus):
            assert lowest_levels(v, g, 1)[0] > -1e-6

    def test_grid_mismatch_rejected(self):
        g1, g2 = Grid(0.0, 1.0, 64), Grid(0.0, 1.0, 65)
        a = GridFunction(g1, np.ones(64))
        b = GridFunction(g2, np.ones(65))
        for sources, targets in (([a], [b]), ([b], [a]), ([a], [a, b])):
            with pytest.raises(ValueError):
                intertwine_check(W_LINEAR, g1, sources, targets)


class TestPluralForms:
    """One call over many sources equals one call per source, bit for bit."""

    def test_intertwine_check_matches_one_target_at_a_time(self):
        w = oscillator_intertwiner(1)
        g = Grid(0.0, 14.0, 3000)
        exceptional = Oscillator3D(l=1)
        targets = [exceptional.exceptional_state(n).on_grid(g) for n in range(1, 6)]
        sources = [Oscillator3D(l=0).classical_state(nu).on_grid(g) for nu in range(3)]
        together = intertwine_check(w, g, sources, targets)
        assert together == [[intertwine_check(w, g, [src], [t])[0][0] for t in targets]
                            for src in sources]
        streamed = intertwine_check(w, g, iter(sources), (t for t in targets))
        assert streamed == together
        assert intertwine_check(w, g, sources, []) == [[], [], []]
        assert intertwine_check(w, g, [], targets) == []

    @pytest.mark.parametrize("w,dom", [(W_LINEAR, (-8.0, 8.0)),
                                       (oscillator_intertwiner(1), (0.8, 12.0))])
    def test_operator_residual_matches_one_function_at_a_time(self, w, dom):
        g = Grid(dom[0], dom[1], 3000)
        psis = random_smooth_functions(g, 5, seed=7)
        together = intertwining_operator_residual(w, g, psis)
        assert together == [intertwining_operator_residual(w, g, [psi])[0] for psi in psis]

    def test_apply_a_is_the_shared_body(self):
        w = oscillator_intertwiner(1)
        g = Grid(0.5, 12.0, 2000)
        psi = random_smooth_functions(g, 1, seed=3)[0]
        x = g.points()
        d = np.empty_like(psi.values)
        d[1:-1] = (psi.values[2:] - psi.values[:-2]) / (2 * g.h)
        d[0] = (-3 * psi.values[0] + 4 * psi.values[1] - psi.values[2]) / (2 * g.h)
        d[-1] = (3 * psi.values[-1] - 4 * psi.values[-2] + psi.values[-3]) / (2 * g.h)
        assert np.array_equal(apply_A(w, psi).values, d + w.w(x) * psi.values)
        assert np.array_equal(apply_A(w, psi, dagger=True).values, -d + w.w(x) * psi.values)

    @pytest.mark.parametrize("n,seed", [(12000, 7), (3000, 11), (500, 0)])
    def test_smooth_functions_bitwise_equal_to_the_per_function_formula(self, n, seed):
        g = Grid(-8.0, 9.0, n)
        rng = random.Random(seed)
        s = (g.points() - g.a) / (g.b - g.a)
        expect = []
        for _ in range(5):
            c = [2.0 * rng.random() - 1.0 for _ in range(4)]
            bump = (c[0] + c[1] * s + c[2] * np.sin(2 * np.pi * s)
                    + c[3] * np.cos(np.pi * s))
            expect.append(GridFunction(g, np.sin(np.pi * s) ** 6 * bump).normalized())
        for got, want in zip(random_smooth_functions(g, 5, seed=seed), expect, strict=True):
            assert np.array_equal(got.values, want.values)

    def test_function_off_the_grid_rejected(self):
        g = Grid(-8.0, 8.0, 500)
        psi = random_smooth_functions(Grid(-8.0, 9.0, 500), 1)[0]
        with pytest.raises(ValueError):
            intertwining_operator_residual(W_LINEAR, g, [psi])


class TestPolynomialLadderComposition:
    def test_mapped_polynomial_part_matches_ladder_route(self):
        # apply A at the wavefunction level, strip the exceptional prefactor,
        # and fit the polynomial part: it must match the ladder-route output
        l = 1
        w = oscillator_intertwiner(l)
        g = Grid(0.0, 14.0, 16000)
        x = g.points()
        u = x**2 / 2
        kf = l + 0.5
        classical = Oscillator3D(l=0)
        nu = 1
        phi = apply_A(w, classical.classical_state(nu).on_grid(g)).values
        prefactor = x ** (l + 1) * np.exp(-(x**2) / 4) / (u + kf)
        # fit prefactor * poly(u) in the original space: dividing by the
        # exponentially small prefactor would amplify the O(h^2) noise
        window = (x > 0.2) & (x < 10.0)
        target = x1_laguerre_op_route(nu, __import__("fractions").Fraction(3, 2))
        design = (np.vander(u[window], N=target.degree + 1, increasing=True)
                  * prefactor[window, None])
        fitted, *_ = np.linalg.lstsq(design, phi[window], rcond=None)
        expect = np.array(target.to_floats())
        scale = fitted[-1] / expect[-1]
        assert fitted / scale == pytest.approx(expect, rel=1e-6, abs=1e-6 * np.max(np.abs(expect)))

    def test_jacobi_ladder_route(self):
        out = x1_jacobi_op_route(0, 1, 3)
        assert out.to_floats() == [18.0, -6.0]


class TestGroundStateDiagnostic:
    def test_gaussian_recovers_linear_w(self):
        g = Grid(-6.0, 6.0, 6000)
        x = g.points()
        psi0 = GridFunction(g, np.exp(-(x**2) / 2))
        w = superpotential_from_ground_state(psi0)
        # centered-difference error grows like h^2 * |x|^3 / 6 away from 0
        inner = np.linspace(-4, 4, 200)
        assert w.w(inner) == pytest.approx(inner, abs=1e-4)
        tight = np.linspace(-2, 2, 100)
        assert w.w(tight) == pytest.approx(tight, abs=5e-6)

    def test_state_with_node_rejected(self):
        g = Grid(-6.0, 6.0, 500)
        x = g.points()
        with pytest.raises(ValueError):
            superpotential_from_ground_state(GridFunction(g, x * np.exp(-(x**2))))


class TestClaimAudit:
    @pytest.mark.parametrize("preset", ["oscillator3d", "coulomb", "scarf"])
    def test_rows_are_populated(self, preset):
        rows = list(verify_claims(preset))
        assert rows
        for row in rows:
            assert row["status"] in ("pass", "fail", "reported")
            assert math.isfinite(row["max_abs_dev"])

    def test_oscillator_audit_structure(self):
        rows = {r["claim"]: r for r in verify_claims("oscillator3d")}
        assert rows["partner-construction-difference"]["status"] == "pass"
        # the printed candidate does not coincide with the working intertwiner
        assert rows["superpotential-printed-direct-reading"]["max_abs_dev"] > 0.1
        # the 2W' vs extension gap is exactly the centrifugal step
        assert rows["oscillator-2wprime-extension-gap-structure"]["max_abs_dev"] < 1e-9

    def test_coulomb_printed_expression_is_the_level1_extension(self):
        rows = {r["claim"]: r for r in verify_claims("coulomb")}
        assert rows["coulomb-mapped-2wprime-vs-level1-extension"]["max_abs_dev"] < 1e-12
        assert rows["coulomb-mapped-2wprime-vs-level2-extension"]["max_abs_dev"] > 1e-3

    def test_scarf_audit_measures_raising_constant(self):
        rows = [r for r in verify_claims("scarf")
                if r["claim"] == "jacobi-raising-constant"]
        assert len(rows) == 5
        for row in rows:
            assert row["params"]["measured"] != pytest.approx(row["params"]["claimed"])

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError):
            verify_claims("morse")
