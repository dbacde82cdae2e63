"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with  pytest -v -s tests/test_acceptance.py  to see the per-criterion
lines as they complete.  Tolerances are pinned here, not configurable.
"""

import time
from fractions import Fraction as F

import numpy as np

from exopoly import quad, solver, susy, xop
from exopoly.polycore import laguerre_classical
from exopoly.potentials import (
    Oscillator3D,
    ScarfTrig,
    quotient_grid_residual,
    quotient_identity_check,
    state_rayleigh,
)
from exopoly.solver import Grid

K_GRID = (F(1), F(2), F(7, 2))
AB_GRID = ((F(1), F(2)), (F(2), F(5)), (F(1, 2), F(3, 2)))


def criterion(num: int, description: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] criterion {num:2d}: {description}" + (f"  [{detail}]" if detail else ""))
    assert passed, f"criterion {num}: {description} ({detail})"


def test_criterion_01_exact_laguerre_eigenrelation():
    t0 = time.perf_counter()
    ok = True
    for k in K_GRID:
        spec = xop.XFamilySpec(family="laguerre", k=k)
        for n, f in enumerate(xop.family_by_route(spec, 10, "operator"), 1):
            ok &= xop.x1_laguerre_ode_residual(f, k, n).is_zero
    elapsed = time.perf_counter() - t0
    criterion(1, "exceptional Laguerre equation holds exactly, n=1..10, three k",
              ok and elapsed < 1.0, f"runtime {elapsed:.2f}s")


def test_criterion_02_exact_jacobi_eigenrelation():
    t0 = time.perf_counter()
    ok = True
    for alpha, beta in AB_GRID:
        spec = xop.XFamilySpec(family="jacobi", alpha=alpha, beta=beta)
        for n, f in enumerate(xop.family_by_route(spec, 10, "operator"), 1):
            ok &= xop.x1_jacobi_ode_residual(f, alpha, beta, n).is_zero
    elapsed = time.perf_counter() - t0
    criterion(2, "exceptional Jacobi equation holds exactly, n=1..10, three (alpha,beta)",
              ok and elapsed < 1.0, f"runtime {elapsed:.2f}s")


def test_criterion_03_route_agreement():
    t0 = time.perf_counter()
    worst = 0.0
    specs = [xop.XFamilySpec(family="laguerre", k=k) for k in K_GRID]
    specs += [xop.XFamilySpec(family="jacobi", alpha=a, beta=b) for a, b in AB_GRID]
    for spec in specs:
        families = [xop.family_by_route(spec, 8, route)
                    for route in ("operator", "nullspace", "gram-schmidt")]
        for op, ns, gs in zip(*families):
            worst = max(worst, xop.coefficient_rel_diff(op, ns))
            worst = max(worst, xop.coefficient_rel_diff(gs, op))
    elapsed = time.perf_counter() - t0
    criterion(3, "operator, nullspace, and Gram-Schmidt routes agree up to scale",
              worst < 1e-9 and elapsed < 30.0,
              f"worst rel diff {worst:.2e}, runtime {elapsed:.1f}s")


def test_criterion_04_orthogonality_under_rational_weights():
    t0 = time.perf_counter()
    worst = 0.0
    specs = [xop.XFamilySpec(family="laguerre", k=k) for k in K_GRID]
    specs += [xop.XFamilySpec(family="jacobi", alpha=a, beta=b) for a, b in AB_GRID]
    for spec in specs:
        members = xop.family_by_route(spec, 8, "operator")
        gram = quad.gram_matrix(members, spec.weight())
        d = np.sqrt(np.diag(gram))
        rel = np.abs(gram - np.diag(np.diag(gram))) / np.outer(d, d)
        worst = max(worst, float(np.max(rel)))
    elapsed = time.perf_counter() - t0
    criterion(4, "Gram off-diagonals vanish relative to the diagonal geometric mean",
              worst < 1e-10 and elapsed < 30.0,
              f"worst {worst:.2e}, runtime {elapsed:.1f}s")


def test_criterion_05_quotient_identity_with_codimension_two():
    grid = Grid(0.01, 40.0, 2000)
    worst1 = 0.0
    for k in K_GRID:  # three parameter samples, codimension 1
        for f in xop.family_by_route(xop.XFamilySpec(family="laguerre", k=k), 3, "operator"):
            worst1 = max(worst1, quotient_identity_check(f, k, grid))
    worst2 = 0.0
    found = True
    for kf in (1.0, 2.0, 3.5):  # three parameter samples, codimension 2
        sols = xop.xj_quotient_solve(kf, 2, 2) + xop.xj_quotient_solve(kf, 2, 3)
        found &= bool(sols)
        for s in sols:
            worst2 = max(worst2, quotient_grid_residual(s["residual"], kf, 2, grid))
    negative = min(
        quotient_identity_check(laguerre_classical(2, k), k, grid) for k in K_GRID
    )
    criterion(5, "quotient extensions verified (j=1 and j=2), wrong input fails loudly",
              worst1 < 1e-8 and found and worst2 < 1e-8 and negative > 1e-2,
              f"j=1 {worst1:.1e}, j=2 {worst2:.1e}, negative control {negative:.1e}")


def test_criterion_06_oscillator_spectrum_and_order():
    t0 = time.perf_counter()
    worst = 0.0
    for l in (0, 1):
        osc = Oscillator3D(l=l)
        grid = Grid(*osc.default_domain(), 8000)
        rep = solver.solve_spectrum(osc.potential, grid, 3)
        for n in range(3):
            exact = osc.classical_energy(n)
            worst = max(worst, abs(rep.eigenvalues[n] - exact) / exact)
    osc0 = Oscillator3D(l=0)
    order = solver.convergence_order(osc0.potential, osc0.default_domain(),
                                     osc0.classical_energy(0), (1000, 2000, 4000))
    elapsed = time.perf_counter() - t0
    criterion(6, "grid spectra reproduce E = 2n + l + 3/2 at second order",
              worst < 1e-4 and 1.8 <= order <= 2.2 and elapsed < 60.0,
              f"worst rel {worst:.1e}, order {order:.2f}, runtime {elapsed:.1f}s")


def test_criterion_07_isospectrality_of_closed_forms():
    worst = 0.0
    osc = Oscillator3D(l=0)
    grid = Grid(*osc.default_domain(), 16000)
    quotients = state_rayleigh([osc.exceptional_state(n) for n in (1, 2, 3)],
                               osc.extended_potential, grid)
    for n, rq in zip((1, 2, 3), quotients):
        exact = osc.exceptional_energy(n)  # = classical level n-1
        worst = max(worst, abs(rq - exact) / exact)
    sc = ScarfTrig(A=3, B=1, energy_shift=9.0)  # shift A^2 keeps levels positive
    scgrid = Grid(*sc.default_domain(), 12000)
    quotients = state_rayleigh([sc.exceptional_state(n) for n in (1, 2, 3)],
                               sc.extended_potential, scgrid)
    for n, rq in zip((1, 2, 3), quotients):
        exact = sc.exceptional_energy(n)
        worst = max(worst, abs(rq - exact) / exact)

    # observed level mapping, with the missing-ground-state question reported
    flags = {}
    for name, preset, g in (("oscillator3d", osc, Grid(*osc.default_domain(), 8000)),
                            ("scarf", sc, scgrid)):
        cl = solver.solve_spectrum(preset.potential, g, 4)
        ext = solver.solve_spectrum(preset.extended_potential, g, 4)
        mapping = solver.spectrum_compare(cl.eigenvalues, ext.eigenvalues, 1e-2)
        flags[name] = {
            "ground_state_unmatched": 0 in mapping["unmatched_a"] or 0 in mapping["unmatched_b"],
            "pairs": len(mapping["pairs"]),
        }
    criterion(7, "exceptional closed forms sit on the classical levels (mapping reported)",
              worst < 1e-6 and all(f["pairs"] >= 4 for f in flags.values()),
              f"worst rel {worst:.1e}, mapping flags {flags}")


def test_criterion_08_susy_construction_identities():
    w_osc = susy.oscillator_intertwiner(1)
    w_lin = susy.Superpotential(w=lambda x: x, w_prime=lambda x: np.ones_like(x))
    worst_pair = 0.0
    for w, dom in ((w_lin, (-8.0, 8.0)), (w_osc, (0.5, 12.0))):
        g = Grid(dom[0], dom[1], 4000)
        x = g.points()
        pair = susy.partner_potentials(w, 0.3)
        dev = np.max(np.abs(pair.v_minus(x) - pair.v_plus(x) - 2 * w.w_prime(x)))
        worst_pair = max(worst_pair, dev / max(1.0, np.max(np.abs(w.w_prime(x)))))
    worst_op = 0.0
    for w, dom in ((w_lin, (-8.0, 8.0)), (w_osc, (0.8, 12.0))):
        g = Grid(dom[0], dom[1], 12000)
        psis = susy.random_smooth_functions(g, 5, seed=7)
        for res in susy.intertwining_operator_residual(w, g, psis):
            worst_op = max(worst_op, res)
    criterion(8, "partner difference equals 2W' and the factorized operators intertwine",
              worst_pair < 1e-12 and worst_op < 1e-5,
              f"construction {worst_pair:.1e}, operator identity {worst_op:.1e}")


def test_criterion_09_intertwining_level_mapping():
    w = susy.oscillator_intertwiner(1)
    g = Grid(0.0, 14.0, 16000)
    classical = Oscillator3D(l=0)
    exceptional = Oscillator3D(l=1)
    targets = [exceptional.exceptional_state(n).on_grid(g) for n in range(1, 6)]
    sources = [classical.classical_state(nu).on_grid(g) for nu in range(4)]
    matched_worst = 0.0
    mismatch_best = np.inf
    for row in susy.intertwine_check(w, g, sources, targets):
        residuals = [m["rel_residual"] for m in row]
        best = int(np.argmin(residuals))
        matched_worst = max(matched_worst, residuals[best])
        mismatch_best = min(mismatch_best,
                            min(r for i, r in enumerate(residuals) if i != best))
    separation = mismatch_best / matched_worst
    criterion(9, "first-order operator maps each classical state to one exceptional state",
              matched_worst < 1e-5 and mismatch_best > 1e-1 and separation >= 1e4,
              f"matched {matched_worst:.1e}, mismatched {mismatch_best:.1e}, "
              f"separation {separation:.1e}")


def test_criterion_10_claim_audit_rows_populated():
    rows = []
    for preset in ("oscillator3d", "coulomb", "scarf"):
        rows.extend(susy.verify_claims(preset))
    by_claim = {}
    for r in rows:
        by_claim.setdefault(r["claim"], []).append(r)
    required = [
        "superpotential-printed-direct-reading",
        "superpotential-printed-chain-rule-reading",
        "oscillator-extension-vs-2wprime",
        "oscillator-2wprime-printed-rhs",
        "coulomb-mapped-2wprime-vs-level1-extension",
        "jacobi-raising-constant",
    ]
    ok = all(claim in by_claim for claim in required)
    ok &= all(np.isfinite(r["max_abs_dev"]) for r in rows)
    ok &= all(r["status"] in ("pass", "fail", "reported") for r in rows)
    ok &= not any(r["status"] == "fail" for r in rows)
    measured = [r["params"]["measured"] for r in by_claim.get("jacobi-raising-constant", [])]
    criterion(10, "every printed-identity audit row is populated with a measured deviation",
              ok, f"{len(rows)} rows; raising-constant measured {measured[:3]}...")
