"""Verification campaign configuration, report contract, CLI exit codes."""

import ast
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exopoly import _lapack, cli, potentials, quad, solver, susy, verify, xop
from exopoly.cli import main
from exopoly.polycore import Poly
from exopoly.verify import (
    ConfigError,
    VerificationConfig,
    run_verification,
    suite_spectra,
    suite_susy,
    suite_theorem,
    suite_xop,
    write_atomic,
)


class TestConfig:
    def test_defaults_fill_in(self):
        cfg = VerificationConfig.from_dict({})
        assert cfg.suites == ["xop", "theorem", "spectra", "susy"]
        assert [str(k) for k in cfg.laguerre_k] == ["1", "2", "7/2"]

    def test_unknown_field_named(self):
        with pytest.raises(ConfigError, match="typo_field"):
            VerificationConfig.from_dict({"typo_field": 1})

    def test_empty_suites_rejected(self):
        with pytest.raises(ConfigError, match="suites"):
            VerificationConfig.from_dict({"suites": []})

    def test_unknown_suite_rejected(self):
        with pytest.raises(ConfigError, match="suites"):
            VerificationConfig.from_dict({"suites": ["spectra", "nope"]})

    def test_bad_tolerance_named(self):
        with pytest.raises(ConfigError, match="tolerances"):
            VerificationConfig.from_dict({"tolerances": {"orthogonality": 0}})

    def test_bad_grid_named(self):
        with pytest.raises(ConfigError, match="grid"):
            VerificationConfig.from_dict({"grid": {"spectrum_points": 4}})

    @pytest.mark.parametrize("raw", [
        {"laguerre_k": "12"},
        {"jacobi_alpha_beta": ["12"]},
        {"n_max": True},
        {"n_eigen_max": False},
        {"oscillator_l": [True]},
        {"tolerances": []},
        {"tolerances": {"quotient": True}},
        {"grid": 5},
        {"negative_control": "false"},
        [],
    ], ids=repr)
    def test_malformed_input_rejected(self, raw):
        with pytest.raises(ConfigError):
            VerificationConfig.from_dict(raw)

    @pytest.mark.parametrize("key", ["laguerre_k", "jacobi_alpha_beta"])
    def test_empty_family_list_rejected(self, key):
        # `suites` is the way to skip a family; an empty list is an error
        for suites in (["all"], ["spectra"]):
            with pytest.raises(ConfigError, match=f"^{key}: need"):
                VerificationConfig.from_dict({key: [], "suites": suites})

    @pytest.mark.parametrize("pair", [["-1/2", "2"], ["1", "-1/2"], ["0", "2"]], ids=repr)
    def test_jacobi_pair_outside_the_x1_domain_rejected(self, pair):
        # alpha, beta > 0: P^(alpha-1, beta+1) exists and |b| > 1
        for suites in (["xop"], ["theorem"]):
            with pytest.raises(ConfigError, match="^jacobi_alpha_beta: need"):
                VerificationConfig.from_dict({"jacobi_alpha_beta": [pair], "suites": suites})

    @pytest.mark.parametrize("raw, message", [
        ({"laguerre_k": ["1", "2/2"]}, "^laguerre_k: .*repeats an earlier value"),
        ({"laguerre_k": ["1", "1"]}, "^laguerre_k: .*repeats an earlier value"),
        ({"jacobi_alpha_beta": [["1", "2"], ["2/2", "4/2"]]},
         "^jacobi_alpha_beta: .*repeats an earlier value"),
        # l = 0, 1 are fixed in the spectra suite: oscillator_l is not a field
        ({"oscillator_l": [0, 0]}, r"^unknown config field\(s\): \['oscillator_l'\]$"),
    ], ids=["k-rational", "k-literal", "jacobi", "oscillator"])
    def test_repeated_family_value_rejected(self, raw, message):
        with pytest.raises(ConfigError, match=message):
            VerificationConfig.from_dict(raw)

    def test_overflowing_weight_accepted_without_xop(self):
        # only the xop suite integrates against the weight
        cfg = VerificationConfig.from_dict({"laguerre_k": ["200"], "suites": ["theorem"]})
        assert cfg.laguerre_k == [200]

    def test_roundtrip(self):
        cfg = VerificationConfig.from_dict({"suites": ["xop"], "n_max": 4})
        again = VerificationConfig.from_dict(cfg.to_dict())
        assert again.to_dict() == cfg.to_dict()


class TestCampaign:
    def test_xop_suite_passes_and_reports(self):
        cfg = VerificationConfig.from_dict(
            {"suites": ["xop"], "laguerre_k": ["1"],
             "jacobi_alpha_beta": [["1", "2"]], "n_max": 4, "n_eigen_max": 4}
        )
        rep = run_verification(cfg)
        assert rep.failures == 0
        ids = [c["id"] for c in rep.checks]
        assert ids == sorted(ids)
        assert any(c["id"].startswith("x1-laguerre-eigenrelation") for c in rep.checks)

    def test_negative_control_fails_the_run(self):
        cfg = VerificationConfig.from_dict(
            {"suites": ["xop"], "laguerre_k": ["1"],
             "jacobi_alpha_beta": [["1", "2"]], "n_max": 2, "n_eigen_max": 2,
             "negative_control": True}
        )
        rep = run_verification(cfg)
        assert rep.failures == 1
        assert any(c["id"] == "negative-control" and c["status"] == "fail"
                   for c in rep.checks)

    def test_two_suite_campaign_passes(self):
        cfg = VerificationConfig.from_dict(
            {"suites": ["xop", "theorem"], "laguerre_k": ["1"],
             "jacobi_alpha_beta": [["1", "2"]], "n_max": 2, "n_eigen_max": 2}
        )
        rep = run_verification(cfg)
        assert rep.failures == 0
        ids = {c["id"] for c in rep.checks}
        assert "x1-laguerre-eigenrelation[k=1]" in ids
        assert "quotient-extension-x1[k=1]" in ids

    def test_quotient_identity_is_exact_at_a_non_dyadic_k(self):
        # k = 1/3 has no float; the cleared identity is exact all the same
        cfg = VerificationConfig.from_dict({"suites": ["theorem"], "laguerre_k": ["1/3"]})
        rows = {c["id"]: c for c in suite_theorem(cfg)}
        assert rows["quotient-extension-x1[k=1/3]"]["metric"] == 0.0
        assert rows["quotient-extension-xj[j=2,k=1/3]"]["status"] == "pass"

    def test_theorem_suite_builds_no_grid(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the theorem suite built a grid")

        for module in (solver, verify, potentials, susy):
            monkeypatch.setattr(module, "Grid", refuse)
        rows = suite_theorem(VerificationConfig.from_dict({"suites": ["theorem"]}))
        assert all(row["status"] != "fail" for row in rows)

    def test_quotient_rows_gate_exact_residuals(self):
        rows = {c["id"]: c for c in suite_theorem(VerificationConfig.from_dict({}))}
        for k, leading in (("1", "-3"), ("2", "-4"), ("7/2", "-11/2")):
            for cid in (f"quotient-extension-x1[k={k}]", f"quotient-extension-xj[j=2,k={k}]"):
                assert (rows[cid]["metric"], rows[cid]["tolerance"]) == (0.0, 0)
            neg = rows[f"quotient-negative-control[k={k}]"]
            assert (neg["status"], neg["metric"], neg["tolerance"]) == ("pass", 3.0, 0)
            assert neg["params"] == {"k": k, "degree": 3, "leading": leading}

    def test_a_perturbed_phi_0_fails_every_xj_row(self, monkeypatch):
        # phi_0 + 1 leaves rows t^1 and t^2 of the identity off chi_n, at n = 2 and 3
        charpoly = xop._quotient_charpoly

        def perturbed(rows, den):
            chi, phi = charpoly(rows, den)
            return chi, [phi[0] + Poly.one(), *phi[1:]]

        monkeypatch.setattr(xop, "_quotient_charpoly", perturbed)
        rows = suite_theorem(VerificationConfig.from_dict({"suites": ["theorem"]}))
        xj = [r for r in rows if r["id"].startswith("quotient-extension-xj")]
        assert len(xj) == 3
        assert all((r["status"], r["metric"]) == ("fail", 4.0) for r in xj)

    def test_a_shifted_darboux_seed_fails_every_x1_row(self, monkeypatch):
        # the ladder of the pole -(k + 1/2) builds members that solve nothing at k
        seed = xop._darboux_seed

        def shifted(weight):
            return seed(quad.WeightSpec.x1_laguerre(weight.k + Fraction(1, 2)))

        monkeypatch.setattr(xop, "_darboux_seed", shifted)
        rows = suite_theorem(VerificationConfig.from_dict({"suites": ["theorem"]}))
        x1 = [r for r in rows if r["id"].startswith("quotient-extension-x1")]
        assert len(x1) == 3
        assert all((r["status"], r["metric"]) == ("fail", 3.0) for r in x1)

    def test_xop_suite_id_set(self):
        cfg = VerificationConfig.from_dict(
            {"suites": ["xop"], "laguerre_k": ["7/2"],
             "jacobi_alpha_beta": [["1/2", "3/2"]], "n_max": 3, "n_eigen_max": 3}
        )
        assert sorted(c["id"] for c in suite_xop(cfg)) == sorted([
            "x1-laguerre-eigenrelation[k=7/2]",
            "route-agreement-exact[laguerre,k=7/2]",
            "route-agreement-gs[laguerre,k=7/2]",
            "orthogonality[laguerre,k=7/2]",
            "degree-law[laguerre,k=7/2]",
            "completeness-proxy[laguerre,k=7/2]",
            "x1-jacobi-eigenrelation[alpha=1/2,beta=3/2]",
            "route-agreement-exact[jacobi,alpha=1/2,beta=3/2]",
            "route-agreement-gs[jacobi,alpha=1/2,beta=3/2]",
            "orthogonality[jacobi,alpha=1/2,beta=3/2]",
            "degree-law[jacobi,alpha=1/2,beta=3/2]",
            "completeness-proxy[jacobi,alpha=1/2,beta=3/2]",
        ])

    def test_determinism_modulo_runtime(self):
        cfg = VerificationConfig.from_dict(
            {"suites": ["theorem"], "laguerre_k": ["1"],
             "jacobi_alpha_beta": [["1", "2"]]}
        )
        def strip(rep):
            data = rep.to_dict()
            for c in data["checks"]:
                c.pop("runtime")
            return json.dumps(data, sort_keys=True)

        assert strip(run_verification(cfg)) == strip(run_verification(cfg))

    def test_susy_rows_carry_their_own_runtime(self, monkeypatch):
        made = {}  # claim-row id -> the time its audit spent making it
        audit = susy.verify_claims

        def timed(preset):
            rows = audit(preset)
            while True:
                t0 = time.perf_counter()
                row = next(rows, None)
                if row is None:
                    return
                n = f"[n={row['params']['n']}]" if "n" in row["params"] else ""
                made[f"claim-audit[{preset}:{row['claim']}]{n}"] = time.perf_counter() - t0
                yield row

        monkeypatch.setattr(susy, "verify_claims", timed)
        cfg = VerificationConfig.from_dict({"suites": ["susy"],
                                            "grid": {"rayleigh_points": 2000}})
        rows = {c["id"]: c for c in suite_susy(cfg)}
        assert {cid.split(":")[0] for cid in made} == {
            f"claim-audit[{preset}" for preset in ("oscillator3d", "coulomb", "scarf")}
        # a claim row is recorded as its audit makes it, so its runtime holds
        # the time spent making it (each runtime is rounded to 1e-6 s)
        for cid, spent in made.items():
            assert rows[cid]["runtime"] >= spent - 5e-7, cid
        # the separation row reuses the residuals of the matched-pairings row
        assert (rows["intertwine-separation"]["runtime"]
                < rows["intertwine-matched-pairings"]["runtime"])

    def test_runtimes_tile_each_suite(self, monkeypatch):
        # a clock that advances one tick per read: every read inside a suite
        # must fall on a row boundary, so the runtimes add up to the span
        reads = []

        def tick():
            reads.append(float(len(reads)))
            return reads[-1]

        monkeypatch.setattr(time, "perf_counter", tick)
        cfg = VerificationConfig.from_dict(
            {"laguerre_k": ["1"], "jacobi_alpha_beta": [["1", "2"]], "n_max": 3,
             "n_eigen_max": 3,
             "grid": {"spectrum_points": 2000, "rayleigh_points": 2000}})
        for suite in (suite_xop, suite_theorem, suite_spectra, suite_susy):
            first = len(reads)
            rows = suite(cfg)
            assert len(reads) - first > len(rows), suite.__name__
            assert sum(c["runtime"] for c in rows) == reads[-1] - reads[first], \
                suite.__name__

    def test_spectra_suite_solves_for_eigenvalues_only(self, monkeypatch):
        def blas(*args, **kwargs):
            raise AssertionError("the verify path reduced a grid vector through BLAS")

        calls = []

        def recording(name, routine):
            """The routine, recording each call by name, size and arguments."""
            def call(*args, **kwargs):
                calls.append((name, len(args[0]), args, kwargs))
                return routine(*args, **kwargs)
            return call

        for name in _lapack.__all__:
            monkeypatch.setattr(_lapack, name, recording(name, getattr(_lapack, name)))
        monkeypatch.setattr(np, "dot", blas)
        monkeypatch.setattr(np.linalg, "norm", blas)
        cfg = VerificationConfig.from_dict(
            {"suites": ["spectra"],
             "grid": {"spectrum_points": 2000, "rayleigh_points": 4000}})
        ids = sorted(c["id"] for c in suite_spectra(cfg))
        assert ids == sorted([
            "oscillator-spectrum[l=0]", "oscillator-spectrum[l=1]",
            "oscillator-isospectrality[l=0]", "oscillator-isospectrality[l=1]",
            "oscillator-convergence-order", "oscillator-exceptional-rayleigh",
            "scarf-exceptional-rayleigh", "scarf-isospectrality",
        ])
        # values only: bisection (dstebz by index, values in order), Sturm
        # counts (dpttrf sweeps) and shifted solves (dgtsv); no eigenvectors
        # (no stein, no dstevd with compute_v)
        assert {name for name, *_ in calls} == {"dstebz", "dgtsv", "dpttrf"}
        bisections = [n for name, n, _, _ in calls if name == "dstebz"]
        # every bisection on the bottom grid of the coarse-to-fine recursion,
        # in the run order of the spectra cases and then the convergence row:
        # 2 levels x 2 potentials for the oscillator at 2000 -> 125 points, 2
        # for Scarf at 12000 -> 750 -> 46, the convergence sizes
        # 1000/2000/4000 -> 62/125/250
        assert bisections == [125] * 4 + [46] * 2 + [62, 125, 250]
        assert not set(bisections) & {1000, 2000, 4000, 12000}

    def test_a_spectra_case_is_one_table_entry(self, monkeypatch):
        # one more oscillator entry adds exactly its spectrum and
        # isospectrality rows, and every other row stays as it was
        cfg = VerificationConfig.from_dict(
            {"suites": ["spectra"],
             "grid": {"spectrum_points": 2000, "rayleigh_points": 2000}})

        def rows_by_id():
            return {c["id"]: {k: v for k, v in c.items() if k != "runtime"}
                    for c in suite_spectra(cfg)}

        before = rows_by_id()
        entry = ("oscillator", {"l": 2}, potentials.Oscillator3D(l=2), 3, 0,
                 verify._OSCILLATOR_LEVELS, None)
        monkeypatch.setattr(verify, "_SPECTRA", verify._SPECTRA + (entry,))
        after = rows_by_id()
        added = sorted(set(after) - set(before))
        assert added == ["oscillator-isospectrality[l=2]", "oscillator-spectrum[l=2]"]
        assert {cid: after[cid] for cid in before} == before
        spectrum = after["oscillator-spectrum[l=2]"]
        assert spectrum["status"] == "pass"
        assert spectrum["params"]["levels"] == pytest.approx([3.5, 5.5, 7.5], rel=1e-4)
        mapping = after["oscillator-isospectrality[l=2]"]["params"]["mapping"]
        assert after["oscillator-isospectrality[l=2]"]["status"] == "reported"
        assert mapping["unmatched_a"] == mapping["unmatched_b"] == []

    def test_spectral_config_computes_each_grid_quantity_once(self, monkeypatch):
        # A psi once per source in the pairings row (4 sources, 5 targets)
        # with W evaluated once on its grid, and one discretization per
        # potential in each Rayleigh row
        discretized, sources, w_grids = [], [], []
        discretize, apply_a = solver.discretize, susy._apply_A
        intertwiner = susy.oscillator_intertwiner

        def counting_discretize(module):
            def wrapped(potential, grid):
                discretized.append((module, grid.n))
                return discretize(potential, grid)
            return wrapped

        def counting_apply_a(wx, psi, dagger=False):
            sources.append(psi.grid.n)
            return apply_a(wx, psi, dagger)

        def counting_intertwiner(l):
            w = intertwiner(l)

            def values(x):
                w_grids.append(np.size(x))
                return w.w(x)
            return susy.Superpotential(w=values, w_prime=w.w_prime)

        for module in (solver, potentials, susy):
            monkeypatch.setattr(module, "discretize", counting_discretize(module.__name__))
        monkeypatch.setattr(susy, "_apply_A", counting_apply_a)
        monkeypatch.setattr(susy, "oscillator_intertwiner", counting_intertwiner)
        cfg = VerificationConfig.from_dict(
            {"suites": ["spectra", "susy"],
             "grid": {"spectrum_points": 64000, "rayleigh_points": 64000}})
        suite_spectra(cfg)
        suite_susy(cfg)
        # the pairings, then the zero mode; the operator identity applies A
        # twice to each of its 5 functions on two 12000-point grids
        assert [n for n in sources if n != 12000] == [64000] * 4 + [4000]
        # W runs a block at a time: one grid evaluation is full blocks and a
        # shorter last one (no grid here is a multiple of the block), so the
        # block lengths of each evaluation sum to its grid's size
        evaluations, total = [], 0
        for n in w_grids:
            total += n
            if n != solver._BLOCK:
                evaluations.append(total)
                total = 0
        assert total == 0 and evaluations.count(64000) == 1
        rayleigh = [n for module, n in discretized if module == "exopoly.potentials"]
        assert rayleigh == [64000, 64000]  # oscillator and Scarf
        # H+ and H- once per superpotential in the operator identity
        assert [n for module, n in discretized if module == "exopoly.susy"] == [12000] * 4
        assert len(discretized) == 30
        assert sum(n == 64000 for _, n in discretized) == 8

    def test_each_exceptional_family_is_built_once(self, monkeypatch):
        # the Rayleigh rows read states 1..3 and the pairings states 1..5
        # from one build of their family; the claim audit's one state is
        # its own call
        builds = []
        build = potentials.operator_family

        def counting(spec, n):
            builds.append((spec, n))
            return build(spec, n)

        monkeypatch.setattr(potentials, "operator_family", counting)
        cfg = VerificationConfig.from_dict({})
        suite_spectra(cfg)
        suite_susy(cfg)
        laguerre = [xop.XFamilySpec("laguerre", k=Fraction(2 * l + 1, 2)) for l in (0, 1)]
        scarf = xop.XFamilySpec("jacobi", alpha=Fraction(3, 2), beta=Fraction(7, 2))
        assert builds == [(laguerre[0], 3), (scarf, 3), (laguerre[1], 1), (laguerre[1], 5)]

    def test_each_quotient_residual_is_computed_once(self, monkeypatch):
        # per k: the 3 exceptional members and the negative control at j = 1;
        # the codimension-2 rows read no residual, only their certificate
        codimensions = []
        residual = xop.xj_quotient_residual

        def counting(f, k, j, A):
            codimensions.append(j)
            return residual(f, k, j, A)

        monkeypatch.setattr(xop, "xj_quotient_residual", counting)
        monkeypatch.setattr(potentials, "xj_quotient_residual", counting)
        suite_theorem(VerificationConfig.from_dict({}))
        assert (codimensions.count(1), codimensions.count(2)) == (12, 0)

    def test_xop_suite_enters_the_float_layer_through_one_name_each(self, monkeypatch):
        # every Gauss rule through quad.gauss_rule (per family one Gram matrix
        # of 8 members; the completeness proxy takes no integral) and every
        # family of all three routes through xop.family_by_route:
        # the names the benchmark's tracer wraps
        rules, routes = [], []
        rule_of, family_of = quad.gauss_rule, xop.family_by_route

        def counting_rule(weight, n):
            rules.append(n)
            return rule_of(weight, n)

        def counting_family(spec, n, route):
            routes.append(route)
            return family_of(spec, n, route)

        monkeypatch.setattr(quad, "gauss_rule", counting_rule)
        monkeypatch.setattr(xop, "family_by_route", counting_family)
        suite_xop(VerificationConfig.from_dict({}))
        assert rules == [9] * 6
        assert routes == ["operator", "nullspace", "gram-schmidt"] * 6

    def test_every_gate_reads_the_tolerance_table(self, monkeypatch):
        # with each entry of verify._TOLERANCES nudged to a value no literal
        # in the suites has, those are the only tolerances the pass/fail rows
        # report (the claim audits carry their own), and the isospectrality
        # rows match levels at the table's value
        nudged = {}
        for i, (key, value) in enumerate(verify._TOLERANCES.items(), 1):
            step = i * 2.0**-20
            if isinstance(value, list):
                nudged[key] = [value[0] * (1 - step), value[1] * (1 + step)]
            else:
                nudged[key] = value * (1 + step) if value else step**3
        monkeypatch.setattr(verify, "_TOLERANCES", nudged)
        match_tols = []
        compare = solver.spectrum_compare

        def recording(a, b, tol):
            match_tols.append(tol)
            return compare(a, b, tol)

        monkeypatch.setattr(solver, "spectrum_compare", recording)
        report = run_verification(VerificationConfig.from_dict({}))
        gates = [c for c in report.checks if c["status"] in ("pass", "fail")
                 and not c["id"].startswith("claim-audit[")]
        assert len(gates) == 55 and report.failures == 0
        stray = [(c["id"], c["tolerance"]) for c in gates
                 if c["tolerance"] not in nudged.values()]
        assert stray == []
        assert match_tols == [nudged["isospectrality_match"]] * 3

    def test_isospectrality_with_nothing_paired_reads_inf(self):
        # the mapping's worst gap is null, and the row's metric stays a float
        rows = verify._Rows()
        verify._isospectrality(rows, "iso", {}, [1.0, 2.0], [5.0, 6.0])
        (row,) = rows.rows
        assert row["params"]["mapping"]["max_pair_diff"] is None
        assert row["metric"] == math.inf and row["status"] == "reported"

    @pytest.mark.parametrize("raw", [
        {},
        {"n_max": 12, "n_eigen_max": 40},
        {"suites": ["spectra", "susy"],
         "grid": {"spectrum_points": 64000, "rayleigh_points": 64000}},
    ], ids=["default", "exact-deep", "spectral"])
    def test_no_dense_linear_algebra(self, raw, monkeypatch):
        # the quotient eigenproblem, the Gram-Schmidt basis and the
        # convergence slope are exact or closed form; a dense LAPACK driver
        # or a fit would map its OpenBLAS code pages into every campaign
        def refuse(name):
            def dense(*args, **kwargs):
                raise AssertionError(f"{name} called during a verify run")
            return dense

        for name in ("eig", "eigvals", "eigh", "eigvalsh", "qr", "lstsq", "svd", "solve",
                     "inv", "det", "cholesky", "pinv"):
            monkeypatch.setattr(np.linalg, name, refuse(f"numpy.linalg.{name}"))
        for name in ("polyfit", "roots"):
            monkeypatch.setattr(np, name, refuse(f"numpy.{name}"))
        assert run_verification(VerificationConfig.from_dict(raw)).failures == 0

    def test_no_blas_product_in_the_package(self):
        # the first BLAS product of a run faults in OpenBLAS's GEMM code and
        # reserves its buffer; `@` reaches the kernel without a numpy name,
        # so the source is read, not a run spied on
        names = {"dot", "matmul", "inner", "vdot", "tensordot", "einsum", "convolve",
                 "correlate"}
        found = []
        for path in sorted(Path(verify.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(
                        node.op, ast.MatMult):
                    found.append(f"{path.name}:{node.lineno} @")
                elif isinstance(node, ast.Call):
                    func = node.func
                    name = func.attr if isinstance(func, ast.Attribute) else getattr(
                        func, "id", None)
                    if name in names:
                        found.append(f"{path.name}:{node.lineno} {name}()")
        assert found == []

    @pytest.mark.parametrize("params", [{"family": "laguerre", "k": Fraction(1)},
                                        {"family": "jacobi", "alpha": Fraction(1),
                                         "beta": Fraction(2)}],
                             ids=["laguerre", "jacobi"])
    @pytest.mark.parametrize("index", [1, 5, 8])
    def test_orthogonality_row_fails_a_perturbed_member(self, params, index, monkeypatch):
        # the row reads the exact operator members: one of them with its x
        # coefficient off by 1e-8 (relative) is no longer orthogonal
        spec = xop.XFamilySpec(**params)
        tag = ",".join(f"{key}={val}" for key, val in params.items() if key != "family")
        raw = {"suites": ["xop"], "n_max": 8, "n_eigen_max": 8,
               **({"laguerre_k": [str(spec.k)]} if spec.family == "laguerre"
                  else {"jacobi_alpha_beta": [[str(spec.alpha), str(spec.beta)]]})}
        row = f"orthogonality[{spec.family},{tag}]"

        def status():
            rows = suite_xop(VerificationConfig.from_dict(raw))
            return next(r["status"] for r in rows if r["id"] == row)

        assert status() == "pass"
        by_route = xop.family_by_route

        def perturbed(spec, n, route):
            members = by_route(spec, n, route)
            if route == "operator":
                coeffs = list(members[index - 1].coeffs)
                coeffs[1] *= 1 + Fraction(1, 10**8)
                members[index - 1] = Poly(coeffs)
            return members

        monkeypatch.setattr(xop, "family_by_route", perturbed)
        assert status() == "fail"

    @settings(max_examples=30, deadline=None)
    @given(st.one_of(
        st.builds(lambda k: {"family": "laguerre", "k": k},
                  st.builds(Fraction, st.integers(50, 5000), st.just(100))),
        st.builds(lambda a, b: {"family": "jacobi", "alpha": a, "beta": b},
                  st.builds(Fraction, st.integers(1, 4000), st.just(4)),
                  st.builds(Fraction, st.integers(1, 4000), st.just(4)))
        .filter(lambda p: p["alpha"] != p["beta"])),
        st.integers(1, 30))
    def test_orthogonality_row_holds_across_the_domain(self, params, n_max):
        # k in [1/2, 50], alpha and beta in (0, 1000]: at beta = 1000 the
        # inner products overflow a float, their cosines do not
        spec = xop.XFamilySpec(**params)
        members = xop.family_by_route(spec, n_max, "operator")
        assert verify._orthogonality(members, spec.weight()) <= verify._TOLERANCES[
            "orthogonality"]


class TestWriteAtomic:
    def test_write_and_no_leftover_temp(self, tmp_path):
        target = tmp_path / "out.json"
        write_atomic(str(target), '{"x": 1}')
        assert json.loads(target.read_text()) == {"x": 1}
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]

    def test_a_streamed_report_is_its_json_and_a_newline(self, tmp_path):
        report = run_verification(VerificationConfig.from_dict(
            {"suites": ["theorem"], "laguerre_k": ["1", "7/2"]}))
        target = tmp_path / "report.json"
        write_atomic(str(target), report.write_json)
        assert target.read_text() == report.to_json() + "\n"
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]

    def test_a_failing_writer_leaves_the_old_file_and_no_temp(self, tmp_path):
        target = tmp_path / "out.json"
        target.write_text("old\n")

        def broken(fh):
            fh.write('{"half": ')
            raise OSError(28, "No space left on device")

        with pytest.raises(OSError):
            write_atomic(str(target), broken)
        assert target.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


@pytest.fixture()
def quick_config(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "suites": ["xop"],
        "laguerre_k": ["1"],
        "jacobi_alpha_beta": [["1", "2"]],
        "n_max": 3,
        "n_eigen_max": 3,
    }))
    return path


class TestCliVerify:
    def test_ok_run_exits_zero(self, quick_config, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["verify", "--config", str(quick_config), "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["failures"] == 0
        assert {c["status"] for c in report["checks"]} <= {"pass", "fail", "reported"}

    def test_negative_control_exits_one(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "suites": ["xop"], "laguerre_k": ["1"],
            "jacobi_alpha_beta": [["1", "2"]], "n_max": 2, "n_eigen_max": 2,
            "negative_control": True,
        }))
        assert main(["verify", "--config", str(path)]) == 1

    def test_empty_suites_exits_two(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"suites": []}))
        assert main(["verify", "--config", str(path)]) == 2
        assert "suites" in capsys.readouterr().err

    def test_non_object_config_exits_two(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text("[]")
        assert main(["verify", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: config")

    def test_unreadable_config_exits_two(self, tmp_path):
        assert main(["verify", "--config", str(tmp_path / "missing.json")]) == 2

    def test_n_max_13_passes(self, tmp_path):
        # n_max 13 used to raise QuadratureError: the node-doubling quadrature
        # of the rational weights stopped converging.  Gauss rules of the
        # weights themselves and the recurrence-built float route removed
        # that edge.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_max": 13}))
        out = tmp_path / "r.json"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["failures"] == 0

    @pytest.mark.parametrize("raw", [
        {"n_max": 24}, {"n_max": 30},
        {"jacobi_alpha_beta": [["1", "100"]]}, {"jacobi_alpha_beta": [["1", "300"]]},
        {"jacobi_alpha_beta": [["1", "1000"]]},
    ], ids=["n_max-24", "n_max-30", "beta-100", "beta-300", "beta-1000"])
    def test_deep_and_large_beta_xop_campaigns_pass(self, raw, tmp_path):
        # deep and large-beta families, whose float monomial coefficients are
        # too ill-conditioned to evaluate; at beta = 1000 the inner products
        # themselves overflow a float
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**raw, "suites": ["xop"]}))
        assert main(["verify", "--config", str(cfg)]) == 0

    @pytest.mark.parametrize("raw, key, name", [
        ({"laguerre_k": ["200"]}, "laguerre_k", "k"),
        ({"jacobi_alpha_beta": [["1", "2000"]]}, "jacobi_alpha_beta", "beta"),
    ], ids=["laguerre", "jacobi"])
    def test_weight_overflowing_a_float_exits_two(self, raw, key, name, tmp_path, capsys):
        # the same weights make `exopoly quad` exit 2
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**raw, "suites": ["xop"]}))
        out = tmp_path / "r.json"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key}: ")
        assert f"parameter {name} is too large" in err
        assert not out.exists()

    @pytest.mark.parametrize("raw, key", [
        ({"jacobi_alpha_beta": [["-1/2", "2"]], "suites": ["xop"]}, "jacobi_alpha_beta"),
        ({"jacobi_alpha_beta": [["1", "-1/2"]], "suites": ["xop"]}, "jacobi_alpha_beta"),
        ({"laguerre_k": ["1", "2/2"]}, "laguerre_k"),
        ({"oscillator_l": [0, 0]}, "unknown config field(s)"),
        ({"jacobi_alpha_beta": [["1", "2"], ["1", "2"]]}, "jacobi_alpha_beta"),
    ], ids=["jacobi-alpha", "jacobi-beta", "repeated-k", "repeated-l", "repeated-pair"])
    def test_config_outside_the_domain_exits_two(self, raw, key, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "r.json"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {key}: ")
        assert not out.exists()

    @pytest.mark.parametrize("raw, field", [
        ({"tolerances": {"orthogonality": 1}, "n_max": 15, "suites": ["xop"]}, "tolerances"),
        ({"oscillator_l": [0]}, "oscillator_l"),
    ], ids=["tolerances", "oscillator_l"])
    def test_config_cannot_move_a_gate(self, raw, field, tmp_path, capsys):
        # the gates are fixed in verify: a config that names one is refused
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "r.json"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err.strip() == (
            f"error: unknown config field(s): ['{field}']")
        assert not out.exists()

    def test_out_file_is_the_reports_json_and_a_newline(self, quick_config, tmp_path,
                                                          monkeypatch):
        made = []

        def keep(cfg):
            made.append(run_verification(cfg))
            return made[-1]

        monkeypatch.setattr(cli, "run_verification", keep)
        out = tmp_path / "report.json"
        assert main(["verify", "--config", str(quick_config), "--out", str(out)]) == 0
        assert out.read_text() == made[0].to_json() + "\n"

    @pytest.mark.parametrize("target", ["missing/r.json", "."],
                             ids=["missing-directory", "directory"])
    def test_unwritable_out_exits_two(self, quick_config, target, tmp_path, capsys):
        out = tmp_path / target
        assert main(["verify", "--config", str(quick_config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out}: ")
        assert "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    def test_unsettled_weight_exits_three(self, tmp_path, capsys):
        # the weight's continued fraction does not settle within 2^17 steps
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"laguerre_k": ["1/1000"], "suites": ["xop"]}))
        out = tmp_path / "r.json"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith("error: x1-laguerre recurrence")
        assert not out.exists()


class TestCliPoly:
    def test_x1_table_contains_first_member(self, capsys):
        code = main(["poly", "--family", "x1-laguerre", "--k", "1", "--n", "1",
                     "--format", "csv"])
        assert code == 0
        out = capsys.readouterr().out
        # row for -(x+k+1) with k=1
        assert '1,"-2/1 -1/1",operator' in out

    def test_no_degree_zero_member_exits_two(self, capsys):
        code = main(["poly", "--family", "x1-laguerre", "--k", "1", "--n", "0"])
        assert code == 2
        assert "no degree-0 member" in capsys.readouterr().err

    def test_json_roundtrips_exact_coefficients(self, capsys):
        code = main(["poly", "--family", "x1-jacobi", "--alpha", "1", "--beta", "3",
                     "--n", "2", "--format", "json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        member = data["members"][0]
        assert Poly(map(Fraction, member["coefficients"])) == Poly((18, -6))

    def test_missing_parameter_exits_two(self):
        assert main(["poly", "--family", "x1-laguerre", "--n", "2"]) == 2

    def test_out_in_a_missing_directory_exits_two(self, tmp_path, capsys):
        out = tmp_path / "missing" / "table.csv"
        code = main(["poly", "--family", "x1-laguerre", "--k", "1", "--n", "2",
                     "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: cannot write {out}: No such file or directory\n")
        assert list(tmp_path.iterdir()) == []

    def test_classical_table_starts_at_degree_zero(self, capsys):
        code = main(["poly", "--family", "laguerre", "--k", "2", "--n", "1",
                     "--format", "json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert [m["degree"] for m in data["members"]] == [0, 1]

    @pytest.mark.parametrize("family", [["laguerre", "--k", "1"],
                                        ["jacobi", "--alpha", "1", "--beta", "2"]],
                             ids=["laguerre", "jacobi"])
    def test_route_on_a_classical_family_exits_two(self, family, capsys):
        for route in ("operator", "nullspace", "gram-schmidt"):
            assert main(["poly", "--family", *family, "--n", "2", "--route", route]) == 2
            out, err = capsys.readouterr()
            assert out == "" and err.startswith(f"error: --route {route} applies"), route

    def test_classical_table_without_route_keeps_its_label(self, capsys):
        assert main(["poly", "--family", "laguerre", "--k", "1", "--n", "2"]) == 0
        assert capsys.readouterr().out == (
            'degree,coefficients,route,params\n'
            '0,"1/1",operator,"k=1"\n'
            '1,"2/1 -1/1",operator,"k=1"\n'
            '2,"3/1 -3/1 1/2",operator,"k=1"\n\n')

    def test_gram_schmidt_route_emits_decimals(self, capsys):
        args = ["poly", "--family", "x1-laguerre", "--k", "1", "--n", "2",
                "--route", "gram-schmidt", "--format"]
        assert main([*args, "csv"]) == 0
        csv_rows = capsys.readouterr().out.splitlines()[1:-1]
        assert main([*args, "json"]) == 0
        members = json.loads(capsys.readouterr().out)["members"]
        assert len(csv_rows) == len(members) == 2
        for row, member in zip(csv_rows, members):
            degree, coeffs, route, _ = row.split(",", 3)
            assert (int(degree), route) == (member["degree"], "gram-schmidt")
            assert coeffs == '"' + " ".join(map(repr, member["coefficients"])) + '"'

    @pytest.mark.parametrize("route,code", [("operator", 2), ("nullspace", 0),
                                            ("gram-schmidt", 0)])
    def test_jacobi_alpha_below_zero_only_the_operator_route_refuses(self, route,
                                                                      code, capsys):
        assert main(["poly", "--family", "x1-jacobi", "--alpha=-1/2", "--beta=-1/4",
                     "--n", "4", "--route", route]) == code
        if code:
            assert "P^(alpha-1, beta+1)" in capsys.readouterr().err

    @pytest.mark.parametrize("route,code", [("operator", 2), ("nullspace", 0),
                                            ("gram-schmidt", 2)])
    def test_jacobi_pole_inside_the_interval_only_the_nullspace_route_builds(
            self, route, code, capsys):
        # alpha beta < 0 puts the pole b = -1/3 inside [-1, 1]: the spec
        # admits the pair, the routes that read the X1 weight refuse it
        assert main(["poly", "--family", "x1-jacobi", "--alpha", "1", "--beta=-1/2",
                     "--n", "2", "--route", route]) == code
        if code:
            assert "pole inside [-1,1]" in capsys.readouterr().err

    def test_pole_overflowing_a_float_exits_two(self, capsys):
        code = main(["poly", "--family", "x1-laguerre", "--k", "1e400", "--n", "2",
                     "--route", "gram-schmidt"])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            "error: laguerre weight parameter k is too large")

    def test_quadrature_failure_exits_three(self, monkeypatch, capsys):
        def fail(weight, count):
            raise quad.QuadratureError("integral did not converge")

        monkeypatch.setattr(xop, "gram_schmidt_family", fail)
        code = main(["poly", "--family", "x1-laguerre", "--k", "1", "--n", "16",
                     "--route", "gram-schmidt"])
        assert code == 3
        assert capsys.readouterr().err.startswith("error: integral did not converge")


class TestCliSpectrum:
    def test_oscillator_levels(self, tmp_path):
        out = tmp_path / "spec.json"
        code = main(["spectrum", "--preset", "oscillator3d", "--l", "0",
                     "--grid-n", "2000", "--levels", "3", "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        levels = [lv["E"] for lv in data["levels"]]
        assert levels == pytest.approx([1.5, 3.5, 5.5], rel=1e-3)

    def test_compare_emits_mapping(self, tmp_path):
        out = tmp_path / "spec.json"
        code = main(["spectrum", "--preset", "oscillator3d", "--l", "0",
                     "--grid-n", "2000", "--levels", "3", "--compare",
                     "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert "mapping" in data
        assert data["mapping"]["pairs"]

    def test_compare_with_nothing_paired_has_null_worst_gap(self, capsys):
        # no Coulomb level of the extended potential lies near a classical one
        code = main(["spectrum", "--preset", "coulomb", "--compare", "--grid-n", "4000"])
        assert code == 0
        mapping = json.loads(capsys.readouterr().out)["mapping"]
        assert mapping["pairs"] == [] and mapping["max_pair_diff"] is None

    def test_compare_pairs_only_partners_in_a_deep_well(self, capsys):
        # the extended deep well shares level 1 with the classical one; its
        # level 19 lies 9.4e-3 off the classical level 19 and is no partner
        code = main(["spectrum", "--preset", "morse", "--params", '{"A": 20, "B": 2}',
                     "--levels", "20", "--compare"])
        assert code == 0
        pairs = json.loads(capsys.readouterr().out)["mapping"]["pairs"]
        assert [(p["a"], p["b"]) for p in pairs] == [(1, 1)]
        assert pairs[0]["diff"] < 1e-6
        # an explicit tolerance still overrides the default
        assert main(["spectrum", "--preset", "morse", "--params", '{"A": 20, "B": 2}',
                     "--levels", "20", "--compare", "--match-tol", "1e-2"]) == 0
        pairs = json.loads(capsys.readouterr().out)["mapping"]["pairs"]
        assert [(p["a"], p["b"]) for p in pairs] == [(1, 1), (19, 19)]

    def test_bad_grid_exits_two(self):
        assert main(["spectrum", "--preset", "oscillator3d", "--grid-n", "8"]) == 2

    @pytest.mark.parametrize("domain", ["0,1,2", "5", "a,b"])
    def test_domain_that_is_not_two_numbers_exits_two(self, domain, capsys):
        assert main(["spectrum", "--preset", "oscillator3d", f"--domain={domain}"]) == 2
        assert capsys.readouterr().err == (
            f"error: --domain must be two numbers a,b, got '{domain}'\n")

    def test_decimal_preset_parameters(self, tmp_path):
        out = tmp_path / "spec.json"
        code = main(["spectrum", "--preset", "scarf", "--params",
                     '{"A": 3.0, "B": 1.5}', "--grid-n", "2000", "--levels", "2",
                     "--out", str(out)])
        assert code == 0

    def test_bad_params_exit_two(self):
        assert main(["spectrum", "--preset", "scarf", "--params",
                     '{"A": "1", "B": "1"}', "--grid-n", "2000"]) == 2

    @pytest.mark.parametrize("preset,names", [("scarf", "A, B"), ("morse", "A, B")])
    def test_missing_preset_parameters_named(self, preset, names, capsys):
        code = main(["spectrum", "--preset", preset, "--grid-n", "2000"])
        assert code == 2
        assert capsys.readouterr().err.strip() == (
            f"error: preset {preset} needs parameters {names} in --params")

    def test_params_not_an_object_exits_two(self, capsys):
        code = main(["spectrum", "--preset", "oscillator3d", "--l", "1",
                     "--params", "[1]", "--grid-n", "2000"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: --params must be a JSON object")

    @pytest.mark.parametrize("preset,params", [("oscillator3d", '{"l": 1.5}'),
                                               ("coulomb", '{"l": true}'),
                                               ("coulomb", '{"l": 2.0}')])
    def test_non_int_angular_momentum_exits_two(self, preset, params, capsys):
        code = main(["spectrum", "--preset", preset, "--params", params, "--extended",
                     "--grid-n", "2000"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: angular momentum l must be an int")

    @pytest.mark.parametrize("preset,params", [
        ("morse", '{"A": "x", "B": 2}'),
        ("morse", '{"A": 4, "B": 2, "energy_shift": "x"}'),
        ("oscillator3d", '{"energy_shift": true}'),
        ("oscillator3d", '{"energy_shift": [1]}')])
    def test_non_numeric_preset_parameters_exit_two(self, preset, params, capsys):
        code = main(["spectrum", "--preset", preset, "--params", params, "--grid-n", "2000"])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: bad parameters for preset {preset}")

    @pytest.mark.parametrize("preset,params,named", [
        ("oscillator3d", '{"energy_shift": "1e400"}', "energy_shift: '1e400'"),
        ("coulomb", '{"energy_shift": "1e400"}', "energy_shift: '1e400'"),
        ("scarf", '{"A": "1e400", "B": 1}', "A: '1e400'"),
        ("morse", '{"A": 4, "B": "1e400"}', "B: '1e400'"),
        ("scarf", '{"A": 3, "B": 1, "alpha": "1e-400"}', "alpha: '1e-400'"),
        # values that fit a float but whose squares, taken on the grid, do not
        ("scarf", '{"A": "1e300", "B": 1}', "A: '1e300' squared"),
        ("scarf", '{"A": 3, "B": "1e-300"}', "B: 1e-300 puts the extension pole "
         "b = (2A - alpha)/(2B) out of range: b squared"),
        ("morse", '{"A": 4, "B": "1e300"}', "B: '1e300' squared"),
        ("morse", '{"A": "1e300", "B": 2}', "A: '1e300' squared")])
    def test_preset_value_overflowing_a_float_named(self, preset, params, named, capsys):
        code = main(["spectrum", "--preset", preset, "--params", params, "--grid-n", "2000"])
        assert code == 2
        assert capsys.readouterr().err.strip() == (
            f"error: bad parameters for preset {preset}: {named} does not fit a float")

    def test_unknown_preset_parameter_named(self, capsys):
        code = main(["spectrum", "--preset", "morse", "--params",
                     '{"A": 4, "B": 2, "bogus": 1}', "--grid-n", "2000"])
        assert code == 2
        assert capsys.readouterr().err.strip() == (
            "error: preset morse has no parameter bogus; it accepts A, B, alpha, energy_shift")

    @pytest.mark.parametrize("params,named", [
        ('{"A": "x", "B": 2}', "A: 'x'"),
        ('{"A": 4, "B": 2, "energy_shift": "x"}', "energy_shift: 'x'"),
        ('{"A": 4, "B": "1/0"}', "B: '1/0'"),
        ('{"A": 4, "B": 2, "energy_shift": [1]}', "energy_shift: [1]")])
    def test_bad_preset_value_named_with_its_parameter(self, params, named, capsys):
        code = main(["spectrum", "--preset", "morse", "--params", params, "--grid-n", "2000"])
        assert code == 2
        assert capsys.readouterr().err.strip() == (
            f"error: bad parameters for preset morse: {named} is not a number")

    @pytest.mark.parametrize("params,named", [
        ('{"A": 1, "B": "1e100", "alpha": "1e-300"}',
         "alpha: 1e-300 is too small against B: 1e+100: alpha/B underflows a float, so "
         "the default domain has no end; give --domain"),
        ('{"A": "1e-300", "B": "1e-100", "alpha": "1e-310"}',
         "alpha: 1e-310 is too small: the default domain ends overflow a float; "
         "give --domain")])
    def test_morse_domain_out_of_float_range_named(self, params, named, capsys):
        code = main(["spectrum", "--preset", "morse", "--params", params, "--grid-n", "64"])
        assert code == 2
        assert capsys.readouterr().err.strip() == f"error: bad grid: {named}"

    def test_reader_closing_the_pipe_early_is_not_an_error(self):
        root = Path(__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(root / "src")}
        proc = subprocess.Popen(
            [sys.executable, "-m", "exopoly.cli", "spectrum", "--preset", "oscillator3d",
             "--grid-n", "2000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        proc.stdout.close()  # before the child's first write: that write hits EPIPE
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 0
        assert "Traceback" not in err and "BrokenPipeError" not in err
        assert err == ""

    def test_energy_shift_string_runs(self, tmp_path):
        out = tmp_path / "spec.json"
        code = main(["spectrum", "--preset", "oscillator3d", "--params",
                     '{"energy_shift": "1"}', "--grid-n", "2000", "--levels", "2",
                     "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["params"]["energy_shift"] == 1.0
        assert data["levels"][0]["E"] == pytest.approx(2.5, abs=1e-4)

    def test_inadmissible_exc_level_exits_two(self, capsys):
        # the coulomb extension needs a valid level index; 0 is a bad argument
        code = main(["spectrum", "--preset", "coulomb", "--l", "0", "--extended",
                     "--exc-level", "0", "--grid-n", "2000", "--domain", "0,80"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: coulomb extension needs")

    @pytest.mark.parametrize("domain", ["0,1e-200", "0,1e200"])
    def test_grid_spacing_outside_the_float_range_exits_two(self, domain, capsys):
        # 1/h^2 overflows resp. h^2 overflows; the potential is finite on both
        code = main(["spectrum", "--preset", "coulomb", f"--domain={domain}",
                     "--grid-n", "64", "--levels", "1"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: bad grid: grid spacing h=")

    def test_solver_failure_exits_three(self, capsys):
        # an odd node count on (-1, 1) puts a node on the l(l+1)/x^2 pole
        with np.errstate(divide="ignore"):
            code = main(["spectrum", "--preset", "oscillator3d", "--l", "1",
                         "--domain=-1,1", "--grid-n", "17", "--levels", "2"])
        assert code == 3
        assert capsys.readouterr().err.startswith("error: potential is not finite")

    def test_bad_node_printed_as_plain_float(self, capsys):
        with np.errstate(divide="ignore"):
            code = main(["spectrum", "--preset", "oscillator3d", "--l", "1",
                         "--domain=-1,1", "--grid-n", "17"])
        assert code == 3
        assert capsys.readouterr().err.strip().endswith("at grid node x=0.0")

    @pytest.mark.parametrize("levels,grid_n", [("0", "2000"), ("17", "16")])
    def test_level_count_outside_the_grid_exits_two(self, levels, grid_n, capsys):
        code = main(["spectrum", "--preset", "oscillator3d", "--levels", levels,
                     "--grid-n", grid_n])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: --levels must be between 1")

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1e-2"])
    def test_match_tol_nan_infinite_or_negative_exits_two(self, tol, monkeypatch,
                                                          capsys):
        def unreachable(*args, **kwargs):
            raise AssertionError("solved before --match-tol was checked")

        monkeypatch.setattr(solver, "solve_spectrum", unreachable)
        code = main(["spectrum", "--preset", "coulomb", "--compare", "--grid-n", "4000",
                     "--levels", "3", "--exc-level", "2", f"--match-tol={tol}"])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: --match-tol must be finite and >= 0")

    def test_csv_format(self, capsys):
        code = main(["spectrum", "--preset", "oscillator3d", "--l", "1",
                     "--grid-n", "2000", "--levels", "2", "--format", "csv"])
        assert code == 0
        assert capsys.readouterr().out.startswith("index,E,residual")


class TestCliQuad:
    def test_legendre_rule_csv(self, capsys):
        assert main(["quad", "--rule", "legendre", "--n", "2"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# rule=legendre,n=2")
        assert len(out.strip().splitlines()) == 4

    def test_laguerre_rule_requires_k(self):
        assert main(["quad", "--rule", "laguerre", "--n", "4"]) == 2

    @pytest.mark.parametrize("argv,name", [
        (["--rule", "laguerre", "--k", "400", "--n", "200"], "k"),
        (["--rule", "jacobi", "--alpha", "1e300", "--beta", "1", "--n", "4"], "alpha"),
        (["--rule", "laguerre", "--k", "1e400", "--n", "4"], "k"),
    ])
    def test_weight_overflowing_a_float_exits_two(self, argv, name, capsys):
        assert main(["quad", *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"parameter {name} is too large" in err

    def test_jacobi_mass_past_float_powers_of_two(self, capsys):
        # 2^(alpha+beta+1) = 2^4001 overflows a float; the mass is about 0.04
        assert main(["quad", "--rule", "jacobi", "--alpha", "2000", "--beta", "2000",
                     "--n", "4"]) == 0
        rows = capsys.readouterr().out.strip().splitlines()[2:]
        total = math.fsum(float(row.split(",")[1]) for row in rows)
        mass = Fraction(2**4001 * math.factorial(2000) ** 2, math.factorial(4001))
        assert total == pytest.approx(float(mass), rel=1e-12)

    @pytest.mark.parametrize("n", ["0", "-2"])
    @pytest.mark.parametrize("rule", [["legendre"], ["laguerre", "--k", "1"],
                                      ["jacobi", "--alpha", "1", "--beta", "2"]])
    def test_non_positive_node_count_exits_two(self, rule, n, capsys):
        assert main(["quad", "--rule", *rule, "--n", n]) == 2
        assert capsys.readouterr().err.startswith(f"error: recurrence needs n >= 1 "
                                                  f"coefficients, got n={n}")

    def test_zero_denominator_parameter_exits_two(self, capsys):
        for argv, named in [
                (["quad", "--rule", "laguerre", "--k", "1/0", "--n", "4"], "--k: '1/0'"),
                (["quad", "--rule", "jacobi", "--alpha", "1", "--beta", "2/0", "--n", "4"],
                 "--beta: '2/0'"),
                (["poly", "--family", "x1-laguerre", "--k", "1/0", "--n", "2"],
                 "--k: '1/0'"),
                (["poly", "--family", "jacobi", "--alpha=-1/0", "--beta", "1", "--n", "2"],
                 "--alpha: '-1/0'")]:
            assert main(argv) == 2, argv
            err = capsys.readouterr().err.strip()
            assert err == f"error: {named} has a zero denominator", argv

    @pytest.mark.parametrize("argv,flag", [
        (["quad", "--rule", "legendre", "--alpha", "1", "--beta", "2", "--n", "3"], "--alpha"),
        (["poly", "--family", "laguerre", "--k", "1", "--alpha", "2", "--n", "2"], "--alpha"),
        (["poly", "--family", "x1-laguerre", "--k", "1", "--beta", "2", "--n", "2"], "--beta"),
        (["poly", "--family", "x1-jacobi", "--alpha", "1", "--beta", "3", "--k", "2",
          "--n", "2"], "--k"),
        (["quad", "--rule", "laguerre", "--k", "2", "--alpha", "1", "--n", "3"], "--alpha"),
    ], ids=lambda v: v if isinstance(v, str) else " ".join(v[:3]))
    def test_parameter_the_weight_does_not_take_exits_two(self, argv, flag, capsys):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: {flag} does not apply to the {argv[2]}")

    def test_non_numeric_parameter_named(self, capsys):
        assert main(["poly", "--family", "x1-jacobi", "--alpha", "x", "--beta", "2",
                     "--n", "2"]) == 2
        assert capsys.readouterr().err.strip() == "error: --alpha: 'x' is not a number"

    def test_jacobi_rule(self, capsys):
        assert main(["quad", "--rule", "jacobi", "--alpha", "1/2", "--beta", "3/2",
                     "--n", "3"]) == 0
        assert "node,weight" in capsys.readouterr().out


def _decimal(sign: bool):
    """Decimal strings from 1e-300 to 1e300, spread over the exponents."""
    digits = st.builds("{}.{:02d}e{}".format, st.integers(1, 9), st.integers(0, 99),
                       st.integers(-300, 299))
    magnitude = st.one_of(st.just("1e300"), digits)
    if not sign:
        return magnitude
    return st.builds(lambda neg, m: "-" + m if neg else m, st.booleans(), magnitude)


class TestPresetDomain:
    """Any Scarf or Morse value from 1e-300 to 1e300 gives a documented exit
    code: a spectrum (0), a named bad parameter or grid (2), a solver failure
    (3), never an exception."""

    @staticmethod
    def _run(preset, params, extended):
        argv = ["spectrum", "--preset", preset, "--params", json.dumps(params),
                "--grid-n", "64", "--levels", "1", *(["--extended"] if extended else [])]
        with (np.errstate(all="ignore"), contextlib.redirect_stdout(io.StringIO()),
              contextlib.redirect_stderr(io.StringIO())):
            code = main(argv)
        assert code in (0, 2, 3), (argv, code)

    @given(_decimal(False), _decimal(True), _decimal(False), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_scarf(self, a, b, alpha, extended):
        self._run("scarf", {"A": a, "B": b, "alpha": alpha}, extended)

    @given(_decimal(False), _decimal(False), _decimal(False), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_morse(self, a, b, alpha, extended):
        self._run("morse", {"A": a, "B": b, "alpha": alpha}, extended)
