"""Verification campaign configuration, report contract, CLI exit codes."""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from exopoly import quad, solver, susy, xop
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

    @pytest.mark.parametrize("raw, key", [
        ({"laguerre_k": ["1", "2/2"]}, "laguerre_k"),
        ({"laguerre_k": ["1", "1"]}, "laguerre_k"),
        ({"jacobi_alpha_beta": [["1", "2"], ["2/2", "4/2"]]}, "jacobi_alpha_beta"),
        ({"oscillator_l": [0, 1, 0]}, "oscillator_l"),
    ], ids=["k-rational", "k-literal", "jacobi", "oscillator"])
    def test_repeated_family_value_rejected(self, raw, key):
        with pytest.raises(ConfigError, match=f"^{key}: .*repeats an earlier value"):
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
        walls = {}
        audit = susy.verify_claims

        def timed(preset, *args, **kwargs):
            t0 = time.perf_counter()
            rows = audit(preset, *args, **kwargs)
            walls[preset] = time.perf_counter() - t0
            return rows

        monkeypatch.setattr(susy, "verify_claims", timed)
        cfg = VerificationConfig.from_dict({"suites": ["susy"],
                                            "grid": {"rayleigh_points": 2000}})
        rows = {c["id"]: c for c in suite_susy(cfg)}
        assert set(walls) == {"oscillator3d", "coulomb", "scarf"}
        for preset, wall in walls.items():
            claim_rows = [c for cid, c in rows.items()
                          if cid.startswith(f"claim-audit[{preset}:")]
            assert claim_rows
            # each row's runtime is rounded to 1e-6 s
            slack = 5e-7 * len(claim_rows)
            assert sum(c["runtime"] for c in claim_rows) <= wall + slack, preset
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
        eigh = solver.eigh_tridiagonal

        def recording(diag, off, eigvals_only=False, **kwargs):
            calls.append((len(diag), eigvals_only))
            return eigh(diag, off, eigvals_only=eigvals_only, **kwargs)

        monkeypatch.setattr(solver, "eigh_tridiagonal", recording)
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
        # values only (no inverse iteration by stein), and every bisection on
        # the bottom grid of the coarse-to-fine recursion: 2 levels x 2
        # potentials for the oscillator at 2000 -> 125 points, the convergence
        # sizes 1000/2000/4000 -> 62/125/250, 2 for Scarf at 12000 -> 750 -> 46
        assert calls == [(125, True)] * 4 + [(62, True), (125, True), (250, True)] \
            + [(46, True)] * 2
        assert not {n for n, _ in calls} & {1000, 2000, 4000, 12000}


class TestWriteAtomic:
    def test_write_and_no_leftover_temp(self, tmp_path):
        target = tmp_path / "out.json"
        write_atomic(str(target), '{"x": 1}')
        assert json.loads(target.read_text()) == {"x": 1}
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
        # that edge; the next one is the orthogonality check from n_max 15.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_max": 13}))
        out = tmp_path / "r.json"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["failures"] == 0

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
        ({"jacobi_alpha_beta": [["1", "2"], ["1", "2"]]}, "jacobi_alpha_beta"),
        ({"oscillator_l": [0, 0]}, "oscillator_l"),
    ], ids=["jacobi-alpha", "jacobi-beta", "repeated-k", "repeated-pair", "repeated-l"])
    def test_config_outside_the_domain_exits_two(self, raw, key, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "r.json"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {key}: ")
        assert not out.exists()

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
        assert Poly.from_json(member["coefficients"]) == Poly((18, -6))

    def test_missing_parameter_exits_two(self):
        assert main(["poly", "--family", "x1-laguerre", "--n", "2"]) == 2

    def test_classical_table_starts_at_degree_zero(self, capsys):
        code = main(["poly", "--family", "laguerre", "--k", "2", "--n", "1",
                     "--format", "json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert [m["degree"] for m in data["members"]] == [0, 1]

    def test_gram_schmidt_route_emits_decimals(self, capsys):
        code = main(["poly", "--family", "x1-laguerre", "--k", "1", "--n", "2",
                     "--route", "gram-schmidt", "--format", "csv"])
        assert code == 0
        assert "gram-schmidt" in capsys.readouterr().out

    @pytest.mark.parametrize("route,code", [("operator", 2), ("nullspace", 0),
                                            ("gram-schmidt", 0)])
    def test_jacobi_alpha_below_zero_only_the_operator_route_refuses(self, route,
                                                                      code, capsys):
        assert main(["poly", "--family", "x1-jacobi", "--alpha=-1/2", "--beta=-1/4",
                     "--n", "4", "--route", route]) == code
        if code:
            assert "P^(alpha-1, beta+1)" in capsys.readouterr().err

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

    def test_bad_grid_exits_two(self):
        assert main(["spectrum", "--preset", "oscillator3d", "--grid-n", "8"]) == 2

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

    def test_unknown_preset_parameter_named(self, capsys):
        code = main(["spectrum", "--preset", "morse", "--params",
                     '{"A": 4, "B": 2, "bogus": 1}', "--grid-n", "2000"])
        assert code == 2
        assert capsys.readouterr().err.strip() == (
            "error: preset morse has no parameter bogus; it accepts A, B, alpha, energy_shift")

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

    def test_jacobi_rule(self, capsys):
        assert main(["quad", "--rule", "jacobi", "--alpha", "1/2", "--beta", "3/2",
                     "--n", "3"]) == 0
        assert "node,weight" in capsys.readouterr().out
