"""What a cold `exopoly` command imports, and the package's lazy exports."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# every name `exopoly` exports, each imported on first use
EXPORTED = [
    "DiffOp", "JacobiConstants", "Poly", "as_rational", "jacobi_classical",
    "laguerre_classical", "rational_str",
    "QuadratureRule", "WeightSpec", "golub_welsch", "gram_matrix", "integrate",
    "Grid", "GridFunction", "SpectrumReport", "discretize", "lowest_levels",
    "rayleigh_quotient", "solve_spectrum", "spectrum_compare",
    "XFamilySpec", "gram_schmidt_family", "x1_jacobi_ode_residual", "x1_jacobi_op_route",
    "x1_laguerre_ode_residual", "x1_laguerre_op_route", "xj_laguerre_ode_residual",
    "xj_polynomial_solve",
    "EigenstateClosedForm", "Morse", "Oscillator3D", "CoulombRadial", "ScarfTrig",
    "make_preset", "quotient_identity_check", "ve_laguerre",
    "Superpotential", "apply_A", "intertwine_check", "oscillator_intertwiner",
    "partner_potentials", "superpotential_from_ground_state", "verify_claims",
]


def _fresh(code: str, **env) -> dict:
    """Run ``code`` in a new interpreter that prints a JSON value; return it."""
    environ = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    environ.update(env, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=environ, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


# modules no command needs: scipy's package __init__, numpy.random (which
# loads OpenSSL through secrets/hmac) and numpy's polynomial classes
UNUSED = ["scipy", "scipy.linalg", "numpy.f2py", "numpy.random", "numpy.polynomial",
          "_hashlib"]


def test_cli_import_leaves_out_scipy_linalg_and_f2py():
    loaded = _fresh("import json, sys\n"
                    "from exopoly import cli\n"
                    "print(json.dumps(sorted(sys.modules)))")
    assert "exopoly.solver" in loaded and "numpy" in loaded
    assert "scipy.linalg._flapack" in loaded
    assert [name for name in UNUSED if name in loaded] == []


def test_verify_run_loads_no_unused_module(tmp_path):
    # the saving is not moved into the run: a whole campaign on {} loads none
    (tmp_path / "cfg.json").write_text("{}")
    loaded = _fresh("import contextlib, io, json, sys\n"
                    "from exopoly import cli\n"
                    "with contextlib.redirect_stdout(io.StringIO()):\n"
                    f"    code = cli.main(['verify', '--config', {str(tmp_path / 'cfg.json')!r}, "
                    f"'--out', {str(tmp_path / 'report.json')!r}])\n"
                    "print(json.dumps([code, sorted(sys.modules)]))")
    code, modules = loaded
    assert code == 0
    assert [name for name in UNUSED if name in modules] == []


def test_exact_core_import_loads_no_numpy():
    loaded = _fresh("import json, sys\n"
                    "import exopoly.polycore\n"
                    "print(json.dumps(sorted(sys.modules)))")
    assert "exopoly.polycore" in loaded
    assert "numpy" not in loaded


@pytest.mark.parametrize("preset,value", [(None, "1"), ("2", "2")])
def test_cli_pins_openblas_to_one_thread_unless_set(preset, value):
    # every entry point, not only the command line: the pin is the package's
    env = {} if preset is None else {"OPENBLAS_NUM_THREADS": preset}
    for entry in ("from exopoly import cli", "from exopoly import verify",
                  "import exopoly.xop"):
        seen = _fresh(f"import json, os\n{entry}\n"
                      "print(json.dumps(os.environ['OPENBLAS_NUM_THREADS']))", **env)
        assert seen == value, entry


def test_every_exported_name_still_imports():
    import exopoly

    assert sorted(exopoly.__all__) == sorted(["__version__", *EXPORTED])
    for name in EXPORTED:
        scope = {}
        exec(f"from exopoly import {name}", scope)
        assert scope[name] is getattr(exopoly, name)
    with pytest.raises(ImportError):
        exec("from exopoly import no_such_name", {})
    # a submodule is still an attribute of the package after a bare import
    assert _fresh("import json, exopoly\n"
                  "print(json.dumps(exopoly.quad.__name__))") == "exopoly.quad"
