"""What a cold `exopoly` command imports, how it sets up glibc's allocator,
and the package's lazy exports."""

import ast
import contextlib
import ctypes
import io
import json
import os
import platform
import subprocess
import sys
import types
from pathlib import Path

import pytest

from exopoly import _lapack

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
# loads OpenSSL through secrets/hmac), numpy's polynomial classes and
# dataclasses (whose generated methods took most of the package's own import)
UNUSED = ["scipy", "scipy.linalg", "numpy.f2py", "numpy.random", "numpy.polynomial",
          "_hashlib", "dataclasses"]


# numpy's wheel ships an OpenBLAS with LAPACK in it: the solver binds that
# one, and scipy's second copy stays out of the process
NUMPY_LAPACK = _lapack._numpy_openblas() is not None


def test_cli_import_leaves_out_scipy_linalg_and_f2py():
    loaded = _fresh("import json, sys\n"
                    "from exopoly import cli\n"
                    "print(json.dumps(sorted(sys.modules)))")
    assert "exopoly.solver" in loaded and "numpy" in loaded
    if NUMPY_LAPACK:
        assert [name for name in loaded if name.split(".")[0] == "scipy"] == []
    else:
        assert "scipy.linalg._flapack" in loaded
    assert [name for name in UNUSED if name in loaded] == []


def test_verify_run_loads_no_unused_module(tmp_path):
    # the saving is not moved into the run: a whole campaign on {} loads
    # none, and maps one OpenBLAS file where numpy ships its own
    (tmp_path / "cfg.json").write_text("{}")
    loaded = _fresh("import contextlib, io, json, os, sys\n"
                    "from exopoly import cli\n"
                    "with contextlib.redirect_stdout(io.StringIO()):\n"
                    f"    code = cli.main(['verify', '--config', {str(tmp_path / 'cfg.json')!r}, "
                    f"'--out', {str(tmp_path / 'report.json')!r}])\n"
                    "maps = None\n"
                    "if os.path.exists('/proc/self/maps'):\n"
                    "    with open('/proc/self/maps') as fh:\n"
                    "        maps = sorted({line.split(maxsplit=5)[-1].strip() for line in fh\n"
                    "                       if 'openblas' in line.lower()})\n"
                    "print(json.dumps([code, sorted(sys.modules), maps]))")
    code, modules, openblas = loaded
    assert code == 0
    assert [name for name in UNUSED if name in modules] == []
    if NUMPY_LAPACK:
        assert "scipy.linalg._flapack" not in modules
        if openblas is not None:
            assert len(openblas) == 1, openblas


def test_no_module_imports_dataclasses():
    # the records are plain classes with written-out methods: nothing is
    # generated at import, and no module may bring dataclasses back
    found = []
    for path in sorted((SRC / "exopoly").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for name in names
                      if name.split(".")[0] == "dataclasses"]
    assert found == []


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


def _verify(tmp_path) -> int:
    from exopoly import cli

    (tmp_path / "cfg.json").write_text(json.dumps({"suites": ["xop"], "n_max": 2,
                                                  "n_eigen_max": 2}))
    with contextlib.redirect_stderr(io.StringIO()):
        return cli.main(["verify", "--config", str(tmp_path / "cfg.json"),
                         "--out", str(tmp_path / "report.json")])


def test_cli_pins_malloc_thresholds(monkeypatch, tmp_path):
    # M_MMAP_THRESHOLD (-3) at 32 MiB, M_TRIM_THRESHOLD (-1) at twice that
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    monkeypatch.setattr(ctypes, "CDLL", lambda name: types.SimpleNamespace(mallopt=mallopt))
    assert _verify(tmp_path) == 0
    assert calls == [(-3, 32 << 20), (-1, 64 << 20)]


@pytest.mark.parametrize("cdll", ["no mallopt", "OSError"])
def test_cli_runs_without_mallopt(monkeypatch, tmp_path, cdll):
    def load(name):
        if cdll == "OSError":
            raise OSError("no process handle")
        return object()

    monkeypatch.setattr(ctypes, "CDLL", load)
    assert _verify(tmp_path) == 0


def test_library_imports_keep_the_host_allocator():
    # the package and its modules call no mallopt; the command line does
    calls = _fresh("import ctypes, contextlib, io, json\n"
                   "calls = []\n"
                   "class Recording(ctypes.CDLL):\n"
                   "    def __getattr__(self, name):\n"
                   "        calls.append(name)\n"
                   "        return super().__getattr__(name)\n"
                   "ctypes.CDLL = Recording\n"
                   "import exopoly, exopoly.verify, exopoly.solver\n"
                   "imported = list(calls)\n"
                   "from exopoly import cli\n"
                   "with contextlib.redirect_stdout(io.StringIO()):\n"
                   "    cli.main(['quad', '--rule', 'legendre', '--n', '3'])\n"
                   "print(json.dumps([imported, calls]))")
    imported, after_main = calls
    assert "mallopt" not in imported
    assert "mallopt" in after_main


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's malloc only")
def test_fine_grid_compare_keeps_its_freed_arrays():
    # two 64000-point solves: each grid array is 512 KB, above glibc's
    # starting mmap threshold, so without the pin every one is mapped fresh
    # and faults in page by page (about 5,800 minor faults, against 1,700)
    faults = _fresh("import contextlib, io, json, resource\n"
                    "from exopoly import cli\n"
                    "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
                    "params = json.dumps({'A': 3, 'B': 1})\n"
                    "with contextlib.redirect_stdout(io.StringIO()):\n"
                    "    code = cli.main(['spectrum', '--preset', 'scarf', '--params', params,\n"
                    "                     '--grid-n', '64000', '--compare'])\n"
                    "after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
                    "print(json.dumps([code, after - before]))")
    code, minflt = faults
    assert code == 0
    assert minflt < 3000
