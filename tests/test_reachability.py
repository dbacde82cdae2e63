"""Every function in ``src/exopoly`` runs on a product path, or ``ALLOWED``
says why not.

The product set runs in a fresh interpreter (``reachability_runner.py``),
under ``sys.setprofile`` from before ``import exopoly``, so a function that
runs only at import counts as run.  It is:

* the three shapes of ``bench/workloads.json``, each of which is one of CI's
  ``verify`` configs (checked here) and runs as that command;
* CI's ``verify`` commands, including the ones that exit 2 or 3, the
  unwritable ``--out`` and quotient-k without ``--out``;
* CI's ``spectrum``, ``poly`` and ``quad`` commands;
* the four demos.

The commands are written here as they stand in
``.github/workflows/tests.yml``, with the values of their shell loops, and a
test checks that each one is there, so the product set cannot drift from
CI.  The configs are read from the ``echo '...' > name.json`` lines of the
same file.  One CI run is left out: the 1,000,000-point spectrum, a Python
snippet rather than an ``exopoly`` command, which runs the same functions as
the 256000-point one here, at four times its cost.

A function is keyed by its file and its qualified name, both from the AST;
only ``def`` statements count, not lambdas or comprehensions.  The test fails
on an unreached function that ``ALLOWED`` does not name, and on an entry of
``ALLOWED`` that has been reached or no longer exists, so the list only
shrinks.
"""

import ast
import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "exopoly"
CI = ROOT / ".github" / "workflows" / "tests.yml"
RUNNER = Path(__file__).resolve().parent / "reachability_runner.py"

# each command as tests.yml writes it, the values its shell loop gives one
# variable (or none), and the exit code CI expects
COMMANDS = [
    ("exopoly verify --config cfg.json --out report.json", None, 0),
    ("exopoly verify --config exact-deep.json --out exact-deep-report.json", None, 0),
    ("exopoly verify --config quotient-k.json", None, 0),
    ("exopoly verify --config deep-xop.json", None, 0),
    ("exopoly verify --config large-beta.json", None, 0),
    ("exopoly verify --config large-k.json", None, 0),
    ("exopoly verify --config close-jacobi.json", None, 0),
    ("exopoly verify --config unsettled.json", None, 3),
    ("exopoly verify --config $bad.json",
     ("bad", ["overflow", "alpha-negative", "beta-negative", "repeated", "loose-gate",
              "oscillator-l"]), 2),
    ("exopoly verify --config cfg.json --out missing-dir/report.json", None, 2),
    ("exopoly verify --config spectral.json --out spectral-report.json", None, 0),
    ("exopoly spectrum --preset scarf --params '{\"A\": 3, \"B\": 1}' --grid-n 64000 "
     "--compare", None, 0),
    ("exopoly spectrum --preset oscillator3d --params '{\"l\": 1}' --grid-n 256000 "
     "--compare", None, 0),
    ("exopoly spectrum --preset oscillator3d --params '{\"energy_shift\": \"1\"}'", None, 0),
    ("exopoly spectrum --preset coulomb --l 1 --compare --exc-level 2", None, 0),
    ("exopoly spectrum --preset morse --params '{\"A\": 4, \"B\": 2}' --compare", None, 0),
    ("exopoly spectrum --preset morse --params '{\"A\": 20, \"B\": 2}' --levels 20 "
     "--compare", None, 0),
    ("exopoly spectrum --preset coulomb --compare --match-tol=nan", None, 2),
    ("exopoly spectrum --preset oscillator3d", None, 0),
    ("exopoly spectrum --preset oscillator3d --format csv", None, 0),
    ("exopoly poly --family x1-laguerre --k 1 --n 4 --route $route",
     ("route", ["operator", "nullspace", "gram-schmidt"]), 0),
    ("exopoly poly --family x1-jacobi --alpha 1 --beta 3 --n 4 --route $route",
     ("route", ["operator", "nullspace", "gram-schmidt"]), 0),
    ("exopoly poly --family x1-jacobi --alpha=-1/2 --beta=-1/4 --n 4 --route nullspace",
     None, 0),
    ("exopoly poly --family x1-laguerre --k 1 --n 4 --route gram-schmidt --format json",
     None, 0),
    ("exopoly poly --family x1-jacobi --alpha 1 --beta 3 --n 4 --route gram-schmidt "
     "--format json", None, 0),
    ("exopoly poly --family laguerre --k 1 --n 2 --route gram-schmidt", None, 2),
    ("exopoly poly --family x1-jacobi --alpha=-1/2 --beta=-1/4 --n 4 --route operator",
     None, 2),
    ("exopoly poly --family x1-jacobi --alpha 1 --beta=-1/2 --n 2 --route nullspace",
     None, 0),
    ("exopoly poly --family x1-jacobi --alpha 1 --beta=-1/2 --n 2 --route $route",
     ("route", ["operator", "gram-schmidt"]), 2),
    ("exopoly spectrum --preset $preset", ("preset", ["scarf", "morse"]), 2),
    ("exopoly spectrum --preset oscillator3d --l 1 --params '[1]'", None, 2),
    ("exopoly spectrum --preset oscillator3d --params '{\"l\": 1.5}' --extended", None, 2),
    ("exopoly spectrum --preset morse --params '{\"A\": \"x\", \"B\": 2}'", None, 2),
    ("exopoly spectrum --preset oscillator3d --params \"{\\\"energy_shift\\\": $shift}\"",
     ("shift", ['"x"', "true"]), 2),
    ("exopoly spectrum --preset $preset --params '{\"energy_shift\": \"1e400\"}'",
     ("preset", ["oscillator3d", "coulomb"]), 2),
    ("exopoly spectrum --preset scarf --params '{\"A\": \"1e400\", \"B\": 1}'", None, 2),
    ("exopoly spectrum --preset morse --params '{\"A\": 4, \"B\": \"1e400\"}'", None, 2),
    ("exopoly poly --family x1-laguerre --k 1e400 --n 2 --route gram-schmidt", None, 2),
    ("exopoly spectrum --preset scarf --params \"$params\" --extended",
     ("params", ['{"A": "1e300", "B": 1}', '{"A": 3, "B": "1e-300"}']), 2),
    ("exopoly spectrum --preset morse --params \"$params\"",
     ("params", ['{"A": 4, "B": "1e300"}', '{"A": "1e300", "B": 2}']), 2),
    ("exopoly quad --rule legendre --n 7", None, 0),
    ("exopoly quad --rule laguerre --k 3/2 --n 40", None, 0),
    ("exopoly quad --rule jacobi --alpha 1/2 --beta 2 --n 33", None, 0),
    ("exopoly quad --rule laguerre --n 3", None, 2),
    ("exopoly quad --rule legendre --alpha 1 --beta 2 --n 3", None, 2),
]

# every function no product command runs, by "module.qualified name", with
# the reason it stays
_PORTABILITY = ("portability backend: scipy's LAPACK, loaded only where numpy ships "
                "no OpenBLAS")
_ITEM_10 = "ROADMAP item 10: gates for the Coulomb and Morse closed-form states"
_ITEM_19 = ("ROADMAP items 19, 2 and 3: the rational operator algebra of the exact "
            "SUSY and Schrödinger-picture claims")
_ITEM_22 = "ROADMAP item 22: bound by name in bench/tracer.py TRACED until it unbinds them"
_RECORD = "record safety and debugging: a frozen value refuses writes and prints itself"
_W_PRIME = "a Superpotential carries W' by contract; the audit reads only this one's W"
ALLOWED = {
    "_lapack._flapack_file": _PORTABILITY,
    "_lapack._load_flapack": _PORTABILITY,
    "_lapack._padded": _PORTABILITY,
    "_lapack._wrapped": _PORTABILITY,
    "_lapack._wrapped.<locals>.checked": _PORTABILITY,
    "_lapack._wrapped.<locals>.dgtsv": _PORTABILITY,
    "_lapack._wrapped.<locals>.dpttrf": _PORTABILITY,
    "_lapack._wrapped.<locals>.dstebz": _PORTABILITY,
    "_lapack._wrapped.<locals>.dstevd": _PORTABILITY,
    "potentials.CoulombRadial._frame": _ITEM_10,
    "potentials.CoulombRadial._frame.<locals>.pref": _ITEM_10,
    "potentials.CoulombRadial._frame.<locals>.var": _ITEM_10,
    "potentials.CoulombRadial.classical_energy": _ITEM_10,
    "potentials.Morse._frame": _ITEM_10,
    "potentials.Morse._frame.<locals>.pref": _ITEM_10,
    "potentials.Morse._partner": _ITEM_10,
    "potentials.Morse.classical_energy": _ITEM_10,
    "polycore.Poly.x": _ITEM_19,
    "polycore.Poly.__neg__": _ITEM_19,
    "polycore.Poly.__sub__": _ITEM_19,
    "polycore.Poly.__rmul__": _ITEM_19,
    "polycore.Poly.__hash__": _ITEM_19,
    "polycore.poly_gcd": "ROADMAP item 11: the common-branch row of the quotient theorem",
    "xop.x1_laguerre_op_route": _ITEM_22,
    "xop.x1_jacobi_op_route": _ITEM_22,
    "xop.xj_laguerre_ode_residual": _ITEM_22,
    "polycore._Value.__setattr__": _RECORD,
    "polycore._Value.__delattr__": _RECORD,
    "polycore._Value.__repr__": _RECORD,
    "susy.superpotential_from_ground_state.<locals>.w_prime": _W_PRIME,
    "susy.printed_superpotential_candidate.<locals>.w_prime": _W_PRIME,
}


def _ci_configs() -> dict:
    """The config files CI writes, by name: every ``echo '...' > name.json``."""
    return {name: json.loads(text)
            for text, name in re.findall(r"echo '(\{.*\})' > ([\w-]+\.json)", CI.read_text())}


def _expand(text: str, loop):
    """The argument lists of one command, one for each value of its loop
    variable; a value fills the word that names the variable, as the shell's
    expansion inside quotes does."""
    words = shlex.split(text)[1:]  # cli.main takes the arguments after the program
    if loop is None:
        return [words]
    var, values = loop
    return [[w.replace(f"${var}", value) for w in words] for value in values]


def _src_functions() -> dict:
    """(file, first line, name) -> "module.qualified name" of every ``def``
    under ``src/exopoly``; the first line is the def's and, for a decorated
    function, its first decorator's too, as code objects may give either."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    key = f"{module}.{prefix}{child.name}"
                    for line in [child.lineno] + [d.lineno for d in child.decorator_list]:
                        out[(str(path), line, child.name)] = key
                    visit(child, f"{prefix}{child.name}.<locals>.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text()), "")
    return out


def test_every_command_is_a_ci_command():
    ci = CI.read_text()
    for text, loop, _ in COMMANDS:
        assert text in ci, text
        if loop is not None:
            var, values = loop
            assert f"for {var} in {' '.join(map(shlex.quote, values))}; do" in ci, text
    configs = _ci_configs()
    workloads = json.loads((ROOT / "bench" / "workloads.json").read_text())["workloads"]
    for name, shape in workloads.items():
        assert shape in configs.values(), f"bench workload {name} is no CI config"


def test_every_src_function_runs_on_a_product_path_or_is_allowed(tmp_path):
    commands = [argv for text, loop, _ in COMMANDS for argv in _expand(text, loop)]
    plan = {"files": {name: json.dumps(cfg) for name, cfg in _ci_configs().items()},
            "commands": commands,
            "demos": [str(p) for p in sorted((ROOT / "demos").glob("*.py"))]}
    proc = subprocess.run([sys.executable, str(RUNNER), str(PACKAGE.parent)],
                          input=json.dumps(plan), capture_output=True, text=True,
                          cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    expected = [code for text, loop, code in COMMANDS for _ in _expand(text, loop)]
    assert result["codes"] == expected

    functions = _src_functions()
    reached = {functions[tuple(entry)] for entry in result["reached"]
               if tuple(entry) in functions}
    unreached = set(functions.values()) - reached
    unlisted = sorted(unreached - set(ALLOWED))
    stale = sorted(set(ALLOWED) - unreached)
    assert not unlisted, f"no product command runs {unlisted}: call, delete or list them"
    assert not stale, f"{stale} are reached or gone: take them off ALLOWED"
