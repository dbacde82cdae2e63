"""The verify suites run one after another in a fresh interpreter, traced or not.

    python3 bench/tracer.py SRC_DIR CONFIG_JSON --trace 0|1

Builds the campaign config with the public `VerificationConfig.from_dict`,
then calls `verify.suite_xop/theorem/spectra/susy(cfg)` in turn.  With
`--trace 1` it first wraps the public functions of each layer in spans
(name, start, end, parent; one stack per thread, all held in memory) and
reports self times and counters per layer.  A wrapper is installed in every
`exopoly` module that binds the function, because `xop`, `quad`, `verify`
and the others import names from each other with `from ... import`.

Prints one JSON line: wall time per suite and in total, a digest of the
check rows with their `runtime` fields stripped (the same digest the parent
computes from a CLI report), the rows that failed the gate, and with tracing
the per-layer metrics.
"""

import functools
import hashlib
import json
import sys
import threading
import time


def checks_digest(checks) -> str:
    """sha256 of the check rows sorted by id, without their `runtime` fields."""
    rows = sorted(({k: v for k, v in c.items() if k != "runtime"} for c in checks),
                  key=lambda c: c["id"])
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()


class Tracer:
    """Spans kept in memory: [name, start, end, parent span or None, info]."""

    def __init__(self):
        self.spans = []
        self._local = threading.local()

    def wrap(self, name, fn, info=None):
        spans, local = self.spans, self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            span = [name, 0.0, 0.0, stack[-1] if stack else None,
                    info(*args, **kwargs) if info else None]
            spans.append(span)
            stack.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return traced

    def install(self, modules, module_name, attr, name, info=None):
        """Replace ``module.attr`` wherever an exopoly module binds it."""
        original = getattr(modules[module_name], attr)
        wrapper = self.wrap(name, original, info)
        for mod_name, mod in list(modules.items()):
            if mod_name == "exopoly" or mod_name.startswith("exopoly."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)


def _route(spec, n, route):
    return route


def _nodes(weight, n):
    return n


def _rows(diag, off, count=None, values_only=False):
    return len(diag)


# (module, public function, span name, argument info)
TRACED = [
    ("exopoly.polycore", "laguerre_classical", "polycore.classical", None),
    ("exopoly.polycore", "jacobi_classical", "polycore.classical", None),
    ("exopoly.polycore", "rational_nullspace", "polycore.nullspace", None),
    ("exopoly.xop", "x1_laguerre_op_route", "xop.op_route", None),
    ("exopoly.xop", "x1_jacobi_op_route", "xop.op_route", None),
    ("exopoly.xop", "family_by_route", "xop.family_by_route", _route),
    ("exopoly.xop", "x1_laguerre_ode_residual", "xop.ode_residual", None),
    ("exopoly.xop", "x1_jacobi_ode_residual", "xop.ode_residual", None),
    ("exopoly.xop", "xj_laguerre_ode_residual", "xop.ode_residual", None),
    ("exopoly.xop", "xj_polynomial_solve", "xop.nullspace_solve", None),
    ("exopoly.xop", "xj_quotient_solve", "xop.quotient_solve", None),
    ("exopoly.xop", "gram_schmidt_family", "xop.gram_schmidt", None),
    ("exopoly.xop", "best_approximation_errors", "xop.gram_schmidt", None),
    ("exopoly.quad", "integrate", "quad.integrate", None),
    ("exopoly.quad", "gauss_rule", "quad.gauss_rule", _nodes),
    ("exopoly.quad", "golub_welsch", "quad.golub_welsch", None),
    ("exopoly.solver", "tridiagonal_eigh", "solver.tridiagonal_eigh", _rows),
    ("exopoly.solver", "discretize", "solver.discretize", None),
    ("exopoly.potentials", "state_rayleigh", "potentials.rayleigh", None),
    ("exopoly.potentials", "quotient_identity_check", "potentials.quotient_check", None),
    ("exopoly.susy", "verify_claims", "susy.claims", None),
    ("exopoly.susy", "intertwine_check", "susy.intertwine", None),
    ("exopoly.susy", "intertwining_operator_residual", "susy.intertwine", None),
]


def layer_metrics(spans) -> dict:
    """Counters (ints) and self times (floats) per layer; names match
    BENCHMARK.json."""
    index = {id(span): i for i, span in enumerate(spans)}
    self_s = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            self_s[index[id(parent)]] -= end - start

    def under(i, name):
        parent = spans[i][3]
        return parent is not None and parent[0] == name

    def pick(name, route=None):
        return [i for i, s in enumerate(spans)
                if s[0] == name and (route is None or s[4] == route)]

    def total(idx):
        return sum((self_s[i] for i in idx), 0.0)

    classical, nullspace = pick("polycore.classical"), pick("polycore.nullspace")
    ode = pick("xop.ode_residual")
    integrate, lookups = pick("quad.integrate"), pick("quad.gauss_rule")
    builds = pick("quad.golub_welsch")
    eig = pick("solver.tridiagonal_eigh")
    eig_rule = [i for i in eig if under(i, "quad.golub_welsch")]
    eig_spectrum = [i for i in eig if not under(i, "quad.golub_welsch")]
    rule_builds = [i for i in builds if under(i, "quad.gauss_rule")]
    nodes = [spans[i][4] for i in lookups]
    return {
        "polycore.classical_calls": len(classical),
        "polycore.classical_s": total(classical),
        "polycore.nullspace_calls": len(nullspace),
        "polycore.nullspace_s": total(nullspace),
        "xop.route_calls.operator": len(pick("xop.family_by_route", "operator")),
        "xop.route_calls.nullspace": len(pick("xop.family_by_route", "nullspace")),
        "xop.op_route_s": total(pick("xop.op_route")),
        "xop.ode_residual_calls": len(ode),
        "xop.ode_residual_s": total(ode),
        "xop.nullspace_route_s": total(pick("xop.family_by_route", "nullspace")
                                       + pick("xop.nullspace_solve")),
        "xop.quotient_solve_s": total(pick("xop.quotient_solve")),
        "xop.gram_schmidt_s": total(pick("xop.gram_schmidt")),
        "quad.integrate_calls": len(integrate),
        "quad.integrate_s": total(integrate + lookups),
        "quad.nodes_evaluated": sum(nodes),
        "quad.integrate_max_nodes": max(nodes, default=0),
        "quad.rule_lookups": len(lookups),
        "quad.rule_builds": len(rule_builds),
        "quad.rule_hit_ratio": 1 - len(rule_builds) / len(lookups) if lookups else 0.0,
        "quad.rule_build_s": sum((spans[i][2] - spans[i][1] for i in rule_builds), 0.0),
        "solver.eigensolve_calls": len(eig),
        "solver.eigensolve_rows": sum(spans[i][4] for i in eig),
        "solver.eigensolve_spectrum_s": total(eig_spectrum),
        "solver.eigensolve_rule_s": total(eig_rule),
        "solver.discretize_s": total(pick("solver.discretize")),
        "potentials.rayleigh_s": total(pick("potentials.rayleigh")),
        "potentials.quotient_check_s": total(pick("potentials.quotient_check")),
        "susy.claims_s": total(pick("susy.claims")),
        "susy.intertwine_s": total(pick("susy.intertwine")),
    }


def main(argv) -> int:
    src, config, traced = argv[0], argv[1], argv[2:] == ["--trace", "1"]
    sys.path.insert(0, src)
    from exopoly import verify

    with open(config) as fh:
        cfg = verify.VerificationConfig.from_dict(json.load(fh))
    tracer = Tracer()
    if traced:
        for module, attr, name, info in TRACED:
            tracer.install(sys.modules, module, attr, name, info)
    out = {"suite_s": {}}
    checks = []
    wall0 = time.perf_counter()
    try:
        for suite in cfg.suites:
            t0 = time.perf_counter()
            checks.extend(getattr(verify, f"suite_{suite}")(cfg))
            out["suite_s"][suite] = time.perf_counter() - t0
    except Exception as exc:
        out["error"] = {"type": type(exc).__name__, "message": str(exc)}
    out["wall_s"] = time.perf_counter() - wall0
    ids = [c["id"] for c in checks]
    out["duplicate_ids"] = sorted({i for i in ids if ids.count(i) > 1})
    out["bad_rows"] = [c["id"] for c in checks if c["status"] not in ("pass", "reported")]
    out["checks_digest"] = checks_digest(checks)
    if traced:
        out["metrics"] = layer_metrics(tracer.spans)
        out["spans"] = len(tracer.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
