"""Verification campaigns over the exceptional-polynomial identities.

A campaign is configured by a JSON-serializable :class:`VerificationConfig`,
runs a selection of suites, and produces a :class:`VerificationReport` whose
rows are either hard checks (status "pass"/"fail" against a tolerance) or
audits of printed formulas (status "reported": the measured deviation is the
finding and never fails the run).  Suites run one after another, in the
order given; report files are written atomically.

A config sets the suites, the family parameters (``laguerre_k``,
``jacobi_alpha_beta``), the degrees (``n_max``, ``n_eigen_max``), the grid
sizes and the negative control, and nothing else.  The gates are fixed in
this module (``_TOLERANCES``, and the spectra suite's cases, one loop over the
table ``_SPECTRA``: the oscillator at l = 0, 1 and Scarf at A = 3, B = 1): a
config that names them is rejected as an unknown field.

Every row of a suite is made by one recorder, :class:`_Rows`.  A row's
``runtime`` is the wall time since the previous row of its suite (since the
suite began, for the first row), so a suite's runtimes add up to its wall
time.  The claim-audit rows are added as :func:`susy.verify_claims` makes
them, one at a time, so they are timed by the same rule.  ``runtime`` is the
only field that differs between two runs.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from fractions import Fraction
from typing import Callable, Optional, TextIO, Union

import numpy as np

from . import __version__
from . import quad, solver, susy, xop
from .polycore import as_rational, laguerre_classical
from .potentials import (
    Morse,
    Oscillator3D,
    ScarfTrig,
    quotient_identity_check,
    state_rayleigh,
)
from .solver import Grid

SUITES = ("xop", "theorem", "spectra", "susy")


class ConfigError(ValueError):
    """Invalid verification config; the message names the offending field."""


_DEFAULTS = {
    "suites": ["all"],
    "laguerre_k": ["1", "2", "7/2"],
    "jacobi_alpha_beta": [["1", "2"], ["2", "5"], ["1/2", "3/2"]],
    "n_max": 8,
    "n_eigen_max": 10,
    "grid": {"spectrum_points": 8000, "rayleigh_points": 16000},
    "negative_control": False,
}

# every gate of the report, fixed here so no config moves it: 0 for the exact
# checks (a count of failing members, or a deviation that must vanish), a
# bound for the floating-point ones.  A check that must stay above its bound
# (the separation) or inside an interval (the convergence order) makes its
# own comparison, but reads the bound here.
_TOLERANCES = {
    "exact": 0,
    "route_agreement": 1e-9,
    "orthogonality": 1e-10,
    "convergence_order": [1.8, 2.2],
    "spectrum_rel": 1e-4,
    "isospectrality_match": 1e-2,
    "rayleigh_rel": 1e-6,
    "partner_identity": 1e-12,
    "intertwine": 1e-5,
    "intertwine_separation": 1e-1,
    "intertwine_separation_ratio": 1e4,
    "operator_identity": 1e-5,
    "zero_mode": 1e-5,
}


def _is_int(value) -> bool:
    """An int proper: JSON true/false arrive as bools, which Python counts as ints."""
    return isinstance(value, int) and not isinstance(value, bool)


class VerificationConfig:
    def __init__(self, suites: list[str], laguerre_k: list[Fraction],
                 jacobi_alpha_beta: list[tuple[Fraction, Fraction]], n_max: int,
                 n_eigen_max: int, grid: dict, negative_control: bool):
        self.suites = suites
        self.laguerre_k = laguerre_k
        self.jacobi_alpha_beta = jacobi_alpha_beta
        self.n_max = n_max
        self.n_eigen_max = n_eigen_max
        self.grid = grid
        self.negative_control = negative_control

    @staticmethod
    def from_dict(raw: dict) -> "VerificationConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config: must be a JSON object")
        unknown = set(raw) - set(_DEFAULTS)
        if unknown:
            raise ConfigError(f"unknown config field(s): {sorted(unknown)}")
        merged = {**_DEFAULTS, **raw}
        for key in ("laguerre_k", "jacobi_alpha_beta"):
            if not isinstance(merged[key], list):
                raise ConfigError(f"{key}: must be a list")
        if not isinstance(merged["grid"], dict):
            raise ConfigError("grid: must be an object")
        suites = merged["suites"]
        if not isinstance(suites, list) or not suites:
            raise ConfigError("suites: must be a nonempty list")
        expanded = []
        for s in suites:
            if s == "all":
                expanded.extend(SUITES)
            elif s in SUITES:
                expanded.append(s)
            else:
                raise ConfigError(f"suites: unknown suite {s!r} (use {SUITES} or 'all')")
        try:
            kvals = [as_rational(v) for v in merged["laguerre_k"]]
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"laguerre_k: {exc}") from exc
        if not kvals or any(k <= 0 for k in kvals):
            raise ConfigError("laguerre_k: need a nonempty list of rationals > 0")
        if not all(isinstance(p, list) and len(p) == 2 for p in merged["jacobi_alpha_beta"]):
            raise ConfigError("jacobi_alpha_beta: each entry must be an [alpha, beta] pair")
        try:
            ab = [(as_rational(a), as_rational(b)) for a, b in merged["jacobi_alpha_beta"]]
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"jacobi_alpha_beta: {exc}") from exc
        if not ab or any(a == b or a <= 0 or b <= 0 for a, b in ab):
            # P^(alpha-1, beta+1) must exist, and alpha*beta > 0 keeps the
            # pole b of the X1 weight outside [-1, 1]
            raise ConfigError("jacobi_alpha_beta: need pairs with alpha,beta > 0, alpha != beta")
        if "xop" in expanded:
            # the xop suite integrates against each family's weight, whose
            # mass and recurrence must fit a float; three coefficients reach
            # every branch of the recurrence formulas
            weights = ([("laguerre_k", quad.WeightSpec.laguerre(k)) for k in kvals]
                       + [("jacobi_alpha_beta", quad.WeightSpec.jacobi(a, b))
                          for a, b in ab])
            for key, weight in weights:
                try:
                    quad.recurrence_coefficients(weight, 3)
                except ValueError as exc:
                    raise ConfigError(f"{key}: {exc}") from exc
        for key, values in (("laguerre_k", kvals), ("jacobi_alpha_beta", ab)):
            for i, value in enumerate(values):
                if value in values[:i]:
                    raise ConfigError(f"{key}: entry {json.dumps(merged[key][i], default=str)}"
                                      " repeats an earlier value")
        for key in ("n_max", "n_eigen_max"):
            if not _is_int(merged[key]) or merged[key] < 1:
                raise ConfigError(f"{key}: must be a positive integer")
        grid = {**_DEFAULTS["grid"], **merged["grid"]}
        for key, val in grid.items():
            if key not in _DEFAULTS["grid"]:
                raise ConfigError(f"grid: unknown entry {key!r}")
            if not (_is_int(val) and val >= 16):
                raise ConfigError(f"grid: {key} must be an int >= 16")
        if not isinstance(merged["negative_control"], bool):
            raise ConfigError("negative_control: must be true or false")
        return VerificationConfig(
            suites=list(dict.fromkeys(expanded)),
            laguerre_k=kvals,
            jacobi_alpha_beta=ab,
            n_max=merged["n_max"],
            n_eigen_max=merged["n_eigen_max"],
            grid=grid,
            negative_control=merged["negative_control"],
        )

    def to_dict(self) -> dict:
        return {
            "suites": self.suites,
            "laguerre_k": [str(k) for k in self.laguerre_k],
            "jacobi_alpha_beta": [[str(a), str(b)] for a, b in self.jacobi_alpha_beta],
            "n_max": self.n_max,
            "n_eigen_max": self.n_eigen_max,
            "grid": self.grid,
            "negative_control": self.negative_control,
        }


class VerificationReport:
    def __init__(self, config: dict, checks: list[dict]):
        self.config = config
        self.checks = checks

    @property
    def failures(self) -> int:
        return sum(1 for c in self.checks if c["status"] == "fail")

    def to_dict(self) -> dict:
        return {
            "tool": "exopoly",
            "version": __version__,
            "config": self.config,
            "failures": self.failures,
            "checks": self.checks,
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    def write_json(self, fh: TextIO) -> None:
        """:meth:`to_json` and a newline, streamed into ``fh`` piece by piece
        rather than made as one string first: the same bytes."""
        json.dump(self.to_dict(), fh, sort_keys=True, indent=2)
        fh.write("\n")


class _Rows:
    """The report rows of one suite, timed back to back.

    A row's runtime is the wall time since the previous row was added, or
    since the recorder was made for the first one, so a suite's runtimes add
    up to its wall time.  A gate row (no status given) passes when metric <=
    tolerance.
    """

    def __init__(self):
        self.rows: list[dict] = []
        self._last = time.perf_counter()

    def add(self, cid: str, claim: str, params: dict, metric: float, tolerance,
            status: Optional[str] = None) -> None:
        now = time.perf_counter()
        self.rows.append({
            "id": cid,
            "claim": claim,
            "params": params,
            "status": status or ("pass" if metric <= tolerance else "fail"),
            "metric": float(metric),
            "tolerance": tolerance,
            "runtime": round(now - self._last, 6),
        })
        self._last = now


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def suite_xop(cfg: VerificationConfig) -> list[dict]:
    rows = _Rows()
    families = ([(xop.XFamilySpec(family="laguerre", k=k), {"k": str(k)})
                 for k in cfg.laguerre_k]
                + [(xop.XFamilySpec(family="jacobi", alpha=a, beta=b),
                    {"alpha": str(a), "beta": str(b)})
                   for a, b in cfg.jacobi_alpha_beta])
    for spec, params in families:
        fam = spec.family
        tag = ",".join(f"{key}={val}" for key, val in params.items())
        with_n_max = {**params, "n_max": cfg.n_max}

        # ops[n - 1] is the operator-route member of index n
        ops = xop.family_by_route(spec, max(cfg.n_max, cfg.n_eigen_max), "operator")
        bad = sum(1 for n in range(1, cfg.n_eigen_max + 1)
                  if not spec.ode_residual(ops[n - 1], n).is_zero)
        rows.add(f"x1-{fam}-eigenrelation[{tag}]",
                 f"exceptional {fam.capitalize()} equation holds exactly "
                 "on the operator route",
                 {**params, "n": f"1..{cfg.n_eigen_max}"}, bad, _TOLERANCES["exact"])

        exact_dev = 0.0
        for op, ns in zip(ops, xop.family_by_route(spec, cfg.n_max, "nullspace")):
            op = op.monic()
            if op != ns:
                exact_dev = max(exact_dev, xop.coefficient_rel_diff(op, ns))
        rows.add(f"route-agreement-exact[{fam},{tag}]",
                 "operator and nullspace routes agree exactly",
                 with_n_max, exact_dev, _TOLERANCES["exact"])

        # >= 10 members: the completeness proxy reads this family's recurrence
        gs = xop.family_by_route(spec, max(cfg.n_max, 10), "gram-schmidt")
        dev = max(xop.coefficient_rel_diff(gs[n - 1], ops[n - 1])
                  for n in range(1, cfg.n_max + 1))
        rows.add(f"route-agreement-gs[{fam},{tag}]",
                 "Gram-Schmidt route matches the exact routes up to scale",
                 with_n_max, dev, _TOLERANCES["route_agreement"])

        rows.add(f"orthogonality[{fam},{tag}]",
                 "Gram matrix off-diagonals vanish under the rational weight",
                 with_n_max, _orthogonality(ops[: cfg.n_max], spec.weight()),
                 _TOLERANCES["orthogonality"])

        no_const = not xop._monomial_nullspace(spec.operator(0), 1)
        degrees_ok = all(ops[n - 1].degree == n for n in range(1, cfg.n_max + 1))
        rows.add(f"degree-law[{fam},{tag}]",
                 "member n has degree n and no degree-0 member exists",
                 params, 0 if (no_const and degrees_ok) else 1, _TOLERANCES["exact"])

        errs = xop.best_approximation_errors(spec.weight(), 10)
        decreasing = all(errs[i + 1] < errs[i] for i in range(len(errs) - 1))
        rows.add(f"completeness-proxy[{fam},{tag}]",
                 "best approximation error of 1 strictly decreases with N",
                 {**params, "errors": [float(f"{e:.12g}") for e in errs]},
                 0 if decreasing else 1, _TOLERANCES["exact"])
    return rows.rows


def _orthogonality(members: list, weight: quad.WeightSpec) -> float:
    """Largest |(p, q)| / sqrt((p, p)(q, q)) over two distinct members under
    the weight, from :func:`quad._scaled_gram`: exact members are evaluated
    exactly at the Gauss nodes and rounded once, and the row and weight
    scales, which leave these cosines alone, keep every sum finite where the
    inner products themselves overflow (Jacobi beta = 1000)."""
    gram = quad._scaled_gram(members, weight)[0]
    d = np.sqrt(np.diag(gram))
    return float(np.max(np.abs(gram - np.diag(np.diag(gram))) / np.outer(d, d)))


def suite_theorem(cfg: VerificationConfig) -> list[dict]:
    rows = _Rows()
    exact = _TOLERANCES["exact"]
    for k in cfg.laguerre_k:
        members = xop.operator_family(xop.XFamilySpec(family="laguerre", k=k), 3)
        bad = sum(1 for f in members if not quotient_identity_check(f, k).is_zero)
        rows.add(f"quotient-extension-x1[k={k}]",
                 "f/(x+k) solves the extended equation when f is exceptional",
                 {"k": str(k), "n": "1..3"}, bad, exact)

        neg = quotient_identity_check(laguerre_classical(2, k), k)
        rows.add(f"quotient-negative-control[k={k}]",
                 "a classical polynomial fails the quotient identity loudly",
                 {"k": str(k), "degree": neg.degree,
                  "leading": "0" if neg.is_zero else str(neg.leading)},
                 neg.degree, exact, "fail" if neg.is_zero else "pass")

        # one eigenproblem per degree serves the solutions and the certificate
        problems = {n: xop._quotient_problem(k, 2, n) for n in (2, 3)}
        sols_n2 = xop.xj_quotient_solve(k, 2, 2, problems[2])
        sols = sols_n2 + xop.xj_quotient_solve(k, 2, 3, problems[3])
        # chi_n divides every coefficient of the identity: exact at every A found
        bad = (sum(xop.xj_quotient_certificate(k, 2, n, problems[n]) for n in (2, 3))
               if sols else float("inf"))
        rows.add(f"quotient-extension-xj[j=2,k={k}]",
                 "degree-n quotients f/(x+k)^2 solve their rational extensions",
                 {"k": str(k), "solutions": len(sols),
                  "A_values": [round(s["A"], 10) for s in sols]},
                 bad, exact)

        measured = sorted(s["A"] for s in sols_n2)
        rows.add(f"xj-first-order-coefficient[j=2,k={k}]",
                 "measured 1/(x+k) coefficients vs the printed value j",
                 {"k": str(k), "printed": 2.0, "measured": measured,
                  "second_order_coefficient": -6.0 * float(k)},
                 min((abs(a - 2.0) for a in measured), default=float("nan")),
                 None, "reported")

        scan = xop.xj_index_scan(k, 2, range(2, 7), 6)
        rows.add(f"xj-printed-equation-nullspace[j=2,k={k}]",
                 "polynomial solutions of the printed codimension-2 equation",
                 {"k": str(k), "indices_with_solutions": scan},
                 float(len(scan)), None, "reported")

    mo = Morse(A=4, B=2)
    x = np.linspace(*mo.default_domain(), 400)[1:-1]
    printed = mo.ve_printed(mo.variable(x), 0)
    derived = mo.extension(x, 0)
    rows.add("morse-printed-extension-vs-derived",
             "printed Morse extension (denominator y+s-n, level-dependent) vs derived",
             {"A": "4", "B": "2", "n": 0,
              "note": "printed parameter is s-n where the equation needs 2(s-n)"},
             float(np.max(np.abs(printed - derived))), None, "reported")
    return rows.rows


_OSCILLATOR_LEVELS = "grid solver reproduces E_n = 2n + l + 3/2"
# the spectra suite's cases, in run order: id stem, params of the level rows
# (which tag their ids), preset, how many lowest levels of its potential and
# extended potential are solved, the fewest points of their grid, the claim of
# the spectrum row, and the claim, params and config grid entry of the
# exceptional-Rayleigh row (None: no such row)
_SPECTRA = (
    ("oscillator", {"l": 0}, Oscillator3D(l=0), 3, 0, _OSCILLATOR_LEVELS,
     ("exceptional closed forms sit at the classical levels", {"l": 0}, "rayleigh_points")),
    ("oscillator", {"l": 1}, Oscillator3D(l=1), 3, 0, _OSCILLATOR_LEVELS, None),
    ("scarf", {}, ScarfTrig(A=3, B=1, energy_shift=9.0), 4, 12000, None,  # shift = A^2: E > 0
     ("exceptional Scarf closed forms sit at the classical levels", {"A": "3", "B": "1"},
      "spectrum_points")),
)


def suite_spectra(cfg: VerificationConfig) -> list[dict]:
    rows = _Rows()
    for stem, params, preset, count, min_points, spectrum, rayleigh in _SPECTRA:
        tag = f"[{','.join(f'{k}={v}' for k, v in params.items())}]" if params else ""
        domain = preset.default_domain()
        grid = Grid(*domain, max(cfg.grid["spectrum_points"], min_points))
        levels = solver.lowest_levels(preset.potential, grid, count)
        if spectrum:
            classical = [preset.classical_energy(n) for n in range(count)]
            rows.add(f"{stem}-spectrum{tag}", spectrum,
                     {**params, "N": grid.n, "levels": [round(e, 8) for e in levels]},
                     max(abs(e - ref) / ref for e, ref in zip(levels, classical)),
                     _TOLERANCES["spectrum_rel"])

        levels_ext = solver.lowest_levels(preset.extended_potential, grid, count)
        _isospectrality(rows, f"{stem}-isospectrality{tag}", params, levels, levels_ext)

        if rayleigh:
            claim, rq_params, key = rayleigh
            quotients = state_rayleigh(preset.exceptional_states((1, 2, 3)),
                                       preset.extended_potential,
                                       Grid(*domain, max(cfg.grid[key], min_points)))
            exceptional = [preset.exceptional_energy(n) for n in (1, 2, 3)]
            rows.add(f"{stem}-exceptional-rayleigh", claim, {**rq_params, "n": "1..3"},
                     max(abs(rq - e) / e for rq, e in zip(quotients, exceptional)),
                     _TOLERANCES["rayleigh_rel"])

    osc0 = Oscillator3D(l=0)
    order = solver.convergence_order(osc0.potential, osc0.default_domain(),
                                     osc0.classical_energy(0), (1000, 2000, 4000))
    lo, hi = _TOLERANCES["convergence_order"]
    rows.add("oscillator-convergence-order", "eigenvalue error scales as h^2",
             {"sizes": [1000, 2000, 4000], "order": round(order, 3)},
             order, [lo, hi], "pass" if lo <= order <= hi else "fail")
    return rows.rows


def _isospectrality(rows: _Rows, cid: str, params: dict, levels, levels_ext) -> None:
    """The reported row mapping the extended levels onto the classical ones."""
    mapping = solver.spectrum_compare(levels, levels_ext, _TOLERANCES["isospectrality_match"])
    worst = mapping["max_pair_diff"]
    rows.add(cid, "extended vs classical level mapping (missing states reported)",
             {**params, "mapping": mapping,
              "ground_state_unmatched": 0 in mapping["unmatched_a"]
              or 0 in mapping["unmatched_b"]},
             float("inf") if worst is None else worst, None, "reported")  # none paired


def suite_susy(cfg: VerificationConfig) -> list[dict]:
    rows = _Rows()
    for preset in susy.CLAIMS:
        for row in susy.verify_claims(preset):
            n = f"[n={row['params']['n']}]" if "n" in row["params"] else ""
            rows.add(f"claim-audit[{preset}:{row['claim']}]{n}", row["claim"],
                     row["params"], row["max_abs_dev"], row["tol"], row["status"])

    l = 1
    w_osc = susy.oscillator_intertwiner(l)
    w_lin = susy.Superpotential(w=lambda x: x, w_prime=lambda x: np.ones_like(x))
    worst = 0.0
    for w, dom in ((w_lin, (-8.0, 8.0)), (w_osc, (0.5, 12.0))):
        g = Grid(dom[0], dom[1], 3000)
        x = g.points()
        pair = susy.partner_potentials(w, 0.25)
        dev = np.max(np.abs(pair.v_minus(x) - pair.v_plus(x) - 2 * w.w_prime(x)))
        scale = max(1.0, float(np.max(np.abs(w.w_prime(x)))))
        worst = max(worst, float(dev / scale))
    rows.add("partner-construction-identity",
             "V- - V+ = 2 W' to roundoff for every superpotential",
             {"superpotentials": ["W(x)=x", "oscillator intertwiner"]}, worst,
             _TOLERANCES["partner_identity"])

    worst = 0.0
    for w, dom in ((w_lin, (-8.0, 8.0)), (w_osc, (0.8, 12.0))):
        g = Grid(dom[0], dom[1], 12000)
        worst = max(worst, *susy.intertwining_operator_residual(
            w, g, susy.random_smooth_functions(g, 5, seed=7)))
    rows.add("intertwining-operator-identity",
             "A H+ and H- A agree on random smooth states",
             {"test_functions": 5}, worst, _TOLERANCES["operator_identity"])

    classical = Oscillator3D(l=l - 1)
    g = Grid(*classical.default_domain(), cfg.grid["rayleigh_points"])
    # generators: each state is made on the grid only when the check reads it
    matches = susy.intertwine_check(
        w_osc, g, (classical.classical_state(nu).on_grid(g) for nu in range(0, 4)),
        (state.on_grid(g) for state in Oscillator3D(l=l).exceptional_states(range(1, 6))))
    matched_worst, mismatch_best = 0.0, float("inf")
    pairings = {}
    for nu, row in enumerate(matches):
        residuals = [m["rel_residual"] for m in row]
        best = int(np.argmin(residuals))
        pairings[nu] = {"best_n": best + 1, "residual": residuals[best]}
        matched_worst = max(matched_worst, residuals[best])
        mismatch_best = min(mismatch_best,
                            min(r for i, r in enumerate(residuals) if i != best))
    rows.add("intertwine-matched-pairings",
             "A maps each classical state onto one exceptional state",
             {"l": l, "pairings": {str(k): v for k, v in pairings.items()}},
             matched_worst, _TOLERANCES["intertwine"])
    separation = mismatch_best / matched_worst if matched_worst else float("inf")
    floor = _TOLERANCES["intertwine_separation"]
    rows.add("intertwine-separation",
             "mismatched pairings are rejected by orders of magnitude",
             {"mismatch_best": mismatch_best, "separation": separation},
             mismatch_best, floor,
             "pass" if mismatch_best > floor
             and separation >= _TOLERANCES["intertwine_separation_ratio"] else "fail")

    gz = Grid(-8.0, 8.0, 4000)
    zero_mode = susy.formal_zero_mode(w_lin, gz).normalized()
    res = susy.apply_A(w_lin, zero_mode).norm()
    rows.add("zero-mode-annihilation", "A annihilates exp(-integral W)",
             {"W": "x"}, res, _TOLERANCES["zero_mode"])
    return rows.rows


# ---------------------------------------------------------------------------
# campaign driver
# ---------------------------------------------------------------------------

_SUITE_FUNCS = {
    "xop": suite_xop,
    "theorem": suite_theorem,
    "spectra": suite_spectra,
    "susy": suite_susy,
}


def run_verification(cfg: VerificationConfig) -> VerificationReport:
    """Run the configured suites one after another and assemble the report."""
    checks = [row for suite in cfg.suites for row in _SUITE_FUNCS[suite](cfg)]
    if cfg.negative_control:
        control = _Rows()
        control.add("negative-control", "intentionally corrupted check (must fail)",
                    {}, 1.0, 0.0, "fail")
        checks += control.rows
    checks.sort(key=lambda c: c["id"])
    ids = [c["id"] for c in checks]
    if len(set(ids)) != len(ids):  # every executed check appears exactly once
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        raise RuntimeError(f"duplicate check ids in report: {dupes}")
    return VerificationReport(config=cfg.to_dict(), checks=checks)


def write_atomic(path: str, text: Union[str, Callable[[TextIO], object]]) -> None:
    """Write via a sibling temp file + rename, so readers never see a torn file.

    ``text`` is the file's text, or a function that writes it into the open
    temp file (a report streams itself this way).  On any error the temp file
    is removed and the error raised.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            if callable(text):
                text(fh)
            else:
                fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
