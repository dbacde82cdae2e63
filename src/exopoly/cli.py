"""Command-line front door.

Subcommands:
    verify   --config cfg.json [--out report.json]     run verification suites
    poly     --family x1-laguerre --n 4 --k 1 ...      emit polynomial tables
    spectrum --preset oscillator3d [--extended] ...    solve and report spectra
    quad     --rule laguerre --n 16 --k 2              emit quadrature rules

Exit codes: 0 success, 1 verification failures, 2 invalid configuration or
arguments (an ``--out`` that cannot be written among them), 3 solver failure.

Before it parses its arguments, :func:`main` starts glibc's malloc at the
ceiling of the thresholds glibc would otherwise slide up to as it frees
large blocks: blocks below 32 MiB come from the heap, and the heap is
trimmed only past 64 MiB of free memory at its top.  The fine-grid solves
allocate and free arrays of 512 KB and more, which glibc's starting
thresholds (128 KB) map fresh and unmap on every call, so their pages fault
in again each time; with the pin a cold 64000-point ``spectral`` campaign
takes about 1,660 minor page faults inside ``main`` instead of 13,800.
There is no option for it.  A libc without ``mallopt`` is left as it is,
and importing the package leaves the host's allocator alone.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import sys
from fractions import Fraction

from . import __version__, quad, solver, xop
from .polycore import as_rational, jacobi_family, laguerre_family
from .potentials import PotentialError, make_preset
from .solver import Grid, SolverError
from .verify import ConfigError, VerificationConfig, run_verification, write_atomic

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_CONFIG = 2
EXIT_SOLVER = 3


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def cmd_verify(args) -> int:
    try:
        with open(args.config) as fh:
            raw = json.load(fh)
    except OSError as exc:
        return _fail(f"cannot read config: {exc}", EXIT_BAD_CONFIG)
    except json.JSONDecodeError as exc:
        return _fail(f"config is not valid JSON: {exc}", EXIT_BAD_CONFIG)
    try:
        cfg = VerificationConfig.from_dict(raw)
    except ConfigError as exc:
        return _fail(str(exc), EXIT_BAD_CONFIG)
    try:
        report = run_verification(cfg)
    except (quad.QuadratureError, SolverError) as exc:
        return _fail(str(exc), EXIT_SOLVER)
    # a report file is streamed, never held as one string
    if code := (_write_file(args.out, report.write_json) if args.out
                else _emit(report.to_json(), None)):
        return code
    for check in report.checks:
        print(f"[{check['status']:8s}] {check['id']}  metric={check['metric']:.3e}",
              file=sys.stderr)
    print(f"{report.failures} failure(s) / {len(report.checks)} checks",
          file=sys.stderr)
    return EXIT_CHECK_FAILED if report.failures else EXIT_OK


def _rational(flag: str, text: str) -> Fraction:
    """The exact value of a command-line parameter; a bad one is named."""
    try:
        return as_rational(text)
    except ZeroDivisionError:
        raise ValueError(f"{flag}: {text!r} has a zero denominator") from None
    except ValueError:
        raise ValueError(f"{flag}: {text!r} is not a number") from None


# the parameter flags each classical weight takes; an X1 family takes those
# of its classical one
_PARAMETERS = {"laguerre": ("k",), "jacobi": ("alpha", "beta"), "legendre": ()}


def _refuse_foreign_flags(args, name: str, noun: str) -> int:
    """Exit 2 naming the first parameter flag that the family or rule ``name``
    does not take, as a bad argument; 0 when every flag given applies."""
    taken = _PARAMETERS[name.removeprefix("x1-")]
    for flag in ("k", "alpha", "beta"):
        if getattr(args, flag) is not None and flag not in taken:
            takes = " and ".join(f"--{f}" for f in taken) or "no parameter"
            return _fail(f"--{flag} does not apply to the {name} {noun}, which takes "
                         f"{takes}", EXIT_BAD_CONFIG)
    return EXIT_OK


def _family_table(args) -> list:
    fam = args.family
    if fam == "laguerre":
        return laguerre_family(args.n, _rational("--k", args.k))
    if fam == "jacobi":
        return jacobi_family(args.n, _rational("--alpha", args.alpha),
                             _rational("--beta", args.beta))
    if fam in ("x1-laguerre", "x1-jacobi"):
        if args.n < 1:
            raise ValueError("no degree-0 member: exceptional families start at n=1")
        if fam == "x1-laguerre":
            spec = xop.XFamilySpec(family="laguerre", k=_rational("--k", args.k))
        else:
            spec = xop.XFamilySpec(family="jacobi", alpha=_rational("--alpha", args.alpha),
                                   beta=_rational("--beta", args.beta))
        return xop.family_by_route(spec, args.n, args.route)
    raise ValueError(f"unknown family {fam!r}")


def cmd_poly(args) -> int:
    if args.family in ("laguerre", "jacobi") and args.route is not None:
        return _fail(f"--route {args.route} applies to the exceptional families "
                     f"only; the classical {args.family} table has one construction, "
                     "its three-term recurrence", EXIT_BAD_CONFIG)
    if code := _refuse_foreign_flags(args, args.family, "family"):
        return code
    # without the flag an exceptional family takes the operator route; the
    # tables of a classical family keep their `operator` label
    args.route = args.route or "operator"
    needs_k = args.family in ("laguerre", "x1-laguerre")
    if needs_k and args.k is None:
        return _fail("--k is required for Laguerre families", EXIT_BAD_CONFIG)
    if not needs_k and (args.alpha is None or args.beta is None):
        return _fail("--alpha and --beta are required for Jacobi families",
                     EXIT_BAD_CONFIG)
    try:
        rows = _family_table(args)
    except (ValueError, ZeroDivisionError) as exc:
        return _fail(str(exc), EXIT_BAD_CONFIG)
    except quad.QuadratureError as exc:
        return _fail(str(exc), EXIT_SOLVER)
    params = (f"k={args.k}" if needs_k else f"alpha={args.alpha},beta={args.beta}")
    if args.format == "csv":
        text = xop.emit_family_csv(rows, args.route, params)
    else:
        payload = []
        for member in rows:
            coeffs = xop.member_coefficients(member)
            payload.append({"degree": len(coeffs) - 1, "coefficients": coeffs})
        text = json.dumps({"family": args.family, "route": args.route,
                           "params": params, "members": payload},
                          sort_keys=True, indent=2)
    return _emit(text, args.out)


def cmd_spectrum(args) -> int:
    try:
        params = json.loads(args.params) if args.params else {}
    except json.JSONDecodeError as exc:
        return _fail(f"--params is not valid JSON: {exc}", EXIT_BAD_CONFIG)
    if not isinstance(params, dict):
        return _fail("--params must be a JSON object", EXIT_BAD_CONFIG)
    if args.l is not None:
        params["l"] = args.l
    try:
        preset = make_preset(args.preset, params)
    except PotentialError as exc:
        return _fail(str(exc), EXIT_BAD_CONFIG)
    if args.domain:
        try:
            a, b = map(float, args.domain.split(","))
        except ValueError:  # not two values, or one that is not a number
            return _fail(f"--domain must be two numbers a,b, got {args.domain!r}",
                         EXIT_BAD_CONFIG)
    try:
        if not args.domain:
            a, b = preset.default_domain()
        grid = Grid(a, b, args.grid_n)
    except ValueError as exc:
        return _fail(f"bad grid: {exc}", EXIT_BAD_CONFIG)
    if not 1 <= args.levels <= grid.n:
        return _fail(f"--levels must be between 1 and --grid-n ({grid.n}), "
                     f"got {args.levels}", EXIT_BAD_CONFIG)
    if not 0 <= args.match_tol < float("inf"):  # NaN fails both comparisons
        return _fail(f"--match-tol must be finite and >= 0, got {args.match_tol}",
                     EXIT_BAD_CONFIG)

    def extended_v(x):
        return preset.extended_potential(x, args.exc_level)

    def solve(v, tag):
        return solver.solve_spectrum(v, grid, args.levels,
                                     preset=tag, params=preset.params())

    try:
        if args.compare:
            rep = solve(preset.potential, args.preset)
            rep_ext = solve(extended_v, args.preset + "-extended")
            rep.mapping = solver.spectrum_compare(rep.eigenvalues,
                                                  rep_ext.eigenvalues, args.match_tol)
            rep.mapping["extended_levels"] = rep_ext.eigenvalues
        elif args.extended:
            rep = solve(extended_v, args.preset + "-extended")
        else:
            rep = solve(preset.potential, args.preset)
    except PotentialError as exc:  # an inadmissible --exc-level
        return _fail(str(exc), EXIT_BAD_CONFIG)
    except SolverError as exc:
        return _fail(str(exc), EXIT_SOLVER)
    text = rep.to_csv() if args.format == "csv" else rep.to_json(indent=2)
    return _emit(text, args.out)


def cmd_quad(args) -> int:
    if code := _refuse_foreign_flags(args, args.rule, "rule"):
        return code
    try:
        if args.rule == "legendre":
            weight, header = quad.WeightSpec.jacobi(0, 0), "rule=legendre"
        elif args.rule == "laguerre":
            if args.k is None:
                return _fail("--k is required for the laguerre rule", EXIT_BAD_CONFIG)
            weight = quad.WeightSpec.laguerre(_rational("--k", args.k))
            header = f"rule=laguerre,k={args.k}"
        else:
            if args.alpha is None or args.beta is None:
                return _fail("--alpha/--beta are required for the jacobi rule",
                             EXIT_BAD_CONFIG)
            weight = quad.WeightSpec.jacobi(_rational("--alpha", args.alpha),
                                            _rational("--beta", args.beta))
            header = f"rule=jacobi,alpha={args.alpha},beta={args.beta}"
        rule = quad.gauss_rule(weight, args.n)
    except (ValueError, ZeroDivisionError, quad.QuadratureError) as exc:
        return _fail(str(exc), EXIT_BAD_CONFIG)
    return _emit(rule.to_csv(header=f"{header},n={args.n}"), args.out)


def _emit(text: str, out: str | None) -> int:
    """Write ``text`` to the file ``out``, or to stdout; the exit code.

    A file that cannot be written (a missing or unwritable directory, a
    directory as ``out``) is a bad argument: exit 2, with no temp file left
    behind.  A reader that closes stdout early (``| head``) is not an error:
    stdout is pointed at the null device, so the flush at interpreter exit
    does not raise again, and the command keeps its own exit code.
    """
    if out:
        return _write_file(out, text if text.endswith("\n") else text + "\n")
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return EXIT_OK


def _write_file(out: str, text) -> int:
    """:func:`write_atomic` of ``text`` (a string, or a function that writes
    into the file) to ``out``; a file that cannot be written exits 2."""
    try:
        write_atomic(out, text)
    except OSError as exc:
        return _fail(f"cannot write {out}: {exc.strerror or exc}", EXIT_BAD_CONFIG)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="exopoly",
                                description="exceptional orthogonal polynomial "
                                            "construction and verification")
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="run verification suites from a JSON config")
    pv.add_argument("--config", required=True)
    pv.add_argument("--out")
    pv.set_defaults(func=cmd_verify)

    pp = sub.add_parser("poly", help="emit polynomial coefficient tables")
    pp.add_argument("--family", required=True,
                    choices=["laguerre", "jacobi", "x1-laguerre", "x1-jacobi"])
    pp.add_argument("--n", type=int, required=True,
                    help="highest member degree to emit")
    pp.add_argument("--k", help='Laguerre parameter, decimal or "num/den"')
    pp.add_argument("--alpha", help='Jacobi parameter, decimal or "num/den"')
    pp.add_argument("--beta", help='Jacobi parameter, decimal or "num/den"')
    pp.add_argument("--route", choices=["operator", "nullspace", "gram-schmidt"],
                    help="construction route of an exceptional family "
                         "(default: operator)")
    pp.add_argument("--format", default="csv", choices=["csv", "json"])
    pp.add_argument("--out")
    pp.set_defaults(func=cmd_poly)

    ps = sub.add_parser("spectrum", help="grid-solve a preset potential")
    ps.add_argument("--preset", required=True,
                    choices=["oscillator3d", "coulomb", "morse", "scarf"])
    ps.add_argument("--extended", action="store_true",
                    help="solve the rationally extended potential")
    ps.add_argument("--compare", action="store_true",
                    help="solve both and append the level mapping")
    ps.add_argument("--exc-level", type=int, default=1,
                    help="exceptional state index for the level-dependent "
                         "coulomb/morse extensions")
    ps.add_argument("--l", type=int, help="angular momentum (oscillator/coulomb)")
    ps.add_argument("--params", help="extra preset parameters as a JSON object")
    ps.add_argument("--grid-n", type=int, default=8000)
    ps.add_argument("--domain", help="a,b (defaults to the preset suggestion)")
    ps.add_argument("--levels", type=int, default=4)
    # the default sits between the gaps of true and false level pairs at
    # each command's grid size: at most 6.4e-7 and at least 6.9e-5 over the
    # CI --compare commands (morse A=20 pairs (19, 19) at 9.4e-3)
    ps.add_argument("--match-tol", type=float, default=1e-5,
                    help="largest gap |E - E_ext| of a matched level pair "
                         "(default: 1e-5)")
    ps.add_argument("--format", default="json", choices=["json", "csv"])
    ps.add_argument("--out")
    ps.set_defaults(func=cmd_spectrum)

    pq = sub.add_parser("quad", help="emit Gauss quadrature rules as CSV")
    pq.add_argument("--rule", required=True,
                    choices=["legendre", "laguerre", "jacobi"])
    pq.add_argument("--n", type=int, required=True)
    pq.add_argument("--k")
    pq.add_argument("--alpha")
    pq.add_argument("--beta")
    pq.add_argument("--out")
    pq.set_defaults(func=cmd_quad)
    return p


# glibc's mallopt parameter numbers, and the largest mmap threshold glibc
# slides up to by itself on a 64-bit build
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_MAX = 32 << 20


def _keep_freed_memory() -> None:
    """Pin glibc's mmap threshold at its ceiling and the trim threshold at
    twice that, glibc's own ratio (see the module docstring); a libc without
    ``mallopt`` is left as it is."""
    try:
        mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    except (OSError, TypeError):  # TypeError: no process handle (Windows)
        return
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(_M_MMAP_THRESHOLD, _MMAP_MAX)
        mallopt(_M_TRIM_THRESHOLD, 2 * _MMAP_MAX)


def main(argv=None) -> int:
    _keep_freed_memory()
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
