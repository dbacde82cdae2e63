"""Benchmark of cold `exopoly verify` campaigns.

    python3 bench/run.py --workload default|exact-deep|spectral|all \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from
`src/`, nothing needs to be installed).  A run builds the workload's
verification config from the seed and, with `--trace 0`, runs it as a
sequence of campaigns, each in a fresh interpreter that imports the CLI and
calls `exopoly.cli.main(["verify", ...])`, one at a time, until `--seconds`
have passed.  Every campaign passes a correctness gate.  The run prints a
table of the end-to-end metrics (median, sample count, high percentile when
there are enough samples), an environment block, and as its last line one
JSON object with the keys `correct`, `attempted`, `failed` and `metrics`.

With `--trace 1` it instead alternates three kinds of fresh interpreter:
the suites run one after another untraced, the same with every layer's
public functions wrapped in spans (see tracer.py), and one CLI campaign; the
last line then holds the per-layer metrics.  Counters must repeat exactly
across the traced runs.

Metric definitions and the reasons for each workload are in NOTES.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracer import checks_digest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CHILD_TIMEOUT_S = 120
SUITES = ("xop", "theorem", "spectra", "susy")

# end-to-end metric -> unit; fail_frac is printed in the table, and carried
# by `attempted`/`failed` in the result line (it is 0 on a healthy run)
END_TO_END = {"verify_s": "s", "verify_cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# A campaign during which the hypervisor gave more than this share of the
# machine's CPU time to other guests is left out of the timings, as long as
# MIN_QUIET campaigns of the run stayed below it: such steal comes in
# episodes of minutes that slow every campaign by up to 2x (see NOTES.md).
STEAL_LIMIT = 0.05
MIN_QUIET = 3


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def load_spec() -> dict:
    with open(BENCH / "workloads.json") as fh:
        return json.load(fh)


def workload_config(spec: dict, name: str, seed: int) -> dict:
    """The workload's config dict: the shape as written for seed 0; for other
    seeds the same shape plus parameters drawn from the fixed pool."""
    config = json.loads(json.dumps(spec["workloads"][name]))
    if seed != 0:
        rng = random.Random(seed)
        for field, count in spec["draw"].items():
            config[field] = rng.sample(spec["pool"][field], count)
    return config


# ---------------------------------------------------------------------------
# children
# ---------------------------------------------------------------------------

# children cache bytecode whatever the caller's setting, as an installed
# package has compiled bytecode; the untimed warm-up writes it
CHILD_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}


def run_child(args: list[str]) -> tuple[dict | None, str, float]:
    """Run one fresh interpreter; returns (its JSON line or None, a problem
    description or "", the CLOCK_MONOTONIC reading just before the spawn)."""
    spawned = monotonic()
    try:
        proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=CHILD_ENV,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {CHILD_TIMEOUT_S} s", spawned
    lines = proc.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return None, f"child exited {proc.returncode}: {tail[0]}", spawned
    return out, "", spawned


def gate_report(path: Path) -> tuple[str | None, str]:
    """(digest, problem) for one written report; problem is "" when it passes."""
    try:
        with open(path) as fh:
            report = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        return None, f"report unreadable: {exc}"
    checks = report.get("checks", [])
    ids = [c.get("id") for c in checks]
    if report.get("failures") != 0:
        return None, f"report has failures={report.get('failures')}"
    bad = [c.get("id") for c in checks if c.get("status") not in ("pass", "reported")]
    if bad:
        return None, f"checks not pass/reported: {bad[:5]}"
    if len(set(ids)) != len(ids) or not ids:
        return None, "check ids missing or not unique"
    return checks_digest(checks), ""


def campaign(config_path: Path, work: Path, index: int) -> dict:
    """One cold CLI campaign with its gate; timings only if it completed."""
    report = work / f"report-{index}.json"
    stats, problem, spawned = run_child([str(BENCH / "campaign.py"), str(SRC),
                                         str(config_path), str(report)])
    record = {"problem": problem, "digest": None}
    if stats is None:
        return record
    if "error" in stats:
        record["problem"] = f"{stats['error']['type']}: {stats['error']['message']}"
    elif stats.get("exit_code") != 0:
        record["problem"] = f"exopoly verify exited {stats.get('exit_code')}"
    else:
        record["digest"], record["problem"] = gate_report(report)
    if not record["problem"]:
        record["setup_s"] = stats["imported"] - spawned
        for key in ("verify_s", "verify_cpu_s", "peak_rss_mb"):
            record[key] = stats[key]
    return record


def check_identical(records: list[dict]) -> None:
    """Every passing campaign of a run must give the same report (minus
    runtime) as the first one; a differing one is counted as failed."""
    passed = [r for r in records if not r["problem"]]
    for r in passed[1:]:
        if r["digest"] != passed[0]["digest"]:
            r["problem"] = "report differs from the run's first report outside runtime"


# ---------------------------------------------------------------------------
# statistics and printing
# ---------------------------------------------------------------------------

def summary(values: list[float]) -> dict:
    """Median, count, and the highest of p90/p99/p99.9 that has at least ten
    samples beyond it (nearest rank), when the run has that many."""
    out = {"n": len(values), "median": statistics.median(values) if values else None}
    ordered = sorted(values)
    for p in (99.9, 99, 90):
        rank = math.ceil(p / 100 * len(ordered))
        if ordered and len(ordered) - rank >= 10:
            out[f"p{p:g}"] = ordered[rank - 1]
            break
    return out


def print_table(rows: list[tuple[str, str, dict]]) -> None:
    print(f"# {'metric':32s} {'unit':6s} {'n':>4s} {'median':>14s}  high percentile")
    for name, unit, s in rows:
        med = "n/a" if s["median"] is None else f"{s['median']:.6g}"
        high = next((f"{k}={v:.6g}" for k, v in s.items() if k.startswith("p")),
                    "-")
        print(f"# {name:32s} {unit:6s} {s['n']:>4d} {med:>14s}  {high}")


def git_sha() -> str | None:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def cpu_ticks() -> list[int] | None:
    """[steal, total]: machine-wide CPU ticks stolen by the hypervisor for
    other guests, and in all, from /proc/stat."""
    try:
        with open("/proc/stat") as fh:
            ticks = [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return [ticks[7] if len(ticks) > 7 else 0, sum(ticks)]


def steal_share(before, after) -> float:
    """Share of machine CPU time stolen by the hypervisor between two
    cpu_ticks() readings (0 when /proc/stat is not available)."""
    if not before or not after or after[1] <= before[1]:
        return 0.0
    return (after[0] - before[0]) / (after[1] - before[1])


def environment(probe: dict, args, load_start: tuple, ticks_start, campaigns: dict) -> dict:
    return {
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
        **probe,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ[k] for k in ("XOP_THREADS", "OMP_NUM_THREADS",
                                                  "OPENBLAS_NUM_THREADS")
                       if k in os.environ},
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "steal_frac": steal_share(ticks_start, cpu_ticks()),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "campaigns": campaigns,
    }


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def run_campaigns(config: dict, seconds: float, work: Path) -> dict:
    """Cold campaigns one at a time until `seconds` have passed (at least one).
    Returns the end-to-end metrics, the counts and the failures."""
    config_path = work / "config.json"
    config_path.write_text(json.dumps(config))
    records = []
    start = monotonic()
    while not records or monotonic() - start < seconds:
        before = cpu_ticks()
        record = campaign(config_path, work, len(records))
        record["steal"] = steal_share(before, cpu_ticks())
        records.append(record)
    check_identical(records)
    done = [r for r in records if not r["problem"]]
    quiet = [r for r in done if r["steal"] <= STEAL_LIMIT]
    timed = quiet if len(quiet) >= MIN_QUIET else done
    failures = [f"campaign {i}: {r['problem']}" for i, r in enumerate(records)
                if r["problem"]]
    stats = {name: summary([r[name] for r in timed]) for name in END_TO_END}
    rows = [(name, unit, stats[name]) for name, unit in END_TO_END.items()]
    rows.append(("fail_frac", "1", {"n": len(records),
                                    "median": len(failures) / len(records)}))
    print_table(rows)
    print(f"# timings over {len(timed)} of {len(done)} completed campaigns; "
          f"{len(done) - len(quiet)} had hypervisor steal above {STEAL_LIMIT:.0%}")
    return {
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "failures": failures,
        "metrics": {name: {"value": stats[name]["median"], "unit": unit}
                    for name, unit in END_TO_END.items()},
    }


def counters_differ(runs: list[dict]) -> list[str]:
    """Counter (int) names whose values are not identical across traced runs."""
    counters = [k for k, v in runs[0].items() if isinstance(v, int)]
    return [k for k in counters if any(r[k] != runs[0][k] for r in runs[1:])]


def run_traced(config: dict, seconds: float, work: Path) -> dict:
    """Per-layer metrics: alternate untraced suite sequence, traced suite
    sequence and one CLI campaign until `seconds` have passed (at least two
    rounds, so counters can be compared)."""
    config_path = work / "config.json"
    config_path.write_text(json.dumps(config))
    plain, traced, cli, failures = [], [], [], []
    digests = set()
    attempted = rounds = 0
    start = monotonic()
    while rounds < 2 or monotonic() - start < seconds:
        rounds += 1
        for mode, bucket in (("0", plain), ("1", traced)):
            attempted += 1
            out, problem, _ = run_child([str(BENCH / "tracer.py"), str(SRC),
                                         str(config_path), "--trace", mode])
            if out is not None and "error" in out:
                problem = f"{out['error']['type']}: {out['error']['message']}"
            elif out is not None and (out["bad_rows"] or out["duplicate_ids"]):
                problem = f"bad rows {out['bad_rows'][:5]} duplicates {out['duplicate_ids'][:5]}"
            if problem:
                failures.append(f"suite sequence (trace {mode}): {problem}")
            else:
                bucket.append(out)
                digests.add(out["checks_digest"])
        attempted += 1
        record = campaign(config_path, work, attempted)
        if record["problem"]:
            failures.append(f"campaign: {record['problem']}")
        else:
            cli.append(record)
            digests.add(record["digest"])
    if len(digests) > 1:
        failures.append("suite sequences and CLI reports differ outside runtime")
    if len(traced) >= 2:
        differ = counters_differ([t["metrics"] for t in traced])
        if differ:
            failures.append(f"counters differ across traced runs: {differ}")
    metrics = {}
    if traced and plain and cli:
        metrics = layer_values(plain, traced, cli)
    summary_rows = [(name, m["unit"], {"n": len(traced), "median": m["value"]})
                    for name, m in metrics.items()]
    print_table(summary_rows)
    print_shares(metrics)
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "metrics": metrics,
    }


def layer_values(plain: list[dict], traced: list[dict], cli: list[dict]) -> dict:
    """Counters from the first traced run, times as medians over runs."""
    first = traced[0]["metrics"]
    metrics = {}
    for name, value in first.items():
        if isinstance(value, int):
            metrics[name] = {"value": value, "unit": "count"}
        elif name.endswith("_ratio"):
            metrics[name] = {"value": value, "unit": "1"}
        else:
            metrics[name] = {"value": statistics.median(t["metrics"][name] for t in traced),
                             "unit": "s"}
    suite_s = {s: statistics.median(p["suite_s"].get(s, 0.0) for p in plain)
               for s in SUITES}
    for s in SUITES:
        metrics[f"verify.suite_{s}_s"] = {"value": suite_s[s], "unit": "s"}
    verify_s = statistics.median(r["verify_s"] for r in cli)
    metrics["verify.pool_speedup"] = {"value": sum(suite_s.values()) / verify_s,
                                      "unit": "1"}
    traced_wall = statistics.median(t["wall_s"] for t in traced)
    plain_wall = statistics.median(p["wall_s"] for p in plain)
    metrics["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
    metrics["trace.overhead_frac"] = {"value": traced_wall / plain_wall - 1, "unit": "1"}
    return metrics


LAYER_SELF_TIMES = {
    "exact core (polycore + xop exact routes)": (
        "polycore.classical_s", "polycore.nullspace_s", "xop.op_route_s",
        "xop.ode_residual_s", "xop.nullspace_route_s"),
    "quadrature + Gram-Schmidt": ("quad.integrate_s", "quad.rule_build_s",
                                  "xop.gram_schmidt_s"),
    "grid solver": ("solver.eigensolve_spectrum_s", "solver.discretize_s"),
    "potentials + susy": ("potentials.rayleigh_s", "potentials.quotient_check_s",
                          "susy.claims_s", "susy.intertwine_s", "xop.quotient_solve_s"),
}


def print_shares(metrics: dict) -> None:
    """Share of the traced wall time per layer group (self times)."""
    if not metrics:
        return
    wall = metrics["trace.wall_s"]["value"]
    for group, names in LAYER_SELF_TIMES.items():
        share = sum(metrics[n]["value"] for n in names) / wall
        print(f"# share of traced wall: {group:42s} {100 * share:6.1f}%")


def run_workload(name: str, config: dict, args, probe: dict) -> dict:
    """Run one workload and print its table, environment and result line."""
    print(f"# workload {name} seed {args.seed} config {json.dumps(config, sort_keys=True)}")
    load_start, ticks_start = os.getloadavg(), cpu_ticks()
    with tempfile.TemporaryDirectory(prefix=".bench-work-", dir=ROOT) as work:
        if args.trace:
            result = run_traced(config, args.seconds, Path(work))
        else:
            result = run_campaigns(config, args.seconds, Path(work))
    for line in result.pop("failures"):
        print(f"# FAILED {line}")
    env = environment(probe, args, load_start, ticks_start,
                      {name: result["attempted"]})
    print("# environment " + json.dumps(env, sort_keys=True))
    return result


def warm_up() -> dict | None:
    """Import once, untimed, so every measured campaign reads the same
    bytecode cache, and collect the library versions for the environment."""
    probe, problem, _ = run_child([str(BENCH / "campaign.py"), str(SRC), "--probe"])
    if probe is None:
        print(f"error: cannot import exopoly from {SRC}: {problem}", file=sys.stderr)
    return probe


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*spec["workloads"], "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "exopoly" / "__init__.py").is_file():
        print(f"error: no exopoly sources under {SRC}", file=sys.stderr)
        return 2
    probe = warm_up()
    if probe is None:
        return 2
    names = list(spec["workloads"]) if args.workload == "all" else [args.workload]
    results = {name: run_workload(name, workload_config(spec, name, args.seed), args, probe)
               for name in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{m}": v for name, r in results.items()
                        for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
