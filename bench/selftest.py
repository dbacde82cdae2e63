"""Self-test of the benchmark harness (not of exopoly).

    python3 bench/selftest.py

Checks, from the root of a source checkout, that
1. a campaign on `{"n_max": 13}` is counted as failed and names
   `QuadratureError` (the floating-point Gram-Schmidt route stops converging
   from n_max 13 at exopoly 0.1.0), while the run still prints every
   end-to-end metric of BENCHMARK.json and `fail_frac`;
2. a campaign whose report has a failing row (`negative_control`, exit 1)
   is counted as failed;
3. seed 0 gives exactly the documented workload configs, and other seeds
   draw the documented number of parameters from the pool;
4. a counter that differs between two traced runs is flagged.
Prints one line per check and exits 0 when all hold.
"""

import contextlib
import io
import json
import sys
from argparse import Namespace

import run


def failed_campaign(config: dict, probe: dict) -> tuple[dict, str]:
    args = Namespace(workload="selftest", seed=0, seconds=0, trace=0)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        result = run.run_workload("selftest", config, args, probe)
    return result, out.getvalue()


def main() -> int:
    with open(run.ROOT / "BENCHMARK.json") as fh:
        names = [m["name"] for m in json.load(fh)["end_to_end"]]
    probe = run.warm_up()
    if probe is None:
        return 2
    results = {}

    result, text = failed_campaign({"n_max": 13}, probe)
    table = [line.split()[1] for line in text.splitlines()
             if line.startswith("# ") and len(line.split()) > 2]
    results["n_max 13 counted as a failed QuadratureError campaign"] = (
        result["attempted"] == 1 and result["failed"] == 1 and not result["correct"]
        and "FAILED campaign 0: QuadratureError" in text)
    results["every end-to-end metric still printed"] = (
        sorted(result["metrics"]) == sorted(names)
        and all(name in table for name in names + ["fail_frac"]))

    result, text = failed_campaign({"negative_control": True}, probe)
    results["failing report row counted as a failed campaign"] = (
        result["failed"] == 1 and "exopoly verify exited 1" in text)

    spec = run.load_spec()
    results["seed 0 gives the documented configs"] = (
        run.workload_config(spec, "default", 0) == {}
        and run.workload_config(spec, "exact-deep", 0) == {"n_max": 12, "n_eigen_max": 40}
        and run.workload_config(spec, "spectral", 0) == {
            "suites": ["spectra", "susy"],
            "grid": {"spectrum_points": 64000, "rayleigh_points": 64000}})
    drawn = run.workload_config(spec, "exact-deep", 7)
    results["other seeds draw from the pool, repeatably"] = (
        drawn == run.workload_config(spec, "exact-deep", 7)
        and drawn["n_max"] == 12
        and len(drawn["laguerre_k"]) == 3
        and all(k in spec["pool"]["laguerre_k"] for k in drawn["laguerre_k"])
        and all(ab in spec["pool"]["jacobi_alpha_beta"]
                for ab in drawn["jacobi_alpha_beta"]))

    same = {"quad.integrate_calls": 933, "quad.integrate_s": 0.2}
    moved = {"quad.integrate_calls": 934, "quad.integrate_s": 0.3}
    results["differing counters flagged, times ignored"] = (
        run.counters_differ([same, dict(same, **{"quad.integrate_s": 0.1})]) == []
        and run.counters_differ([same, moved]) == ["quad.integrate_calls"])

    for name, ok in results.items():
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
    return 0 if all(results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
