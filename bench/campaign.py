"""One cold `exopoly verify` campaign in a fresh interpreter.

    python3 bench/campaign.py SRC_DIR CONFIG_JSON REPORT_JSON
    python3 bench/campaign.py SRC_DIR --probe

The campaign imports the CLI the way the `exopoly` console script does and
calls the public `exopoly.cli.main(["verify", ...])`.  It prints one JSON
line: the CLOCK_MONOTONIC reading taken right after the import (the parent
subtracts its spawn time from it to get the set-up time), the wall and CPU
time of `main`, the peak resident set size, and the exit code or the
exception `main` raised.  With `--probe` it only imports and prints the
library versions and the BLAS build of numpy and scipy.
"""

import json
import resource
import sys
import time


def _blas(module) -> dict:
    deps = module.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {key: blas.get(key) for key in ("name", "version", "openblas configuration")}


def probe() -> dict:
    import numpy
    import scipy

    import exopoly

    return {
        "python": sys.version.split()[0],
        "exopoly": exopoly.__version__,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas(numpy),
        "scipy_blas": _blas(scipy),
    }


def campaign(config: str, report: str) -> dict:
    from exopoly import cli

    stats = {"imported": time.clock_gettime(time.CLOCK_MONOTONIC)}
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        stats["exit_code"] = cli.main(["verify", "--config", config, "--out", report])
    except SystemExit as exc:  # argparse errors
        stats["exit_code"] = exc.code
    except Exception as exc:
        stats["error"] = {"type": type(exc).__name__, "message": str(exc)}
    stats["verify_s"] = time.perf_counter() - wall0
    stats["verify_cpu_s"] = time.process_time() - cpu0
    stats["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return stats


def main(argv) -> int:
    sys.path.insert(0, argv[0])
    if argv[1:] == ["--probe"]:
        print(json.dumps(probe()))
    else:
        print(json.dumps(campaign(argv[1], argv[2])))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
