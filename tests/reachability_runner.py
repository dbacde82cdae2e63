"""Run exopoly's product set in this interpreter and print which functions ran.

    python tests/reachability_runner.py SRC_DIR < plan.json

The plan is a JSON object: ``files`` (name -> text, written into the working
directory first), ``commands`` (argument lists for ``exopoly.cli.main``) and
``demos`` (script paths).  A profiler is installed with ``sys.setprofile``
before ``exopoly`` is imported, so a function that runs at import counts as
run.  Each command runs through ``cli.main`` and each demo through ``runpy``,
in this process, with stdout and stderr captured.  Prints one JSON object:
``codes`` (each command's exit code, in order) and ``reached`` (file, first
line and name of every code object under SRC_DIR/exopoly that was called).
"""

import contextlib
import io
import json
import os
import runpy
import sys


def main(src: str) -> int:
    plan = json.load(sys.stdin)
    for name, text in plan["files"].items():
        with open(name, "w") as fh:
            fh.write(text)
    package = os.path.join(os.path.abspath(src), "exopoly") + os.sep
    seen = {}  # id -> code object; holding the object keeps its id unique

    def profile(frame, event, arg):
        if event == "call":
            seen[id(frame.f_code)] = frame.f_code

    sys.path.insert(0, src)
    sys.setprofile(profile)
    from exopoly import cli

    codes = []
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for argv in plan["commands"]:
            try:
                codes.append(cli.main(argv))
            except SystemExit as exc:  # argparse refuses an argument this way
                codes.append(exc.code)
        for demo in plan["demos"]:
            runpy.run_path(demo, run_name="__main__")
    sys.setprofile(None)
    reached = sorted({(c.co_filename, c.co_firstlineno, c.co_name) for c in seen.values()
                      if os.path.abspath(c.co_filename).startswith(package)})
    print(json.dumps({"codes": codes, "reached": reached}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
