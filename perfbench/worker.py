"""One measurement in a fresh interpreter: set-up, then at most one CLI command.

    python3 -S perfbench/worker.py ROOT WORKLOAD setup|run|trace

``setup`` only imports the program and parses the registry; ``run`` then
runs the workload's command through ``precrossed.cli.main``; ``trace`` does
the same with spans around each module's public functions.  The worker
prints one JSON object on its standard output.  Interpreter start-up happens
before the clock starts.  Before the clock the worker holds only the modules
a normal interpreter has loaded at start-up (it runs under ``-S``, so site
hooks load nothing); every other module it needs is imported after set-up, so
set-up pays for each standard-library module the program imports.
"""

from __future__ import annotations

import os
import sys
import time

from checks import DESK, WORKLOADS


def peak_rss_mib() -> float:
    """High-water resident set of this process, in MiB."""
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise OSError("no VmHWM line in /proc/self/status")


def main() -> None:
    root, workload, mode = sys.argv[1:4]
    argv = WORKLOADS[workload]
    sys.path.insert(0, os.path.join(root, "src"))

    t0 = time.perf_counter()
    import precrossed.cli as cli
    t1 = time.perf_counter()
    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    t2 = time.perf_counter()
    cli.parse_input(os.path.join(root, DESK))
    t3 = time.perf_counter()
    out = {"import_s": t1 - t0, "parse_s": t3 - t2, "setup_s": (t1 - t0) + (t3 - t2)}

    import contextlib
    import io
    import json
    import traceback

    if mode != "setup":
        stdout, stderr = io.StringIO(), io.StringIO()
        code, error = None, None
        t4 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(argv)
        except (Exception, SystemExit):
            error = traceback.format_exc()
        t5 = time.perf_counter()
        out.update(verdict_s=t5 - t4, exit_code=code, error=error,
                   report=stdout.getvalue(), stderr=stderr.getvalue())
        if tracer is not None:
            out["trace"] = tracer.summary()
    out["peak_rss_mib"] = peak_rss_mib()
    print(json.dumps(out))


if __name__ == "__main__":
    main()
