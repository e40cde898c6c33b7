"""Benchmark: time to verdict, set-up time and peak memory of three CLI checks.

    python3 perfbench/run.py --workload ra-trans --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  Every operation is one CLI command,
run through ``precrossed.cli.main`` in a fresh single-threaded worker
process, one at a time; the run repeats whole rounds until ``--seconds`` have
passed.  Every report is checked against values computed apart from the
program (``checks.py``).  With ``--trace 0`` the last line of standard
output holds the end-to-end metrics; with ``--trace 1`` each round runs the
command once plain and once traced, and the last line holds the per-layer
split.  ``--seed`` sets the workers' ``PYTHONHASHSEED``; the inputs
themselves are fixed.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time

from checks import DESK, WORKLOADS, CheckFailed, check_report, expected
from tracer import COUNT_METRICS, SPAN_METRICS

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 10  # set-up-only workers per run, for a steadier setup_s median
RUN_DEADLINE_S = 170.0  # no worker may outlive this point of the run

END_TO_END_UNITS = {"setup_s": "s", "verdict_s": "s", "peak_rss_mib": "MiB"}
PER_LAYER_UNITS = {
    "precrossed.import_s": "s",
    "algebra.parse_s": "s",
    **{metric: "s" for metric in SPAN_METRICS.values()},
    **{name: "count" for name in COUNT_METRICS},
    "simplicial.kept_ratio": "ratio",
    "trace.overhead_s": "s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Runner:
    def __init__(self, root: str, workload: str, seed: int):
        self.root = root
        self.workload = workload
        self.env = dict(os.environ, PYTHONHASHSEED=str(seed % 2**32))
        self.born = time.monotonic()

    def spawn(self, mode: str):
        """One worker process; its JSON result, or None if it died or timed out."""
        timeout = max(1.0, RUN_DEADLINE_S - (time.monotonic() - self.born))
        cmd = [sys.executable, "-S", os.path.join(HERE, "worker.py"),
               self.root, self.workload, mode]
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                                  text=True, timeout=timeout, check=False)
        except subprocess.TimeoutExpired:
            print(f"worker {mode} timed out", file=sys.stderr)
            return None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"worker {mode} exited {proc.returncode}: {proc.stderr.strip()}",
                  file=sys.stderr)
            return None
        return json.loads(lines[-1])


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds < 1:
        print("--seconds must be at least 1", file=sys.stderr)
        return 2
    root = os.getcwd()
    src = os.path.join(root, "src", "precrossed")
    if not os.path.isfile(os.path.join(src, "cli.py")) or not os.path.isfile(
            os.path.join(root, DESK)):
        print(f"no precrossed sources and {DESK} under {root}", file=sys.stderr)
        return 2
    # warm the .pyc files, so that no timed import compiles source
    if not compileall.compile_dir(src, quiet=1):
        print("compiling the sources failed", file=sys.stderr)
        return 2
    want = expected(args.workload, root)
    runner = Runner(root, args.workload, args.seed)
    modes = ("run", "trace") if args.trace else ("run",)

    setups, ops = [], []
    correct, attempted, failed = True, 0, 0
    start = time.monotonic()
    for _ in range(SETUP_PROBES):
        probe = runner.spawn("setup")
        if probe is None:
            return 1
        setups.append(probe["setup_s"])
    while attempted == 0 or time.monotonic() - start < args.seconds:
        for mode in modes:
            attempted += 1
            res = runner.spawn(mode)
            if res is None or res["error"] is not None or res["exit_code"] not in (0, 2):
                failed += 1
                if res is not None:
                    print(f"{mode} failed: exit {res['exit_code']} {res['error'] or ''}"
                          f"{res['stderr']}", file=sys.stderr)
                continue
            try:
                check_report(args.workload, res["report"], want)
            except CheckFailed as exc:
                correct = False
                print(f"{mode} report wrong: {exc}\n{res['report']}", file=sys.stderr)
            res["mode"] = mode
            ops.append(res)
    plain = [r for r in ops if r["mode"] == "run"]
    traced = [r for r in ops if r["mode"] == "trace"]
    if not plain or (args.trace and not traced):
        print("no operation completed", file=sys.stderr)
        return 1
    setups.extend(r["setup_s"] for r in plain)

    if args.trace:
        layers = [r["trace"]["layers"] for r in traced]
        values = {
            "precrossed.import_s": statistics.median(r["import_s"] for r in traced),
            "algebra.parse_s": statistics.median(r["parse_s"] for r in traced),
            "trace.overhead_s": statistics.median(r["verdict_s"] for r in traced)
            - statistics.median(r["verdict_s"] for r in plain),
        }
        for metric in SPAN_METRICS.values():
            values[metric] = statistics.median(layer[metric] for layer in layers)
        for name in (*COUNT_METRICS, "simplicial.kept_ratio"):
            if any(layer[name] != layers[0][name] for layer in layers):
                correct = False
                print(f"{name} differs between traced runs", file=sys.stderr)
            values[name] = layers[0][name]
        units = PER_LAYER_UNITS
    else:
        values = {
            "setup_s": statistics.median(setups),
            "verdict_s": statistics.median(r["verdict_s"] for r in plain),
            "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in plain),
        }
        units = END_TO_END_UNITS

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "setup_samples": setups, "values": values,
              "ops": [{k: v for k, v in r.items() if k not in ("report", "trace")}
                      for r in ops]}
    if traced:
        record["trace_of_first_traced_op"] = traced[0]["trace"]
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    out_path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)

    for name in units:
        print(f"{name} = {values[name]:.6g} {units[name]}")
    print(f"operations: {attempted} attempted, {failed} failed; record: {out_path}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
