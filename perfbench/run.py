#!/usr/bin/env python3
"""knaster-lab benchmark: one workload per call, end to end or traced.

    python3 perfbench/run.py --workload {tower,synthesis,campaigns} \\
        --seed N --seconds S --trace {0,1}

Run from anywhere; the program is imported from ``src`` next to this
directory, on the pure-Python kernel, and nothing needs building.

With ``--trace 0`` the untraced run prints every end-to-end metric of
``BENCHMARK.json``. Set-up time is the median over ``SETUP_RUNS`` fresh
processes, the measuring one included: each imports the package, builds
the inputs from the seed and runs the warm-up. Like every end-to-end
time it is scaled to a machine of fixed speed (see ``speed.py``). With ``--trace 1`` it
prints the per-layer metrics from the traced run instead.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit code is 0 when every
answer passed the gate, 1 when one did not, and 2 when the benchmark
could not run (no program to measure, a bad argument, a crash or a
timeout); then no result is printed.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
PACKAGE = HERE.parent / "src" / "knaster_lab" / "__init__.py"
WORKLOADS = ("tower", "synthesis", "campaigns")
SETUP_RUNS = 5
TIME_LIMIT_S = 170


class RunError(Exception):
    pass


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def _spawn(args, deadline, setup_only):
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        raise RunError("the workload did not finish within the time limit") from None
    if proc.returncode != 0:
        raise RunError(f"the worker exited with code {proc.returncode}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    setup = (result["ready"] - started - result["loop_s"]) * result["factor"]
    return setup, lines[:-1], result


def main(argv=None):
    args = _parse(argv)
    if not PACKAGE.is_file():
        print(f"error: no program to measure at {PACKAGE}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_RUNS - 1):
                setups.append(_spawn(args, deadline, True)[0])
        setup, lines, result = _spawn(args, deadline, False)
    except RunError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    setups.append(setup)

    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    correct = result["failed"] == 0 and not result["problems"]
    print(f"workload: {args.workload}, seed {args.seed}, trace {args.trace}; "
          "closed loop, one client, one thread")
    for line in lines:
        print(line)
    if not args.trace:
        print(f"setup_s samples: {', '.join(f'{s:.4f}' for s in setups)}")
    print(f"failed_fraction: {result['failed'] / result['attempted']:.6f} "
          f"({result['failed']} of {result['attempted']})")
    for problem in result["problems"]:
        print(f"FAILED: {problem}")
    for name, m in metrics.items():
        print(f"{name}: {m['value']} {m['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
