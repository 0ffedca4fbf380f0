"""One benchmark process: set up a workload, run it, gate every answer.

``run.py`` starts this script; it is not meant to be run by hand. The
process imports knaster_lab from the checkout's ``src``, builds the
workload's inputs from the seed and runs the warm-up operations. With
``--setup-only`` it then prints the monotonic clock reading, the time the
speed loop took and the speed factor over set-up, and exits; ``run.py``
takes set-up time as that reading minus the one it took just before
starting the process, less the loop's time, times the factor.

Otherwise it runs the workload as a closed loop, one operation after the
other in this one thread, timing each operation alone. After each
operation, outside the timed region, the workload's gate recomputes the
answer exactly. Between operations, also outside their timing, a
``speed.Speedometer`` times a fixed loop; the end-to-end times are scaled
by it to a machine of fixed speed (see ``speed.py``). Untraced, the loop repeats whole cycles until the
operations have taken ``--seconds``. Traced, it runs the workload's fixed
trace list once untraced and once with every layer wrapped, and reports
the per-layer numbers and the difference in time. Last, it runs the
reference inputs and compares the digest of their algorithm-independent
answers with ``expected.json``.

The last line of stdout is one JSON object for ``run.py``; the lines
before it are the report.
"""

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import tracer as tracing
from speed import Speedometer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
EXPECTED = HERE / "expected.json"
MAX_PROBLEMS = 5


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


class Gate:
    """Runs one operation, times it, and checks its answer outside the timing."""

    def __init__(self, workload, speedometer=None):
        self.workload = workload
        self.speedometer = speedometer
        self.done = []  # (op, seconds)
        self.stretches = []  # (start, end) of each operation, perf_counter
        self.failed = 0
        self.problems = []

    def run(self, op, tracer=None):
        """Run op; return its digest fields, or None when it raised."""
        wl = self.workload
        if self.speedometer is not None:
            self.speedometer.due()
        if tracer is not None:
            tracer.active = True
        t0 = time.perf_counter()
        try:
            out = wl.run(op)
        except Exception as err:  # any raise is a failed operation
            out, problem = None, f"{type(err).__name__}: {err}"
        else:
            problem = None
        t1 = time.perf_counter()
        seconds = t1 - t0
        if tracer is not None:
            tracer.active = False
        fields = None
        if problem is None:
            try:
                problem, fields = wl.check(op, out)
            except Exception as err:  # a malformed answer fails its check
                problem = f"gate: {type(err).__name__}: {err}"
        self.done.append((op, seconds))
        self.stretches.append((t0, t1))
        if problem is not None:
            self.failed += 1
            if len(self.problems) < MAX_PROBLEMS:
                self.problems.append(problem)
        return fields

    def seconds(self):
        return sum(t for _, t in self.done)


def reference_digest(cls, workdir):
    """sha256 over the algorithm-independent answers on the reference inputs."""
    ref, ops = cls.reference(workdir)
    gate = Gate(ref)
    fields = [gate.run(op) for op in ops]
    text = json.dumps(fields, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest(), gate


def end_to_end(gate):
    """The end-to-end metrics but setup_s, which run.py measures.

    Times are scaled by the speed factor around each operation.
    """
    speedometer = gate.speedometer
    lat = [t * speedometer.factor(*span) for (_, t), span in zip(gate.done, gate.stretches)]
    return {
        "throughput_ops_per_s": {"value": len(lat) / sum(lat), "unit": "1/s"},
        "latency_p50_ms": {"value": statistics.median(lat) * 1000, "unit": "ms"},
        "latency_p90_ms": {"value": statistics.quantiles(lat, n=10)[8] * 1000, "unit": "ms"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            "unit": "MB",
        },
    }


def run_timed(wl, seconds, speedometer):
    gate = Gate(wl, speedometer)
    cycles = 0
    while gate.seconds() < seconds:
        for op in wl.cycle(cycles):
            gate.run(op)
        cycles += 1
    speedometer.sample()
    n = len(gate.done)
    raw = [t for _, t in gate.done]
    factors = [speedometer.factor(*span) for span in gate.stretches]
    lines = [
        f"cycles: {cycles}, operations: {n}, "
        f"p90 samples beyond: {n - int(0.9 * n)}",
        f"unscaled: throughput {n / sum(raw):.4f} 1/s, "
        f"p50 {statistics.median(raw) * 1000:.4f} ms, "
        f"p90 {statistics.quantiles(raw, n=10)[8] * 1000:.4f} ms",
        f"speed factor per operation: median {statistics.median(factors):.4f}, "
        f"min {min(factors):.4f}, max {max(factors):.4f}; "
        f"loop samples: {len(speedometer.loops)}",
    ]
    return gate, end_to_end(gate), lines


def run_traced(wl, args):
    ops = wl.trace_ops()
    plain = Gate(wl)
    for op in ops:
        plain.run(op)
    tracer = tracing.Tracer()
    tracer.install()
    traced = Gate(wl)
    try:
        for op in ops:
            traced.run(op, tracer)
    finally:
        tracer.uninstall()
    spans = OUT / f"spans-{args.workload}.jsonl"
    tracer.write_spans(spans)
    untraced_s, traced_s = plain.seconds(), traced.seconds()
    lines = [f"traced operations: {len(ops)} (each run untraced, then traced)"]
    lines += tracer.module_table()
    lines += [
        f"tracing overhead: {traced_s - untraced_s:.4f} s "
        f"(traced {traced_s:.4f} s, untraced {untraced_s:.4f} s, "
        f"ratio {traced_s / untraced_s:.3f})",
        f"spans written: {len(tracer.spans)} to {spans.relative_to(HERE.parent)}, "
        f"dropped past the cap: {tracer.spans_dropped}",
    ]
    plain.done += traced.done
    plain.failed += traced.failed
    plain.problems += traced.problems
    return plain, tracer.metrics(), lines


def main(argv=None):
    args = _parse(argv)
    speedometer = Speedometer()
    speedometer.sample()
    sys.path.insert(0, str(SRC))
    import knaster_lab

    if Path(knaster_lab.__file__).resolve().parent.parent != SRC:
        print(f"error: knaster_lab imported from {knaster_lab.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    home = os.getcwd()
    os.chdir(workdir)
    try:
        wl = cls(args.seed, workdir)
        for op in wl.warmup_ops():
            wl.run(op)
        ready = time.monotonic()
        setup = {"ready": ready, "loop_s": speedometer.spent}
        speedometer.sample()
        setup["factor"] = speedometer.factor(0.0, speedometer.times[-1])
        if args.setup_only:
            print(json.dumps(setup))
            return 0
        if args.trace:
            gate, metrics, lines = run_traced(wl, args)
        else:
            gate, metrics, lines = run_timed(wl, args.seconds, speedometer)
        digest, ref_gate = reference_digest(cls, workdir)
    finally:
        os.chdir(home)
        shutil.rmtree(workdir, ignore_errors=True)

    expected = json.loads(EXPECTED.read_text()).get(args.workload)
    lines += wl.properties(gate.done)
    # without the backend switch there is only the pure-Python kernel
    backend = getattr(knaster_lab, "backend_name", lambda: "python")()
    lines.append(f"backend: {backend}")
    lines.append(f"reference digest: {digest} (expected {expected})")
    problems = gate.problems + [f"reference: {p}" for p in ref_gate.problems]
    failed = gate.failed + ref_gate.failed
    if backend != "python":
        problems.append(f"backend is {backend}, the benchmark is defined on python")
    if digest != expected:
        problems.append("reference digest differs from expected.json")
        if ref_gate.failed == 0:  # a wrong answer the checks let through
            failed += 1
    for line in lines:
        print(line)
    print(json.dumps({
        **setup,
        "attempted": len(gate.done) + len(ref_gate.done),
        "failed": failed,
        "problems": problems,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
