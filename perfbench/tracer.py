"""Per-layer tracing from outside the program.

``Tracer.install`` swaps each public function named in ``layers.json`` for a
wrapper, wherever a knaster_lab module holds a reference to it, and
``uninstall`` puts the originals back. While ``active`` is true a wrapper
records a span (id, name, start, end, parent id) and adds the call's self
time, its duration minus the time its child spans cover, to the function's
totals. Spans stay in memory (up to ``span_cap``) until ``write_spans``.

A few counters are read off arguments and results at the same boundaries;
the time spent on them is charged to no layer, so it shows only as
tracing overhead.
"""

import importlib
import json
import math
import statistics
import sys
from pathlib import Path
from time import perf_counter

LAYERS_FILE = Path(__file__).with_name("layers.json")

# kernel functions that return a breakpoint list
_KERNEL_LISTS = {
    "compose", "pl_sub", "pl_extremum", "canonical",
    "restrict", "invert", "concat", "affine_image",
}
_SYNTHESES = ("conjugator.approx_conjugator", "conjugator.grid_block_conjugate")


def load_layers():
    with open(LAYERS_FILE) as fh:
        return json.load(fh)["layers"]


def layer_metric_specs():
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = []
    for layer, spec in load_layers().items():
        for fname in spec["functions"]:
            specs.append((f"{layer}.{fname}.calls", "count", "lower"))
            specs.append((f"{layer}.{fname}.self_s", "s", "lower"))
        for counter, (unit, better) in spec["counters"].items():
            specs.append((f"{layer}.{counter}", unit, better))
    return specs


class Tracer:
    def __init__(self, span_cap=50_000):
        self.active = False
        self.span_cap = span_cap
        self.spans = []
        self.spans_dropped = 0
        self.stats = {}  # qualified name -> [calls, self seconds]
        self.depth = {}  # qualified name -> open spans of it
        self.counters = {}
        self.cert_widths = []
        self._stack = []
        self._next_id = 0
        self._patched = []
        self._t0 = perf_counter()
        self._hooks = {
            "knaster.diag_dist": self._on_diag_dist,
            "knaster.lift": lambda r: self._count("knaster.lift.bps_out", len(r.inducer._kbps)),
            "tents.oplus_power": lambda r: self._count("tents.oplus_power.bps_out", len(r._kbps)),
            "plmap.sup_dist": self._on_sup_dist,
            "experiments.run_verify_suite": self._on_report,
            "experiments.run_density_experiment": self._on_report,
            "cli.main": lambda rc: self._count("cli.nonzero_exits", int(rc != 0)),
        }
        for name in _SYNTHESES:
            self._hooks[name] = self._on_synthesis

    # ------------------------------------------------------------ patching

    def install(self):
        layers = load_layers()
        for layer, spec in layers.items():
            for counter in spec["counters"]:
                self.counters[f"{layer}.{counter}"] = 0
        self.counters["conjugator.syntheses"] = 0
        self.counters["conjugator.postchecks"] = 0
        modules = [m for n, m in list(sys.modules.items())
                   if n.startswith("knaster_lab") and m is not None]
        for layer, spec in layers.items():
            mod = importlib.import_module(spec["module"])
            for fname in spec["functions"]:
                qual = f"{layer}.{fname}"
                self.stats[qual] = [0, 0.0]
                self.depth[qual] = 0
                *owner_path, attr = fname.split(".")
                if owner_path:
                    owner = mod
                    for part in owner_path:
                        owner = getattr(owner, part)
                    orig = owner.__dict__.get(attr)
                    if orig is None:
                        continue
                    self._set(owner, attr, self._wrap(qual, orig), orig)
                    continue
                orig = getattr(mod, attr, None)
                if orig is None:
                    continue
                wrapper = self._wrap(qual, orig)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is orig:
                            self._set(m, key, wrapper, orig)

    def _set(self, owner, attr, wrapper, orig):
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def _wrap(self, qual, fn):
        t = self
        stats = self.stats[qual]
        depth = self.depth
        hook = self._hooks.get(qual)
        layer, _, fname = qual.partition(".")
        if layer == "kernel_py" and fname in _KERNEL_LISTS:
            hook = self._on_kernel_list if fname != "pl_sub" else self._on_pl_sub
        on_error = self._on_error if qual == "conjugator.approx_conjugator" else None

        def traced(*args, **kwargs):
            if not t.active:
                return fn(*args, **kwargs)
            stack = t._stack
            sid = t._next_id
            t._next_id = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            depth[qual] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as err:
                if on_error is not None:
                    on_error(err)
                raise
            finally:
                end = perf_counter()
                stack.pop()
                depth[qual] -= 1
                dur = end - start
                stats[0] += 1
                stats[1] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if len(t.spans) < t.span_cap:
                    t.spans.append((sid, qual, start - t._t0, end - t._t0, parent))
                else:
                    t.spans_dropped += 1
            if hook is not None:
                h0 = perf_counter()
                hook(result)
                if stack:
                    stack[-1][1] += perf_counter() - h0
            return result

        traced.__wrapped__ = fn
        return traced

    # ------------------------------------------------------------ counters

    def _count(self, name, n=1):
        self.counters[name] += n

    def _on_kernel_list(self, bps):
        self.counters["kernel_py.bps_out"] += len(bps)
        bits = max((max(p[1].bit_length(), p[3].bit_length()) for p in bps), default=0)
        if bits > self.counters["kernel_py.max_den_bits"]:
            self.counters["kernel_py.max_den_bits"] = bits

    def _on_pl_sub(self, bps):
        self._on_kernel_list(bps)
        if self.depth["knaster.diag_dist"]:
            self.counters["knaster.diag_dist.levels"] += 1

    def _on_diag_dist(self, dist):
        width = dist.upper - dist.lower
        if width > 0:
            self.cert_widths.append(
                math.log2(width.denominator) - math.log2(width.numerator)
            )
        if self.depth["lemmas.certify_mod_bound"]:
            self.counters["lemmas.certify_mod_bound.truncations"] += 1

    def _on_sup_dist(self, _):
        if any(self.depth[name] for name in _SYNTHESES):
            self.counters["conjugator.postchecks"] += 1

    def _on_synthesis(self, h):
        if not any(self.depth[name] for name in _SYNTHESES):
            self.counters["conjugator.syntheses"] += 1
            self.counters["conjugator.conjugator_bps"] += len(h._kbps)

    def _on_error(self, err):
        if type(err).__name__ == "OrbitCapError":
            self.counters["conjugator.orbit_cap_errors"] += 1

    def _on_report(self, report):
        self.counters["experiments.trials"] += len(report.outcomes)
        self.counters["experiments.trials_failed"] += report.failed
        self.counters["experiments.density_gap_trials"] += sum(
            1 for o in report.outcomes
            if o.details.get("sup_gap") not in (None, "0")
        )

    # ------------------------------------------------------------ output

    def metrics(self):
        """Every per-layer metric by name, as {"value", "unit"}."""
        syntheses = self.counters["conjugator.syntheses"]
        derived = {
            "conjugator.postchecks_per_synthesis":
                self.counters["conjugator.postchecks"] / syntheses if syntheses else 0.0,
            "knaster.diag_dist.cert_width_bits":
                statistics.median(self.cert_widths) if self.cert_widths else 0.0,
        }
        out = {}
        for name, unit, _ in layer_metric_specs():
            qual, _, kind = name.rpartition(".")
            if name in derived:
                value = derived[name]
            elif kind == "calls" and qual in self.stats:
                value = self.stats[qual][0]
            elif kind == "self_s" and qual in self.stats:
                value = self.stats[qual][1]
            else:
                value = self.counters[name]
            out[name] = {"value": value, "unit": unit}
        return out

    def module_table(self):
        """Lines of a per-layer table: calls and self time summed over functions."""
        totals = {}
        for qual, (calls, self_s) in self.stats.items():
            row = totals.setdefault(qual.partition(".")[0], [0, 0.0])
            row[0] += calls
            row[1] += self_s
        lines = [f"  {'layer':<12} {'calls':>10} {'self_s':>10}"]
        for layer, (calls, self_s) in totals.items():
            lines.append(f"  {layer:<12} {calls:>10} {self_s:>10.4f}")
        return lines

    def write_spans(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for sid, name, start, end, parent in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
