"""The benchmark's three workloads: seeded inputs, one operation, exact gate.

Each workload is built from ``(seed, workdir)`` and offers:

- ``cycle(i)``: the operations of cycle i. A run repeats whole cycles, so
  every run sees the same mix of operation kinds and sizes;
- ``warmup_ops()``: cheap operations run before timing starts;
- ``trace_ops()``: the fixed list the traced run measures, so its counts
  repeat exactly for a seed;
- ``reference(workdir)``: a workload built from the fixed reference seed
  and the operations whose algorithm-independent answers are digested
  against ``expected.json``;
- ``run(op)``: the operation, calling the program through its modules so
  the tracer's wrappers see it;
- ``check(op, out)``: ``(problem or None, fields)``. The problem says why
  the answer is wrong, found by exact recomputation; ``fields`` are the
  answer's algorithm-independent parts that go into the digest;
- ``properties(done)``: report lines about the operations run.
"""

import io
import json
import math
import random
import statistics
from collections import Counter, namedtuple
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

from knaster_lab import cli, conjugator, knaster
from knaster_lab.plmap import PLHomeo, compose, sup_dist
from knaster_lab.randgen import rand_homeo, rand_partition
from knaster_lab.rational import format_rational
from knaster_lab.signatures import fixed_intervals, signature, signature_to_string
from knaster_lab.tents import oplus_power

REFERENCE_SEED = 0


def _shuffled(rng, ops):
    ops = list(ops)
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------- tower

TowerOp = namedtuple("TowerOp", "schedule N F G")

TOWER_LEVELS = {"diagonal": range(2, 9), "all2": range(2, 11)}
TOWER_BASES = ((0, 0), (1, 2), (0, 3))
# levels whose operations cost near the median one; they get a second
# set of sizes, so the median latency does not hang on a few operations
TOWER_MID_LEVELS = {"diagonal": (4, 5), "all2": (5, 6, 7)}


def _tower_design(schedule, n):
    """(base coordinates, interior breakpoints) of each (F, G) at level n.

    diag_dist materializes p_1...p_N times the inducer's breakpoints, so
    the deepest levels get the smallest inducers and a cycle stays a few
    seconds long on one core. The sizes are fixed, only the breakpoints
    are random, so every cycle costs about the same.
    """
    cap = {0: 2, 1: 3, 2: 4}.get(max(TOWER_LEVELS[schedule]) - n, 6)
    mid = (cap + 1) // 2
    sizes = [(1, cap), (cap, 1), (mid, mid)]
    if n in TOWER_MID_LEVELS[schedule]:
        sizes += [(2, 2), (1, 3), (3, 1)]
    bases = TOWER_BASES * 2
    return [(b, m) for b, m in zip(bases, sizes) if max(b) <= n]


def _homeo(rng, interior):
    return PLHomeo(list(zip(rand_partition(rng, interior), rand_partition(rng, interior))))


class Tower:
    """diag_dist(F, G, N, P) on random inducer pairs, every (schedule, N, base)."""

    name = "tower"

    def __init__(self, seed, workdir=None, cycles=8):
        rng = random.Random(f"tower:{seed}")
        self.schedules = {s: knaster.PrimeSequence(s) for s in TOWER_LEVELS}
        self.cycles = [self._make_cycle(rng) for _ in range(cycles)]
        self.width_bits = []

    def _make_cycle(self, rng):
        ops = []
        for schedule, levels in TOWER_LEVELS.items():
            P = self.schedules[schedule]
            for n in levels:
                for (bf, bg), (mf, mg) in _tower_design(schedule, n):
                    while True:
                        F = knaster.DiagonalHomeo(bf, _homeo(rng, mf))
                        G = knaster.DiagonalHomeo(bg, _homeo(rng, mg))
                        if not knaster.diagonal_equal(F, G, P):
                            break
                    ops.append(TowerOp(schedule, n, F, G))
        return _shuffled(rng, ops)

    def cycle(self, i):
        return self.cycles[i % len(self.cycles)]

    def warmup_ops(self):
        return [op for op in self.cycles[0] if op.N == 2]

    def trace_ops(self):
        return self.cycles[0]

    @classmethod
    def reference(cls, workdir):
        ref = cls(REFERENCE_SEED, cycles=1)
        return ref, [op for op in ref.cycles[0]
                     if op.N <= max(TOWER_LEVELS[op.schedule]) - 3]

    def run(self, op):
        return knaster.diag_dist(op.F, op.G, op.N, self.schedules[op.schedule])

    def check(self, op, d):
        P = self.schedules[op.schedule]
        fields = [op.schedule, op.N, op.F.base_coord, op.G.base_coord,
                  format_rational(d.lower)]
        if d.truncation != op.N:
            return f"truncation {d.truncation} != {op.N}", fields
        if not d.lower <= d.upper:
            return "lower > upper", fields
        width = d.upper - d.lower
        if width > P.tail_bound(op.N):
            return "upper - lower exceeds the tail bound", fields
        if width > 0:
            self.width_bits.append(math.log2(width.denominator) - math.log2(width.numerator))
        w = d.witness
        if w is None or w.truncation != op.N:
            return "no witness stalk at the truncation", fields
        knaster.validate_point(w, P)  # raises on an incoherent stalk
        ya = knaster.eval_diagonal(op.F, w, P)
        yb = knaster.eval_diagonal(op.G, w, P)
        if knaster.knaster_dist(ya, yb, P).lower != d.lower:
            return "truncated metric at the witness differs from lower", fields
        return None, fields

    def properties(self, done):
        by_schedule = Counter(op.schedule for op, _ in done)
        by_n = Counter(f"{op.schedule[0]}{op.N}" for op, _ in done)
        return [
            "tower operations by schedule: "
            + ", ".join(f"{k}={v}" for k, v in sorted(by_schedule.items())),
            "tower operations by N (d=diagonal, a=all2): "
            + ", ".join(f"{k}={by_n[k]}" for k in sorted(by_n, key=lambda k: (k[0], int(k[1:])))),
        ] + ([f"cert_width_bits: {statistics.median(self.width_bits)} bits "
              "(median of -log2(upper - lower))"] if self.width_bits else [])


# ------------------------------------------------------------ synthesis

SynthOp = namedtuple("SynthOp", "kind f g eta d squeeze signs")

SYNTH_ETAS = (Fraction(1, 100), Fraction(1, 1000), Fraction(1, 10000))
SQUEEZE_ETA = Fraction(1, 100)
GRID_ETA = Fraction(1, 100)
MULTIPLIER_MARGIN = Fraction(11, 10)
# a cycle takes one group, so a run ends within a few seconds of --seconds
# and still sees every pair about twice
SYNTH_GROUPS = 4


def _gap_end_slopes(h, ivs):
    """Slopes of h just inside each end of each non-fixed gap."""
    pts = h.breakpoints
    slopes = []
    for k in range(len(ivs) - 1):
        a, b = ivs[k][1], ivs[k + 1][0]
        for i in range(len(pts) - 1):
            (x0, y0), (x1, y1) = pts[i], pts[i + 1]
            if x0 <= a < x1 or x0 < b <= x1:
                slopes.append((y1 - y0) / (x1 - x0))
    return slopes


def _hyperbolic(h, ivs):
    m = MULTIPLIER_MARGIN
    return all(s >= m or s <= 1 / m for s in _gap_end_slopes(h, ivs))


def _squeeze(ivs_f, ivs_g):
    """g pauses on an interval where f has a single fixed point."""
    return any(a == b and c != d for (a, b), (c, d) in zip(ivs_f, ivs_g))


class Synthesis:
    """approx_conjugator on equal-signature rand_homeo pairs, plus a few blockwise ops.

    Each draw is a rand_homeo; a draw pairs with the waiting earlier draw of
    the same signature, if any. Draws with an empty signature, or with a
    fixed point whose multiplier lies strictly between 10/11 and 11/10, are
    skipped: their orbit transport needs hundreds of steps and one such operation
    takes up to 2 s. Squeeze pairs (g pauses where f has a single fixed
    point) run at eta = 1/100 only: at 1/1000 one takes up to 13 s, at
    1/100000 up to 115 s. ``skipped`` counts the draws left out.
    """

    name = "synthesis"

    def __init__(self, seed, workdir=None, regular=640, squeeze=80, grid=16):
        rng = random.Random(f"synthesis:{seed}")
        pairs = {False: [], True: []}
        want = {False: regular, True: squeeze}
        waiting = {}
        self.drawn = self.skipped = 0
        while len(pairs[False]) < regular or len(pairs[True]) < squeeze:
            h = rand_homeo(rng)
            self.drawn += 1
            ivs = fixed_intervals(h)
            signs = signature(h)
            if not signs or not _hyperbolic(h, ivs):
                self.skipped += 1
                continue
            key = signature_to_string(signs)
            mate = waiting.pop(key, None)
            if mate is None or mate[0] == h:
                waiting[key] = (h, ivs)
                continue
            sq = _squeeze(mate[1], ivs)
            if len(pairs[sq]) < want[sq]:
                pairs[sq].append((mate[0], h, key))
        # pair i's operations belong to group i % SYNTH_GROUPS
        ops = []
        self.groups = [[] for _ in range(SYNTH_GROUPS)]
        for i, (f, g, key) in enumerate(pairs[False]):
            for eta in SYNTH_ETAS:
                ops.append(SynthOp("approx", f, g, eta, None, False, key))
                self.groups[i % SYNTH_GROUPS].append(ops[-1])
        for i, (f, g, key) in enumerate(pairs[True]):
            ops.append(SynthOp("approx", f, g, SQUEEZE_ETA, None, True, key))
            self.groups[i % SYNTH_GROUPS].append(ops[-1])
        for i, (f, g, key) in enumerate(pairs[False][:grid]):
            d = 2 + i % 2
            ops.append(SynthOp("grid", f, oplus_power(g, d), GRID_ETA, d, False, key))
            self.groups[i % SYNTH_GROUPS].append(ops[-1])
        self.ops = ops
        self._rng = rng
        self._cycles = []

    def cycle(self, i):
        """One group of pairs, shuffled: a quarter of the inputs, every kind of operation."""
        while len(self._cycles) <= i:
            group = self.groups[len(self._cycles) % SYNTH_GROUPS]
            self._cycles.append(_shuffled(self._rng, group))
        return self._cycles[i]

    def warmup_ops(self):
        return [op for op in self.ops if op.eta == SYNTH_ETAS[0]][:3]

    def trace_ops(self):
        return self.cycle(0)

    @classmethod
    def reference(cls, workdir):
        ref = cls(REFERENCE_SEED, regular=12, squeeze=3, grid=2)
        return ref, ref.ops

    def run(self, op):
        if op.kind == "grid":
            return conjugator.grid_block_conjugate(op.f, op.d, op.g, op.eta)
        return conjugator.approx_conjugator(op.f, op.g, op.eta)

    def check(self, op, h):
        fields = [op.kind, op.signs, format_rational(op.eta), op.d, op.squeeze]
        if not isinstance(h, PLHomeo):
            return "conjugator is not an increasing homeomorphism", fields
        f, target = op.f, op.g
        if op.kind == "grid":
            for i in range(op.d + 1):
                if h(Fraction(i, op.d)) != Fraction(i, op.d):
                    return f"blockwise conjugator moves grid point {i}/{op.d}", fields
            f = oplus_power(op.f, op.d)
        achieved = sup_dist(compose(compose(h.invert(), f), h), target)
        fields.append(achieved < op.eta)
        if not achieved < op.eta:
            return f"sup_dist(h^-1 f h, g) = {achieved} is not below {op.eta}", fields
        return None, fields

    def properties(self, done):
        total = sum(t for _, t in done)
        sq = [t for op, t in done if op.squeeze]
        return [
            f"synthesis squeeze-path share: {len(sq) / len(done):.4f} of operations, "
            f"{sum(sq) / total:.4f} of operation time",
            f"synthesis draws: {self.drawn}, skipped (empty signature or a "
            f"multiplier strictly between 10/11 and 11/10): {self.skipped}",
        ]


# ------------------------------------------------------------ campaigns

CampaignOp = namedtuple("CampaignOp", "argv trials")

VERIFY_SUITES = ("semiconj", "oplus-scaling", "grid-fix", "mod-bound",
                 "tent-witness", "separation", "comod", "signature-laws")
DENSITY_PER_CYCLE = 2


class Campaigns:
    """knaster_lab.cli.main called in-process: every verify suite and density --m 2.

    Reports go to ``workdir/report.json``; the caller runs the workload
    with ``workdir`` as the current directory, so replay files the CLI
    writes on failure land there too.
    """

    name = "campaigns"

    def __init__(self, seed, workdir, trials=25):
        self.rng = random.Random(f"campaigns:{seed}")
        self.report = workdir / "report.json"
        self.workdir = workdir
        self.trials = trials
        self._cycles = []
        self.density_trials = self.density_gap_trials = 0

    def _argv(self, args):
        seed = self.rng.randrange(2**31)
        return CampaignOp(args + ["--seed", str(seed), "--trials", str(self.trials)],
                          self.trials)

    def cycle(self, i):
        while len(self._cycles) <= i:
            ops = [self._argv(["verify", s]) for s in VERIFY_SUITES]
            ops += [self._argv(["experiment", "density", "--m", "2"])
                    for _ in range(DENSITY_PER_CYCLE)]
            self._cycles.append(_shuffled(self.rng, ops))
        return self._cycles[i]

    def warmup_ops(self):
        return [CampaignOp(["verify", "grid-fix", "--seed", "1", "--trials", "1"], 1)]

    def trace_ops(self):
        return self.cycle(0) + self.cycle(1) + self.cycle(2)

    @classmethod
    def reference(cls, workdir):
        ref = cls(REFERENCE_SEED, workdir, trials=5)
        return ref, ref.cycle(0)

    def run(self, op):
        sink = io.StringIO()
        with redirect_stdout(sink), redirect_stderr(sink):
            return cli.main(op.argv + ["--output", str(self.report)])

    def check(self, op, rc):
        fields = [op.argv, rc]
        replays = sorted(self.workdir.glob("*-replay-*.json"))
        for path in replays:
            path.unlink()
        if not self.report.exists():
            return f"exit {rc} and no report", fields
        report = json.loads(self.report.read_text())
        self.report.unlink()
        summary = report["summary"]
        details = [t["details"] for t in report["trials"]]
        fields += [summary["trials"], summary["passed"],
                   sorted(d["signs"] for d in details if "signs" in d)]
        if "density" in op.argv:
            self.density_trials += summary["trials"]
            self.density_gap_trials += sum(
                1 for d in details if d.get("sup_gap") not in (None, "0"))
        if rc != 0 or replays:
            return f"exit {rc}, {len(replays)} replay files", fields
        if summary["trials"] != op.trials or summary["passed"] != op.trials:
            return f"passed {summary['passed']} of {summary['trials']} trials", fields
        return None, fields

    def properties(self, done):
        return [
            f"experiments.density_gap_trials: {self.density_gap_trials} of "
            f"{self.density_trials} density trials have sup_gap > 0",
        ]


WORKLOADS = {w.name: w for w in (Tower, Synthesis, Campaigns)}
