"""Machine speed, from a fixed pure-Python loop timed between operations.

The benchmark runs on shared hosts whose speed drifts by half or more
within seconds: an identical loop took 2.2 ms to 5.8 ms in neighbouring
30 ms windows on a 2-vCPU virtual machine, and its median over whole
minutes moved by 40%. Raw operation times carry that drift into every
time metric. So the benchmark times ``loop`` at most every ``EVERY_S`` seconds,
between operations and outside their timing, and scales each time by
``REFERENCE_LOOP_S`` over the loop's median time near that operation.
A reported time is then the time the operation would take on a machine
where the loop takes ``REFERENCE_LOOP_S``; both sides of the ratio slow
down together when the host does, and only the program moves it.

The loop uses the standard library alone (``fractions``, ``sorted``,
tuples), the same kinds of work the pure-Python kernel does, and none of
the program's code.
"""

from bisect import bisect_left, bisect_right
from fractions import Fraction
from statistics import median
from time import perf_counter

# the loop's median time on the machine the bounds were tuned on
# (2 vCPUs of a shared host, Python 3.11)
REFERENCE_LOOP_S = 0.003
EVERY_S = 0.05
# speed changes within tens of milliseconds, so only nearby samples count;
# wider windows tracked a repeated operation worse on that machine
WINDOW_S = 0.2


def loop():
    xs = [Fraction(i, 2 * i + 1) for i in range(1, 90)]
    for k in range(1, 4):
        acc = Fraction(0)
        ys = sorted(xs, key=lambda v: (v * k) % 1)
        for a, b in zip(xs, ys):
            acc += a * b - a
    pts = sorted((i * 7919 % 1009, i) for i in range(800))
    return acc, pts[-1]


class Speedometer:
    """Loop samples over a run, and the scale factor for any stretch of it."""

    def __init__(self):
        self.times = []  # midpoint of each sample, perf_counter seconds
        self.loops = []  # the sample's loop time
        t0 = perf_counter()
        for _ in range(3):  # the first calls run slower while Python warms up
            loop()
        self.spent = perf_counter() - t0

    def sample(self):
        t0 = perf_counter()
        loop()
        t1 = perf_counter()
        self.times.append((t0 + t1) / 2)
        self.loops.append(t1 - t0)
        self.spent += t1 - t0

    def due(self):
        """Sample if the last sample is older than ``EVERY_S``."""
        if not self.times or perf_counter() - self.times[-1] >= EVERY_S:
            self.sample()

    def factor(self, start, end):
        """REFERENCE_LOOP_S over the median loop time around [start, end].

        The samples taken within ``WINDOW_S`` of the stretch count, and at
        least the last one before it and the first one after it.
        """
        lo = bisect_left(self.times, start - WINDOW_S)
        hi = bisect_right(self.times, end + WINDOW_S)
        lo = min(lo, max(0, bisect_left(self.times, start) - 1))
        hi = max(hi, min(len(self.times), bisect_right(self.times, end) + 1))
        return REFERENCE_LOOP_S / median(self.loops[lo:hi])
