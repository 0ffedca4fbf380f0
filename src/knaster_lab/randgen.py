"""Seeded random generators for maps, used by tests and the verify harness.

Every generator takes an explicit ``random.Random`` so campaigns are
reproducible: one campaign seed, one derived stream per trial (see
``derive_rng``). Denominators stay on a coarse grid so exact arithmetic
stays fast even after long composition chains.
"""

import hashlib
import random
from fractions import Fraction

from .plmap import PLHomeo


def derive_rng(seed, *labels):
    """Independent child stream for (seed, labels), stable across runs."""
    text = str(seed) + "".join(f":{lab}" for lab in labels)
    digest = hashlib.sha256(text.encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def rand_partition(rng, interior, den=64):
    """0 = x_0 < ... < x_{interior+1} = 1 on the grid of denominator den."""
    if interior > den - 1:
        raise ValueError("grid too coarse for that many interior points")
    cuts = rng.sample(range(1, den), interior)
    cuts.sort()
    return [Fraction(0)] + [Fraction(c, den) for c in cuts] + [Fraction(1)]


def rand_homeo(rng, max_interior=10, den=64):
    """Random increasing PL homeomorphism fixing 0 and 1."""
    m = rng.randint(0, max_interior)
    xs = rand_partition(rng, m, den)
    ys = rand_partition(rng, m, den)
    return PLHomeo(list(zip(xs, ys)))


def rand_signature_homeo(rng, signs, den=64):
    """Random homeo whose displacement signs on its non-fixed gaps are
    exactly ``signs``, with one degenerate fixed point between gaps.

    Each gap (a, b) gets a single bump through the midpoint m, displaced
    by a quarter of the gap width in the requested direction.
    """
    k = len(signs)
    if k == 0:
        return PLHomeo([(Fraction(0), Fraction(0)), (Fraction(1), Fraction(1))])
    cuts = rand_partition(rng, k - 1, max(den, 2 * k))
    pts = [(Fraction(0), Fraction(0))]
    for i, s in enumerate(signs):
        a, b = cuts[i], cuts[i + 1]
        m = (a + b) / 2
        pts.append((m, m + s * (b - a) / 4))
        pts.append((b, b))
    return PLHomeo(pts)


def perturb_homeo(f, x0, y0):
    """Homeo equal to f except forced through (x0, y0).

    Breakpoints of f on the wrong side of the new point are dropped, so
    the result can differ from f by more than |y0 - f(x0)| elsewhere;
    use nudge_homeo when the sup deviation must be exact.
    """
    x0, y0 = Fraction(x0), Fraction(y0)
    if not (0 < x0 < 1 and 0 < y0 < 1):
        raise ValueError("forced point must be interior")
    kept = [
        (x, y)
        for x, y in f.breakpoints
        if (x < x0 and y < y0) or (x > x0 and y > y0)
    ]
    return PLHomeo(sorted(kept + [(x0, y0)]))


def nudge_homeo(f, x0, amt):
    """Homeo at sup distance exactly |amt| from f, peaked at x0.

    Moves the value at x0 by amt and rejoins f at the neighboring
    breakpoints; needs strict monotone room on both sides.
    """
    x0, amt = Fraction(x0), Fraction(amt)
    if not 0 < x0 < 1:
        raise ValueError("nudge point must be interior")
    y = f(x0) + amt
    left = [(x, v) for x, v in f.breakpoints if x < x0]
    right = [(x, v) for x, v in f.breakpoints if x > x0]
    if not (left[-1][1] < y < right[0][1]):
        raise ValueError("no monotone room for that nudge")
    return PLHomeo(left + [(x0, y)] + right)


def rand_nudge(rng, f, bound, den=16):
    """A pair (h, amount) with sup_dist(f, h) = |amount| < bound.

    Picks a random segment midpoint of f and moves it by under half the
    available monotone room, capped by bound.
    """
    bps = f.breakpoints
    i = rng.randrange(len(bps) - 1)
    x0 = (bps[i][0] + bps[i + 1][0]) / 2
    y0 = f(x0)
    room = min(y0 - bps[i][1], bps[i + 1][1] - y0)
    mag = min(Fraction(bound), room) * Fraction(rng.randint(1, den - 1), 2 * den)
    amt = mag if rng.random() < 0.5 else -mag
    return nudge_homeo(f, x0, amt), amt
