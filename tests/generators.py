"""Seeded generators that only the tests draw from.

Like those in knaster_lab.randgen, each takes an explicit random.Random.
The fraction_* generators are randgen's generators as they were before
they moved onto kernel lists: each builds its map from Fraction
breakpoints through the validating PLHomeo constructor. They are the
oracle that tests/test_randgen_oracle.py compares randgen against, map
for map and stream for stream.
"""

from fractions import Fraction

from knaster_lab.plmap import OpenPLMap, PLHomeo
from knaster_lab.randgen import rand_homeo, rand_partition


def rand_open_map(rng, deg, den=32, lap_interior=2, start_up=None):
    """Random open PL map with exactly ``deg`` monotone laps.

    Each lap is an independent random homeomorphism squeezed into its lap
    box, rising and falling alternately. ``start_up`` pins whether the
    first lap rises (maps 0 to 0); None picks at random.
    """
    turns = rand_partition(rng, deg - 1, den)
    rising = rng.choice([True, False]) if start_up is None else start_up
    points = []
    for j in range(deg):
        a, b = turns[j], turns[j + 1]
        h = rand_homeo(rng, rng.randint(0, lap_interior), den)
        lap_pts = [
            (a + (b - a) * x, y if rising else 1 - y) for x, y in h.breakpoints
        ]
        points.extend(lap_pts if j == 0 else lap_pts[1:])
        rising = not rising
    return OpenPLMap(points)


def rand_sign_list(rng, k):
    """k signs, each +1 or -1."""
    return [rng.choice([1, -1]) for _ in range(k)]


def fraction_rand_partition(rng, interior, den=64):
    """0 = x_0 < ... < x_{interior+1} = 1 on the grid of denominator den."""
    if interior > den - 1:
        raise ValueError("grid too coarse for that many interior points")
    cuts = rng.sample(range(1, den), interior)
    cuts.sort()
    return [Fraction(0)] + [Fraction(c, den) for c in cuts] + [Fraction(1)]


def fraction_rand_homeo(rng, max_interior=10, den=64):
    """Random increasing PL homeomorphism fixing 0 and 1."""
    m = rng.randint(0, max_interior)
    xs = fraction_rand_partition(rng, m, den)
    ys = fraction_rand_partition(rng, m, den)
    return PLHomeo(list(zip(xs, ys)))


def fraction_rand_signature_homeo(rng, signs, den=64):
    """One bump per gap, displaced by a quarter of the gap width."""
    k = len(signs)
    if k == 0:
        return PLHomeo([(Fraction(0), Fraction(0)), (Fraction(1), Fraction(1))])
    cuts = fraction_rand_partition(rng, k - 1, max(den, 2 * k))
    pts = [(Fraction(0), Fraction(0))]
    for i, s in enumerate(signs):
        a, b = cuts[i], cuts[i + 1]
        m = (a + b) / 2
        pts.append((m, m + s * (b - a) / 4))
        pts.append((b, b))
    return PLHomeo(pts)


def fraction_perturb_homeo(f, x0, y0):
    """Homeo equal to f except forced through (x0, y0)."""
    x0, y0 = Fraction(x0), Fraction(y0)
    if not (0 < x0 < 1 and 0 < y0 < 1):
        raise ValueError("forced point must be interior")
    kept = [
        (x, y)
        for x, y in f.breakpoints
        if (x < x0 and y < y0) or (x > x0 and y > y0)
    ]
    return PLHomeo(sorted(kept + [(x0, y0)]))


def fraction_nudge_homeo(f, x0, amt):
    """Homeo at sup distance exactly |amt| from f, peaked at x0."""
    x0, amt = Fraction(x0), Fraction(amt)
    if not 0 < x0 < 1:
        raise ValueError("nudge point must be interior")
    y = f(x0) + amt
    left = [(x, v) for x, v in f.breakpoints if x < x0]
    right = [(x, v) for x, v in f.breakpoints if x > x0]
    if not (left[-1][1] < y < right[0][1]):
        raise ValueError("no monotone room for that nudge")
    return PLHomeo(left + [(x0, y)] + right)


def fraction_rand_nudge(rng, f, bound, den=16):
    """A pair (h, amount) with sup_dist(f, h) = |amount| < bound."""
    bps = f.breakpoints
    i = rng.randrange(len(bps) - 1)
    x0 = (bps[i][0] + bps[i + 1][0]) / 2
    y0 = f(x0)
    room = min(y0 - bps[i][1], bps[i + 1][1] - y0)
    mag = min(Fraction(bound), room) * Fraction(rng.randint(1, den - 1), 2 * den)
    amt = mag if rng.random() < 0.5 else -mag
    return fraction_nudge_homeo(f, x0, amt), amt
