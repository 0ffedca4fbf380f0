"""Seeded generators that only the tests draw from.

Like those in knaster_lab.randgen, each takes an explicit random.Random.
"""

from knaster_lab.plmap import OpenPLMap
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
