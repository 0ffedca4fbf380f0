"""Random generators, frozen bit for bit.

The hash below was recorded from the generators when they still built
their maps from Fraction breakpoints, before they moved onto kernel pairs.
It covers every map drawn and the stream each draw leaves behind (one
rng.random() after every draw), so a change that moves one breakpoint, or
consumes the stream differently, changes it.
"""

import hashlib
import random
from fractions import Fraction as F

from knaster_lab.randgen import (
    nudge_homeo,
    perturb_homeo,
    rand_homeo,
    rand_nudge,
    rand_partition,
    rand_signature_homeo,
)

SEEDS = 2000

FROZEN = "ebc6d34ea2ff37a6e60912e1eb34c623e494bf36cb02d7fb3eb02ad986901cf8"


def _draws(seed):
    """The records of one seed: kernel lists, amounts and stream samples."""
    rng = random.Random(seed)
    f = rand_homeo(rng)
    yield f._kbps, rng.random()
    yield rand_homeo(rng, 4, 16)._kbps, rng.random()
    yield [(x.numerator, x.denominator) for x in rand_partition(rng, 3, 8)], rng.random()
    # 0 to 40 signs; past 32 the grid grows to 2k
    signs = [rng.choice((1, -1)) for _ in range(seed % 41)]
    s = rand_signature_homeo(rng, signs)
    yield s._kbps, rng.random()
    x0 = F(rng.randint(1, 127), 128)
    y0 = F(rng.randint(1, 127), 128)
    yield perturb_homeo(f, x0, y0)._kbps, rng.random()
    try:
        nudged = nudge_homeo(f, x0, F(rng.randint(-8, 8), 256))._kbps
    except ValueError:
        nudged = "refused"
    yield nudged, rng.random()
    h, amt = rand_nudge(rng, s, F(1, rng.randint(1, 50)))
    yield h._kbps, (amt.numerator, amt.denominator), rng.random()


def generators_digest():
    """sha256 over the records of SEEDS seeds, in hex."""
    digest = hashlib.sha256()
    for seed in range(SEEDS):
        for record in _draws(seed):
            digest.update(repr(record).encode())
    return digest.hexdigest()


def test_generator_draws_are_frozen():
    assert generators_digest() == FROZEN
