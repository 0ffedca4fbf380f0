"""Seeded random generators for maps, used by tests and the verify harness.

Every generator takes an explicit ``random.Random`` so campaigns are
reproducible: one campaign seed, one derived stream per trial (see
``derive_rng``). Denominators stay on a coarse grid so exact arithmetic
stays fast even after long composition chains.

The maps are built as kernel lists: integer grid cuts become
``(xn, xd, yn, yd)`` breakpoints directly, and the perturbations read and
edit ``f._kbps``, so no breakpoint passes through Fraction. The lists are
valid by construction (strictly increasing cuts, signs of 1 or -1, a
moved point kept inside its monotone room), so they enter ``PLHomeo``
through the trusted constructor. ``rand_partition`` alone returns
Fractions, for callers that want grid points rather than a map.
"""

import hashlib
import random
from fractions import Fraction

from . import _kernel_py as _k
from .plmap import PLHomeo, identity


def derive_rng(seed, *labels):
    """Independent child stream for (seed, labels), stable across runs."""
    text = str(seed) + "".join(f":{lab}" for lab in labels)
    digest = hashlib.sha256(text.encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _cuts(rng, interior, den):
    """interior sorted distinct integers in 1..den-1: grid numerators."""
    if interior > den - 1:
        raise ValueError("grid too coarse for that many interior points")
    cuts = rng.sample(range(1, den), interior)
    cuts.sort()
    return cuts


def rand_partition(rng, interior, den=64):
    """0 = x_0 < ... < x_{interior+1} = 1 on the grid of denominator den."""
    cuts = _cuts(rng, interior, den)
    return [Fraction(0)] + [Fraction(c, den) for c in cuts] + [Fraction(1)]


def rand_homeo(rng, max_interior=10, den=64):
    """Random increasing PL homeomorphism fixing 0 and 1.

    Refuses (ValueError) before drawing when the grid of denominator den
    cannot hold max_interior interior points, so the refusal does not
    depend on the seed.
    """
    if max_interior > den - 1:
        raise ValueError("grid too coarse for that many interior points")
    m = rng.randint(0, max_interior)
    xs = _cuts(rng, m, den)
    ys = _cuts(rng, m, den)
    kb = [(0, 1, 0, 1)]
    for cx, cy in zip(xs, ys):
        kb.append(_k.rnorm(cx, den) + _k.rnorm(cy, den))
    kb.append((1, 1, 1, 1))
    return PLHomeo._from_kernel(_k.canonical(kb))


def rand_signature_homeo(rng, signs, den=64):
    """Random homeo whose displacement signs on its non-fixed gaps are
    exactly ``signs``, with one degenerate fixed point between gaps.

    Each gap (a, b) gets a single bump through the midpoint m, displaced
    by a quarter of the gap width in the requested direction. Each sign
    must be 1 or -1.
    """
    k = len(signs)
    if any(s not in (1, -1) for s in signs):
        raise ValueError("signs must be 1 or -1")
    if k == 0:
        return identity()
    grid = max(den, 2 * k)
    cuts = [0] + _cuts(rng, k - 1, grid) + [grid]
    kb = [(0, 1, 0, 1)]
    for i, s in enumerate(signs):
        a, b = cuts[i], cuts[i + 1]
        # m = (a + b)/(2 grid) and m + s(b - a)/(4 grid), over 4 grid
        m4 = 2 * (a + b)
        kb.append(_k.rnorm(m4, 4 * grid) + _k.rnorm(m4 + s * (b - a), 4 * grid))
        bx = _k.rnorm(b, grid)
        kb.append(bx + bx)
    # a fixed point between bumps of opposite sign can be collinear
    return PLHomeo._from_kernel(_k.canonical(kb))


def perturb_homeo(f, x0, y0):
    """Homeo equal to f except forced through (x0, y0).

    Breakpoints of f on the wrong side of the new point are dropped, so
    the result can differ from f by more than |y0 - f(x0)| elsewhere;
    use nudge_homeo when the sup deviation must be exact.
    """
    x0, y0 = Fraction(x0), Fraction(y0)
    if not (0 < x0 < 1 and 0 < y0 < 1):
        raise ValueError("forced point must be interior")
    xn, xd, yn, yd = x0.numerator, x0.denominator, y0.numerator, y0.denominator
    left = []
    right = []
    for p in f._kbps:
        dx = p[0] * xd - xn * p[1]
        dy = p[2] * yd - yn * p[3]
        if dx < 0 and dy < 0:
            left.append(p)
        elif dx > 0 and dy > 0:
            right.append(p)
    return PLHomeo._from_kernel(_k.canonical(left + [(xn, xd, yn, yd)] + right))


def _nudged(kb, x, amt):
    """kb moved by amt at x and rejoined at the neighbouring breakpoints.

    x and amt are kernel pairs, x interior; ValueError without strict
    monotone room on both sides.
    """
    y = _k.radd(_k.eval_at(kb, x), amt)
    i = _k._locate(kb, x)
    left = kb[: i if kb[i][:2] == x else i + 1]
    right = kb[i + 1 :]
    if not (_k.rcmp(left[-1][2:], y) < 0 < _k.rcmp(right[0][2:], y)):
        raise ValueError("no monotone room for that nudge")
    return _k.canonical(left + [x + y] + right)


def nudge_homeo(f, x0, amt):
    """Homeo at sup distance exactly |amt| from f, peaked at x0.

    Moves the value at x0 by amt and rejoins f at the neighboring
    breakpoints; needs strict monotone room on both sides.
    """
    x0, amt = Fraction(x0), Fraction(amt)
    if not 0 < x0 < 1:
        raise ValueError("nudge point must be interior")
    kb = _nudged(
        f._kbps, (x0.numerator, x0.denominator), (amt.numerator, amt.denominator)
    )
    return PLHomeo._from_kernel(kb)


def rand_nudge(rng, f, bound, den=16):
    """A pair (h, amount) with sup_dist(f, h) = |amount| < bound.

    Picks a random segment midpoint of f and moves it by under half the
    available monotone room, capped by bound.
    """
    kb = f._kbps
    i = rng.randrange(len(kb) - 1)
    p, q = kb[i], kb[i + 1]
    x0 = _k.rnorm(p[0] * q[1] + q[0] * p[1], 2 * p[1] * q[1])
    # f is affine on the segment, so the room to either end is half its rise
    room = Fraction(q[2] * p[3] - p[2] * q[3], 2 * p[3] * q[3])
    mag = min(Fraction(bound), room) * Fraction(rng.randint(1, den - 1), 2 * den)
    amt = mag if rng.random() < 0.5 else -mag
    return PLHomeo._from_kernel(_nudged(kb, x0, (amt.numerator, amt.denominator))), amt
