"""Tent maps, block sums, the alternating extension, and straightening.

The degree-d tent map folds [0,1] through d full laps on the uniform grid.
``block_sum`` glues n maps into the n blocks [i/n, (i+1)/n], each copy
affinely squeezed; ``oplus_power(g, d)`` is the block sum of d copies of g
alternating with its reflection, which is exactly the map that the degree-d
tent semiconjugates onto g:

    g ∘ tent(d) == tent(d) ∘ oplus_power(g, d)

Its seams never kink: the reflection x -> 1 - g(1 - x) starts with the
slope g ends with and ends with the slope g starts with, so at every seam
i/d the segments of the two blocks meeting there have equal slopes.

``straighten`` produces the homeomorphism h with g ∘ h == f for two open
maps of the same degree starting at the same endpoint value, by matching
laps and transporting each lap of f through the inverse of the matching
lap of g.
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd

from . import _kernel_py as _k
from .plmap import OpenPLMap, PLHomeo, PLMap, compose

# Largest map tent, oplus_power, knaster.lift and grid_block_conjugate will
# build, and longest stalk knaster.extend_point will; each checks its predicted
# size before allocating, and experiments.SUITE_SIZE each campaign config.
MAX_BREAKPOINTS = 10**6


def check_size(size, what, unit="breakpoints"):
    """Refuse (ValueError) to build more than MAX_BREAKPOINTS of unit."""
    if size > MAX_BREAKPOINTS:
        raise ValueError(
            f"{what} needs up to {size} {unit}, "
            f"more than the limit {MAX_BREAKPOINTS}"
        )


def oplus_size(g, d):
    """Bound on the breakpoints of oplus_power(g, d): (|g| - 1)·d + 1."""
    return (len(g._kbps) - 1) * d + 1


# few degrees recur (the schedule primes, small d); a campaign sweeping
# d = 1..d_max must not keep every tent it built
@lru_cache(maxsize=32)
def tent(d):
    """The standard degree-d tent map (d + 1 breakpoints)."""
    if d < 1:
        raise ValueError("degree must be a positive integer")
    check_size(d + 1, f"tent({d})")
    pts = []
    for m in range(d + 1):
        xn, xd = _k.rnorm(m, d)
        pts.append((xn, xd, m & 1, 1))
    return OpenPLMap._from_kernel(_k.canonical(pts))


def tent_value(d, x):
    """tent(d)(x) as a Fraction, without building the map (see tent_fold)."""
    return Fraction(*tent_fold(d, x.numerator, x.denominator))


def tent_fold(d, xn, xd):
    """tent(d)(xn/xd) as a kernel pair, in lowest terms when xn/xd is.

    The lap index is k = floor(d*x); even laps rise from 0, odd laps
    fall from 1, and x = 1 lands on the closing value d mod 2. Only a
    factor of d can cancel from the remainder d*x - k.
    """
    u = d * xn
    k = u // xd
    if k == d:
        return k & 1, 1
    r = u - k * xd
    if k & 1:
        r = xd - r
    g = gcd(r, xd)
    return r // g, xd // g


def block_sum(maps):
    """Glue maps into equal blocks along the diagonal.

    Block i of n carries maps[i] via x -> (i + x)/n in both coordinates,
    so adjacent blocks meet only when each map ends where the next begins
    (always true for homeomorphisms fixing 0 and 1).
    """
    n = len(maps)
    if n == 0:
        raise ValueError("need at least one block")
    pieces = []
    for i, g in enumerate(maps):
        pieces.append(
            _k.affine_image(g._kbps, (1, n), (i, n), (1, n), (i, n))
        )
    kb = _k.concat(pieces)
    if all(isinstance(g, PLHomeo) for g in maps):
        return PLHomeo._from_kernel(kb)
    return PLMap._from_kernel(kb)


def oplus_power(g, d):
    """Block sum of d copies of g, every odd block reflected; g must fix 0 and 1.

    One pass, with no seam point (see the module docstring): block i sends
    n/den to (n + i·den)/(d·den), where only a factor of d can cancel.
    """
    kb = g._kbps
    if d < 1:
        raise ValueError("degree must be a positive integer")
    if kb[0][2] != 0 or kb[-1][2] != kb[-1][3]:
        raise ValueError("oplus_power needs a map fixing 0 and 1")
    check_size(oplus_size(g, d), f"oplus_power of degree {d}")
    inner = kb[1:-1]
    blocks = (inner, [(xd - xn, xd, yd - yn, yd) for xn, xd, yn, yd in inner[::-1]])
    pts = [(0, 1, 0, 1)]
    for i in range(d):
        for xn, xd, yn, yd in blocks[i % 2]:
            xn, yn = xn + i * xd, yn + i * yd
            gx, gy = gcd(xn, d), gcd(yn, d)
            pts.append((xn // gx, d * xd // gx, yn // gy, d * yd // gy))
    pts.append((1, 1, 1, 1))
    return (PLHomeo if isinstance(g, PLHomeo) else PLMap)._from_kernel(pts)


def verify_semiconjugacy(g, d):
    """Exact check of g ∘ tent(d) == tent(d) ∘ oplus_power(g, d).

    The two sides are equal exactly when the sup of their difference is
    0, and compose_pair_sup walks both together without building either.
    """
    t = tent(d)._kbps
    return _k.compose_pair_sup(g._kbps, t, t, oplus_power(g, d)._kbps)[0] == 0


def straighten(f, g):
    """The homeomorphism h with g ∘ h == f, for lap-aligned open maps.

    Requires equal degree and f(0) == g(0); then lap j of f runs between
    the same pair of endpoint values as lap j of g, and h is defined on
    lap j as (g restricted to its lap)^-1 ∘ (f restricted to its lap).
    """
    if not isinstance(f, OpenPLMap) or not isinstance(g, OpenPLMap):
        raise TypeError("straighten expects open maps")
    laps_f = f.laps()
    laps_g = g.laps()
    if len(laps_f) != len(laps_g):
        raise ValueError("degree mismatch")
    if f(0) != g(0):
        raise ValueError("maps must start at the same endpoint value")
    pieces = []
    for (af, bf, _), (ag, bg, _) in zip(laps_f, laps_g):
        pf = _k.restrict(
            f._kbps,
            (af.numerator, af.denominator),
            (bf.numerator, bf.denominator),
        )
        pg = _k.restrict(
            g._kbps,
            (ag.numerator, ag.denominator),
            (bg.numerator, bg.denominator),
        )
        pieces.append(_k.compose(_k.invert(pg), pf))
    h = PLHomeo._from_kernel(_k.concat(pieces))
    if compose(g, h) != f:
        raise AssertionError("straightening failed its exact post-check")
    return h
