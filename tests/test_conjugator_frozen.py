"""Conjugator breakpoints, frozen bit for bit.

FROZEN was recorded from approx_conjugator before its glue moved onto
kernel pairs, and before the orbit tail was seamed onto its chord. It is
checked with the seamless tail of tests/test_conjugator_oracle.py patched
in, so everything else in the construction stays pinned to it.
FROZEN_SEAM was recorded when the seam came in. Both were recorded when
every build ran at eta_cap = η/2 and squeeze pieces were eta_cap/(k+3)
wide, so both are checked with that budget patched in (old_budget).
FROZEN_BUDGET was recorded when caps and seams took all of η on a pair
with no squeeze window and squeeze pieces eta_cap/(k+1), and pins the
construction as it runs. Any change that moves one breakpoint changes a
hash, so a refactor that claims the same answers must keep all three.
Each pair runs as given and reflected, at three tolerances.
"""

import hashlib
from fractions import Fraction as F

import knaster_lab.conjugator as conjugator
from knaster_lab import PLHomeo, reflect
from knaster_lab.conjugator import approx_conjugator

from test_conjugator_oracle import seamless_affine_tail

ETAS = (F(1, 100), F(1, 1000), F(1, 10000))

# both maps meet the diagonal at a point between their two gaps
REGULAR = (
    PLHomeo([(0, 0), (F(1, 4), F(3, 8)), (F(1, 2), F(1, 2)), (F(3, 4), F(5, 8)), (1, 1)]),
    PLHomeo([(0, 0), (F(1, 3), F(1, 2)), (F(3, 5), F(3, 5)), (F(4, 5), F(7, 10)), (1, 1)]),
)
# g pauses on [1/2, 51/100] where f only touches the diagonal: the squeeze
# glue; the pause is short so that eta 1/10000 stays cheap
SQUEEZE = (
    PLHomeo([(0, 0), (F(1, 4), F(3, 8)), (F(1, 2), F(1, 2)), (F(3, 4), F(7, 8)), (1, 1)]),
    PLHomeo(
        [
            (0, 0),
            (F(1, 8), F(1, 4)),
            (F(1, 2), F(1, 2)),
            (F(51, 100), F(51, 100)),
            (F(4, 5), F(7, 8)),
            (1, 1),
        ]
    ),
)
# the reverse: g pinches where f pauses, and the caps absorb the f-gap
PINCH = SQUEEZE[::-1]
# f pauses on [0, 1/100] where g only touches: a pinch at the end 0 one
# way round, a squeeze there the other
BOUNDARY = (
    PLHomeo([(0, 0), (F(1, 100), F(1, 100)), (F(1, 2), F(5, 8)), (1, 1)]),
    PLHomeo([(0, 0), (F(1, 2), F(7, 8)), (1, 1)]),
)
# rand_homeo draws of equal signature, where orbit pieces straddle kinks
RANDOM = [
    (
        PLHomeo([(0, 0), (F(19, 64), F(23, 32)), (F(15, 16), F(49, 64)), (1, 1)]),
        PLHomeo(
            [
                (0, 0),
                (F(3, 64), F(13, 64)),
                (F(1, 8), F(1, 2)),
                (F(9, 32), F(35, 64)),
                (F(33, 64), F(41, 64)),
                (F(31, 32), F(29, 32)),
                (1, 1),
            ]
        ),
    ),
    (
        PLHomeo(
            [
                (0, 0),
                (F(11, 32), F(1, 16)),
                (F(7, 16), F(11, 64)),
                (F(29, 64), F(15, 64)),
                (F(25, 32), F(35, 64)),
                (F(51, 64), F(63, 64)),
                (1, 1),
            ]
        ),
        PLHomeo(
            [
                (0, 0),
                (F(13, 32), F(21, 64)),
                (F(29, 64), F(43, 64)),
                (F(11, 16), F(25, 32)),
                (F(53, 64), F(27, 32)),
                (F(29, 32), F(15, 16)),
                (F(15, 16), F(63, 64)),
                (1, 1),
            ]
        ),
    ),
]
PAIRS = [REGULAR, SQUEEZE, PINCH, BOUNDARY, BOUNDARY[::-1], *RANDOM]

FROZEN = "9b57bdd9ddee8c376e17d7a42f9bfe4e743d8ec435917eab812ab68d2288b129"
FROZEN_SEAM = "16c28388c0bcf46097df9fe280f9b3f0dc08a7086bad8a3c44d738368cfd9b2c"
FROZEN_BUDGET = "6a3ae1a567dd74fe88d991a6b8d6e65e123cc873edad25a161d03bbde9ba4a96"


def conjugators_digest():
    """sha256 over every conjugator's kernel breakpoints, in hex."""
    digest = hashlib.sha256()
    for f, g in PAIRS:
        for ff, gg in ((f, g), (reflect(f), reflect(g))):
            for eta in ETAS:
                for p in approx_conjugator(ff, gg, eta)._kbps:
                    digest.update((",".join(format(v, "x") for v in p) + ";").encode())
                digest.update(b"|")
    return digest.hexdigest()


def old_budget(monkeypatch):
    """Patch in the budget before it was spent per cell.

    Every pair runs at eta_cap = η/2, and squeeze pieces are eta_cap/(k+3)
    wide: _half_squeeze divides by 1 + bitlen(ratio + 1), and a slope
    bound of 4·(ratio + 1) - 1 adds 2 to that bit length.
    """
    slope_bound = conjugator._slope_bound

    def half_eta(eta, f_ivs, g_ivs):
        return conjugator._k.rnorm(eta.numerator, 2 * eta.denominator)

    monkeypatch.setattr(conjugator, "_cap_margin", half_eta)
    monkeypatch.setattr(
        conjugator, "_slope_bound", lambda *args: 4 * (slope_bound(*args) + 1) - 1
    )


def test_conjugator_breakpoints_are_frozen(monkeypatch):
    old_budget(monkeypatch)
    monkeypatch.setattr(conjugator, "_affine_tail", seamless_affine_tail)
    assert conjugators_digest() == FROZEN


def test_seamed_conjugator_breakpoints_are_frozen(monkeypatch):
    old_budget(monkeypatch)
    assert conjugators_digest() == FROZEN_SEAM


def test_budgeted_conjugator_breakpoints_are_frozen():
    assert conjugators_digest() == FROZEN_BUDGET
