"""The one-pass fixed-point structure against the two passes it replaced.

_kernel_py.fixed_structure reads the fixed intervals and the gap signs off
the breakpoints of h in one integer pass. The oracles below are the
straightforward versions: the fixed intervals come from walking the
breakpoints of pl_sub(h, id), and each gap's sign from evaluating h at the
gap's midpoint. Intervals must be bit-identical kernel pairs, and the
typed wrappers must return what the oracles return.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from knaster_lab import _kernel_py as _k
from knaster_lab.plmap import PLHomeo, identity, reflect
from knaster_lab.randgen import derive_rng, rand_homeo, rand_signature_homeo
from knaster_lab.signatures import fixed_intervals, signature
from knaster_lab.tents import oplus_power

from difference import pl_sub

F = Fraction
_ID = [(0, 1, 0, 1), (1, 1, 1, 1)]


def oracle_fixed_intervals(h):
    """Maximal closed intervals of fixed points, from the breakpoints of h - id."""
    diff = pl_sub(h._kbps, _ID)
    out = []
    cur_left = None
    prev_zero_x = None

    def flush():
        nonlocal cur_left, prev_zero_x
        if cur_left is not None:
            out.append((cur_left, prev_zero_x))
            cur_left = None
            prev_zero_x = None

    n = len(diff)
    for i in range(n):
        xn, xd, yn, _ = diff[i]
        x = Fraction(xn, xd)
        if yn == 0:
            if cur_left is None:
                cur_left = x
            prev_zero_x = x
            continue
        # nonzero value at this breakpoint: close any open run strictly
        # before it, then look for an isolated crossing inside the segment
        flush()
        if i + 1 < n:
            q = diff[i + 1]
            if q[2] != 0 and (yn > 0) != (q[2] > 0):
                r = _k.segment_root(
                    (xn, xd), (q[0], q[1]), (yn, diff[i][3]), (q[2], q[3])
                )
                out.append((Fraction(*r), Fraction(*r)))
    flush()
    return out


def oracle_gap_signs(h, ivs):
    """Sign of h - id at the midpoint of each gap between the intervals ivs."""
    signs = []
    for k in range(len(ivs) - 1):
        a = ivs[k][1]
        b = ivs[k + 1][0]
        mid = (a + b) / 2
        signs.append(1 if h(mid) > mid else -1)
    return signs


def check(h):
    ivs = oracle_fixed_intervals(h)
    signs = oracle_gap_signs(h, ivs)
    pairs = [((a.numerator, a.denominator), (b.numerator, b.denominator)) for a, b in ivs]
    assert _k.fixed_structure(h._kbps) == (pairs, signs)
    assert fixed_intervals(h) == ivs
    assert signature(h) == signs


# ------------------------------------------------------------ hand cases

HAND = [
    identity(),
    # fixed run touching 0
    PLHomeo([(0, 0), (F(1, 4), F(1, 4)), (F(1, 2), F(3, 4)), (1, 1)]),
    # fixed run touching 1
    PLHomeo([(0, 0), (F(1, 2), F(1, 4)), (F(3, 4), F(3, 4)), (1, 1)]),
    # fixed runs touching both ends, pushed up between them
    PLHomeo([(0, 0), (F(1, 8), F(1, 8)), (F(1, 2), F(5, 8)), (F(7, 8), F(7, 8)), (1, 1)]),
    # a crossing inside a segment, at x = 1/3
    PLHomeo([(0, 0), (F(1, 4), F(1, 8)), (F(1, 2), F(3, 4)), (1, 1)]),
    # a run at 0, then a crossing, then a run at 1
    PLHomeo(
        [
            (0, 0),
            (F(1, 8), F(1, 8)),
            (F(1, 4), F(3, 8)),
            (F(1, 2), F(7, 16)),
            (F(3, 4), F(3, 4)),
            (1, 1),
        ]
    ),
    # an interior run and an isolated fixed point on a breakpoint
    PLHomeo(
        [
            (0, 0),
            (F(1, 8), F(3, 16)),
            (F(1, 4), F(1, 4)),
            (F(1, 2), F(1, 2)),
            (F(5, 8), F(9, 16)),
            (F(3, 4), F(3, 4)),
            (F(7, 8), F(15, 16)),
            (1, 1),
        ]
    ),
]


def test_hand_cases_match_oracle():
    for h in HAND:
        check(h)
        check(reflect(h))
    # the ends are fixed runs or points and the crossing is found
    assert fixed_intervals(HAND[5]) == [
        (F(0), F(1, 8)),
        (F(5, 12), F(5, 12)),
        (F(3, 4), F(1)),
    ]
    assert signature(HAND[5]) == [1, -1]


# ------------------------------------------------------------ draws


@st.composite
def homeos(draw):
    """rand_homeo and rand_signature_homeo draws, reflected or block-summed."""
    rng = derive_rng("hyp-fixed-structure", draw(st.integers(0, 2**48 - 1)))
    if draw(st.booleans()):
        # coarse grids put fixed points on breakpoints and make fixed runs
        den = draw(st.sampled_from([8, 16, 64]))
        h = rand_homeo(rng, draw(st.integers(0, min(8, den - 1))), den)
    else:
        signs = [draw(st.sampled_from([1, -1])) for _ in range(draw(st.integers(0, 5)))]
        h = rand_signature_homeo(rng, signs)
    if draw(st.booleans()):
        h = reflect(h)
    d = draw(st.integers(1, 3))
    return oplus_power(h, d) if d > 1 else h


@settings(max_examples=300, deadline=None)
@given(homeos())
def test_fixed_structure_matches_oracle(h):
    check(h)
