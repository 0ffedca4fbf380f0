"""Fixed-point invariant: extraction, laws, conjugacy decision."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knaster_lab import PLHomeo, _kernel_py, compose, identity, reflect, sup_dist
from knaster_lab.conjugator import approx_conjugator
from knaster_lab.randgen import (
    derive_rng,
    rand_homeo,
    rand_signature_homeo,
)
from knaster_lab.signatures import (
    decide_conjugate,
    fixed_intervals,
    signature,
    signature_oplus,
    signature_reflect,
)
from knaster_lab.tents import oplus_power

from generators import rand_sign_list

# fixed on [1/4,1/2], pushed up before, pulled down after
PLATEAU = PLHomeo(
    [
        (0, 0),
        (F(1, 8), F(3, 16)),
        (F(1, 4), F(1, 4)),
        (F(1, 2), F(1, 2)),
        (F(3, 4), F(5, 8)),
        (1, 1),
    ]
)
# isolated interior crossing at x = 1/3
CROSSER = PLHomeo([(0, 0), (F(1, 4), F(1, 8)), (F(1, 2), F(3, 4)), (1, 1)])
# signature +- both: the first fixes all of [1/3, 2/3], the second only 1/2
MIDDLE_INTERVAL = PLHomeo(
    [(0, 0), (F(1, 6), F(1, 4)), (F(1, 3), F(1, 3)), (F(2, 3), F(2, 3)),
     (F(5, 6), F(3, 4)), (1, 1)]
)
MIDDLE_POINT = PLHomeo(
    [(0, 0), (F(1, 4), F(3, 8)), (F(1, 2), F(1, 2)), (F(3, 4), F(5, 8)), (1, 1)]
)


def homeos(max_interior=6):
    return st.integers(min_value=0, max_value=2**48 - 1).map(
        lambda s: rand_homeo(derive_rng("hyp-sig", s), max_interior)
    )


def test_fixed_intervals_frozen():
    assert fixed_intervals(identity()) == [(F(0), F(1))]
    assert fixed_intervals(PLATEAU) == [
        (F(0), F(0)),
        (F(1, 4), F(1, 2)),
        (F(1), F(1)),
    ]
    assert fixed_intervals(CROSSER) == [
        (F(0), F(0)),
        (F(1, 3), F(1, 3)),
        (F(1), F(1)),
    ]


def crossings(f, g):
    """Strict sign-change roots of f - g between merged breakpoints.

    A copy of the merged-breakpoint scan the kernel once exported, kept
    as the oracle for fixed_structure's isolated fixed points.
    """
    xs = _kernel_py.merged_xs(f, g)
    fv = _kernel_py.eval_sorted(f, xs)
    gv = _kernel_py.eval_sorted(g, xs)
    roots = []
    prev = _kernel_py.rsub(fv[0], gv[0])
    for k in range(1, len(xs)):
        cur = _kernel_py.rsub(fv[k], gv[k])
        if (prev[0] > 0 and cur[0] < 0) or (prev[0] < 0 and cur[0] > 0):
            roots.append(_kernel_py.segment_root(xs[k - 1], xs[k], prev, cur))
        prev = cur
    return roots


def test_isolated_fixed_points_match_kernel_crossings():
    # both find strict sign changes of h - id inside a segment through the
    # kernel's one root formula; h is canonical, so h - id breaks exactly
    # where h does and the two scans see the same segments
    rng = derive_rng("fixed-vs-crossings")
    ident = identity()._kbps
    found = 0
    for _ in range(200):
        h = rand_homeo(rng, max_interior=6, den=16)
        on_bps = {x for x, _ in h.breakpoints}
        isolated = [a for a, b in fixed_intervals(h) if a == b and a not in on_bps]
        roots = [F(*r) for r in crossings(h._kbps, ident)]
        assert isolated == roots
        found += len(roots)
    assert found > 0


def test_signature_frozen():
    assert signature(identity()) == []
    assert signature(PLATEAU) == [1, -1]
    assert signature(CROSSER) == [-1, 1]


def test_signature_helpers():
    assert signature_reflect([1, -1, -1]) == [1, 1, -1]
    assert signature_oplus([1], 3) == [1, -1, 1]
    assert signature_oplus([1, -1], 2) == [1, -1, 1, -1]
    assert signature_oplus([], 4) == []


def test_signature_realizer():
    rng = derive_rng("sig-realize")
    for _ in range(40):
        signs = rand_sign_list(rng, rng.randint(0, 6))
        h = rand_signature_homeo(rng, signs)
        assert signature(h) == signs


@settings(max_examples=40, deadline=None)
@given(homeos())
def test_reflect_law(h):
    assert signature(reflect(h)) == signature_reflect(signature(h))


@settings(max_examples=25, deadline=None)
@given(homeos(4), st.integers(min_value=1, max_value=5))
def test_oplus_law(h, d):
    assert signature(oplus_power(h, d)) == signature_oplus(signature(h), d)


@settings(max_examples=25, deadline=None)
@given(homeos(4), homeos(4))
def test_conjugation_invariance(f, w):
    conj = compose(compose(w, f), w.invert())
    assert signature(conj) == signature(f)


def test_decide_conjugate():
    rng = derive_rng("decide")
    for _ in range(30):
        signs = rand_sign_list(rng, rng.randint(0, 4))
        f = rand_signature_homeo(rng, signs)
        g = rand_signature_homeo(rng, signs)
        assert decide_conjugate(f, g)
        assert decide_conjugate(g, f)
        flipped = [-s for s in signs]
        if flipped != signs:
            assert not decide_conjugate(f, rand_signature_homeo(rng, flipped))


def test_equal_signatures_over_unlike_fixed_sets_are_not_conjugate():
    # a conjugator maps Fix(f) onto Fix(g), and no homeomorphism maps an
    # interval onto a point; synthesis needs only the signs, so it still
    # certifies the pair both ways
    for f, g in ((MIDDLE_INTERVAL, MIDDLE_POINT),
                 (reflect(MIDDLE_INTERVAL), reflect(MIDDLE_POINT))):
        assert signature(f) == signature(g)
        assert not decide_conjugate(f, g)
        assert not decide_conjugate(g, f)
        for a, b in ((f, g), (g, f)):
            h = approx_conjugator(a, b, F(1, 1000))
            assert sup_dist(compose(compose(h.invert(), a), h), b) < F(1, 1000)


def test_conjugates_of_random_maps_stay_conjugate():
    rng = derive_rng("decide-conjugates")
    with_interval = 0
    for _ in range(100):
        h, phi = rand_homeo(rng), rand_homeo(rng)
        c = compose(compose(phi.invert(), h), phi)
        assert decide_conjugate(h, c)
        assert decide_conjugate(c, h)
        with_interval += any(a != b for a, b in fixed_intervals(h))
    # the draws include maps with fixed intervals, not only isolated points
    assert with_interval > 10


def test_rejects_open_maps():
    from knaster_lab.tents import tent

    with pytest.raises(TypeError):
        fixed_intervals(tent(2))
