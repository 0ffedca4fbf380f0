"""Tent algebra: folding, block sums, semiconjugacy, straightening."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import knaster_lab.tents as tents
from knaster_lab import OpenPLMap, PLHomeo, PLMap, compose, degree, reflect, sup_dist
from knaster_lab.randgen import derive_rng, rand_homeo
from knaster_lab.tents import (
    block_sum,
    oplus_power,
    straighten,
    tent,
    verify_semiconjugacy,
)

from generators import rand_open_map

BUMP = PLHomeo([(0, 0), (F(1, 2), F(3, 4)), (1, 1)])


def homeos(max_interior=6):
    return st.integers(min_value=0, max_value=2**48 - 1).map(
        lambda s: rand_homeo(derive_rng("hyp-tents", s), max_interior)
    )


def test_tent_shapes():
    assert tent(1).breakpoints == ((F(0), F(0)), (F(1), F(1)))
    assert tent(2).breakpoints == ((F(0), F(0)), (F(1, 2), F(1)), (F(1), F(0)))
    assert tent(3).breakpoints == (
        (F(0), F(0)),
        (F(1, 3), F(1)),
        (F(2, 3), F(0)),
        (F(1), F(1)),
    )
    assert degree(tent(7)) == 7
    with pytest.raises(ValueError):
        tent(0)


def test_tent_values_frozen():
    assert tent(5)(F(3, 10)) == F(1, 2)
    assert tent(4)(F(1, 2)) == 0
    assert tent(3)(F(1, 2)) == F(1, 2)


def test_tent_multiplicative():
    # T_a o T_b = T_ab with equal breakpoint lists: diag_dist folds a level-M
    # map to level 0 with one tent of degree p_1...p_M in place of M composes
    for a in range(1, 13):
        for b in range(1, 13):
            assert compose(tent(a), tent(b)) == tent(a * b), (a, b)


def test_degree_multiplicative_random():
    rng = derive_rng("degree-mult")
    for _ in range(20):
        m1 = rand_open_map(rng, rng.randint(1, 4))
        m2 = rand_open_map(rng, rng.randint(1, 4))
        assert degree(compose(m1, m2)) == degree(m1) * degree(m2)


def test_block_sum_frozen():
    two = block_sum([BUMP, reflect(BUMP)])
    assert two(F(1, 4)) == F(3, 8)
    assert two(F(3, 4)) == F(5, 8)
    assert isinstance(two, PLHomeo)
    assert oplus_power(BUMP, 2) == two
    assert oplus_power(BUMP, 1) == BUMP


def oracle_oplus_power(g, d):
    """oplus_power as it was: the block sum of g alternating with its reflection."""
    r = reflect(g)
    return block_sum([g if i % 2 == 0 else r for i in range(d)])


@st.composite
def grid_maps(draw):
    """PLMaps fixing 0 and 1 on a coarse value grid: flat segments and turns."""
    xs = sorted(draw(st.sets(st.integers(1, 23).map(lambda k: F(k, 24)), max_size=6)))
    ys = draw(st.lists(st.integers(0, 6).map(lambda k: F(k, 6)), min_size=len(xs),
                       max_size=len(xs)))
    return PLMap([(0, 0)] + list(zip(xs, ys)) + [(1, 1)])


@settings(max_examples=60, deadline=None)
@given(homeos() | grid_maps() | st.sampled_from([tent(1), tent(3), tent(5)]))
def test_oplus_power_matches_block_sum(g):
    for d in range(1, 9):
        got = oplus_power(g, d)
        want = oracle_oplus_power(g, d)
        assert got._kbps == want._kbps
        assert type(got) is type(want)
        # every seam point is collinear, so only g's interior points remain
        assert len(got._kbps) == d * (len(g._kbps) - 2) + 2


@pytest.mark.parametrize("g", [tent(2), PLMap([(0, F(1, 2)), (1, 1)])])
def test_oplus_power_refuses_maps_moving_an_end(g, monkeypatch):
    # refused before any point is built, at every degree, d = 1 included
    monkeypatch.setattr(tents, "gcd", None)
    for d in (1, 2, 3):
        with pytest.raises(ValueError, match="fixing 0 and 1"):
            oplus_power(g, d)


def test_oplus_fixes_grid():
    rng = derive_rng("grid-fix")
    for d in range(1, 8):
        g = rand_homeo(rng)
        gd = oplus_power(g, d)
        for i in range(d + 1):
            assert gd(F(i, d)) == F(i, d)


def test_semiconjugacy_frozen():
    for d in range(1, 8):
        assert verify_semiconjugacy(BUMP, d)


@settings(max_examples=30, deadline=None)
@given(homeos(), st.integers(min_value=1, max_value=6))
def test_semiconjugacy_random(g, d):
    assert verify_semiconjugacy(g, d)


def oracle_semiconjugacy(g, d):
    """The check verify_semiconjugacy replaced: both composites, built."""
    t = tent(d)
    return compose(g, t) == compose(t, tents.oplus_power(g, d))


def test_semiconjugacy_matches_built_composites(monkeypatch):
    # against a block sum of another map the identity fails, and the
    # merged walk must say so exactly when the built composites differ
    rng = derive_rng("semiconj-oracle")
    real = tents.oplus_power
    seen = set()
    for _ in range(40):
        g, h = rand_homeo(rng, 4), rand_homeo(rng, 4)
        d = rng.randint(1, 5)
        for inner in (g, h):
            monkeypatch.setattr(tents, "oplus_power", lambda _, n, h=inner: real(h, n))
            got = verify_semiconjugacy(g, d)
            assert got == oracle_semiconjugacy(g, d)
            seen.add(got)
    assert seen == {True, False}


def test_semiconjugacy_builds_no_composite(monkeypatch):
    def refuse(*_):
        raise AssertionError("verify_semiconjugacy built a composite")

    monkeypatch.setattr(tents._k, "compose", refuse)
    for d in range(1, 8):
        assert verify_semiconjugacy(BUMP, d)


@settings(max_examples=30, deadline=None)
@given(homeos(), homeos(), st.integers(min_value=1, max_value=5))
def test_oplus_contraction_exact(g1, g2, d):
    assert sup_dist(oplus_power(g1, d), oplus_power(g2, d)) == sup_dist(g1, g2) / d


@settings(max_examples=20, deadline=None)
@given(homeos(3), homeos(3), st.integers(min_value=1, max_value=4))
def test_oplus_composition_homomorphism(g1, g2, d):
    lhs = oplus_power(compose(g1, g2), d)
    rhs = compose(oplus_power(g1, d), oplus_power(g2, d))
    assert lhs == rhs


def test_straighten_frozen():
    g = OpenPLMap([(0, 0), (F(1, 3), 1), (1, 0)])
    h = straighten(tent(2), g)
    assert h.breakpoints == ((F(0), F(0)), (F(1, 2), F(1, 3)), (F(1), F(1)))
    assert compose(g, h) == tent(2)


def test_straighten_random():
    rng = derive_rng("straighten")
    for _ in range(30):
        deg = rng.randint(1, 8)
        f = rand_open_map(rng, deg, start_up=True)
        g = rand_open_map(rng, deg, start_up=True)
        h = straighten(f, g)
        assert isinstance(h, PLHomeo)
        assert compose(g, h) == f


def test_straighten_rejects_mismatch():
    with pytest.raises(ValueError):
        straighten(tent(2), tent(3))
    down = OpenPLMap([(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        straighten(tent(1), down)
