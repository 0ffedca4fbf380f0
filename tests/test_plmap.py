"""Typed layer: validation, evaluation, composition, reflection, JSON."""

import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knaster_lab import (
    OpenPLMap,
    PLHomeo,
    PLMap,
    compose,
    degree,
    from_json_dict,
    identity,
    parse_rational,
    format_rational,
    reflect,
    sup_dist,
    sup_dist_witness,
    to_json_dict,
)
from knaster_lab.randgen import derive_rng, rand_homeo
from knaster_lab.rational import parse_rational_pair

from generators import rand_open_map

BUMP = PLHomeo([(0, 0), (F(1, 2), F(3, 4)), (1, 1)])
TENT2 = OpenPLMap([(0, 0), (F(1, 2), 1), (1, 0)])


def homeos(max_interior=6):
    return st.integers(min_value=0, max_value=2**48 - 1).map(
        lambda s: rand_homeo(derive_rng("hyp-homeo", s), max_interior)
    )


def test_parse_format_rational():
    assert parse_rational("3/4") == F(3, 4)
    assert parse_rational(" -2/6 ") == F(-1, 3)
    assert parse_rational("5") == F(5)
    assert format_rational(F(3, 4)) == "3/4"
    assert format_rational(F(8, 4)) == "2"
    for bad in ["", "1/0", "a/2", "1.5", "1/2/3"]:
        with pytest.raises(ValueError):
            parse_rational(bad)
        with pytest.raises(ValueError):
            parse_rational_pair(bad)
    # lowest terms, positive denominator, as Fraction keeps them
    for text in ["3/4", " -2/6 ", "5", "2/-4", "-3/-9", "0/-7"]:
        q = parse_rational(text)
        assert parse_rational_pair(text) == (q.numerator, q.denominator)


def test_rational_round_trip_past_the_digit_limit():
    # 10,000 digits, past CPython's default limit of 4300 for int <-> str
    big = F(10**9999 + 7, 3)
    limited = hasattr(sys, "get_int_max_str_digits")
    limit = sys.get_int_max_str_digits() if limited else None
    text = format_rational(big)
    assert len(text.partition("/")[0]) == 10_000
    assert parse_rational(text) == big
    # the repunit of 5000 ones
    assert parse_rational("1" * 5000 + "/3") == F((10**5000 - 1) // 9, 3)
    if limited:
        assert sys.get_int_max_str_digits() == limit


def test_construction_validation():
    with pytest.raises(ValueError):
        PLMap([(0, 0)])
    with pytest.raises(ValueError):
        PLMap([(0, 0), (F(1, 2), F(1, 2)), (F(1, 2), 1), (1, 1)])
    with pytest.raises(ValueError):
        PLMap([(F(1, 4), 0), (1, 1)])
    with pytest.raises(ValueError):
        PLMap([(0, 0), (F(1, 2), F(3, 2)), (1, 1)])
    with pytest.raises(ValueError):
        PLHomeo([(0, 0), (1, F(1, 2))])
    with pytest.raises(ValueError):
        PLHomeo([(0, 0), (F(1, 2), F(3, 4)), (F(3, 4), F(1, 2)), (1, 1)])
    with pytest.raises(ValueError):
        OpenPLMap([(0, 0), (1, F(1, 2))])
    with pytest.raises(ValueError):
        OpenPLMap([(0, 0), (F(1, 2), F(1, 2)), (1, 0)])  # turns below the top
    with pytest.raises(ValueError):
        OpenPLMap([(0, 0), (F(1, 2), 1), (F(3, 4), 1), (1, 0)])  # flat piece


def test_eval_frozen():
    assert BUMP(F(1, 4)) == F(3, 8)
    assert BUMP(F(1, 2)) == F(3, 4)
    assert TENT2(F(3, 4)) == F(1, 2)
    with pytest.raises(ValueError):
        BUMP(F(3, 2))


def test_canonical_equality():
    redundant = PLHomeo([(0, 0), (F(1, 4), F(1, 4)), (1, 1)])
    assert redundant == identity()
    assert hash(redundant) == hash(identity())
    assert BUMP != identity()
    assert redundant.breakpoints == ((F(0), F(0)), (F(1), F(1)))


def test_compose_types_and_values():
    assert compose(TENT2, TENT2)(F(1, 8)) == TENT2(TENT2(F(1, 8)))
    assert isinstance(compose(BUMP, BUMP), PLHomeo)
    assert isinstance(compose(TENT2, BUMP), OpenPLMap)
    assert isinstance(compose(TENT2, TENT2), OpenPLMap)


def test_invert_frozen():
    inv = BUMP.invert()
    assert inv(F(3, 4)) == F(1, 2)
    assert compose(inv, BUMP) == identity()
    assert BUMP.preimage(F(3, 8)) == F(1, 4)


def test_sup_dist_frozen():
    assert sup_dist(BUMP, identity()) == F(1, 4)
    assert sup_dist_witness(BUMP, identity()) == (F(1, 4), F(1, 2))
    t4 = compose(TENT2, TENT2)
    assert sup_dist_witness(TENT2, t4) == (F(1), F(1, 2))


def test_reflect_frozen():
    assert reflect(BUMP).breakpoints == (
        (F(0), F(0)),
        (F(1, 2), F(1, 4)),
        (F(1), F(1)),
    )
    # even tents reflect to valleys; odd tents are reflection-symmetric
    valley = OpenPLMap([(0, 1), (F(1, 2), 0), (1, 1)])
    assert reflect(TENT2) == valley
    tent3 = OpenPLMap([(0, 0), (F(1, 3), 1), (F(2, 3), 0), (1, 1)])
    assert reflect(tent3) == tent3
    assert reflect(reflect(BUMP)) == BUMP
    assert isinstance(reflect(BUMP), PLHomeo)


def test_degree_and_laps():
    assert degree(BUMP) == 1
    assert degree(TENT2) == 2
    t4 = compose(TENT2, TENT2)
    assert degree(t4) == 4
    assert t4.laps() == [
        (F(0), F(1, 4), True),
        (F(1, 4), F(1, 2), False),
        (F(1, 2), F(3, 4), True),
        (F(3, 4), F(1), False),
    ]


def test_json_roundtrip():
    for f in [BUMP, TENT2, PLMap([(0, F(1, 3)), (1, F(1, 3))])]:
        d = to_json_dict(f)
        g = from_json_dict(d)
        assert g == f
        assert type(g) is type(f)
    assert to_json_dict(BUMP)["kind"] == "homeo"
    assert to_json_dict(BUMP)["breakpoints"][1] == ["1/2", "3/4"]


def test_typed_construction_reads_ints_fractions_and_strings_alike():
    forms = [
        [(0, 0), (F(1, 3), F(2, 5)), (F(3, 4), F(1, 2)), (1, 1)],
        [(F(0), F(0)), (F(2, 6), F(4, 10)), (F(3, 4), F(1, 2)), (F(1), F(1))],
        [("0", "0/7"), ("1/3", "2/5"), (" 6/8 ", "1/2"), ("1", "3/3")],
        [(0, "0"), ("2/6", F(2, 5)), (F(3, 4), "2/4"), (1, F(1))],
    ]
    for cls in (PLMap, PLHomeo):
        kbps = [cls(points)._kbps for points in forms]
        assert all(kb == kbps[0] for kb in kbps)
    assert kbps[0] == [(0, 1, 0, 1), (1, 3, 2, 5), (3, 4, 1, 2), (1, 1, 1, 1)]


def _int_if_whole(q):
    return q.numerator if q.denominator == 1 else q


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.fractions(0, 1), min_size=3, max_size=8),
    st.lists(st.fractions(0, 1), min_size=3, max_size=8),
)
def test_typed_construction_forms_agree(xs, ys):
    xs = sorted(set(xs) | {F(0), F(1)})
    ys = (ys * len(xs))[: len(xs)]
    as_fractions = PLMap(list(zip(xs, ys)))
    as_text = PLMap([(format_rational(x), format_rational(y)) for x, y in zip(xs, ys)])
    # 0 and 1 as ints, the rest as Fractions
    as_ints = PLMap([(_int_if_whole(x), _int_if_whole(y)) for x, y in zip(xs, ys)])
    assert as_fractions._kbps == as_text._kbps == as_ints._kbps


@settings(max_examples=60, deadline=None)
@given(homeos(), homeos(), st.integers(min_value=0, max_value=240))
def test_compose_agrees_pointwise(f, g, xnum):
    x = F(xnum, 240)
    assert compose(f, g)(x) == f(g(x))


@settings(max_examples=40, deadline=None)
@given(homeos())
def test_inverse_laws(h):
    assert compose(h.invert(), h) == identity()
    assert compose(h, h.invert()) == identity()


@settings(max_examples=40, deadline=None)
@given(homeos(), homeos())
def test_sup_dist_metric_properties(f, g):
    d = sup_dist(f, g)
    assert d >= 0
    assert (d == 0) == (f == g)
    assert sup_dist(g, f) == d
    w, x = sup_dist_witness(f, g)
    assert w == d
    assert abs(f(x) - g(x)) == d


def test_random_open_maps_have_requested_degree():
    rng = derive_rng("openmap-degree")
    for deg in range(1, 7):
        for _ in range(10):
            m = rand_open_map(rng, deg)
            assert degree(m) == deg
