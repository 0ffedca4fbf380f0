"""Typed layer: validation, evaluation, composition, reflection, JSON."""

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
