"""The kernel-list generators against the Fraction generators they replaced.

randgen builds its maps from integer grid cuts and edits f._kbps
directly; the oracles in tests/generators.py build the same maps from
Fraction breakpoints through the validating PLHomeo constructor. From
equal seeds, every draw must give bit-identical kernel lists, equal
amounts, the same refusals and the same stream afterwards.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knaster_lab.randgen import (
    nudge_homeo,
    perturb_homeo,
    rand_homeo,
    rand_nudge,
    rand_partition,
    rand_signature_homeo,
)

from generators import (
    fraction_nudge_homeo,
    fraction_perturb_homeo,
    fraction_rand_homeo,
    fraction_rand_nudge,
    fraction_rand_partition,
    fraction_rand_signature_homeo,
)

F = Fraction
seeds = st.integers(min_value=0, max_value=2**32 - 1)
unit = st.fractions(min_value=0, max_value=1, max_denominator=300)


def _outcome(draw, *args):
    """The draw's kernel list, or the refusal it raised."""
    try:
        return draw(*args)._kbps
    except ValueError as err:
        return "refused", str(err)


def _both(seed, draw, oracle, *args):
    """(result, next sample) of draw and of oracle, each from its own stream."""
    out = []
    for fn in (draw, oracle):
        rng = random.Random(seed)
        result = fn(rng, *args)
        out.append((result, rng.random()))
    return out


@settings(max_examples=150, deadline=None)
@given(seeds, st.integers(min_value=1, max_value=80), st.data())
def test_rand_homeo_and_partition_match_oracle(seed, den, data):
    interior = data.draw(st.integers(min_value=0, max_value=min(den - 1, 24)))
    new, old = _both(
        seed,
        lambda rng: rand_homeo(rng, interior, den)._kbps,
        lambda rng: fraction_rand_homeo(rng, interior, den)._kbps,
    )
    assert new == old
    new, old = _both(
        seed,
        lambda rng: rand_partition(rng, interior, den),
        lambda rng: fraction_rand_partition(rng, interior, den),
    )
    assert new == old


@settings(max_examples=150, deadline=None)
@given(seeds, st.lists(st.sampled_from((1, -1)), max_size=45), st.integers(2, 80))
def test_rand_signature_homeo_matches_oracle(seed, signs, den):
    new, old = _both(
        seed,
        lambda rng: rand_signature_homeo(rng, signs, den)._kbps,
        lambda rng: fraction_rand_signature_homeo(rng, signs, den)._kbps,
    )
    assert new == old


@settings(max_examples=200, deadline=None)
@given(seeds, unit, unit, st.fractions(-1, 1, max_denominator=300))
def test_perturb_and_nudge_match_oracle(seed, x0, y0, amt):
    f = rand_homeo(random.Random(seed), 12)
    want = _outcome(fraction_perturb_homeo, f, x0, y0)
    assert _outcome(perturb_homeo, f, x0, y0) == want
    want = _outcome(fraction_nudge_homeo, f, x0, amt)
    assert _outcome(nudge_homeo, f, x0, amt) == want
    # on a breakpoint of f, given in text form
    x, _ = f.breakpoints[len(f.breakpoints) // 2]
    if 0 < x < 1:
        want = _outcome(fraction_nudge_homeo, f, x, amt)
        assert _outcome(nudge_homeo, f, str(x), amt) == want


@settings(max_examples=200, deadline=None)
@given(
    seeds,
    st.fractions(min_value=0, max_value=2, max_denominator=10**6),
    st.integers(2, 40),
    st.booleans(),
)
def test_rand_nudge_matches_oracle(seed, bound, den, bumps):
    rng = random.Random(seed ^ 0x5EED)
    f = rand_signature_homeo(rng, [1, -1, -1, 1]) if bumps else rand_homeo(rng, 12)

    def draw(rand_nudge):
        def run(rng):
            h, amt = rand_nudge(rng, f, bound, den)
            return h._kbps, amt
        return run

    new, old = _both(seed, draw(rand_nudge), draw(fraction_rand_nudge))
    assert new == old
    assert type(new[0][1]) is Fraction


@pytest.mark.parametrize("seed", range(10))
def test_rand_homeo_refuses_too_many_breakpoints_on_every_seed(seed):
    # the draw m <= max_interior used to decide whether it raised
    rng = random.Random(seed)
    state = rng.getstate()
    with pytest.raises(ValueError, match="grid too coarse"):
        rand_homeo(rng, 64)
    assert rng.getstate() == state
    assert rand_homeo(random.Random(seed), 63)._kbps


def test_rand_signature_homeo_refuses_other_signs():
    with pytest.raises(ValueError, match="1 or -1"):
        rand_signature_homeo(random.Random(0), [1, 0, -1])
