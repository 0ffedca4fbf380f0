"""Truncated stalks, prime schedules, diagonal maps, certified distances.

Frozen values below were worked out by hand from the defining formulas:
the metric partial sums, the downward tent recursion, and the small
diag_dist example whose per-level differences peak at t = 1/4 and 3/4.
"""

import json
import tracemalloc
from fractions import Fraction
from math import prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from knaster_lab.knaster import (
    DiagonalHomeo,
    PrimeSequence,
    TruncatedKnasterPoint,
    diag_dist,
    diagonal_equal,
    eval_diagonal,
    extend_point,
    knaster_dist,
    lift,
    validate_point,
)
from knaster_lab.plmap import PLHomeo, compose, identity
from knaster_lab.randgen import derive_rng, rand_homeo, rand_nudge
import knaster_lab.tents as tents
from knaster_lab.tents import oplus_power, tent, tent_value

from difference import oracle_support

F = Fraction

ALL2 = PrimeSequence("all2")
DIAG = PrimeSequence("diagonal")

# bump homeomorphism used across the diag_dist examples
G_BUMP = PLHomeo([(0, 0), (F(1, 2), F(3, 4)), (1, 1)])


def homeos(label):
    return st.builds(
        lambda s: rand_homeo(derive_rng(label, s)), st.integers(0, 10**6)
    )


class TestPrimeSequence:
    def test_diagonal_prefix(self):
        assert DIAG.prefix(7) == (2, 2, 3, 2, 3, 5, 2)
        assert DIAG.prefix(10) == (2, 2, 3, 2, 3, 5, 2, 3, 5, 7)
        # the triangle of the primes below 60, read in uneven steps, so the
        # terms kept and those yielded later join
        primes = [p for p in range(2, 60) if all(p % k for k in range(2, p))]
        want = [p for r in range(1, len(primes) + 1) for p in primes[:r]]
        P = PrimeSequence("diagonal")
        assert P.prime(3) == want[2]
        assert P.prefix(40) == tuple(want[:40])
        assert P.product(41, len(want)) == prod(want[40:])

    def test_all2(self):
        assert ALL2.prefix(5) == (2, 2, 2, 2, 2)

    def test_explicit(self):
        P = PrimeSequence([2, 3, 5])
        assert P.prime(2) == 3
        assert P.prefix(3) == (2, 3, 5)
        with pytest.raises(ValueError, match="schedule has only 3 terms, needs 4"):
            P.prime(4)
        with pytest.raises(ValueError, match="needs 6"):
            P.prefix(6)
        assert P.prefix(3) == (2, 3, 5)

    def test_rejects_nonprime(self):
        with pytest.raises(ValueError):
            PrimeSequence([2, 4])
        with pytest.raises(ValueError):
            PrimeSequence([])
        for spec in ("fibonacci", "", "2,,3", "2,4"):
            with pytest.raises(ValueError):
                PrimeSequence(spec)

    def test_products_and_weights(self):
        assert DIAG.product(1, 4) == 24
        assert DIAG.product(3, 5) == 18
        assert DIAG.product(4, 3) == 1
        assert DIAG.weight(3) == F(1, 12)
        assert ALL2.weight(6) == F(1, 64)
        for i in range(1, 12):
            assert DIAG.weight(i) <= F(1, 2**i)

    def test_tail_bound(self):
        # all-2 tail past N=1 is exactly 1/4 + 1/8 + ... = 1/2
        assert ALL2.tail_bound(1) == F(1, 2)
        assert DIAG.tail_bound(3) == F(1, 12)

    def test_json_round_trip(self):
        for P in (ALL2, DIAG, PrimeSequence([2, 3])):
            again = PrimeSequence.from_json_dict(
                json.loads(json.dumps(P.to_json_dict()))
            )
            assert again == P
        assert PrimeSequence.from_json_dict("all2") == ALL2
        assert PrimeSequence.from_json_dict([2, 3]) == PrimeSequence((2, 3))
        # the CLI's spec strings
        assert PrimeSequence.from_json_dict("2,3") == PrimeSequence("2,3") == PrimeSequence((2, 3))
        assert PrimeSequence("5") == PrimeSequence([5])

    def test_product_keeps_no_prefix_products(self):
        # p_1...p_20001 on "diagonal" is about 20 KB; caching every prefix
        # product on the way would hold about 200 MB
        P = PrimeSequence("diagonal")
        want = 1
        for i in range(1, 20002):
            want *= P.prime(i)
        tracemalloc.start()
        try:
            got = P.product(1, 20001)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got == want
        assert peak < 4 * 2**20


class TestPoints:
    def test_extend_zero(self):
        assert extend_point(0, 4, DIAG).coords == (0, 0, 0, 0, 0)

    def test_extend_half(self):
        assert extend_point(F(1, 2), 1, PrimeSequence([2])).coords == (1, F(1, 2))

    def test_extend_quarter(self):
        assert extend_point(F(1, 4), 2, ALL2).coords == (1, F(1, 2), F(1, 4))

    def test_extend_validates(self):
        with pytest.raises(ValueError):
            extend_point(2, 1, ALL2)
        with pytest.raises(ValueError):
            extend_point(F(1, 2), -1, ALL2)

    def test_validate_point_reads_the_schedule_once(self, monkeypatch):
        P = PrimeSequence("diagonal")
        x = extend_point(F(1, 3), 60, P)
        prefixes = []
        real = P.prefix

        def once(n):
            prefixes.append(n)
            return real(n)

        def refused(i):
            raise AssertionError("validate_point must not read p_i one by one")

        monkeypatch.setattr(P, "prefix", once)
        monkeypatch.setattr(P, "prime", refused)
        validate_point(x, P)
        assert prefixes == [60]

    def test_extend_refuses_past_the_limit(self, monkeypatch):
        # a level-n stalk has n + 1 coordinates, held to the breakpoint limit
        monkeypatch.setattr(tents, "MAX_BREAKPOINTS", 8)
        assert extend_point(F(1, 2), 7, ALL2).truncation == 7
        with pytest.raises(ValueError, match="a stalk of truncation 8"):
            extend_point(F(1, 2), 8, ALL2)

    def test_coherence_check(self):
        validate_point(extend_point(F(3, 7), 3, DIAG), DIAG)
        bad = TruncatedKnasterPoint((F(1, 3), F(1, 2)))
        with pytest.raises(ValueError):
            validate_point(bad, ALL2)

    def test_point_bounds(self):
        with pytest.raises(ValueError):
            TruncatedKnasterPoint((F(3, 2),))
        with pytest.raises(ValueError):
            TruncatedKnasterPoint(())

    def test_point_json(self):
        p = extend_point(F(2, 5), 2, DIAG)
        again = TruncatedKnasterPoint.from_json_dict(
            json.loads(json.dumps(p.to_json_dict()))
        )
        assert again == p

    @given(st.fractions(0, 1), st.integers(0, 6))
    @settings(max_examples=60, deadline=None)
    def test_extend_always_coherent(self, x, n):
        validate_point(extend_point(x, n, DIAG), DIAG)


class TestKnasterDist:
    def test_same_point(self):
        x = extend_point(F(1, 3), 2, ALL2)
        d = knaster_dist(x, x, ALL2)
        assert d.lower == 0
        assert d.upper == ALL2.tail_bound(2)

    def test_frozen_example(self):
        x = TruncatedKnasterPoint((0, 0))
        y = TruncatedKnasterPoint((1, F(1, 2)))
        d = knaster_dist(x, y, ALL2)
        assert d.lower == F(3, 4)
        assert d.upper == F(3, 4) + F(1, 2)
        assert d.truncation == 1

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            knaster_dist(
                extend_point(0, 1, ALL2), extend_point(0, 2, ALL2), ALL2
            )

    def test_incoherent_rejected(self):
        bad = TruncatedKnasterPoint((F(1, 3), F(1, 2)))
        with pytest.raises(ValueError):
            knaster_dist(bad, bad, ALL2)

    def test_distance_json(self):
        x = TruncatedKnasterPoint((0, 0))
        y = TruncatedKnasterPoint((1, F(1, 2)))
        d = knaster_dist(x, y, ALL2)
        blob = json.loads(json.dumps(d.to_json_dict()))
        assert blob == {
            "lower": "3/4",
            "upper": "5/4",
            "N": 1,
            "witness": [],
        }


class TestLift:
    def test_lift_identity_level(self):
        Fd = DiagonalHomeo(0, G_BUMP)
        assert lift(Fd, 0, ALL2) == Fd

    def test_single_lift_is_block_sum(self):
        Fd = DiagonalHomeo(0, G_BUMP)
        up = lift(Fd, 1, PrimeSequence([2]))
        assert up.base_coord == 1
        assert up.inducer == oplus_power(G_BUMP, 2)

    def test_double_lift_matches_product(self):
        Fd = DiagonalHomeo(0, G_BUMP)
        assert lift(Fd, 2, ALL2).inducer == oplus_power(G_BUMP, 4)
        assert lift(Fd, 2, DIAG).inducer == oplus_power(G_BUMP, 4)
        P = PrimeSequence([2, 3])
        assert lift(Fd, 2, P).inducer == oplus_power(G_BUMP, 6)

    def test_lift_composes(self):
        Fd = DiagonalHomeo(0, G_BUMP)
        assert lift(lift(Fd, 1, DIAG), 3, DIAG) == lift(Fd, 3, DIAG)

    def test_diagonal_json_round_trip(self):
        Fd = DiagonalHomeo(1, G_BUMP)
        assert DiagonalHomeo.from_json_dict(Fd.to_json_dict()) == Fd

    def test_lift_below_base(self):
        with pytest.raises(ValueError):
            lift(DiagonalHomeo(2, G_BUMP), 1, ALL2)

    def test_diagonal_equal(self):
        a = DiagonalHomeo(0, G_BUMP)
        b = DiagonalHomeo(1, oplus_power(G_BUMP, 2))
        assert diagonal_equal(a, b, ALL2)
        assert not diagonal_equal(a, DiagonalHomeo(1, G_BUMP), ALL2)

    @given(homeos("lift-assoc"), st.integers(2, 4), st.integers(2, 3))
    @settings(max_examples=25, deadline=None)
    def test_oplus_power_multiplies(self, g, a, b):
        assert oplus_power(oplus_power(g, a), b) == oplus_power(g, a * b)


class TestEvalDiagonal:
    def test_identity_action(self):
        x = extend_point(F(2, 7), 3, DIAG)
        assert eval_diagonal(DiagonalHomeo(0, identity()), x, DIAG) == x

    def test_coordinate_zero_action(self):
        x = TruncatedKnasterPoint((F(1, 2),))
        out = eval_diagonal(DiagonalHomeo(0, G_BUMP), x, ALL2)
        assert out.coords == (F(3, 4),)

    def test_too_short(self):
        x = TruncatedKnasterPoint((F(1, 2),))
        with pytest.raises(ValueError):
            eval_diagonal(DiagonalHomeo(1, G_BUMP), x, ALL2)

    @given(st.fractions(0, 1), st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_outputs_coherent(self, t, n):
        x = extend_point(t, n, DIAG)
        out = eval_diagonal(DiagonalHomeo(0, G_BUMP), x, DIAG)
        validate_point(out, DIAG)

    def test_equivariance_under_lift(self):
        Fd = DiagonalHomeo(0, G_BUMP)
        x = extend_point(F(5, 8), 2, ALL2)
        assert eval_diagonal(Fd, x, ALL2) == eval_diagonal(
            lift(Fd, 2, ALL2), x, ALL2
        )


class TestDiagDist:
    def test_zero_for_equal(self):
        Fd = DiagonalHomeo(0, G_BUMP)
        d = diag_dist(Fd, Fd, 2, ALL2)
        assert d.lower == 0
        assert d.upper == 0

    def test_frozen_example(self):
        # levels at N=1: (1/2)|g(T2 t) - T2 t| + (1/2)|(g (+) g~)(t) - t|
        # both terms peak at t = 1/4 and 3/4 with values 1/8 and 1/16
        d = diag_dist(
            DiagonalHomeo(0, G_BUMP), DiagonalHomeo(0, identity()), 1, ALL2
        )
        assert d.lower == F(3, 16)
        assert d.witness.coords == (F(1, 2), F(1, 4))
        # high tail weight: C(0, 1) = 3/4 plus r_1 = 4/(3 * 4 * 4) = 1/12
        # is C(0, inf) = 5/6 on all2, and sup|g - id| = 1/4, so the upper
        # bound is the untruncated distance 5/24 = 3/16 + 1/48
        assert d.upper == F(3, 16) + F(1, 48)

    def test_lower_monotone_in_truncation(self):
        rng = derive_rng("diagdist-monotone")
        for _ in range(8):
            a = DiagonalHomeo(0, rand_homeo(rng, max_interior=4, den=16))
            b = DiagonalHomeo(0, rand_homeo(rng, max_interior=4, den=16))
            prev = None
            for n in range(0, 3):
                d = diag_dist(a, b, n, DIAG)
                if prev is not None:
                    assert d.lower >= prev
                prev = d.lower

    def test_interval_brackets_pointwise_values(self):
        # d_H is a sup over stalks, so any evaluated pair bounds it below
        rng = derive_rng("diagdist-pointwise")
        for _ in range(6):
            a = DiagonalHomeo(0, rand_homeo(rng, max_interior=4, den=16))
            b = DiagonalHomeo(0, rand_homeo(rng, max_interior=4, den=16))
            d = diag_dist(a, b, 2, ALL2)
            for i in range(9):
                x = extend_point(F(i, 8), 2, ALL2)
                pt = knaster_dist(
                    eval_diagonal(a, x, ALL2), eval_diagonal(b, x, ALL2), ALL2
                )
                assert pt.lower <= d.lower
            wd = knaster_dist(
                eval_diagonal(a, d.witness, ALL2),
                eval_diagonal(b, d.witness, ALL2),
                ALL2,
            )
            assert wd.lower == d.lower

    def test_invariant_under_prelift(self):
        a = DiagonalHomeo(0, G_BUMP)
        b = DiagonalHomeo(0, identity())
        d0 = diag_dist(a, b, 2, ALL2)
        d1 = diag_dist(lift(a, 1, ALL2), b, 2, ALL2)
        d2 = diag_dist(lift(a, 2, ALL2), lift(b, 1, ALL2), 2, ALL2)
        assert (d0.lower, d0.upper) == (d1.lower, d1.upper)
        assert (d0.lower, d0.upper) == (d2.lower, d2.upper)

    def test_truncation_below_base(self):
        with pytest.raises(ValueError):
            diag_dist(
                DiagonalHomeo(2, G_BUMP), DiagonalHomeo(0, G_BUMP), 1, ALL2
            )


# the deepest common coordinate per schedule: p_1...p_M' is 72 and 128
INVARIANCE_TOP = {"diagonal": 5, "all2": 7}


def _invariance_triple(rng, P, M, split):
    """Inducers f, g, h at coordinate M, each drawn at a base up to M.

    g is drawn on its own, or is f nudged inside one segment, so that
    the two agree off that segment.
    """

    def level_m():
        g = rand_homeo(rng, max_interior=2, den=16)
        return lift(DiagonalHomeo(rng.randint(0, M), g), M, P).inducer

    f, h = level_m(), level_m()
    g = rand_nudge(rng, f, F(1))[0] if split else level_m()
    return f, g, h


@st.composite
def invariance_cases(draw):
    name = draw(st.sampled_from(sorted(INVARIANCE_TOP)))
    P = PrimeSequence(name)
    M = draw(st.integers(1, INVARIANCE_TOP[name]))
    split = draw(st.booleans())
    rng = derive_rng("tower-right-invariance", draw(st.integers(0, 10**6)))
    return (P, M, *_invariance_triple(rng, P, M, split), split)


class TestRightInvariance:
    """diag_dist(F, G) = diag_dist(F∘H, G∘H) = diag_dist(F∘G⁻¹, Id).

    H permutes the stalks the sup runs over, so it moves the witness but
    not the bounds. The lift is a homomorphism (⊕ of a composite is the
    composite of the ⊕s), so the diagonal maps compose as their inducers
    at a common coordinate M'. Both sides run diag_dist, so the law checks
    the candidate set at depths the fraction oracle cannot reach.
    """

    @staticmethod
    def _drawn_as_meant(f, g, split):
        # a nudge agrees off one segment of f, when f has two; a drawn pair
        # is kept when it agrees on no segment, so its support is [0, 1]
        support = oracle_support(f._kbps, g._kbps)
        whole = [((0, 1), (1, 1))]
        if split:
            return len(f._kbps) > 2 and len(support) == 1 and support != whole
        return support == whole

    @staticmethod
    def _check(P, M, f, g, h):
        pairs = [
            (f, g),
            (compose(f, h), compose(g, h)),
            (compose(f, g.invert()), identity()),
        ]
        for N in range(M, M + 3):
            bounds = {
                (d.lower, d.upper)
                for d in (diag_dist(DiagonalHomeo(M, a), DiagonalHomeo(M, b), N, P)
                          for a, b in pairs)
            }
            assert len(bounds) == 1, (N, bounds)

    @given(invariance_cases())
    @settings(max_examples=60, deadline=None)
    def test_bounds_are_right_invariant(self, case):
        P, M, f, g, h, split = case
        assume(self._drawn_as_meant(f, g, split))
        self._check(P, M, f, g, h)

    @pytest.mark.parametrize("name", sorted(INVARIANCE_TOP))
    @pytest.mark.parametrize("split", [False, True])
    def test_bounds_are_right_invariant_at_the_deepest_coordinate(self, name, split):
        P, M = PrimeSequence(name), INVARIANCE_TOP[name]
        rng = derive_rng("tower-right-invariance-deep", name, split)
        triples = (_invariance_triple(rng, P, M, split) for _ in range(20))
        kept = [t for t in triples if self._drawn_as_meant(t[0], t[1], split)][:5]
        assert len(kept) == 5
        for f, g, h in kept:
            self._check(P, M, f, g, h)


class TestSemiconjugacyDownTower:
    """The bonding maps intertwine a lift with its base inducer."""

    @given(homeos("tower"), st.integers(1, 3))
    @settings(max_examples=20, deadline=None)
    def test_projection_commutes(self, g, n):
        Fd = DiagonalHomeo(0, g)
        up = lift(Fd, n, DIAG)
        d = DIAG.product(1, n)
        assert compose(g, tent(d)) == compose(tent(d), up.inducer)

    @given(st.integers(2, 7), st.fractions(0, 1))
    @settings(max_examples=60, deadline=None)
    def test_tent_value_matches_map(self, d, x):
        assert tent_value(d, x) == tent(d)(x)
