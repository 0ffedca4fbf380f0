"""Certified bound checkers: frozen worked examples, then seeded sweeps.

The frozen expectations were computed by hand from the tent fold
geometry; comments in each test carry the arithmetic.
"""

from fractions import Fraction

import pytest

import knaster_lab.lemmas as lemmas
from knaster_lab.knaster import (
    CertifiedDistance,
    DiagonalHomeo,
    PrimeSequence,
    TruncatedKnasterPoint,
    diag_dist,
    lift,
)
from knaster_lab.lemmas import (
    CounterexampleError,
    TentWitness,
    _tent_pair,
    certify_mod_bound,
    check_tent_witness,
    comod_lower_bound_check,
    separation_lower_bound,
    tent_witness,
)
from knaster_lab.plmap import (
    PLHomeo,
    compose,
    from_json_dict,
    identity,
    reflect,
    sup_dist,
    sup_dist_witness,
    to_json_dict,
)
from knaster_lab.randgen import (
    derive_rng,
    nudge_homeo,
    perturb_homeo,
    rand_homeo,
    rand_nudge,
)
from knaster_lab.rational import format_rational
from knaster_lab.tents import tent, tent_value

ALL2 = PrimeSequence("all2")
DIAG = PrimeSequence("diagonal")
F = Fraction


def bump(x, y):
    return PLHomeo([(F(0), F(0)), (F(x), F(y)), (F(1), F(1))])


# ---------------------------------------------------------------- mod bound


def test_mod_bound_equal_maps_is_zero():
    cert = certify_mod_bound(identity(), identity(), 2, F(1, 10), DIAG)
    assert cert.lower == 0
    assert cert.upper == 0
    assert cert.truncation == 2


def test_mod_bound_frozen_bump_vs_identity():
    # coord 0, all2, eps = 1/3: sup gap 1/4 < 1/3. At N = 0 the only
    # level is D0 = bump - id with sup 1/4 at x = 1/2, so lower = 1/8;
    # the tail weight 4/(3*2*2) = 1/3 lifts 1/2 to 5/6, upper = 5/24 < 1/3.
    cert = certify_mod_bound(bump("1/2", "3/4"), identity(), 0, F(1, 3), ALL2)
    assert cert.truncation == 0
    assert cert.lower == F(1, 8)
    assert cert.upper == F(5, 24)
    assert cert.witness == TruncatedKnasterPoint((F(1, 2),))


def test_mod_bound_close_pair_certifies_under_a_tenth():
    # first prime 2, coordinate 1: the precondition asks for sup < 1/20
    h = bump("1/2", F(1, 2) + F(1, 25))
    cert = certify_mod_bound(identity(), h, 1, F(1, 10), DIAG)
    assert cert.upper < F(1, 10)
    # the certificate is literally the certified interval at its truncation
    again = diag_dist(
        DiagonalHomeo(1, identity()), DiagonalHomeo(1, h), cert.truncation, DIAG
    )
    assert again == cert


def test_mod_bound_rejects_pair_at_the_threshold():
    with pytest.raises(ValueError):
        certify_mod_bound(bump("1/2", "3/4"), identity(), 0, F(1, 4), ALL2)


def test_mod_bound_rejects_bad_parameters():
    with pytest.raises(ValueError):
        certify_mod_bound(identity(), identity(), 0, F(0), ALL2)
    with pytest.raises(ValueError):
        certify_mod_bound(identity(), identity(), -1, F(1, 2), ALL2)


@pytest.mark.parametrize("P", [ALL2, DIAG], ids=["all2", "diagonal"])
@pytest.mark.parametrize("eps", [F(1, 10), F(1, 50)])
def test_mod_bound_seeded_sweep(P, eps):
    for trial in range(12):
        rng = derive_rng(20260819, "modbound", str(eps), P.describe(), trial)
        g = rand_homeo(rng, 5)
        n = rng.randint(0, 3)
        h, _ = rand_nudge(rng, g, eps / P.product(1, n))
        cert = certify_mod_bound(g, h, n, eps, P)
        assert cert.truncation == n
        # the bound of certify_mod_bound's docstring, well inside eps
        assert cert.upper < 5 * eps / 6


def test_mod_bound_self_check_raises_with_replay_payload(monkeypatch):
    # a diag_dist that reports eps itself must not pass as a certificate
    def too_far(a, b, N, P):
        return CertifiedDistance(F(0), F(1, 10), N, None)

    monkeypatch.setattr(lemmas, "diag_dist", too_far)
    h = bump("1/2", F(1, 2) + F(1, 25))
    with pytest.raises(CounterexampleError) as err:
        certify_mod_bound(identity(), h, 1, F(1, 10), DIAG)
    payload = err.value.payload
    assert from_json_dict(payload["g"]) == identity()
    assert from_json_dict(payload["h"]) == h
    assert payload["coord"] == 1
    assert payload["eps"] == "1/10"


# -------------------------------------------------------------- tent witness


# The anchored walk of the proof, kept as an oracle for tent_witness's
# search: from the sup point of f and g it walks grid indices upward
# (or, mirrored through x -> 1-x, downward) until the tent composites
# separate, so its case-2 answers are grid preimages the search visits.


def _payload(f, g, d, delta):
    return {
        "f": to_json_dict(f),
        "g": to_json_dict(g),
        "d": d,
        "delta": format_rational(delta),
    }


def _trace_up(lo, hi, d, delta, j):
    """Walk the anchored grid indices upward until a witness appears.

    Invariant entering each step: hi exceeds lo by at least delta/(2d)
    at the point where lo hits k/d. The composed values then either
    separate enough to answer, or hi's value is within delta/(2d) of a
    grid point of the same parity at least two steps up.
    """
    half = delta / 2
    width = delta / (2 * d)
    k = j
    for _ in range(d + 2):
        x = lo.preimage(Fraction(k, d))
        a = Fraction(k & 1)
        b = tent_value(d, hi(x))
        diff = abs(a - b)
        if diff >= delta:
            return TentWitness(x, 1)
        if diff >= half:
            return TentWitness(x, 2)
        v = hi(x) * d + Fraction(1, 2)
        kp = v.numerator // v.denominator
        if (
            abs(hi(x) - Fraction(kp, d)) >= width
            or kp % 2 != k % 2
            or kp < k + 2
        ):
            raise CounterexampleError(
                "tent trace lost the walk invariant",
                {"k": k, "kp": kp, "x": format_rational(x)},
            )
        k = kp - 1
    raise CounterexampleError("tent trace failed to terminate", {"k": k})


def oracle_walk_witness(f, g, d, delta):
    """The walk's TentWitness; same preconditions as tent_witness."""
    delta = Fraction(delta)
    m, x0 = sup_dist_witness(f, g)
    a, b = _tent_pair(f, g, d, x0)
    if abs(a - b) >= delta:
        return TentWitness(x0, 1)
    lo, hi = (f, g) if f(x0) < g(x0) else (g, f)
    va, vb = lo(x0), hi(x0)
    js = [j for j in range(1, d) if va < Fraction(j, d) < vb]
    if not js:
        raise CounterexampleError(
            "trace found no separating grid point", _payload(f, g, d, delta)
        )
    width = delta / (2 * d)
    up = [j for j in js if vb - Fraction(j, d) >= width]
    if up:
        return _trace_up(lo, hi, d, delta, max(up))
    down = [j for j in js if Fraction(j, d) - va >= width]
    if down:
        # mirror through x -> 1-x; tent values reflect within {0,1}
        w = _trace_up(reflect(hi), reflect(lo), d, delta, d - min(down))
        return TentWitness(1 - w.x, w.case)
    raise CounterexampleError(
        "neither walk direction had enough margin", _payload(f, g, d, delta)
    )


def oracle_case_one(f, g, d, delta):
    """The case-1 search tent_witness replaced: the sup of the built
    composites T∘f and T∘g, and its leftmost witness; None below delta."""
    m, x = sup_dist_witness(compose(tent(d), f), compose(tent(d), g))
    return TentWitness(x, 1) if m >= delta else None


def test_tent_witness_degree_one_is_plain_sup():
    w = tent_witness(identity(), bump("1/2", "7/10"), 1, F(1, 5))
    assert w == (F(1, 2), 1)
    assert check_tent_witness(identity(), bump("1/2", "7/10"), 1, F(1, 5), w)


def test_tent_witness_gap_inside_one_lap_doubles():
    # gap 1/10 at x = 1/4 stays inside the rising lap, so the fold
    # doubles it: |T2 f - T2 g|(1/4) = 1/5 = delta, a case-1 witness
    g = bump("1/4", "7/20")
    w = tent_witness(identity(), g, 2, F(1, 5))
    assert w == (F(1, 4), 1)
    assert check_tent_witness(identity(), g, 2, F(1, 5), w)


def test_tent_witness_straddling_gap_needs_case_two():
    # gap 1/10 at x = 9/20 straddles the fold: f below 1/2, g above, so
    # the composed sup collapses to 2/11 < 1/5. The search lands on
    # g's preimage of 1/2 at x = 9/22, where T2 g = 1 and T2 f = 9/11.
    g = bump("9/20", "11/20")
    w = tent_witness(identity(), g, 2, F(1, 5))
    assert w == (F(9, 22), 2)
    assert check_tent_witness(identity(), g, 2, F(1, 5), w)


def test_tent_witness_trace_matches_on_straddling_gap():
    # the walk answers at the identity's preimage of 1/2, the search at
    # g's; both are grid preimages the search enumerates
    g = bump("9/20", "11/20")
    w = oracle_walk_witness(identity(), g, 2, F(1, 5))
    assert w == (F(1, 2), 2)
    assert check_tent_witness(identity(), g, 2, F(1, 5), w)


def test_tent_witness_trace_walks_the_mirror():
    # downward bump forced the reflected walk: at the sup point 21/40
    # the identity sits 1/40 under the fold (no upward margin) while g
    # sits 3/40 below it, so the mirrored walk answers at x = 1/2
    g = bump("21/40", "17/40")
    w = oracle_walk_witness(identity(), g, 2, F(1, 5))
    assert w == (F(1, 2), 2)
    assert check_tent_witness(identity(), g, 2, F(1, 5), w)
    w2 = tent_witness(identity(), g, 2, F(1, 5))
    assert w2 == (F(1, 2), 2)


def test_tent_witness_rejects_bad_inputs():
    g = bump("1/2", "3/4")
    with pytest.raises(ValueError):
        tent_witness(identity(), g, 2, F(1, 4))
    with pytest.raises(ValueError):
        tent_witness(identity(), g, 0, F(1, 5))
    with pytest.raises(ValueError):
        tent_witness(identity(), bump("1/2", "51/100"), 2, F(1, 5))


@pytest.mark.parametrize("stream", ["search", "trace"])
def test_tent_witness_seeded_sweep(stream):
    # search and walk on each draw: both witnesses recheck exactly, and
    # every case-2 point of the walk is a grid preimage of f or g, one
    # of the candidates the search enumerates. Of the two 40-draw
    # streams, only "trace" gives a case-2 walk witness (one).
    deltas = [F(1, 5), F(1, 8), F(1, 6)]
    walk_case_two = 0
    for trial in range(40):
        rng = derive_rng(20260819, "tentwit", stream, trial)
        d = rng.choice([2, 3, 4, 6, 8])
        delta = rng.choice(deltas)
        f = rand_homeo(rng, 6)
        x0 = F(rng.randint(1, 36), 37)
        y = f(x0)
        need = delta / d + F(rng.randint(1, 8), 256)
        y0 = y + need if y + need < 1 else y - need
        g = perturb_homeo(f, x0, y0)
        assert sup_dist(f, g) >= delta / d
        w = tent_witness(f, g, d, delta)
        assert check_tent_witness(f, g, d, delta, w)
        # the merged walk's case-1 witness is the built composites'
        one = oracle_case_one(f, g, d, delta)
        assert (w if w.case == 1 else None) == one
        walk = oracle_walk_witness(f, g, d, delta)
        assert check_tent_witness(f, g, d, delta, walk)
        if walk.case == 2:
            walk_case_two += 1
            grid = [F(k, d) for k in range(d + 1)]
            cands = {h.preimage(y) for h in (f, g) for y in grid}
            assert walk.x in cands
    if stream == "trace":
        assert walk_case_two >= 1


def test_tent_witness_builds_no_composite(monkeypatch):
    def refuse(*_):
        raise AssertionError("tent_witness built a composite")

    g = bump("1/4", "7/20")
    want = tent_witness(identity(), g, 2, F(1, 5))
    monkeypatch.setattr(lemmas._k, "compose", refuse)
    assert tent_witness(identity(), g, 2, F(1, 5)) == want == (F(1, 4), 1)


def test_tent_witness_is_deterministic():
    g = bump("9/20", "11/20")
    assert tent_witness(identity(), g, 2, F(1, 5)) == tent_witness(
        identity(), g, 2, F(1, 5)
    )


# -------------------------------------------------------------- separation


def test_separation_frozen_grid_bump():
    # all2, n=0, m=1: d = 2 and the window moves 1/2 to 5/8, margin 1/8.
    # eta = 1/16 sits exactly at the non-strict boundary 2*eta = 1/8.
    # The stalk through 1/2 is (1, 1/2); the window sends it to (3/4, 5/8),
    # so the metric there is |1 - 3/4|/2 + |1/2 - 5/8|/2 = 3/16, which is
    # also diag_dist's lower bound at N=1.
    Fd = DiagonalHomeo(0, identity())
    h = bump("1/2", "5/8")
    cert = separation_lower_bound(Fd, h, 1, F(1, 16), ALL2)
    assert cert.bound == F(1, 32)
    assert cert.lower == F(3, 16)
    assert cert.witness == TruncatedKnasterPoint((F(1), F(1, 2)))
    assert diag_dist(Fd, DiagonalHomeo(1, h), 1, ALL2).lower == cert.lower


def test_separation_spec_eta():
    cert = separation_lower_bound(
        DiagonalHomeo(0, identity()), bump("1/2", "5/8"), 1, F(1, 20), ALL2
    )
    assert cert.bound == F(1, 40)


def test_separation_rejects_thin_margin():
    with pytest.raises(ValueError):
        separation_lower_bound(
            DiagonalHomeo(0, identity()), bump("1/2", "5/8"), 1, F(1, 15), ALL2
        )
    with pytest.raises(ValueError):
        separation_lower_bound(
            DiagonalHomeo(1, identity()), bump("1/2", "5/8"), 1, F(1, 20), ALL2
        )
    with pytest.raises(ValueError):
        separation_lower_bound(
            DiagonalHomeo(0, identity()), bump("1/2", "5/8"), 1, F(0), ALL2
        )


def test_separation_certifies_at_the_stalk_alone(monkeypatch):
    # one stalk settles it: no diag_dist, no lift, no fold
    def refuse(*_):
        raise AssertionError("separation built more than the grid stalk")

    monkeypatch.setattr(lemmas, "diag_dist", refuse)
    monkeypatch.setattr(lemmas, "lift", refuse)
    monkeypatch.setattr(lemmas._k, "compose", refuse)
    cert = separation_lower_bound(
        DiagonalHomeo(0, identity()), bump("1/2", "5/8"), 1, F(1, 16), ALL2
    )
    assert cert.lower == F(3, 16)


def test_separation_self_check_raises_with_replay_payload(monkeypatch):
    # a stalk metric under the bound must not pass as a certificate
    def too_close(a, b, P):
        return CertifiedDistance(F(0), F(1), a.truncation, None)

    monkeypatch.setattr(lemmas, "knaster_dist", too_close)
    h = bump("1/2", "5/8")
    with pytest.raises(CounterexampleError) as err:
        separation_lower_bound(DiagonalHomeo(0, identity()), h, 1, F(1, 16), ALL2)
    payload = err.value.payload
    assert from_json_dict(payload["window"]) == h
    assert payload["coord"] == 1
    assert payload["witness"] == {"coords": ["1", "1/2"]}


@pytest.mark.parametrize("P", [ALL2, DIAG], ids=["all2", "diagonal"])
def test_separation_seeded_sweep(P):
    eta = F(1, 40)
    for trial in range(10):
        rng = derive_rng(20260819, "separation", P.describe(), trial)
        n = rng.randint(0, 1)
        m = n + rng.randint(1, 2)
        Fd = DiagonalHomeo(n, rand_homeo(rng, 4))
        d = P.product(n + 1, m)
        shift = 2 * eta + F(rng.randint(0, 8), 128)
        h = perturb_homeo(rand_homeo(rng, 4), F(1, d), F(1, d) + shift)
        cert = separation_lower_bound(Fd, h, m, eta, P)
        # the stalk through 1/d is one candidate of diag_dist's sup
        oracle = diag_dist(Fd, DiagonalHomeo(m, h), m, P)
        assert oracle.lower >= cert.lower >= cert.bound
        assert cert.witness.truncation == m
        assert cert.witness.coords[m] == F(1, d)


# -------------------------------------------------------------------- comod


def test_comod_equal_coords_uses_sup_witness():
    # j = n = 2, all2, delta = 1/5 with the pair at sup exactly delta.
    # Witness stalk through x2 = 1/2 is (0, 1, 1/2); the images differ
    # by 4/5, 2/5, 1/5 coordinatewise, total 13/20 >= 1/20.
    p_prime = bump("1/2", "7/10")
    cert = comod_lower_bound_check(p_prime, 2, identity(), 2, F(1, 5), ALL2)
    assert cert.route == "direct"
    assert cert.coordinate == 2
    assert cert.bound == F(1, 20)
    assert cert.achieved == F(13, 20)
    assert cert.witness == TruncatedKnasterPoint((F(0), F(1), F(1, 2)))


def test_comod_one_level_up_case_one():
    # n = 3 = j+1, pair with the gap inside one lap of T2: tent witness
    # case 1 at x = 1/4, certified through coordinate j = 2
    p_prime = bump("1/4", "7/20")
    cert = comod_lower_bound_check(p_prime, 3, identity(), 2, F(1, 5), ALL2)
    assert cert.route == "tent-case-1"
    assert cert.coordinate == 2
    assert cert.bound == F(1, 20)
    assert cert.achieved == F(53, 80)
    assert cert.witness == TruncatedKnasterPoint((F(0), F(1), F(1, 2), F(1, 4)))


def test_comod_one_level_up_case_two():
    # straddling gap: tent witness case 2 at x = 9/22; coordinate j = 2
    # holds values 1 and 9/11 (gap 2/11 >= delta/2, one side pinned),
    # and the degree-2 tent amplifies it to 4/11 >= delta at j-1 = 1
    p_prime = bump("9/20", "11/20")
    cert = comod_lower_bound_check(p_prime, 3, identity(), 2, F(1, 5), ALL2)
    assert cert.route == "tent-case-2"
    assert cert.coordinate == 1
    assert cert.achieved == F(53, 88)
    assert cert.witness.coords[3] == F(9, 22)
    assert abs(cert.witness.coords[1] - F(0)) == F(4, 11)


def test_comod_rejects_bad_inputs():
    p_prime = bump("1/2", "7/10")
    with pytest.raises(ValueError):
        comod_lower_bound_check(p_prime, 1, identity(), 1, F(1, 5), ALL2)
    with pytest.raises(ValueError):
        comod_lower_bound_check(p_prime, 1, identity(), 2, F(1, 5), ALL2)
    with pytest.raises(ValueError):
        comod_lower_bound_check(p_prime, 2, identity(), 2, F(1, 4), ALL2)
    with pytest.raises(ValueError):
        # third prime of the explicit schedule is 5, so delta < 1/5 is needed
        comod_lower_bound_check(
            p_prime, 3, identity(), 3, F(21, 100), PrimeSequence([2, 3, 5, 2])
        )
    with pytest.raises(ValueError):
        comod_lower_bound_check(bump("1/2", "51/100"), 2, identity(), 2, F(1, 5), ALL2)


@pytest.mark.parametrize("P", [ALL2, DIAG], ids=["all2", "diagonal"])
def test_comod_seeded_sweep(P):
    for trial in range(12):
        rng = derive_rng(20260819, "comod", P.describe(), trial)
        j = rng.choice([2, 3])
        n = j + rng.randint(0, 1)
        delta = rng.choice([F(1, 5), F(1, 8)])
        if delta >= F(1, P.prime(j)):
            delta = F(1, 8)
        g_phi = rand_homeo(rng, 3)
        lifted = lift(DiagonalHomeo(j, g_phi), n, P).inducer
        x0 = F(rng.randint(1, 36), 37)
        y = lifted(x0)
        need = delta / P.product(j + 1, n) + F(1, 512)
        y0 = y + need if y + need < 1 else y - need
        p_prime = perturb_homeo(lifted, x0, y0)
        cert = comod_lower_bound_check(p_prime, n, g_phi, j, delta, P)
        assert cert.bound == delta / P.product(1, j)
        assert cert.achieved >= cert.bound
        if n == j:
            assert cert.route == "direct"


# ------------------------------------------------------- perturbation tools


def test_nudge_homeo_has_exact_sup_distance():
    h = nudge_homeo(identity(), F(1, 2), F(1, 8))
    assert sup_dist(identity(), h) == F(1, 8)
    h2 = nudge_homeo(identity(), F(1, 4), F(-1, 8))
    assert sup_dist(identity(), h2) == F(1, 8)
    with pytest.raises(ValueError):
        nudge_homeo(identity(), F(1, 2), F(3, 4))


def test_perturb_homeo_forces_the_point():
    f = bump("1/4", "3/4")
    g = perturb_homeo(f, F(1, 2), F(1, 4))
    assert g(F(1, 2)) == F(1, 4)
    xs = [x for x, _ in g.breakpoints]
    assert xs == sorted(xs)


def test_rand_nudge_respects_bound():
    rng = derive_rng(20260819, "nudge")
    for _ in range(20):
        f = rand_homeo(rng, 5)
        h, amt = rand_nudge(rng, f, F(1, 10))
        assert sup_dist(f, h) == abs(amt)
        assert 0 < abs(amt) < F(1, 10)
