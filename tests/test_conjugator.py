"""Conjugator synthesis: exact post-checks are the oracle throughout."""

import time
from fractions import Fraction as F

import pytest

import knaster_lab._kernel_py as _k
import knaster_lab.conjugator as conjugator
from knaster_lab import PLHomeo, compose, identity, reflect, sup_dist, to_json_dict
from knaster_lab.conjugator import (
    ConjugatorError,
    FixedStructureError,
    GridNotFixedError,
    OrbitCapError,
    SignatureMismatchError,
    _check_fixed_structure,
    approx_conjugator,
    conjugator_certificate,
    grid_block_conjugate,
    pseudo_generic,
)
from knaster_lab.randgen import derive_rng, rand_homeo, rand_signature_homeo
from knaster_lab.rational import format_rational
from knaster_lab.signatures import signature
from knaster_lab.tents import oplus_power

from generators import rand_sign_list
from test_conjugator_oracle import _is_squeeze, oracle_end_segment

BUMP = PLHomeo([(0, 0), (F(1, 2), F(3, 4)), (1, 1)])
DIP = PLHomeo([(0, 0), (F(1, 2), F(1, 4)), (1, 1)])


def check(f, g, eta):
    h = approx_conjugator(f, g, eta)
    assert sup_dist(compose(compose(h.invert(), f), h), g) < F(eta)
    return h


def test_identity_shortcut():
    assert approx_conjugator(BUMP, BUMP, F(1, 100)) == identity()


def test_signature_mismatch():
    with pytest.raises(SignatureMismatchError):
        approx_conjugator(BUMP, DIP, F(1, 10))


def test_single_positive_interval():
    g = PLHomeo([(0, 0), (F(1, 4), F(2, 3)), (1, 1)])
    check(BUMP, g, F(1, 100))


def test_single_negative_interval():
    g = PLHomeo([(0, 0), (F(3, 4), F(1, 3)), (1, 1)])
    check(DIP, g, F(1, 100))


def test_two_interval_pair():
    f = PLHomeo([(0, 0), (F(1, 4), F(3, 8)), (F(1, 2), F(1, 2)), (F(3, 4), F(5, 8)), (1, 1)])
    g = PLHomeo([(0, 0), (F(1, 3), F(1, 2)), (F(3, 5), F(3, 5)), (F(4, 5), F(7, 10)), (1, 1)])
    assert signature(f) == [1, -1] == signature(g)
    check(f, g, F(1, 50))


def test_orbit_tail_skips_segment_search(monkeypatch):
    # near each component end the orbit stays in one end segment of g and
    # of f, so the tail steps without searching for a segment
    f = PLHomeo([(0, 0), (F(1, 4), F(3, 8)), (F(1, 2), F(1, 2)), (F(3, 4), F(5, 8)), (1, 1)])
    g = PLHomeo([(0, 0), (F(1, 3), F(1, 2)), (F(3, 5), F(3, 5)), (F(4, 5), F(7, 10)), (1, 1)])
    counts = {"segment_of": 0, "steps": 0, "tail_pieces": 0}
    segment_of = conjugator._k.segment_of
    spend = conjugator._Budget.spend
    affine_tail = conjugator._affine_tail

    def counted_segment_of(*args):
        counts["segment_of"] += 1
        return segment_of(*args)

    def counted_spend(self):
        counts["steps"] += 1
        spend(self)

    def counted_tail(*args):
        pieces = affine_tail(*args)
        counts["tail_pieces"] += len(pieces)
        return pieces

    monkeypatch.setattr(conjugator._k, "segment_of", counted_segment_of)
    monkeypatch.setattr(conjugator._Budget, "spend", counted_spend)
    monkeypatch.setattr(conjugator, "_affine_tail", counted_tail)
    check(f, g, F(1, 10000))
    assert counts["tail_pieces"] > 0
    assert counts["segment_of"] < counts["steps"]


def test_gap_both_nondegenerate():
    # both maps pause on a middle interval: the gap maps affinely, exactly
    f = PLHomeo([(0, 0), (F(1, 8), F(1, 4)), (F(2, 5), F(2, 5)), (F(3, 5), F(3, 5)), (F(4, 5), F(7, 8)), (1, 1)])
    g = PLHomeo([(0, 0), (F(1, 4), F(3, 8)), (F(1, 2), F(1, 2)), (F(7, 10), F(7, 10)), (F(4, 5), F(9, 10)), (1, 1)])
    assert signature(f) == [1, 1] == signature(g)
    check(f, g, F(1, 50))


def test_gap_g_pinched_f_paused():
    # g meets the diagonal at one point where f pauses on an interval
    f = PLHomeo([(0, 0), (F(1, 8), F(1, 4)), (F(2, 5), F(2, 5)), (F(3, 5), F(3, 5)), (F(4, 5), F(7, 8)), (1, 1)])
    g = PLHomeo([(0, 0), (F(1, 4), F(3, 8)), (F(1, 2), F(1, 2)), (F(3, 4), F(7, 8)), (1, 1)])
    assert signature(f) == [1, 1] == signature(g)
    check(f, g, F(1, 50))


# the squeeze case: g pauses on [2/5, 3/5] but f only touches at 1/2
SQUEEZE = (
    PLHomeo([(0, 0), (F(1, 4), F(3, 8)), (F(1, 2), F(1, 2)), (F(3, 4), F(7, 8)), (1, 1)]),
    PLHomeo([(0, 0), (F(1, 8), F(1, 4)), (F(2, 5), F(2, 5)), (F(3, 5), F(3, 5)), (F(4, 5), F(7, 8)), (1, 1)]),
)


def test_gap_g_paused_f_pinched():
    f, g = SQUEEZE
    assert signature(f) == [1, 1] == signature(g)
    check(f, g, F(1, 20))


def test_boundary_gap_mismatch():
    # f pauses at the start, g does not (and the reverse at the far end)
    f = PLHomeo([(0, 0), (F(1, 4), F(1, 4)), (F(1, 2), F(5, 8)), (1, 1)])
    g = PLHomeo([(0, 0), (F(1, 2), F(7, 8)), (1, 1)])
    assert signature(f) == [1] == signature(g)
    check(f, g, F(1, 20))
    check(g, f, F(1, 20))


def test_random_matched_pairs():
    rng = derive_rng("conj-random")
    for trial in range(25):
        signs = rand_sign_list(rng, rng.randint(1, 4))
        f = rand_signature_homeo(rng, signs)
        g = rand_signature_homeo(rng, signs)
        h = check(f, g, F(1, 100))
        assert isinstance(h, PLHomeo)


def _end_multipliers(h):
    """h's slopes just inside each end of each gap between its fixed intervals."""
    bps = h._kbps
    ivs = _k.fixed_structure(bps)[0]
    for (_, lo), (hi, _) in zip(ivs, ivs[1:]):
        for end, high in ((lo, False), (hi, True)):
            yield F(*_k.segment_affine(bps, oracle_end_segment(bps, end, high))[0])


def _slow_tail_pairs(seed, count):
    """count near-neutral and count squeeze pairs of equal signature, by kind.

    Near-neutral: f or g has a multiplier strictly between 10/11 and 11/10
    at a fixed point, and there is no squeeze gap. Squeeze: g pauses on a
    fixed interval where f only touches. The synthesis benchmark skips the
    first kind and runs the second at eta 1/100 only. Every other pair is
    reflected, so both signs meet both kinds.
    """
    rng = derive_rng("conj-slow-tails", seed)
    found = {"neutral": [], "squeeze": []}
    waiting = {}
    while min(len(v) for v in found.values()) < count:
        g = rand_homeo(rng)
        g_ivs, signs = _k.fixed_structure(g._kbps)
        if not signs:
            continue
        f = waiting.pop(tuple(signs), None)
        if f is None or f == g:
            waiting[tuple(signs)] = g
            continue
        f_ivs = _k.fixed_structure(f._kbps)[0]
        if _is_squeeze(f_ivs, g_ivs):
            kind = "squeeze"
        elif any(F(10, 11) < s < F(11, 10) for h in (f, g) for s in _end_multipliers(h)):
            kind = "neutral"
        else:
            continue
        if len(found[kind]) < count:
            if len(found[kind]) % 2:
                f, g = reflect(f), reflect(g)
            found[kind].append((f, g))
    return found


@pytest.mark.parametrize("eta", [F(1, 100), F(1, 1000)])
def test_slow_tail_pairs_pass_their_postcheck(eta):
    # every build passes its exact post-check at the per-cell budget (a
    # miss raises), and pairs with no squeeze gap spend more than the
    # eta/2 that every pair ran at before
    worst = {}
    for kind, pairs in _slow_tail_pairs(1, 16).items():
        worst[kind] = F(0)
        for f, g in pairs:
            h, achieved, _ = conjugator._checked_conjugator(f, g, eta)
            assert achieved == sup_dist(compose(compose(h.invert(), f), h), g) < eta
            worst[kind] = max(worst[kind], achieved / eta)
    assert worst["neutral"] > F(1, 2)


def test_orbit_cap_guard(monkeypatch):
    monkeypatch.setattr(conjugator, "MAX_ORBIT_STEPS", 3)
    g = PLHomeo([(0, 0), (F(1, 4), F(2, 3)), (1, 1)])
    with pytest.raises(OrbitCapError, match="use a larger eta"):
        approx_conjugator(BUMP, g, F(1, 1000))


def test_certificate():
    g = PLHomeo([(0, 0), (F(1, 4), F(2, 3)), (1, 1)])
    cert = conjugator_certificate(BUMP, g, F(1, 100))
    assert cert["ok"] is True
    assert cert["eta"] == "1/100"
    assert set(cert) == {
        "f",
        "g",
        "conjugator",
        "breakpoints",
        "max_den_bits",
        "orbit_steps",
        "achieved_distance",
        "eta",
        "ok",
    }
    # the certificate records approx_conjugator's map and the exact
    # distance its post-check found
    h = approx_conjugator(BUMP, g, F(1, 100))
    assert cert["conjugator"] == to_json_dict(h)
    achieved = sup_dist(compose(compose(h.invert(), BUMP), h), g)
    assert cert["achieved_distance"] == format_rational(achieved)


def test_grid_block_conjugate():
    rng = derive_rng("gridblock")
    f = rand_signature_homeo(rng, [1])
    d = 3
    blocks = [
        rand_signature_homeo(rng, [1]),
        reflect(rand_signature_homeo(rng, [1])),
        rand_signature_homeo(rng, [1]),
    ]
    from knaster_lab.tents import block_sum

    h = block_sum(blocks)
    for i in range(d + 1):
        assert h(F(i, d)) == F(i, d)
    g = grid_block_conjugate(f, d, h, F(1, 40))
    conj = compose(compose(g.invert(), oplus_power(f, d)), g)
    assert sup_dist(conj, h) < F(1, 40)
    for i in range(d + 1):
        assert g(F(i, d)) == F(i, d)


def test_grid_block_trivial():
    f = BUMP
    h = oplus_power(f, 2)
    g = grid_block_conjugate(f, 2, h, F(1, 10))
    assert sup_dist(compose(compose(g.invert(), oplus_power(f, 2)), g), h) < F(1, 10)


def test_grid_block_errors():
    with pytest.raises(GridNotFixedError):
        grid_block_conjugate(BUMP, 2, BUMP, F(1, 10))
    # blocks with the wrong orientation pattern
    h = oplus_power(DIP, 2)
    with pytest.raises(SignatureMismatchError):
        grid_block_conjugate(BUMP, 2, h, F(1, 10))


@pytest.mark.parametrize("d", [0, -2])
def test_degree_below_one_refused(d):
    ref = oplus_power(BUMP, 2)
    with pytest.raises(ValueError, match="degree must be a positive integer"):
        grid_block_conjugate(BUMP, d, ref, F(1, 10))


def test_pseudo_generic():
    h = pseudo_generic(4, 7)
    assert signature(h) == [1, -1, 1, -1]
    again = pseudo_generic(4, 7)
    assert again == h
    other = pseudo_generic(4, 8)
    assert other != h
    with pytest.raises(ValueError):
        pseudo_generic(0)


# The post-checks below are certificates, so they must raise (not assert,
# which python -O strips). Each test breaks one construction step.


def test_one_build_then_postcheck_raises(monkeypatch):
    # a build that misses eta is refused, never rebuilt at a finer cap
    caps = []

    def build(f, g, f_ivs, g_ivs, signs, eta_cap, budget):
        caps.append(eta_cap)
        return identity()

    monkeypatch.setattr(conjugator, "_build_conjugator", build)
    g = PLHomeo([(0, 0), (F(1, 4), F(2, 3)), (1, 1)])
    with pytest.raises(ConjugatorError, match="post-check failed"):
        approx_conjugator(BUMP, g, F(1, 100))
    f, g = SQUEEZE
    with pytest.raises(ConjugatorError, match="post-check failed"):
        approx_conjugator(f, g, F(1, 100))
    # eta_cap as a kernel pair: all of eta with no squeeze gap, eta/2 with one
    assert caps == [(1, 100), (1, 200)]


def test_blockwise_norm_postcheck_raises(monkeypatch):
    monkeypatch.setattr(conjugator, "block_sum", lambda blocks: identity())
    f = BUMP
    h = oplus_power(PLHomeo([(0, 0), (F(1, 2), F(5, 8)), (1, 1)]), 2)
    with pytest.raises(ConjugatorError, match="block norm"):
        grid_block_conjugate(f, 2, h, F(1, 10))


def test_blockwise_distance_postcheck_raises(monkeypatch):
    # identity blocks pass the norm check (0 == 0), but the identity does
    # not conjugate oplus_power(BUMP, 2) to within 1/100 of this target:
    # the blocks' bumps differ by 1/8 at 1/2, so by 1/16 after rescaling
    monkeypatch.setattr(
        conjugator, "approx_conjugator", lambda f, g, eta: identity()
    )
    h = oplus_power(PLHomeo([(0, 0), (F(1, 2), F(5, 8)), (1, 1)]), 2)
    with pytest.raises(ConjugatorError, match="achieved 1/16, needed < 1/100"):
        grid_block_conjugate(BUMP, 2, h, F(1, 100))


def test_pseudo_generic_signature_postcheck_raises(monkeypatch):
    monkeypatch.setattr(conjugator, "rand_signature_homeo", lambda rng, signs: BUMP)
    with pytest.raises(SignatureMismatchError):
        pseudo_generic(2, 3)


# ------------------------------------------------- the conjugate, built once


def _conjugate_pairs():
    """Equal-signature pairs: random ones, the squeeze pair, a map against
    itself and a block sum of a pseudo-generic map against a random
    target, as the density experiment draws them; each also reflected."""
    rng = derive_rng("checked-conjugate", 0)
    fm = oplus_power(pseudo_generic(2, 5), 4)
    pairs = [SQUEEZE, (BUMP, BUMP), (fm, rand_signature_homeo(rng, signature(fm)))]
    for _ in range(20):
        signs = rand_sign_list(rng, rng.randint(1, 4))
        pairs.append((rand_signature_homeo(rng, signs), rand_signature_homeo(rng, signs)))
    return pairs + [(reflect(f), reflect(g)) for f, g in pairs]


def test_checked_conjugate_is_the_chain_of_the_checked_conjugator():
    # the same build: the conjugate is h⁻¹∘f∘h for the h the merged-walk
    # post-check passed, and the gap read off it is that check's
    for f, g in _conjugate_pairs():
        for eta in (F(1, 100), F(1, 1000)):
            h, gap, steps = conjugator._checked_conjugator(f, g, eta)
            conj, got, got_steps = conjugator._checked_conjugate(f, g, eta)
            assert isinstance(conj, PLHomeo)
            assert conj == compose(compose(h.invert(), f), h)
            assert (got, got_steps) == (gap, steps)


def test_both_checks_refuse_a_wrong_build(monkeypatch):
    # each build is followed by a small nudge, so h⁻¹∘f∘h is near a
    # conjugate of g and not near g: each check must refuse exactly the
    # builds whose chain misses eta, with the same message
    real = conjugator._build_conjugator
    nudge = PLHomeo([(0, 0), (F(1, 2), F(33, 64)), (1, 1)])

    def nudged(*args):
        return compose(real(*args), nudge)

    monkeypatch.setattr(conjugator, "_build_conjugator", nudged)
    eta = F(1, 1000)
    refused = 0
    for f, g in _conjugate_pairs():
        h, _ = conjugator._checked_build(f, g, eta)
        want = sup_dist(compose(compose(h.invert(), f), h), g)
        for check in (conjugator._checked_conjugator, conjugator._checked_conjugate):
            if want < eta:
                assert check(f, g, eta)[1] == want
                continue
            with pytest.raises(ConjugatorError) as err:
                check(f, g, eta)
            assert str(err.value) == f"post-check failed: achieved {want}, needed < {eta}"
        refused += want >= eta
    assert refused > 20, refused
    # and the identity, which conjugates nothing
    monkeypatch.setattr(conjugator, "_build_conjugator", lambda *args: identity())
    for check in (conjugator._checked_conjugator, conjugator._checked_conjugate):
        with pytest.raises(ConjugatorError, match="achieved 1/8, needed < 1/100"):
            check(BUMP, PLHomeo([(0, 0), (F(1, 2), F(5, 8)), (1, 1)]), F(1, 100))


# ------------------------------------------------- fixed structure, checked

# each map has one isolated fixed point inside a segment, at 1/2
ROOTED = (
    PLHomeo([(0, 0), (F(1, 4), F(3, 8)), (F(3, 4), F(5, 8)), (1, 1)]),
    PLHomeo([(0, 0), (F(1, 5), F(3, 10)), (F(4, 5), F(7, 10)), (1, 1)]),
)


def _drop_isolated_roots(real):
    """_kernel_py.fixed_structure with its isolated roots inside a segment
    left out: a root's interval goes, and so does the sign of the gap after
    it, as when the line that appends the root is deleted."""

    def mutant(bps):
        ivs, signs = real(bps)
        xs = {p[:2] for p in bps}
        keep = [not (a == b and a not in xs) for a, b in ivs]
        return ([iv for iv, k in zip(ivs, keep) if k],
                [s for s, k in zip(signs, keep) if k])

    return mutant


def test_a_wrong_fixed_structure_is_refused_at_once(monkeypatch):
    # with the roots dropped, both maps read as one + gap on (0, 1), so
    # the signatures agree and synthesis would spend its whole orbit budget
    # (over a minute per pair) before a post-check could refuse
    monkeypatch.setattr(_k, "fixed_structure", _drop_isolated_roots(_k.fixed_structure))
    for f, g in (ROOTED, (reflect(ROOTED[0]), reflect(ROOTED[1])), ROOTED[::-1]):
        assert signature(f) == signature(g) == [signature(f)[0]]
        start = time.perf_counter()
        with pytest.raises(FixedStructureError, match="wrong sign"):
            approx_conjugator(f, g, F(1, 100))
        assert time.perf_counter() - start < 5


def test_the_fixed_structure_check_passes_every_real_structure():
    rng = derive_rng("fixed-structure-check", 0)
    maps = [rand_homeo(rng) for _ in range(300)] + list(ROOTED) + [BUMP, DIP, identity()]
    for h in maps:
        for m in (h, reflect(h)):
            _check_fixed_structure(m._kbps, *_k.fixed_structure(m._kbps))


HALF = (1, 2)
WRONG = {
    # ROOTED[0]: fixed on {0, 1/2, 1}, + on (0, 1/2), - on (1/2, 1)
    "wrong sign": ([((0, 1), (0, 1)), (HALF, HALF), ((1, 1), (1, 1))], [1, 1]),
    "one sign per gap": ([((0, 1), (0, 1)), (HALF, HALF), ((1, 1), (1, 1))], [1]),
    "is not fixed": ([((0, 1), (0, 1)), ((1, 3), (1, 3)), ((1, 1), (1, 1))], [1, -1]),
    "has sign 0": ([((0, 1), (0, 1)), (HALF, HALF), ((1, 1), (1, 1))], [1, 0]),
    "out of order": (
        [((0, 1), (0, 1)), (HALF, HALF), (HALF, HALF), ((1, 1), (1, 1))], [1, 1, -1]
    ),
}


@pytest.mark.parametrize("why", sorted(WRONG))
def test_the_fixed_structure_check_refuses(why):
    ivs, signs = WRONG[why]
    assert _k.fixed_structure(ROOTED[0]._kbps) != (ivs, signs)
    with pytest.raises(FixedStructureError, match=why):
        _check_fixed_structure(ROOTED[0]._kbps, ivs, signs)


def test_a_gap_without_a_breakpoint_is_refused():
    # the identity's ends are fixed, but a gap's sign needs a breakpoint
    ivs = [((0, 1), (0, 1)), ((1, 1), (1, 1))]
    with pytest.raises(FixedStructureError, match="holds no breakpoint"):
        _check_fixed_structure(identity()._kbps, ivs, [1])


def test_a_fixed_interval_with_a_moved_breakpoint_is_refused():
    # [1/4, 3/4] claimed fixed, but h moves its interior breakpoint 1/2
    h = PLHomeo([(0, 0), (F(1, 8), F(3, 16)), (F(1, 4), F(1, 4)), (F(1, 2), F(5, 8)),
                 (F(3, 4), F(3, 4)), (F(7, 8), F(13, 16)), (1, 1)])
    ivs = [((0, 1), (0, 1)), ((1, 4), (3, 4)), ((1, 1), (1, 1))]
    assert signature(h) == [1, 1, -1]
    with pytest.raises(FixedStructureError, match="wrong sign at 1/2"):
        _check_fixed_structure(h._kbps, ivs, [1, -1])
