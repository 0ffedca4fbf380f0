"""The collapsed tower against the brute-force tower it replaced.

diag_dist lifts both maps only to their larger base coordinate M and
weights the level-M difference by the collapsed tail C(M, N);
eval_diagonal walks the stalk's block indices. The oracles below are
the straightforward versions: lift both inducers to the truncation N
one level at a time (p_1...p_N copies), fold every level down to 0, and
evaluate the lifted inducer directly. The lower bounds and witnesses
must agree exactly, and both witnesses must realize the lower bound.
diag_dist's upper bound puts the tail inside the sup instead of adding
it after, so it may only be tighter than the oracle's; on all2 it must
equal the untruncated distance, folded independently below. lift itself
is one block sum of the product degree, and must match the
level-by-level lift bit for bit.

The oracles build their stalks and evaluate through the Fraction stalk
layer of tests/fraction_tower.py, not the code under test. Against that
layer, diag_dist's witness, tail weights and bounds, and the stalk
functions, must agree bit for bit. fraction_diag_dist folds all of
[0, 1], so it is also the oracle for diag_dist's fold of only the
stretches where the two maps differ, on pairs drawn to agree elsewhere.

diag_dist scores only the breakpoints of the two level-0 folds, with the
stalk metric between the level-M image stalks. Two tests check that
through other paths: those breakpoints hold every breakpoint of every
level's difference, and, through public functions only, at N = M the
lower bound and witness are the maximum and leftmost maximizer of
knaster_dist between the images of the stalks through them.

_candidates folds each map to level 0 with one compose against a slice
of the degree p_1...p_M tent. Its oracle is the chain it replaced, one
tent per level, and the two must return the same candidates element for
element.

_support finds where two level-M lists differ by comparing them at
their merged breakpoints. Its oracle is the route it replaced, the
intervals between the zero segments of the difference list
(tests/difference.py), and the two must return the same intervals.

A stalk's JSON loader parses each literal straight to a pair in lowest
terms. Its oracle is the Fraction path it replaced: the same points, or
the same refusal with the same message.
"""

from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import knaster_lab.experiments as ex
import knaster_lab.knaster as kn
from knaster_lab import cli
from knaster_lab import _kernel_py as _k
from knaster_lab.knaster import (
    CertifiedDistance,
    DiagonalHomeo,
    PrimeSequence,
    TruncatedKnasterPoint,
    check_fold_size,
    diag_dist,
    eval_diagonal,
    extend_point,
    knaster_dist,
    lift,
    validate_point,
)
from knaster_lab.plmap import PLHomeo, compose, reflect
from knaster_lab import rational
from knaster_lab.randgen import derive_rng, perturb_homeo, rand_homeo, rand_nudge
import knaster_lab.tents as tents
from knaster_lab.tents import MAX_BREAKPOINTS, block_sum, check_size, oplus_power, tent, tent_value

from difference import oracle_support, pl_sub
from fraction_tower import (
    fraction_diag_dist,
    fraction_eval_diagonal,
    fraction_extend_point,
    fraction_knaster_dist,
    fraction_tail_weights,
    fraction_tent_value,
    fraction_validate_point,
)

F = Fraction

# explicit schedule with N + 1 = 11 terms, mixing degrees 2, 3, 5
EXPLICIT = [2, 3, 2, 5, 2, 2, 3, 2, 2, 2, 3]
SCHEDULES = {
    "diagonal": (PrimeSequence("diagonal"), 8),
    "all2": (PrimeSequence("all2"), 10),
    "explicit": (PrimeSequence(EXPLICIT), 8),
}


def oracle_lift(F_, m, P):
    """lift one level at a time: a p_k-fold block sum per level k."""
    g = F_.inducer
    for k in range(F_.base_coord + 1, m + 1):
        g = oplus_power(g, P.prime(k))
    return DiagonalHomeo(m, g)


def oracle_diag_dist(F_, G, N, P):
    """diag_dist by lifting both maps to N and folding all N+1 levels."""
    A = oracle_lift(F_, N, P).inducer._kbps
    B = oracle_lift(G, N, P).inducer._kbps
    levels = []
    m = N
    while True:
        levels.append((m, pl_sub(A, B)))
        if m == 0:
            break
        t = tent(P.prime(m))._kbps
        A = _k.compose(t, A)
        B = _k.compose(t, B)
        m -= 1
    xs = sorted({(p[0], p[1]) for _, D in levels for p in D}, key=lambda c: F(*c))
    totals = [F(0)] * len(xs)
    sup_top = F(0)
    for m, D in levels:
        w = F(1, 2) if m == 0 else P.weight(m)
        for i, (n, d) in enumerate(_k.eval_sorted(D, xs)):
            if n:  # a zero difference adds nothing
                a = F(abs(n), d)
                if m == N:
                    sup_top = max(sup_top, a)
                totals[i] += w * a
    best = max(range(len(xs)), key=lambda i: (totals[i], -i))
    lower = totals[best]
    pn1 = P.prime(N + 1)
    sharp = sup_top * F(4, 3 * P.product(1, N + 1) * pn1)
    tail = min(P.tail_bound(N), sharp)
    witness = fraction_extend_point(F(*xs[best]), N, P)
    return CertifiedDistance(lower, lower + tail, N, witness)


def oracle_eval_diagonal(F_, x, P):
    """eval_diagonal through the materialized level-n inducer."""
    fraction_validate_point(x, P)
    n = x.truncation
    return fraction_extend_point(oracle_lift(F_, n, P).inducer(x.coords[n]), n, P)


def _realizes(F_, G, d, P, evaluate):
    dist = fraction_knaster_dist if evaluate is oracle_eval_diagonal else knaster_dist
    ya = evaluate(F_, d.witness, P)
    yb = evaluate(G, d.witness, P)
    return dist(ya, yb, P).lower == d.lower


@st.composite
def tower_cases(draw):
    name = draw(st.sampled_from(sorted(SCHEDULES)))
    P, n_max = SCHEDULES[name]
    bf = draw(st.integers(0, 3))
    bg = draw(st.integers(0, 3))
    N = draw(st.integers(max(bf, bg), n_max))
    # keep the oracle's level-N lift small at the deepest truncations
    size = 3 if N >= n_max - 1 else 5
    rng = derive_rng("tower-oracle", draw(st.integers(0, 10**6)))
    Fd = DiagonalHomeo(bf, rand_homeo(rng, max_interior=size, den=32))
    Gd = DiagonalHomeo(bg, rand_homeo(rng, max_interior=size, den=32))
    return P, n_max, N, Fd, Gd


def _check_against_oracle(got, want, deeper):
    """Same lower and witness as the oracle, and an upper bound no looser.

    The oracle's upper bound adds a tail to its lower bound; diag_dist
    puts the tail weight inside the sup, so its upper bound may only be
    tighter, and must still sit above the oracle's lower bound at every
    deeper truncation in `deeper`.
    """
    assert got.lower == want.lower
    assert got.witness == want.witness
    assert got.truncation == want.truncation
    assert got.upper <= want.upper
    for d in deeper:
        assert d.lower <= got.upper, d.truncation


@given(tower_cases())
@settings(max_examples=60, deadline=None)
def test_diag_dist_matches_oracle(case):
    P, n_max, N, Fd, Gd = case
    got = diag_dist(Fd, Gd, N, P)
    # one level deeper only: the oracle's deepest lifts of these inducers
    # take seconds, and the sweep below checks every deeper level
    deeper = [oracle_diag_dist(Fd, Gd, N + 1, P)] if N < n_max else []
    want = oracle_diag_dist(Fd, Gd, N, P)
    _check_against_oracle(got, want, deeper)
    validate_point(got.witness, P)
    assert _realizes(Fd, Gd, got, P, eval_diagonal)
    assert _realizes(Fd, Gd, got, P, oracle_eval_diagonal)
    assert _realizes(Fd, Gd, want, P, eval_diagonal)
    uppers = [diag_dist(Fd, Gd, n, P).upper for n in range(N, n_max + 1)]
    assert uppers == sorted(uppers, reverse=True)


def test_diag_dist_matches_oracle_at_every_depth():
    # one pair per (schedule, bases) at every N, so no depth is left to chance
    rng = derive_rng("tower-oracle-sweep")
    for name, (P, n_max) in SCHEDULES.items():
        for bf, bg in ((0, 0), (1, 2), (3, 0), (2, 3)):
            Fd = DiagonalHomeo(bf, rand_homeo(rng, max_interior=2, den=16))
            Gd = DiagonalHomeo(bg, rand_homeo(rng, max_interior=2, den=16))
            depths = range(max(bf, bg), n_max + 1)
            wants = [oracle_diag_dist(Fd, Gd, N, P) for N in depths]
            gots = [diag_dist(Fd, Gd, N, P) for N in depths]
            for k, (got, want) in enumerate(zip(gots, wants)):
                _check_against_oracle(got, want, wants[k + 1:])
                assert _realizes(Fd, Gd, got, P, eval_diagonal), (name, bf, bg, got.truncation)
            uppers = [got.upper for got in gots]
            assert uppers == sorted(uppers, reverse=True), (name, bf, bg)


def untruncated_all2_dist(Fd, Gd):
    """The untruncated all2 distance, folded with Fractions.

    Above M every level repeats |D_M| halved once per level, so the
    whole tail is the weight C(M, inf) = sum_{i>=M} w_i / 2^(i-M): 5/6
    at M = 0 (1/2 + sum 4^-i) and 4/(3 * 2^M) above.
    """
    P = PrimeSequence("all2")
    M = max(Fd.base_coord, Gd.base_coord)
    f = lift(Fd, M, P).inducer
    g = lift(Gd, M, P).inducer
    pairs = [(f, g)]
    for _ in range(M):
        f, g = compose(tent(2), f), compose(tent(2), g)
        pairs.append((f, g))
    pairs.reverse()  # pairs[m] is level m
    xs = sorted({x for pair in pairs for h in pair for x, _ in h.breakpoints})
    weights = [F(1, 2) if m == 0 else F(1, 2**m) for m in range(M)]
    weights.append(F(5, 6) if M == 0 else F(4, 3 * 2**M))
    assert len(weights) == len(pairs)
    return max(
        sum(w * abs(f(x) - g(x)) for w, (f, g) in zip(weights, pairs))
        for x in xs
    )


@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_all2_upper_is_the_untruncated_distance(bf, bg, seed):
    P = PrimeSequence("all2")
    rng = derive_rng("tower-all2-exact", seed)
    Fd = DiagonalHomeo(bf, rand_homeo(rng, max_interior=5, den=32))
    Gd = DiagonalHomeo(bg, rand_homeo(rng, max_interior=5, den=32))
    M = max(bf, bg)
    exact = untruncated_all2_dist(Fd, Gd)
    for N in range(M, M + 6):
        d = diag_dist(Fd, Gd, N, P)
        assert d.upper == exact, N
        assert d.lower <= exact


@st.composite
def stalks_at_block_boundaries(draw):
    name = draw(st.sampled_from(sorted(SCHEDULES)))
    P, n_max = SCHEDULES[name]
    b = draw(st.integers(0, 3))
    n = draw(st.integers(b, min(n_max, b + 4)))
    # j/Q with Q = p_{b+1}...p_n hits every block boundary of every level
    # between b and n; j = Q is t = 1
    Q = P.product(b + 1, n)
    t = F(draw(st.integers(0, Q)), Q)
    rng = derive_rng("eval-oracle", draw(st.integers(0, 10**6)))
    Fd = DiagonalHomeo(b, rand_homeo(rng, max_interior=5, den=32))
    return P, Fd, fraction_extend_point(t, n, P)


@given(stalks_at_block_boundaries())
@settings(max_examples=80, deadline=None)
def test_eval_diagonal_matches_oracle_at_block_boundaries(case):
    P, Fd, x = case
    assert eval_diagonal(Fd, x, P) == oracle_eval_diagonal(Fd, x, P)


@given(st.sampled_from(sorted(SCHEDULES)), st.integers(0, 3), st.integers(0, 5),
       st.fractions(0, 1), st.integers(0, 10**6))
@settings(max_examples=80, deadline=None)
def test_eval_diagonal_matches_oracle(name, b, extra, t, seed):
    P, _ = SCHEDULES[name]
    Fd = DiagonalHomeo(b, rand_homeo(derive_rng("eval-any", seed), den=32))
    for x in (fraction_extend_point(t, b + extra, P), fraction_extend_point(F(1), b + extra, P)):
        assert eval_diagonal(Fd, x, P) == oracle_eval_diagonal(Fd, x, P)


# ------------------------------------------- the stalk layer on kernel pairs


def _same_stalk(got, want):
    """Bit-identical stalks: the same pairs and the same Fraction view."""
    assert got._kc == want._kc
    assert got.coords == want.coords
    assert all(type(c) is F for c in got.coords)


@st.composite
def bit_cases(draw):
    name = draw(st.sampled_from(sorted(SCHEDULES)))
    P, n_max = SCHEDULES[name]
    bf = draw(st.integers(0, 3))
    bg = draw(st.integers(0, 3))
    N = draw(st.integers(max(bf, bg), n_max))
    rng = derive_rng("tower-bits", draw(st.integers(0, 10**6)))
    Fd = DiagonalHomeo(bf, rand_homeo(rng, max_interior=draw(st.integers(0, 6)), den=64))
    Gd = DiagonalHomeo(bg, rand_homeo(rng, max_interior=draw(st.integers(0, 6)), den=64))
    return P, N, Fd, Gd


def _check_bit_identical(P, N, Fd, Gd):
    got = diag_dist(Fd, Gd, N, P)
    want = fraction_diag_dist(Fd, Gd, N, P)
    assert type(got.lower) is F and type(got.upper) is F
    assert (got.lower, got.upper, got.truncation) == (want.lower, want.upper, want.truncation)
    _same_stalk(got.witness, want.witness)
    assert got.to_json_dict() == want.to_json_dict()


@given(bit_cases())
@settings(max_examples=150, deadline=None)
def test_diag_dist_is_bit_identical_to_the_fraction_layer(case):
    _check_bit_identical(*case)


# bit_cases keeps bases at 0..3; these fixed cases put M at 4..6, where
# the stalk sum's level loop is long and lower and upper share most of it
DEEP_MAPS = [
    PLHomeo([(0, 0), (F(1, 2), F(3, 4)), (1, 1)]),
    PLHomeo([(0, 0), (F(1, 3), F(1, 5)), (1, 1)]),
    PLHomeo([(0, 0), (F(1, 4), F(1, 2)), (F(3, 4), F(5, 8)), (1, 1)]),
]
DEEP_CASES = [
    (name, N, bf, bg, f, g)
    for name in ("all2", "diagonal")
    for M in (4, 5, 6)
    for bf, bg, f, g in ((M, M, 0, 1), (0, M, 2, 0), (M, 1, 1, 2), (2, M, 2, 2))
    for N in (M, M + 2)
]


@pytest.mark.parametrize("name, N, bf, bg, f, g", DEEP_CASES)
def test_diag_dist_is_bit_identical_to_the_fraction_layer_deep(name, N, bf, bg, f, g):
    P = PrimeSequence(name)
    Fd, Gd = DiagonalHomeo(bf, DEEP_MAPS[f]), DiagonalHomeo(bg, DEEP_MAPS[g])
    assert diag_dist(Fd, Gd, N, P).lower > 0
    _check_bit_identical(P, N, Fd, Gd)


@st.composite
def agreeing_cases(draw):
    """Pairs that agree on stretches of [0, 1], at bases 0..3.

    G lives at M >= F's base: F's own lift to M, that lift nudged on up
    to three segments or forced through one point, or that lift with up
    to two blocks replaced by a random map. Either map may come first.
    """
    name = draw(st.sampled_from(sorted(SCHEDULES)))
    P, n_max = SCHEDULES[name]
    bf = draw(st.integers(0, 3))
    M = draw(st.integers(bf, 3))
    N = draw(st.integers(M, n_max))
    kind = draw(st.sampled_from(["equal", "nudge", "perturb", "block"]))
    rng = derive_rng("tower-agree", draw(st.integers(0, 10**6)))
    Fd = DiagonalHomeo(bf, rand_homeo(rng, max_interior=5, den=32))
    g = lift(Fd, M, P).inducer
    if kind == "nudge":
        for _ in range(rng.randint(1, 3)):
            g, _ = rand_nudge(rng, g, F(1))
    elif kind == "perturb":
        x0 = F(rng.randint(1, 63), 64)
        g = perturb_homeo(g, x0, (g(x0) + F(rng.randint(1, 63), 64)) / 2)
    elif kind == "block":
        # up to two blocks take one map, so their scores tie: the leftmost wins
        f, r = Fd.inducer, rand_homeo(rng, max_interior=5, den=32)
        d = P.product(bf + 1, M)
        blocks = [f if i % 2 == 0 else reflect(f) for i in range(d)]
        for i in rng.sample(range(d), min(2, d)):
            blocks[i] = r if i % 2 == 0 else reflect(r)
        g = block_sum(blocks)
    Gd = DiagonalHomeo(M, g)
    if draw(st.booleans()):
        Fd, Gd = Gd, Fd
    return P, N, Fd, Gd


@given(agreeing_cases())
@settings(max_examples=150, deadline=None)
def test_diag_dist_on_agreeing_pairs_is_bit_identical_to_the_full_fold(case):
    # fraction_diag_dist folds all of [0, 1]; diag_dist only its support
    _check_bit_identical(*case)


def test_diag_dist_folds_only_where_the_maps_differ(monkeypatch):
    folded = []
    compose_ = _k.compose

    def counting(f, g):
        folded.append((g[0][:2], g[-1][:2]))
        return compose_(f, g)

    monkeypatch.setattr(_k, "compose", counting)
    rng = derive_rng("tower-support")
    for P, _ in SCHEDULES.values():
        for bf, M in ((0, 1), (1, 1), (0, 3), (2, 3)):
            Fd = DiagonalHomeo(bf, rand_homeo(rng, max_interior=5, den=32))
            g = lift(Fd, M, P).inducer
            d = diag_dist(Fd, DiagonalHomeo(M, g), M, P)
            assert (d.lower, d.upper) == (0, 0)
            assert d.witness.coords == (0,) * (M + 1)
            assert folded == []
            # the nudge moves one point inside a segment p..q of g
            h, _ = rand_nudge(rng, g, F(1))
            (x0,) = {x for x, _ in h.breakpoints} - {x for x, _ in g.breakpoints}
            i = _k._locate(g._kbps, (x0.numerator, x0.denominator))
            support = (g._kbps[i][:2], g._kbps[i + 1][:2])
            diag_dist(DiagonalHomeo(M, h), Fd, M, P)
            assert folded == [support] * 2
            folded.clear()


@st.composite
def fold_cases(draw):
    """Two level-M kernel lists, M up to 4: a random pair or a nudged one."""
    P = PrimeSequence(draw(st.sampled_from(["diagonal", "all2"])))
    M = draw(st.integers(0, 4))
    rng = derive_rng("tower-candidates", draw(st.integers(0, 10**6)))

    def level_m():
        f = rand_homeo(rng, max_interior=draw(st.integers(0, 4)), den=32)
        return lift(DiagonalHomeo(draw(st.integers(0, M)), f), M, P).inducer

    a = level_m()
    if draw(st.booleans()):
        b, _ = rand_nudge(rng, a, F(1))
    else:
        b = level_m()
    return P, M, a._kbps, b._kbps


@given(fold_cases())
@settings(max_examples=150, deadline=None)
def test_candidates_hold_every_level_difference_breakpoint(case):
    # diag_dist scores only the level-0 folds' breakpoints, so those must
    # hold the breakpoints of the difference at every level of the fold
    P, M, A, B = case
    for left, right in kn._support(A, B):
        fa, fb = _k.restrict(A, left, right), _k.restrict(B, left, right)
        xs = set(kn._candidates(fa, fb, M, P))
        for m in range(M, -1, -1):
            assert {p[:2] for p in pl_sub(fa, fb)} <= xs, m
            if m:
                t = tent(P.prime(m))._kbps
                fa, fb = _k.compose(t, fa), _k.compose(t, fb)


def _level_m_pair(case):
    """An agreeing case's two maps as kernel lists at their common coordinate."""
    P, _, Fd, Gd = case
    M = max(Fd.base_coord, Gd.base_coord)
    return tuple(lift(H, M, P).inducer._kbps for H in (Fd, Gd))


@given(st.one_of(fold_cases().map(lambda c: c[2:]), agreeing_cases().map(_level_m_pair)))
@settings(max_examples=200, deadline=None)
def test_support_matches_the_difference_list(pair):
    A, B = pair
    assert kn._support(A, B) == oracle_support(A, B)
    assert kn._support(B, A) == oracle_support(B, A)


def _kb(*points):
    return PLHomeo([(0, 0), *((F(x), F(y)) for x, y in points), (1, 1)])._kbps


SUPPORT_CASES = [
    # equal maps differ nowhere
    (_kb(("1/3", "1/2")), _kb(("1/3", "1/2")), []),
    # the two cross at 1/2 only, a breakpoint of the first: nothing splits
    (_kb(("1/4", "3/8"), ("1/2", "1/2"), ("3/4", "9/16")),
     _kb(("1/4", "1/8"), ("3/4", "7/8")),
     [((0, 1), (1, 1))]),
    # a bump on the identity: they agree on [0, 1/4] and [3/4, 1]
    (_kb(("1/4", "1/4"), ("1/2", "5/8"), ("3/4", "3/4")), _kb(),
     [((1, 4), (3, 4))]),
    # they differ on [0, 1/4] and on [1/2, 3/4], agreeing in between and after
    (_kb(("1/8", "3/16"), ("1/4", "1/4"), ("1/2", "1/2"), ("5/8", "9/16"), ("3/4", "3/4")),
     _kb(),
     [((0, 1), (1, 4)), ((1, 2), (3, 4))]),
]


@pytest.mark.parametrize("A, B, want", SUPPORT_CASES)
def test_support_on_fixed_pairs(A, B, want):
    assert kn._support(A, B) == want == oracle_support(A, B)
    assert kn._support(B, A) == want


def oracle_candidates(A, B, M, P):
    """_candidates level by level: M composes with one prime's tent per map."""
    for m in range(M, 0, -1):
        t = tent(P.prime(m))._kbps
        A = _k.compose(t, A)
        B = _k.compose(t, B)
    return _k.merged_xs(A, B)


def _check_candidates(A, B, M, P):
    # on the whole maps and on each support interval, as diag_dist calls it
    assert kn._candidates(A, B, M, P) == oracle_candidates(A, B, M, P)
    for left, right in kn._support(A, B):
        fa, fb = _k.restrict(A, left, right), _k.restrict(B, left, right)
        assert kn._candidates(fa, fb, M, P) == oracle_candidates(fa, fb, M, P), (left, right)


@given(fold_cases())
@settings(max_examples=150, deadline=None)
def test_candidates_match_the_level_by_level_chain(case):
    P, M, A, B = case
    _check_candidates(A, B, M, P)


@pytest.mark.parametrize("M", range(6))
def test_candidates_match_the_chain_on_an_explicit_schedule(M):
    # D = 2310 at M = 5, and the slice of a support interval starts and
    # ends off the grid k/D
    P = PrimeSequence("2,3,5,7,11")
    rng = derive_rng("tower-candidates-explicit", M)
    for _ in range(6):
        a = lift(DiagonalHomeo(rng.randint(0, M), rand_homeo(rng, max_interior=4, den=64)), M, P)
        b = lift(DiagonalHomeo(rng.randint(0, M), rand_homeo(rng, max_interior=4, den=64)), M, P)
        nudged, _ = rand_nudge(rng, a.inducer, F(1))
        _check_candidates(a.inducer._kbps, b.inducer._kbps, M, P)
        _check_candidates(a.inducer._kbps, nudged._kbps, M, P)


def test_diag_dist_builds_no_tent():
    # at M = 9 on diagonal the fold's tent has degree 10800; tent's cache
    # must not keep it (its currsize), nor be asked for any tent at all
    P = PrimeSequence("diagonal")
    assert P.product(1, 9) == 10800
    rng = derive_rng("tower-no-tent")
    Fd = DiagonalHomeo(9, rand_homeo(rng, max_interior=3, den=32))
    Gd = DiagonalHomeo(9, rand_homeo(rng, max_interior=3, den=32))
    before = tent.cache_info()
    d = diag_dist(Fd, Gd, 9, P)
    assert tent.cache_info() == before
    assert 0 < d.lower <= d.upper


def _fold_breakpoints(Fd, Gd, M, P):
    """The x of every breakpoint of both maps' level-0 folds, in order."""
    xs = set()
    for H in (Fd, Gd):
        f = lift(H, M, P).inducer
        for m in range(M, 0, -1):
            f = compose(tent(P.prime(m)), f)
        xs.update(x for x, _ in f.breakpoints)
    return sorted(xs)


@given(st.one_of(bit_cases(), agreeing_cases()))
@settings(max_examples=150, deadline=None)
def test_diag_dist_is_the_stalk_metric_at_its_candidates(case):
    # at N = M, diag_dist's score at x is the stalk metric between the
    # images of the stalk through x; its witness is the leftmost maximizer
    P, _, Fd, Gd = case
    M = max(Fd.base_coord, Gd.base_coord)
    best = wit = None
    for x in _fold_breakpoints(Fd, Gd, M, P):
        s = extend_point(x, M, P)
        d = knaster_dist(eval_diagonal(Fd, s, P), eval_diagonal(Gd, s, P), P).lower
        if best is None or d > best:
            best, wit = d, s
    got = diag_dist(Fd, Gd, M, P)
    assert got.lower == best
    assert got.witness == wit


@pytest.mark.parametrize("name", sorted(SCHEDULES))
def test_tail_weights_are_the_fraction_sums(name):
    P, _ = SCHEDULES[name]
    # EXPLICIT has 11 terms, and the tail looks one level past N
    for N in range(0, 10):
        for M in range(0, N + 1):
            c, h = kn._tail_weights(M, N, P)
            want = fraction_tail_weights(M, N, P)
            assert (c, h) == tuple((w.numerator, w.denominator) for w in want), (M, N)


@given(st.integers(1, 12), st.fractions(0, 1) | st.integers(0, 1))
@settings(max_examples=200, deadline=None)
def test_tent_value_is_the_fraction_fold(d, x):
    got = tent_value(d, x)
    assert type(got) is F
    assert got == fraction_tent_value(d, x)
    assert tents.tent_fold(d, F(x).numerator, F(x).denominator) == (got.numerator, got.denominator)


# the ends 0 and 1 are the cases a lap index must clamp
UNIT = st.fractions(0, 1) | st.sampled_from([F(0), F(1)])


@given(st.sampled_from(sorted(SCHEDULES)), st.integers(0, 3), st.integers(0, 6),
       UNIT, UNIT, st.integers(0, 10**6))
@settings(max_examples=150, deadline=None)
def test_stalk_functions_are_bit_identical_to_the_fraction_layer(name, b, extra, s, t, seed):
    P, _ = SCHEDULES[name]
    n = b + extra
    x, y = extend_point(s, n, P), extend_point(t, n, P)
    _same_stalk(x, fraction_extend_point(s, n, P))
    _same_stalk(y, fraction_extend_point(t, n, P))
    validate_point(x, P)
    got, want = knaster_dist(x, y, P), fraction_knaster_dist(x, y, P)
    assert type(got.lower) is F and type(got.upper) is F
    assert got == want
    Fd = DiagonalHomeo(b, rand_homeo(derive_rng("stalk-bits", seed), den=32))
    _same_stalk(eval_diagonal(Fd, x, P), fraction_eval_diagonal(Fd, x, P))
    # the constructor and the trusted path give equal, equally hashed points
    again = TruncatedKnasterPoint(x.coords)
    assert again == x and hash(again) == hash(x)
    assert TruncatedKnasterPoint.from_json_dict(x.to_json_dict()) == x


@given(st.sampled_from(sorted(SCHEDULES)), st.integers(1, 6), st.fractions(0, 1),
       st.data())
@settings(max_examples=150, deadline=None)
def test_user_built_stalks_are_refused_as_before(name, n, s, data):
    # one coordinate of a coherent stalk replaced: incoherent unless the
    # tents happen to agree, which the Fraction layer decides
    P, _ = SCHEDULES[name]
    coords = list(fraction_extend_point(s, n, P).coords)
    k = data.draw(st.integers(0, n))
    coords[k] = data.draw(st.fractions(0, 1))
    x = TruncatedKnasterPoint(coords)
    try:
        fraction_validate_point(x, P)
    except ValueError as err:
        with pytest.raises(ValueError) as got:
            validate_point(x, P)
        assert str(got.value) == str(err)
        ok = extend_point(s, n, P)
        with pytest.raises(ValueError, match="incoherent"):
            knaster_dist(x, ok, P)
        with pytest.raises(ValueError, match="incoherent"):
            knaster_dist(ok, x, P)
        with pytest.raises(ValueError, match="incoherent"):
            eval_diagonal(DiagonalHomeo(0, rand_homeo(derive_rng("refuse", n))), x, P)
    else:
        validate_point(x, P)


@pytest.mark.parametrize(
    "coords", [(), (F(-1, 3),), (0, F(4, 3)), (F(1, 2), 2), ("5/4",), (-1, 0)]
)
def test_out_of_range_user_stalks_are_refused(coords):
    with pytest.raises(ValueError):
        TruncatedKnasterPoint(coords)
    with pytest.raises(ValueError):
        TruncatedKnasterPoint.from_json_dict({"coords": [str(F(c)) for c in coords]})


def _load_through_fractions(coords):
    """The stalk loader before it parsed to pairs: a Fraction per literal."""
    return TruncatedKnasterPoint(tuple(rational.parse_rational(c) for c in coords))


# literals each side of [0, 1], unreduced, signed both ways, spaced, and
# malformed or with a zero denominator
LITERALS = ["0", "1", "1/2", "2/4", " 3/9 ", "-1/-2", "1/-2", "-1/2", "-0/5",
            "0/-5", "5/4", "-5/-4", "4/4", "-4/-4", "+1/+3", "2", "-1", "1/0",
            "0/0", "a/2", "1.5", "1/2/3", "", "/", "1/", " / 3",
            f"{2**200}/{2**201 + 1}", f"-{2**201}/-{2**200}"]


@given(st.lists(st.sampled_from(LITERALS) | st.fractions(-1, 2).map(str), max_size=5))
@settings(max_examples=300, deadline=None)
def test_stalk_loader_parses_pairs_as_the_fraction_path_did(coords):
    try:
        want = _load_through_fractions(coords)
    except ValueError as err:
        with pytest.raises(ValueError) as got:
            TruncatedKnasterPoint.from_json_dict({"coords": coords})
        assert str(got.value) == str(err)
    else:
        got = TruncatedKnasterPoint.from_json_dict({"coords": coords})
        assert got._kc == want._kc
        _same_stalk(got, want)


def test_stalk_loader_builds_no_fraction(monkeypatch):
    x = extend_point(F(1, 3), 12, PrimeSequence("diagonal"))
    data = x.to_json_dict()

    def refuse(*_):
        raise AssertionError("the stalk loader built a Fraction")

    monkeypatch.setattr(kn, "Fraction", refuse)
    monkeypatch.setattr(rational, "Fraction", refuse)
    assert TruncatedKnasterPoint.from_json_dict(data)._kc == x._kc


def test_lift_to_the_base_is_the_map_itself(monkeypatch):
    def refuse(*_):
        raise AssertionError("lift rebuilt the inducer at its own base")

    monkeypatch.setattr(kn, "oplus_power", refuse)
    g = PLHomeo([(0, 0), (F(1, 2), F(3, 4)), (1, 1)])
    Fd = DiagonalHomeo(3, g)
    assert lift(Fd, 3, PrimeSequence("diagonal")) is Fd


class TestFoldGuard:
    """diag_dist refuses, before lifting or folding, a fold past the limit."""

    G = PLHomeo([(0, 0), (F(1, 2), F(3, 4)), (1, 1)])

    def test_refuses_from_depth_alone(self, monkeypatch):
        def refuse(*_):
            raise AssertionError("diag_dist formed the product past the depth guard")

        monkeypatch.setattr(PrimeSequence, "product", refuse)
        monkeypatch.setattr(kn, "lift", refuse)
        assert MAX_BREAKPOINTS.bit_length() == 20
        for bf, bg in ((20, 20), (0, 23), (10**5, 3), (10**9, 10**9)):
            M = max(bf, bg)
            with pytest.raises(ValueError, match=f"over 2\\^{M} breakpoints"):
                diag_dist(DiagonalHomeo(bf, self.G), DiagonalHomeo(bg, self.G), M,
                          PrimeSequence("all2"))

    def test_refuses_from_the_product(self, monkeypatch):
        # the level-0 fold has p_1...p_M laps: 453600 at M = 12 on diagonal
        # fits, 2268000 at M = 13 does not
        P = PrimeSequence("diagonal")
        assert P.product(1, 12) + 1 <= MAX_BREAKPOINTS < P.product(1, 13) + 1
        check_fold_size(12, P)

        def refuse(*_):
            raise AssertionError("diag_dist lifted past the size guard")

        monkeypatch.setattr(kn, "lift", refuse)
        with pytest.raises(ValueError, match="at least 2268001 breakpoints"):
            diag_dist(DiagonalHomeo(13, self.G), DiagonalHomeo(0, self.G), 13, P)

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "mod-bound", "--n-max", "100000"],
            ["verify", "mod-bound", "--n-max", "250"],
            ["verify", "mod-bound", "--n-max", "13"],
            ["verify", "separation", "--n-max", "60"],
            ["verify", "separation", "--n-max", "11"],
        ],
    )
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_suites_refuse_a_deep_n_max_up_front(self, argv, seed, monkeypatch, capsys):
        def refuse(*_):
            raise AssertionError("the suite drew a map before refusing n_max")

        monkeypatch.setattr(ex, "rand_homeo", refuse)
        assert cli.main(argv + ["--seed", str(seed), "--trials", "2"]) == 2
        assert f"the limit {MAX_BREAKPOINTS}" in capsys.readouterr().err

    def test_density_refuses_a_deep_m_before_its_slack_sum(self, monkeypatch, capsys):
        def refuse(*_):
            raise AssertionError("density summed the proof slack before refusing m")

        monkeypatch.setattr(ex, "proof_slack_sum", refuse)
        argv = ["experiment", "density", "--m", "3000"]
        assert cli.main(argv + ["--trials", "1", "--seed", "1"]) == 2
        assert "over 2^3000 breakpoints" in capsys.readouterr().err


def test_eval_diagonal_never_lifts(monkeypatch):
    def refuse(*_):
        raise AssertionError("eval_diagonal built a lift")

    monkeypatch.setattr(kn, "lift", refuse)
    monkeypatch.setattr(kn, "oplus_power", refuse)
    P = PrimeSequence("diagonal")
    g = PLHomeo([(0, 0), (F(1, 2), F(3, 4)), (1, 1)])
    # p_1...p_40 is about 10^20 blocks: only the lazy walk can answer
    x = extend_point(F(1, 3), 40, P)
    y = eval_diagonal(DiagonalHomeo(0, g), x, P)
    validate_point(y, P)


@pytest.mark.parametrize("name", ["diagonal", "all2", "explicit"])
def test_lift_is_one_block_sum(name):
    # ⊕_b(⊕_a g) = ⊕_{ab} g: bit-identical to lifting level by level
    P, n_max = SCHEDULES[name]
    rng = derive_rng("lift-one-block-sum", name)
    for _ in range(40):
        Fd = DiagonalHomeo(rng.randint(0, 3), rand_homeo(rng, max_interior=4, den=64))
        for m in range(Fd.base_coord, min(Fd.base_coord + 4, n_max) + 1):
            got = lift(Fd, m, P)
            assert got.inducer._kbps == oracle_lift(Fd, m, P).inducer._kbps
            assert got.base_coord == m


class TestLiftGuard:
    def test_refuses_before_building(self, monkeypatch):
        def refuse(*_):
            raise AssertionError("oplus_power ran past the guard")

        monkeypatch.setattr(kn, "oplus_power", refuse)
        P = PrimeSequence("all2")
        g = PLHomeo([(0, 0), (F(1, 2), F(3, 4)), (1, 1)])
        # (3 - 1) * 2^19 + 1 = 1048577 breakpoints, just past the limit
        assert (3 - 1) * P.product(1, 19) + 1 > MAX_BREAKPOINTS
        with pytest.raises(ValueError, match="breakpoints"):
            lift(DiagonalHomeo(0, g), 19, P)
        # the prediction counts the base inducer's breakpoints, not its level
        with pytest.raises(ValueError, match="breakpoints"):
            lift(DiagonalHomeo(2, g), 21, P)

    def test_refuses_from_depth_alone(self, monkeypatch):
        # 20 levels of primes >= 2 give over 2^20 > MAX_BREAKPOINTS
        # breakpoints, so the schedule's prefix products are never formed
        def refuse(*_):
            raise AssertionError("lift formed the product past the depth guard")

        monkeypatch.setattr(PrimeSequence, "product", refuse)
        assert MAX_BREAKPOINTS.bit_length() == 20
        g = PLHomeo([(0, 0), (F(1, 2), F(3, 4)), (1, 1)])
        for b, m in ((0, 20), (3, 23), (0, 10**5), (7, 10**9)):
            with pytest.raises(ValueError, match="breakpoints"):
                lift(DiagonalHomeo(b, g), m, PrimeSequence("diagonal"))

    def test_prediction_bounds_small_lifts(self):
        # an upper bound: block junctions whose slopes agree merge away
        rng = derive_rng("lift-guard-size")
        P = PrimeSequence("diagonal")
        for _ in range(5):
            g = rand_homeo(rng, max_interior=4, den=64)
            for m in range(0, 4):
                got = len(lift(DiagonalHomeo(0, g), m, P).inducer._kbps)
                assert got <= (len(g._kbps) - 1) * P.product(1, m) + 1

    def test_cli_lift_exits_two(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        path.write_text(
            '{"kind": "homeo", "breakpoints": [["0", "0"], ["1/2", "3/4"], ["1", "1"]]}'
        )
        rc = cli.main(["knaster", "lift", "-f", str(path), "--to", "40"])
        assert rc == 2
        assert "breakpoints" in capsys.readouterr().err

    def test_cli_deep_lift_exits_two(self, tmp_path, capsys):
        # the schedule's prefix products up to 100000 would take gigabytes
        path = tmp_path / "g.json"
        path.write_text(
            '{"kind": "homeo", "breakpoints": [["0", "0"], ["1/2", "3/4"], ["1", "1"]]}'
        )
        rc = cli.main(["knaster", "lift", "-f", str(path), "--to", "100000"])
        assert rc == 2
        assert "over 2^100000 breakpoints" in capsys.readouterr().err


def _refuse(*_):
    raise AssertionError("built past the size guard")


def _refuse_to_build(monkeypatch):
    # every step that would allocate the tent or the block sum fails, so a
    # missing guard shows up as an error instead of a huge allocation
    monkeypatch.setattr(tents, "_k", SimpleNamespace(rnorm=_refuse, canonical=_refuse))
    monkeypatch.setattr(tents, "block_sum", _refuse)
    # oplus_power reduces every point it builds by a gcd
    monkeypatch.setattr(tents, "gcd", _refuse)


class TestSizeGuard:
    """tent(d), oplus_power(g, d) and blockwise conjugation share lift's limit."""

    def test_limit_is_inclusive(self):
        check_size(MAX_BREAKPOINTS, "at the limit")
        with pytest.raises(ValueError, match="breakpoints"):
            check_size(MAX_BREAKPOINTS + 1, "past the limit")

    def test_tent_refuses_before_building(self, monkeypatch):
        _refuse_to_build(monkeypatch)
        # tent(d) has d + 1 breakpoints
        for d in (MAX_BREAKPOINTS, 10**8):
            with pytest.raises(ValueError, match="breakpoints"):
                tent(d)

    def test_oplus_power_refuses_before_building(self, monkeypatch):
        _refuse_to_build(monkeypatch)
        g = PLHomeo([(0, 0), (F(1, 2), F(3, 4)), (1, 1)])
        # (3 - 1) * d + 1 breakpoints: d = 499999 fits, d = 500000 does not
        assert tents.oplus_size(g, MAX_BREAKPOINTS // 2) == MAX_BREAKPOINTS + 1
        for d in (MAX_BREAKPOINTS // 2, 10**8):
            with pytest.raises(ValueError, match="breakpoints"):
                oplus_power(g, d)

    def test_oplus_prediction_bounds_small_sums(self):
        rng = derive_rng("oplus-guard-size")
        for _ in range(10):
            g = rand_homeo(rng, max_interior=5, den=64)
            for d in range(1, 6):
                got = len(oplus_power(g, d)._kbps)
                assert got <= tents.oplus_size(g, d)

    @pytest.mark.parametrize(
        "argv",
        [
            ["tent", "build", "-d", "100000000"],
            ["tent", "oplus", "-f", "{g}", "-d", "100000000"],
            ["tent", "semiconj", "-f", "{g}", "-d", "100000000"],
            # g moves the grid, so only an up-front guard can exit 2
            ["conj", "blockwise", "-f", "{g}", "-d", "100000000", "--target", "{g}"],
        ],
    )
    def test_cli_exits_two(self, argv, tmp_path, capsys, monkeypatch):
        _refuse_to_build(monkeypatch)
        path = tmp_path / "g.json"
        path.write_text(
            '{"kind": "homeo", "breakpoints": [["0", "0"], ["1/2", "3/4"], ["1", "1"]]}'
        )
        rc = cli.main([a.format(g=path) for a in argv])
        assert rc == 2
        assert "breakpoints" in capsys.readouterr().err
