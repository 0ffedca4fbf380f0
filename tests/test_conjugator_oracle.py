"""The affine-tail orbit transport against the transport it replaced.

conjugator._transport steps each orbit piece to the next by the map
(x, y) ↦ (g(x), f(y)), or its inverse backward, and takes that step as one
affine image when the piece lies in one segment of each map. The oracle
below is the straightforward version: every step restricts g⁻¹ (or g) to
the new cell and composes twice, and every orbit point is evaluated
afresh. It restricts f and g to the component and inverts the
restrictions itself, and takes the fundamental domain's anchor from the
middle of its own restricted list, so the transport's whole-map index
arithmetic is checked, not shared. Pieces and spent budget steps must be
identical, and the oracle's pieces must end on the orbit points it
evaluated. Maps are kernel lists, components and eta_cap kernel pairs, as
conjugator._transport takes them.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import knaster_lab.conjugator as conjugator
from knaster_lab import _kernel_py as _k
from knaster_lab.conjugator import OrbitCapError, _Budget, _outside
from knaster_lab.plmap import PLHomeo, compose, reflect, sup_dist
from knaster_lab.randgen import rand_homeo

F = Fraction
ETAS = (F(1, 100), F(1, 1000), F(1, 10000))
# generous for hyperbolic pairs, small enough that a near-parabolic one
# stops early; both transports must then stop at the same step
CAP = 4000


def _frac(pair):
    return Fraction(pair[0], pair[1])


def _fp(x):
    return (x.numerator, x.denominator)


def oracle_transport(f, finv, g, ginv, fcomp, gcomp, sign, eta_cap, budget):
    """Orbit-matched conjugator pieces inside one component pair.

    Returns kernel pieces in ascending x order covering [ql, qh] on the g
    side, with h(ql) = pl and h(qh) = ph, where ql, pl, qh and ph are the
    last orbit points, evaluated afresh. The orbit points travel as
    kernel pairs. finv and ginv are not read: the oracle inverts its own
    restrictions.
    """
    a, b = fcomp
    c, d = gcomp
    g_loc = _k.restrict(g, c, d)
    ginv = _k.invert(g_loc)
    f_loc = _k.restrict(f, a, b)
    finv = _k.invert(f_loc)

    q0 = g_loc[len(g_loc) // 2][:2]
    p0 = f_loc[len(f_loc) // 2][:2]
    q1 = _k.eval_at(g_loc, q0)
    p1 = _k.eval_at(f_loc, p0)
    h0 = [q0 + p0, q1 + p1] if sign > 0 else [q1 + p1, q0 + p0]

    attract = d if sign > 0 else c
    repel = c if sign > 0 else d

    fwd_pieces = []
    piece, q_cur, p_cur = h0, q1, p1
    while _outside(q_cur, attract, eta_cap):
        budget.spend()
        q_next = _k.eval_at(g_loc, q_cur)
        p_next = _k.eval_at(f_loc, p_cur)
        lo, hi = (q_cur, q_next) if sign > 0 else (q_next, q_cur)
        step = _k.compose(piece, _k.restrict(ginv, lo, hi))
        piece = _k.compose(f_loc, step)
        fwd_pieces.append(piece)
        q_cur, p_cur = q_next, p_next

    back_pieces = []
    piece, r_cur, z_cur = h0, q0, p0
    # the cap bound at the repelling end is the previous orbit point, so
    # keep stepping until g(r) is already inside the margin
    while _outside(_k.eval_at(g_loc, r_cur), repel, eta_cap):
        budget.spend()
        r_next = _k.eval_at(ginv, r_cur)
        z_next = _k.eval_at(finv, z_cur)
        lo, hi = (r_next, r_cur) if sign > 0 else (r_cur, r_next)
        step = _k.compose(piece, _k.restrict(g_loc, lo, hi))
        piece = _k.compose(finv, step)
        back_pieces.append(piece)
        r_cur, z_cur = r_next, z_next

    if sign > 0:
        pieces = list(reversed(back_pieces)) + [h0] + fwd_pieces
        ends = (r_cur + z_cur, q_cur + p_cur)
    else:
        pieces = list(reversed(fwd_pieces)) + [h0] + back_pieces
        ends = (q_cur + p_cur, r_cur + z_cur)
    assert (pieces[0][0], pieces[-1][-1]) == ends
    return pieces


# ------------------------------------------------------------ inputs


def _is_squeeze(f_ivs, g_ivs):
    """g pauses on an interval where f has a single fixed point."""
    return any(a == b and c != d for (a, b), (c, d) in zip(f_ivs, g_ivs))


def _draw_pair(seed, squeeze, tries=400):
    """Two rand_homeo draws with one nonempty signature, or None."""
    rng = random.Random(seed)
    waiting = {}
    for _ in range(tries):
        h = rand_homeo(rng)
        ivs, signs = _k.fixed_structure(h._kbps)
        key = tuple(signs)
        if not key:
            continue
        mate = waiting.pop(key, None)
        if mate is None or mate[0] == h:
            waiting[key] = (h, ivs)
        elif _is_squeeze(mate[1], ivs) == squeeze:
            return mate[0], h
    return None


@st.composite
def pairs(draw, squeeze=False):
    """Equal-signature rand_homeo pairs, reflected half the time."""
    pair = _draw_pair(draw(st.integers(0, 2**32)), squeeze)
    assume(pair is not None)
    f, g = pair
    if draw(st.booleans()):
        # reflection reverses the signature and flips every sign
        f, g = reflect(f), reflect(g)
    return f, g


def _components(f, g):
    f_ivs = _k.fixed_structure(f._kbps)[0]
    g_ivs, signs = _k.fixed_structure(g._kbps)
    for j, sign in enumerate(signs):
        yield (f_ivs[j][1], f_ivs[j + 1][0]), (g_ivs[j][1], g_ivs[j + 1][0]), sign


def _maps(f, g):
    """f, f⁻¹, g and g⁻¹ as whole kernel lists, as _transport takes them."""
    return f._kbps, _k.invert(f._kbps), g._kbps, _k.invert(g._kbps)


def _run(transport, f, finv, g, ginv, fcomp, gcomp, sign, eta_cap, cap):
    budget = _Budget(cap)
    try:
        out = transport(f, finv, g, ginv, fcomp, gcomp, sign, eta_cap, budget)
    except OrbitCapError:
        return "cap", budget.left
    return out, budget.left


def check_pair(f, g, eta_cap):
    for fcomp, gcomp, sign in _components(f, g):
        args = (*_maps(f, g), fcomp, gcomp, sign, eta_cap, CAP)
        want = _run(oracle_transport, *args)
        got = _run(conjugator._transport, *args)
        assert got == want


# ------------------------------------------------------------ properties


@settings(max_examples=150, deadline=None)
@given(pairs(), st.sampled_from(ETAS))
def test_transport_matches_oracle(pair, eta):
    f, g = pair
    check_pair(f, g, _fp(eta / 2))


@settings(max_examples=30, deadline=None)
@given(pairs(squeeze=True))
def test_squeeze_pairs_match_oracle(pair):
    f, g = pair
    eta = F(1, 100)
    check_pair(f, g, _fp(eta / 2))
    # the whole conjugator, squeeze glue included, is the same map
    h = conjugator.approx_conjugator(f, g, eta, max_steps=CAP)
    real = conjugator._transport
    conjugator._transport = oracle_transport
    try:
        want = conjugator.approx_conjugator(f, g, eta, max_steps=CAP)
    finally:
        conjugator._transport = real
    assert h == want


@settings(max_examples=40, deadline=None)
@given(pairs(), st.sampled_from(ETAS))
def test_cap_one_below_the_need_raises_on_both(pair, eta):
    f, g = pair
    for fcomp, gcomp, sign in _components(f, g):
        args = (*_maps(f, g), fcomp, gcomp, sign, _fp(eta / 2))
        _, left = _run(oracle_transport, *args, CAP)
        assume(left >= 0)
        need = CAP - left
        for transport in (oracle_transport, conjugator._transport):
            assert _run(transport, *args, need)[1] == 0
            if need:
                with pytest.raises(OrbitCapError):
                    transport(*args, _Budget(need - 1))


def test_both_branches_run(monkeypatch):
    # most steps stay inside one segment of each map and take the affine
    # branch; a step whose piece straddles a kink falls back to compose
    f = PLHomeo([(0, 0), (F(1, 4), F(1, 2)), (F(3, 4), F(7, 8)), (1, 1)])
    g = PLHomeo([(0, 0), (F(1, 8), F(3, 8)), (F(5, 8), F(15, 16)), (1, 1)])
    calls = {"affine_image": 0, "compose": 0}

    def counted(name):
        real = getattr(_k, name)

        def wrapped(*args):
            calls[name] += 1
            return real(*args)

        return wrapped

    for f, g in ((f, g), (reflect(f), reflect(g))):
        for fcomp, gcomp, sign in _components(f, g):
            args = (*_maps(f, g), fcomp, gcomp, sign, (1, 2000), CAP)
            want = _run(oracle_transport, *args)
            with monkeypatch.context() as m:
                for name in calls:
                    m.setattr(_k, name, counted(name))
                got = _run(conjugator._transport, *args)
            assert got == want
    assert calls["affine_image"] > 0 and calls["compose"] > 0


def test_build_inverts_once_and_restricts_only_straddling_steps(monkeypatch):
    # f and g are inverted once per synthesis, whatever the component count,
    # and a straddling orbit step is the only caller of restrict: it
    # restricts once and composes twice, and nothing else in the build does
    f = PLHomeo([(0, 0), (F(1, 4), F(1, 2)), (F(3, 4), F(7, 8)), (1, 1)])
    g = PLHomeo([(0, 0), (F(1, 8), F(3, 8)), (F(5, 8), F(15, 16)), (1, 1)])
    found = [p for p in (_draw_pair(seed, False) for seed in range(40)) if p]
    multi = [p for p in found if len(list(_components(*p))) > 1][:4]
    assert multi
    calls = {"invert": 0, "restrict": 0, "compose": 0}
    built = {}

    def counted(name):
        real = getattr(_k, name)

        def wrapped(*args):
            calls[name] += 1
            return real(*args)

        return wrapped

    real_build = conjugator._build_conjugator

    def build(*args):
        before = dict(calls)
        h = real_build(*args)
        built.update((name, calls[name] - before[name]) for name in calls)
        return h

    for name in calls:
        monkeypatch.setattr(_k, name, counted(name))
    monkeypatch.setattr(conjugator, "_build_conjugator", build)
    straddling = 0
    for f, g in [(f, g), (reflect(f), reflect(g))] + multi:
        for eta in ETAS:
            for name in calls:
                calls[name] = 0
            conjugator.approx_conjugator(f, g, eta, max_steps=CAP)
            assert built["invert"] == 2
            # the post-check inverts h once more
            assert calls["invert"] == 3
            assert built["compose"] == 2 * built["restrict"]
            straddling += built["restrict"]
    assert straddling > 0


# ------------------------------------------------------------ anchor


def _midpoint_anchor(bps, lo, hi):
    """The anchor before: the middle of the component, with its value."""
    mid = _fp((_frac(lo) + _frac(hi)) / 2)
    return mid + _k.eval_at(bps, mid)


def _conjugator_bps(f, g, eta):
    h = conjugator.approx_conjugator(f, g, eta, max_steps=CAP)
    assert sup_dist(compose(compose(h.invert(), f), h), g) < eta
    return len(h._kbps)


def test_anchor_on_breakpoints_shrinks_conjugators(monkeypatch):
    pairs = [p for p in (_draw_pair(seed, False) for seed in range(8)) if p]
    pairs += [(reflect(f), reflect(g)) for f, g in pairs]
    domains = []
    real_orbit = conjugator._orbit

    def spy(piece, *args):
        domains.append(piece)
        return real_orbit(piece, *args)

    monkeypatch.setattr(conjugator, "_orbit", spy)
    anchored = 0
    for f, g in pairs:
        g_bps = {p[:2] for p in g._kbps[1:-1]}
        f_bps = {p[:2] for p in f._kbps[1:-1]}
        for eta in ETAS:
            domains.clear()
            anchored += _conjugator_bps(f, g, eta)
            # h0 seeds the forward and the backward orbit of each component
            assert len(domains) == 2 * len(list(_components(f, g)))
            for h0 in domains:
                # q0 (a breakpoint of g) goes to p0 (a breakpoint of f)
                assert any(e[:2] in g_bps and e[2:] in f_bps for e in (h0[0], h0[-1]))
    monkeypatch.setattr(conjugator, "_orbit_anchor", _midpoint_anchor)
    midpoint = sum(_conjugator_bps(f, g, eta) for f, g in pairs for eta in ETAS)
    assert anchored < midpoint
