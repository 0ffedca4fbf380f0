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
evaluated. Maps are kernel lists, g's component and eta_cap kernel pairs
and end segments index pairs, as conjugator._transport takes them; the
end segments come from oracle_end_segment, the bisecting lookup that the
fixed-structure check's one pass replaced, and a test requires the two to
agree. The oracle finds f's component from its end segments, by the same
lookup over f's fixed intervals.

The seam is checked the same way: the oracle tries each tail piece's
chord by composing over the crossing cell and taking the exact sup_diff
against g, where the transport uses the closed-form seam error scaled by
the end slope. seamless_affine_tail is the tail before the seam; patched
in, it gives the conjugators the seam shrinks.

The tail itself is checked against its own past: oracle_affine_tail
steps the polygon by a one-point affine_image list, with _outside as
the stop test, and oracle_seam_gap reduces every point's gap to lowest
terms. Pieces, spent budget and seam gaps must be
identical on the slow-tail pairs of tests/test_conjugator.py and on the
frozen pairs of tests/test_conjugator_frozen.py.
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


@pytest.fixture(autouse=True, scope="module")
def _orbit_cap():
    # every synthesis in this module stops at CAP orbit steps
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(conjugator, "MAX_ORBIT_STEPS", CAP)
        yield


def _frac(pair):
    return Fraction(pair[0], pair[1])


def _fp(x):
    return (x.numerator, x.denominator)


def seamless_affine_tail(piece, xaff, yaff, rightward, near, stop, margin, budget):
    """conjugator._affine_tail before the seam: every piece in full.

    Each step maps the whole previous piece, so a piece carries every kink
    of the piece that entered the tail to the cap.
    """
    pieces = []
    while _outside(piece[near][:2], stop, margin):
        budget.spend()
        if rightward:
            piece = [piece[-1]] + _k.affine_image(piece[1:], *xaff, *yaff)
        else:
            piece = _k.affine_image(piece[:-1], *xaff, *yaff) + [piece[0]]
        pieces.append(piece)
    return pieces


def oracle_seam_gap(piece):
    """conjugator._seam_gap as it was, reducing every point's gap.

    max |L⁻¹(y) - x| over piece's interior breakpoints (x, y), L its chord.

    piece is an increasing kernel piece; the gap is a kernel pair, (0, 1)
    when piece has no interior breakpoint.
    """
    p, q = piece[0], piece[-1]
    run = _k.rsub(q[:2], p[:2])
    rise = _k.rsub(q[2:], p[2:])
    worst = (0, 1)
    for b in piece[1:-1]:
        along = _k.rdiv(_k.rmul(_k.rsub(b[2:], p[2:]), run), rise)
        gap = _k.rsub(along, _k.rsub(b[:2], p[:2]))
        gap = (abs(gap[0]), gap[1])
        if _k.rcmp(gap, worst) > 0:
            worst = gap
    return worst


def oracle_affine_tail(piece, xaff, yaff, rightward, near, stop, margin, budget):
    """conjugator._affine_tail as it was: its polygon steps one point as a
    one-point affine_image list, its stop test is _outside, and its seam
    gap is oracle_seam_gap. Arguments and result are _affine_tail's.
    """
    sigma = xaff[0]
    newest = -1 if rightward else 0
    forward = near == newest
    # E of the next piece, whose seam gap is sigma times piece's
    err = oracle_seam_gap(piece)
    if forward:
        err = _k.rmul(err, sigma)
    pieces = []
    while _k.rcmp(err, margin) >= 0 and _outside(piece[near][:2], stop, margin):
        budget.spend()
        if rightward:
            piece = [piece[-1]] + _k.affine_image(piece[1:], *xaff, *yaff)
        else:
            piece = _k.affine_image(piece[:-1], *xaff, *yaff) + [piece[0]]
        pieces.append(piece)
        err = _k.rmul(err, sigma)
    # the polygon: each step maps the newest orbit point and nothing else
    point = piece[newest]
    polygon = [point]
    end = piece[near]
    while _outside(end[:2], stop, margin):
        budget.spend()
        point = _k.affine_image([point], *xaff, *yaff)[0]
        end = point if forward else polygon[-1]
        polygon.append(point)
    if len(polygon) == 1:
        return pieces
    if not rightward:
        polygon.reverse()
    if sigma == yaff[0]:
        polygon = [polygon[0], polygon[-1]]
    return pieces + [polygon]


def in_end_segments(piece, xmap, ymap, high):
    """piece's cell lies in xmap's segment at the component end it
    approaches (the high end when high), and its values in ymap's.

    xmap and ymap are restricted to the component, so those are their
    first or last segments.
    """
    if high:
        return (
            _k.rcmp(piece[0][:2], xmap[-2][:2]) >= 0
            and _k.rcmp(piece[0][2:], ymap[-2][:2]) >= 0
        )
    return (
        _k.rcmp(piece[-1][:2], xmap[1][:2]) <= 0
        and _k.rcmp(piece[-1][2:], ymap[1][:2]) <= 0
    )


def crossing_sup(f, g, here, there):
    """Exact sup of |h⁻¹ ∘ f ∘ h - g| over here's cell, as a kernel pair,
    when h is here on that cell and there on the cell g maps it onto."""
    conj = _k.compose(_k.invert(there), _k.compose(f, here))
    return _k.sup_diff(conj, _k.restrict(g, here[0][:2], here[-1][:2]))[:2]


def _seamed(pieces, seam, leftward):
    """pieces, with those from index seam on joined into one."""
    if seam is None:
        return pieces
    rest = pieces[seam:][::-1] if leftward else pieces[seam:]
    return pieces[:seam] + [_k.concat(rest)]


def oracle_transport(
    f, finv, g, ginv, gcomp, fends, gends, sign, eta_cap, budget, seams=None
):
    """Orbit-matched conjugator pieces inside one component pair.

    Returns kernel pieces in ascending x order covering [ql, qh] on the g
    side, with h(ql) = pl and h(qh) = ph, where ql, pl, qh and ph are the
    last orbit points, evaluated afresh. The orbit points travel as
    kernel pairs. finv, ginv and gends are not read, and fends only to
    find f's component (_component_of): the oracle inverts its own
    restrictions, and its end segments are their first and last.

    The seam: the first piece made from a piece inside both end segments
    whose chord keeps the exact sup over the crossing cell under eta_cap
    is replaced by that chord. On the forward orbit the crossing cell is
    the one before it, on the backward orbit its own. The pieces from
    there on are stepped as before and joined by concat. When seams is a
    list, the orbit that seamed ("forward" or "backward") is appended.
    """
    a, b = _component_of(f, fends)
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
    seam = None
    piece, q_cur, p_cur = h0, q1, p1
    while _outside(q_cur, attract, eta_cap):
        budget.spend()
        q_next = _k.eval_at(g_loc, q_cur)
        p_next = _k.eval_at(f_loc, p_cur)
        lo, hi = (q_cur, q_next) if sign > 0 else (q_next, q_cur)
        step = _k.compose(piece, _k.restrict(ginv, lo, hi))
        new = _k.compose(f_loc, step)
        if seam is None and in_end_segments(piece, g_loc, f_loc, sign > 0):
            chord = [new[0], new[-1]]
            if _k.rcmp(crossing_sup(f_loc, g_loc, piece, chord), eta_cap) < 0:
                seam, new = len(fwd_pieces), chord
                if seams is not None:
                    seams.append("forward")
        piece = new
        fwd_pieces.append(piece)
        q_cur, p_cur = q_next, p_next
    fwd_pieces = _seamed(fwd_pieces, seam, sign < 0)

    back_pieces = []
    seam = None
    piece, r_cur, z_cur = h0, q0, p0
    # the cap bound at the repelling end is the previous orbit point, so
    # keep stepping until g(r) is already inside the margin
    while _outside(_k.eval_at(g_loc, r_cur), repel, eta_cap):
        budget.spend()
        r_next = _k.eval_at(ginv, r_cur)
        z_next = _k.eval_at(finv, z_cur)
        lo, hi = (r_next, r_cur) if sign > 0 else (r_cur, r_next)
        step = _k.compose(piece, _k.restrict(g_loc, lo, hi))
        new = _k.compose(finv, step)
        if seam is None and in_end_segments(piece, ginv, finv, sign < 0):
            chord = [new[0], new[-1]]
            if _k.rcmp(crossing_sup(f_loc, g_loc, chord, piece), eta_cap) < 0:
                seam, new = len(back_pieces), chord
                if seams is not None:
                    seams.append("backward")
        piece = new
        back_pieces.append(piece)
        r_cur, z_cur = r_next, z_next
    back_pieces = _seamed(back_pieces, seam, sign > 0)

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


def oracle_end_segment(bps, end, rightward):
    """Index of the segment reaching a component's high (rightward) or low
    end, by bisection: conjugator's lookup before the one-pass search."""
    k = _k._locate(bps, end)
    return k - 1 if rightward and bps[k][:2] == end else k


def _oracle_ends(bps, lo, hi):
    """The end segment indices of bps's component [lo, hi], by bisection."""
    return oracle_end_segment(bps, lo, False), oracle_end_segment(bps, hi, True)


def _component_of(bps, ends):
    """The ends (lo, hi) of bps's component whose end segments are ends.

    Each component's low segment lies left of its high one, and the next
    component's low segment is at or right of it, so ends names one
    component.
    """
    ivs = _k.fixed_structure(bps)[0]
    for (_, lo), (hi, _) in zip(ivs, ivs[1:]):
        if _oracle_ends(bps, lo, hi) == ends:
            return lo, hi
    raise AssertionError(f"no component has the end segments {ends}")


def _components(f, g):
    """Per component: its ends in g, its end segment indices in f and g
    (oracle_end_segment) and its sign, as _transport takes them."""
    f_ivs = _k.fixed_structure(f._kbps)[0]
    g_ivs, signs = _k.fixed_structure(g._kbps)
    for j, sign in enumerate(signs):
        fends = _oracle_ends(f._kbps, f_ivs[j][1], f_ivs[j + 1][0])
        gcomp = (g_ivs[j][1], g_ivs[j + 1][0])
        yield gcomp, fends, _oracle_ends(g._kbps, *gcomp), sign


def _maps(f, g):
    """f, f⁻¹, g and g⁻¹ as whole kernel lists, as _transport takes them."""
    return f._kbps, _k.invert(f._kbps), g._kbps, _k.invert(g._kbps)


def _run(transport, *args):
    """transport on args but the last, the orbit cap: (its pieces, or
    "cap" when it met the cap, and the budget left)."""
    *args, cap = args
    budget = _Budget(cap)
    try:
        out = transport(*args, budget)
    except OrbitCapError:
        return "cap", budget.left
    return out, budget.left


def check_pair(f, g, eta_cap):
    for comp in _components(f, g):
        args = (*_maps(f, g), *comp, eta_cap, CAP)
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
    h = conjugator.approx_conjugator(f, g, eta)
    real = conjugator._transport
    conjugator._transport = oracle_transport
    try:
        want = conjugator.approx_conjugator(f, g, eta)
    finally:
        conjugator._transport = real
    assert h == want


@settings(max_examples=40, deadline=None)
@given(pairs(), st.sampled_from(ETAS))
def test_cap_one_below_the_need_raises_on_both(pair, eta):
    f, g = pair
    for comp in _components(f, g):
        args = (*_maps(f, g), *comp, _fp(eta / 2))
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
        for comp in _components(f, g):
            args = (*_maps(f, g), *comp, (1, 2000), CAP)
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
            conjugator.approx_conjugator(f, g, eta)
            assert built["invert"] == 2
            # the post-check inverts h once more
            assert calls["invert"] == 3
            assert built["compose"] == 2 * built["restrict"]
            straddling += built["restrict"]
    assert straddling > 0


# ------------------------------------------------------------ end segments

EDGE_MAPS = [
    # an isolated root inside a segment, at 1/2
    PLHomeo([(0, 0), (F(1, 4), F(3, 8)), (F(3, 4), F(5, 8)), (1, 1)]),
    # a fixed breakpoint at 1/2 between two gaps, and one inside a gap
    PLHomeo([(0, 0), (F(1, 4), F(3, 8)), (F(1, 2), F(1, 2)), (F(5, 8), F(9, 16)),
             (F(3, 4), F(5, 8)), (1, 1)]),
    # a fixed interval [1/4, 1/2] whose ends are breakpoints
    PLHomeo([(0, 0), (F(1, 8), F(3, 16)), (F(1, 4), F(1, 4)), (F(1, 2), F(1, 2)),
             (F(3, 4), F(7, 8)), (1, 1)]),
    # fixed only at 0 and 1, with one breakpoint
    PLHomeo([(0, 0), (F(1, 2), F(3, 4)), (1, 1)]),
]


def oracle_end_segments(bps, ivs):
    """Per component of bps, its two end segment indices by bisection."""
    return [_oracle_ends(bps, lo, hi) for (_, lo), (hi, _) in zip(ivs, ivs[1:])]


def test_end_segments_match_the_bisecting_lookup():
    # the fixed-structure check's one pass against the fixed intervals
    # finds what bisecting each end finds, on each map and on its inverse
    # list, whose structure has the same intervals and flipped signs
    rng = random.Random(2029)
    maps = [rand_homeo(rng) for _ in range(400)] + EDGE_MAPS
    seen = {"root": 0, "on breakpoint": 0, "degenerate": 0, "components": 0}
    for h in maps + [reflect(h) for h in maps]:
        bps = h._kbps
        ivs, signs = _k.fixed_structure(bps)
        want = oracle_end_segments(bps, ivs)
        assert conjugator._check_fixed_structure(bps, ivs, signs) == want
        inv = _k.invert(bps)
        flipped = [-s for s in signs]
        assert _k.fixed_structure(inv) == (ivs, flipped)
        assert oracle_end_segments(inv, ivs) == want
        assert conjugator._check_fixed_structure(inv, ivs, flipped) == want
        xs = {p[:2] for p in bps}
        inner = [e for (_, lo), (hi, _) in zip(ivs, ivs[1:]) for e in (lo, hi)][1:-1]
        seen["root"] += sum(e not in xs for e in inner)
        seen["on breakpoint"] += sum(e in xs for e in inner)
        seen["degenerate"] += sum(a == b for a, b in ivs[1:-1])
        seen["components"] += len(want)
    assert min(seen.values()) > 10, seen


# ------------------------------------------------------------ anchor


def _midpoint_anchor(bps, ends):
    """The anchor before: the middle of the component, with its value.

    The component is the one of bps whose end segments are ends.
    """
    lo, hi = _component_of(bps, ends)
    mid = _fp((_frac(lo) + _frac(hi)) / 2)
    return mid + _k.eval_at(bps, mid)


def _conjugator_bps(f, g, eta):
    h = conjugator.approx_conjugator(f, g, eta)
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


# ------------------------------------------------------------ seam


def test_seam_fires_on_both_orbits_at_every_eta():
    # the bit-for-bit comparison above must cover seamed tails of both
    # orbit directions at every tolerance, not only seamless ones
    found = [p for p in (_draw_pair(seed, False) for seed in range(12)) if p]
    seen = set()
    for f, g in found + [(reflect(f), reflect(g)) for f, g in found]:
        for eta in ETAS:
            for comp in _components(f, g):
                args = (*_maps(f, g), *comp, _fp(eta / 2))
                seams = []
                want = oracle_transport(*args, _Budget(CAP), seams=seams)
                assert conjugator._transport(*args, _Budget(CAP)) == want
                seen.update((side, comp[-1], eta) for side in seams)
    assert seen == {
        (side, sign, eta)
        for side in ("forward", "backward")
        for sign in (1, -1)
        for eta in ETAS
    }


def test_seam_error_is_the_crossing_sup_and_shrinks_by_the_end_slope(monkeypatch):
    # along each seamless tail, the closed-form seam error E of every piece
    # equals the exact sup over its crossing cell, and E scales by sigma
    found = [p for p in (_draw_pair(seed, False) for seed in range(8)) if p]
    tails = []

    def spy(piece, xaff, yaff, rightward, near, *rest):
        out = seamless_affine_tail(piece, xaff, yaff, rightward, near, *rest)
        tails.append((piece, out, xaff[0], near == (-1 if rightward else 0)))
        return out

    monkeypatch.setattr(conjugator, "_affine_tail", spy)
    checked = kinked = 0
    for f, g in found + [(reflect(f), reflect(g)) for f, g in found]:
        for eta in ETAS:
            tails.clear()
            conjugator.approx_conjugator(f, g, eta)
            for piece, out, sigma, forward in tails:
                chain = [piece] + out
                for prev, cur in zip(chain, chain[1:]):
                    gap = conjugator._seam_gap(cur)
                    assert gap == _k.rmul(conjugator._seam_gap(prev), sigma)
                    chord = [cur[0], cur[-1]]
                    if forward:
                        want = crossing_sup(f._kbps, g._kbps, prev, chord)
                        assert gap == want
                    else:
                        want = crossing_sup(f._kbps, g._kbps, chord, prev)
                        assert gap == _k.rmul(want, sigma)
                    checked += 1
                    kinked += gap != (0, 1)
    assert kinked > 0 and checked > kinked


def test_seam_shrinks_conjugators(monkeypatch):
    found = [p for p in (_draw_pair(seed, False) for seed in range(8)) if p]
    found += [(reflect(f), reflect(g)) for f, g in found]
    seamed = sum(_conjugator_bps(f, g, eta) for f, g in found for eta in ETAS)
    monkeypatch.setattr(conjugator, "_affine_tail", seamless_affine_tail)
    seamless = sum(_conjugator_bps(f, g, eta) for f, g in found for eta in ETAS)
    assert seamed < seamless


def test_equal_end_slopes_collapse_the_polygon(monkeypatch):
    # f and g have slope 2 at 0 and 1/2 at 1, so every tail step is one
    # affine map on both axes with the same slope: the polygon is straight
    f = PLHomeo([(0, 0), (F(1, 4), F(1, 2)), (F(3, 4), F(7, 8)), (1, 1)])
    g = PLHomeo([(0, 0), (F(1, 8), F(1, 4)), (F(5, 8), F(13, 16)), (1, 1)])
    polygons = []
    real_tail = conjugator._affine_tail

    def spy(*args):
        out = real_tail(*args)
        polygons.extend(out[-1:])
        return out

    monkeypatch.setattr(conjugator, "_affine_tail", spy)
    for f, g in ((f, g), (reflect(f), reflect(g))):
        for eta in ETAS:
            check_pair(f, g, _fp(eta / 2))
    assert polygons and all(len(p) == 2 for p in polygons)


# ------------------------------------------------------------ the tail's past


def test_affine_tail_matches_its_one_point_loop(monkeypatch):
    # every tail of every synthesis, run both ways on equal budgets; the
    # slow-tail pairs have the longest polygons. None of these runs meets
    # the orbit cap
    from test_conjugator import _slow_tail_pairs
    from test_conjugator_frozen import PAIRS

    real = conjugator._affine_tail
    seen = {"tails": 0, "polygon": 0, "gaps": 0}

    def both(piece, xaff, yaff, rightward, near, stop, margin, budget):
        args = (piece, xaff, yaff, rightward, near, stop, margin)
        mirror = _Budget(budget.left)
        want = oracle_affine_tail(*args, mirror)
        got = real(*args, budget)
        assert got == want and budget.left == mirror.left
        seen["tails"] += 1
        seen["polygon"] = max(seen["polygon"], max(map(len, got), default=0))
        for p in [piece] + got:
            gap = conjugator._seam_gap(p)
            assert gap == oracle_seam_gap(p)
            seen["gaps"] += gap != (0, 1)
        return got

    monkeypatch.setattr(conjugator, "_affine_tail", both)
    for pairs in _slow_tail_pairs(1, 16).values():
        for f, g in pairs:
            for eta in (F(1, 100), F(1, 1000)):
                conjugator.approx_conjugator(f, g, eta)
    for f, g in PAIRS:
        for ff, gg in ((f, g), (reflect(f), reflect(g))):
            for eta in ETAS:
                conjugator.approx_conjugator(ff, gg, eta)
    assert seen["tails"] > 300 and seen["polygon"] > 100 and seen["gaps"] > 500
