"""Approximate conjugator synthesis and the blockwise conjugation kernel.

Two homeomorphisms with equal signatures are conjugate, but the exact
conjugator is generally not PL (its breakpoints accumulate at fixed
points), so the deliverable is an approximate conjugator h with

    sup_dist(h⁻¹ ∘ f ∘ h, g) < η

verified by exact computation after construction. The construction matches
non-fixed components in order and transports a fundamental domain along
the orbit inside each matched pair: on the orbit cell [q_j, q_{j+1}] of g
the conjugator is f^j ∘ h₀ ∘ g^{-j}, which satisfies the conjugacy
equation exactly; the only error comes from the affine caps that stop the
(infinite) orbit once it is within a margin eta_cap of the component
ends, from the seam (below), which stays under eta_cap on one cell per
orbit, and from the squeeze windows (below).

Cap error accounting, per cell: why one build meets η. Each bound below
is on the error |h⁻¹(f(h(x))) - g(x)| for x in one cell, and the cells
partition [0, 1], so the sup of the error is the largest of them. A cap
is affine on the g-side cell C next to a component end, and h maps that
end to a fixed point of f. For x in C or with g(x) in C, both g(x) and
h⁻¹(f(h(x))) then stay inside the hull of C ∪ g(C), and neither reaches
the hull's end at the component end but at that end itself, where the
error is 0, so the error is under the hull's length.
  * Attracting cap: the hull is C, no longer than eta_cap: error < eta_cap.
  * Repelling cap: the hull is C grown by one orbit step, and the
    backward orbit runs until that previous point is inside eta_cap:
    error < eta_cap.
  * Pinch anchor: the anchor (0, 1 or a midpoint) lies in f's fixed
    interval, so f fixes it and the two cap bounds above hold as they are.
  * Seam crossing cell: error = E < eta_cap, exactly (see Seam).
  * Squeeze window (below): f's slopes and inverse slopes near m are
    under 2^k, so f scales a value's distance to m by a factor between
    2^-k and 2^k. The window halves that distance per piece of width
    w ≤ eta_cap/(k+1), so inside it h⁻¹ ∘ f ∘ h moves x by under
    (k+1)·w ≤ eta_cap, and g fixes x: error < eta_cap.
  * Cap next to a window: it ends at a value f does not fix, so there
    h⁻¹ ∘ f ∘ h can cross between the cap and the first k pieces:
    error < eta_cap + k·w < 2·eta_cap.
Every other cell is exact. So _cap_margin gives eta_cap = η to a pair
with no squeeze window, where every bound is under eta_cap, and η/2 to a
pair with one, where the cap next to a window is under 2·eta_cap. The
exact post-check still refuses any miss.

Anchor: each component's fundamental domain starts at an interior
breakpoint q0 of g and is sent to an interior breakpoint p0 of f. On cell
k the conjugator is f^k ∘ h0 ∘ g^-k, so a breakpoint of g or f adds a kink
to every cell its orbit passes through, and one inside h0's own cell adds
a kink to every cell on both sides. Anchored so, the orbits of q0 and p0
are cell ends and add none, and fewer orbit pieces straddle a breakpoint.
The cap error accounting above never uses where the anchor sits.

Affine tail: each orbit piece is the graph of the previous one under
(x, y) ↦ (g(x), f(y)), or (g⁻¹(x), f⁻¹(y)) backward. Near a component end
the cells shrink, so most pieces lie inside one segment of g and take
values inside one segment of f; there the step is one affine image of the
previous piece, with both slopes positive. An invertible affine map keeps
collinear points collinear and the rest not, so the image of a canonical
piece is canonical, and since the canonical list of a map is unique it is
bit for bit what restricting and composing would give. Only a piece that
straddles a breakpoint of g or f is restricted and composed.
Once a piece lies in the segment of g (g⁻¹ backward) that touches the
component end it moves toward, and its values lie in the segment of f
(f⁻¹) touching the matching end, every later step is that same affine
map. The piece never leaves the end segment: f and g have the same sign
on matched components, so each of the two maps moves every interior point
of its component strictly toward the end the orbit approaches, and never
past it, since it is increasing and fixes that end. A piece between the
segment's inner breakpoint and the end therefore maps to points between
the piece and the end, inside the segment. From there, _affine_tail takes
each step with no segment search, one budget step per piece as before.
Consecutive pieces share an endpoint: the image of a piece's back end is
that piece's own front end, so only the other points are mapped. Past
the seam (below) a step maps one point, the newest orbit point, and the
tail takes it on bare integers: with the two end segments' slopes and
offsets over common denominators once per tail, each coordinate of the
new point is one numerator and one denominator, reduced by one gcd, and
the stop test is _outside's cross-product inline. The result is the
point affine_image would give, since both reduce the same rational to
lowest terms.

Seam: an affine step keeps every kink, so a tail piece carries the kinks
of the piece that entered the tail all the way to the cap. The first tail
piece P whose seam error E(P) is under eta_cap is replaced by its chord
L = [P[0], P[-1]], where, over P's interior breakpoints (x_k, y_k),

    E(P) = w · max_k |L⁻¹(y_k) - x_k|,

with w = 1 on the forward orbit and w = 1/σ on the backward one, σ being
the slope of g⁻¹'s end segment there (so 1/σ is g's slope on P's cell).
E is the exact sup of |h⁻¹ ∘ f ∘ h - g| over the one cell whose image
under g crosses the seam. Forward that is the cell C before P: for x in
C, f(h(x)) = P(g(x)), so h⁻¹(f(h(x))) - g(x) = L⁻¹(P(u)) - u at u = g(x),
a PL function of u that vanishes at P's ends and breaks at its
breakpoints. Backward it is P's own cell: the next piece Q toward h0
satisfies Q ∘ g = f ∘ P there, so h⁻¹(f(L(x))) - g(x) = g(P⁻¹(L(x))) - g(x),
with g affine of slope 1/σ on that cell. Every later piece is the affine
image of L, so conjugacy is exact on every other orbit cell, and the
pieces from L on form one polygon through the orbit points. Its
consecutive slopes differ by the factor τ/σ, τ the end slope of f (f⁻¹
backward), so every interior point is a kink unless τ = σ, when the
polygon is a single segment. An affine step scales L⁻¹(y_k) - x_k by σ,
so E shrinks by exactly σ per step and is computed once per tail, by
_seam_gap over the entering piece, which keeps every point's gap and its
running max unreduced and reduces once. The
crossing cell is an orbit cell, never the cap cell next to a component
end (forward it precedes P; backward it is P's own), and the orbit
points, hence the caps and the squeeze windows, are the same as without
the seam, so every other bound of the cap error accounting holds as it
is.

Whole maps: a component's segments are f's and g's own, so the orbit
reads their whole lists, inverted once per synthesis, and copies no
component out. The fixed-structure check (below) finds every component's
end segments in f and in g as it walks each map's breakpoints against its
fixed interval ends. The anchors and both orbits read those indices, and
g⁻¹ and f⁻¹ reuse them: each map fixes the component's ends and is
increasing, so its inverse's segment at an end has the map's index. The
orbits stop on g's ends. A segment's (slope, offset) is computed only
when a step uses it.

Where the fixed-gap layouts of f and g disagree (g pauses on an interval
where f has a single fixed point) no cap can absorb the mismatch: the
conjugator must compress that g-interval into a tiny window around the
f-point, and an affine compression amplifies f's displacement by the
inverse slope. The squeeze glue instead halves the window per piece of
equal width, so a displacement by a bounded slope ratio moves the image
at most a few pieces sideways and the error stays proportional to the
piece width, which we pick below the cap margin.

Fixed structure, checked first: every step above trusts the fixed
intervals and gap signs of f and g. A wrong structure would send an
orbit toward a point that is not fixed, and synthesis would spend its
whole orbit budget before the post-check could refuse. So
_check_fixed_structure tests both structures against their maps' own
breakpoints, in one linear pass per map that also returns the components'
end segments, before anything is built. Only a defect can make a wrong
structure, so its FixedStructureError is a RuntimeError, as a failed
post-check is: a failed trial in a campaign, exit 1 in the CLI.

Post-check: achieved = sup |h⁻¹ ∘ f ∘ h - g| is computed exactly, without
building h⁻¹ ∘ f ∘ h or any other composite. h is a bijection of [0, 1],
so with y = h(x) the sup over x is the sup over y of
|h⁻¹(f(y)) - g(h⁻¹(y))|, the difference of h⁻¹ ∘ f and g ∘ h⁻¹.
_conjugacy_gap scores it with _kernel_py.compose_pair_sup(h⁻¹, f, g, h⁻¹),
which merges two walks (_kernel_py._walk, the one compose makes): f's
breakpoints and the points where f crosses a breakpoint of h⁻¹, and h⁻¹'s
breakpoints and the points where h⁻¹ crosses a breakpoint of g. Between
consecutive points of the merged walk both maps are affine, so
|difference| is convex there and its sup over the cell sits at an end. A
point of one walk inside a segment of the other is read off that
segment's chord. The running max stays an unreduced fraction, compared by
cross-multiplication and normalized once at the end; the post-check keeps
the value and drops the witness, which is a point y of h's range. A
caller that needs the conjugate itself (the density experiment) takes
_checked_conjugate instead: it builds h⁻¹ ∘ f ∘ h once and reads the
same exact sup off it with sup_diff, so the conjugate is not walked twice.

Arithmetic: from the fixed structure of f and g down to the final concat,
the construction runs on kernel pairs (n, d) and builds no Fraction. The
Fraction boundary is eta, which _cap_margin turns into eta_cap as a pair
once in _checked_build, and the typed maps: f and g come in as PLHomeo,
and h leaves as one. The post-check reads their kernel lists and turns
only achieved into a Fraction.
"""

from fractions import Fraction
from math import gcd

from . import _kernel_py as _k
from .plmap import PLHomeo, identity, reflect, sup_dist, to_json_dict
from .randgen import derive_rng, rand_signature_homeo
from .rational import format_rational
from .signatures import fixed_structure, signature, signature_reflect
from .tents import block_sum, check_size, oplus_power, oplus_size


class SignatureMismatchError(ValueError):
    """The two maps are not conjugate: their signatures differ."""


# orbit steps one synthesis may take before it gives up with OrbitCapError
MAX_ORBIT_STEPS = 1_000_000


class OrbitCapError(RuntimeError):
    """Orbit iteration passed MAX_ORBIT_STEPS; η too small for it."""


class ConjugatorError(RuntimeError):
    """The synthesized map failed its exact post-check."""


class GridNotFixedError(ValueError):
    """The target map moves a grid point it was required to fix."""


class FixedStructureError(RuntimeError):
    """A map's fixed intervals or gap signs do not fit its breakpoints."""


class _Budget:
    def __init__(self, cap):
        self.left = cap

    def spend(self):
        self.left -= 1
        if self.left < 0:
            raise OrbitCapError(
                "orbit iteration exceeded the cap; use a larger eta"
            )


def _outside(x, end, margin):
    """|end - x| > margin, on kernel pairs, by integer cross-multiplication."""
    return abs(end[0] * x[1] - x[0] * end[1]) * margin[1] > margin[0] * end[1] * x[1]


def _check_fixed_structure(bps, ivs, signs):
    """Per gap, its (low, high) end segment indices in bps, once checked.

    Raises FixedStructureError unless (ivs, signs) is bps's fixed structure.
    One pass over bps and the interval ends, in x order. The intervals
    run from 0 to 1 in strict order with one sign per gap between them.
    Every interval end is fixed: a breakpoint that lies on the diagonal,
    or an isolated root, where its segment is evaluated. Every breakpoint
    inside an interval is fixed, so the interval is. Every gap holds a
    breakpoint, and every breakpoint strictly inside a gap has the gap's
    sign; h - id is affine between them and the gap's fixed ends, so it
    keeps that sign on the whole gap. Synthesis trusts this structure, and
    a wrong one would spend the orbit budget before the post-check could
    refuse it.

    low indexes the segment holding the gap's low end and points just
    right of it, high the one holding its high end and points just left.
    At each end the pass holds k, the first breakpoint at or right of it:
    high is k - 1, and low is k when the end is a breakpoint, else k - 1.
    The inverse list has the same indices: the map fixes each end and is
    increasing, so its inverse's breakpoints are its own, swapped.
    """

    def fail(why):
        raise FixedStructureError(f"wrong fixed structure: {why}")

    if len(ivs) != len(signs) + 1 or ivs[0][0] != (0, 1) or ivs[-1][1] != (1, 1):
        fail("the intervals must run from 0 to 1 with one sign per gap")
    ends = [e for iv in ivs for e in iv]
    n = len(bps)
    k = 0  # the first breakpoint not yet checked
    pn, pd = 0, 1  # the previous end
    segments = []
    for t in range(len(ends)):
        en, ed = ends[t]
        c = en * pd - pn * ed
        if c < 0 or (c == 0 and t and not t & 1):
            fail(f"interval end {en}/{ed} is out of order")
        # the breakpoints before this end lie inside an interval (t odd),
        # where h - id is 0, or strictly inside a gap (t even)
        if t & 1 or not t:
            want = 0
        else:
            want = signs[(t >> 1) - 1]
            if want != 1 and want != -1:
                fail(f"the gap before {en}/{ed} has sign {want}")
        first = k
        while k < n:
            xn, xd, yn, yd = bps[k]
            if xn * ed >= en * xd:
                break
            r = yn * xd - xn * yd  # the sign of h - id there
            if (r * want <= 0) if want else r != 0:
                fail(f"h - id has the wrong sign at {xn}/{xd}")
            k += 1
        if want and k == first:
            fail(f"the gap before {en}/{ed} holds no breakpoint")
        on = k < n and bps[k][0] * ed == en * bps[k][1]
        if t & 1:  # a gap's low end
            low = k if on else k - 1
        elif t:  # a gap's high end
            segments.append((low, k - 1))
        if on:
            xn, xd, yn, yd = bps[k]
            k += 1
            if yn * xd != xn * yd:
                fail(f"interval end {en}/{ed} is not fixed")
        elif c:
            # an isolated root inside the segment p..q: (e, e) must lie on
            # it. (An end equal to the one before closes a degenerate
            # interval, checked at its left end.)
            x0n, x0d, y0n, y0d = bps[k - 1]
            x1n, x1d, y1n, y1d = bps[k]
            if ((en * x0d - x0n * ed) * (y1n * y0d - y0n * y1d) * x1d
                    != (en * y0d - y0n * ed) * (x1n * x0d - x0n * x1d) * y1d):
                fail(f"interval end {en}/{ed} is not fixed")
        pn, pd = en, ed
    return segments


def _orbit_anchor(bps, ends):
    """The middle breakpoint of bps restricted to a component.

    ends are the component's end segment indices (_check_fixed_structure). A map
    with no interior breakpoint on the component would be affine there
    and fix both ends, so it would fix the component pointwise.
    """
    return bps[(ends[0] + ends[1] + 2) // 2]


def _orbit(piece, xmap, xinv, ymap, rightward, near, stop, ends, margin, budget):
    """Orbit pieces after piece, each the graph of the last under (xmap, ymap).

    xmap carries piece's x cell onto the neighbouring cell, to the right
    when rightward, and ymap carries its values likewise; a new piece is
    f^±1 ∘ piece ∘ g^∓1 on the new cell, stop is the component end it
    approaches in x, and ends the indices of xmap's and ymap's segments
    reaching that end and its value. Steps while the end piece[near] of
    the last piece lies outside margin of stop, one budget step each.
    Once a piece lies in xmap's end segment and takes values in ymap's,
    _affine_tail takes every later step and returns the tail from its
    seam on as one piece.
    """
    xend, yend = ends
    pieces = []
    while _outside(piece[near][:2], stop, margin):
        first, last = piece[0], piece[-1]
        i = _k.segment_of(xmap, first[:2], last[:2])
        j = None if i is None else _k.segment_of(ymap, first[2:], last[2:])
        if j is not None:
            xaff = _k.segment_affine(xmap, i)
            yaff = _k.segment_affine(ymap, j)
            if i == xend and j == yend:
                tail = _affine_tail(
                    piece, xaff, yaff, rightward, near, stop, margin, budget
                )
                return pieces + tail
        budget.spend()
        if j is not None:
            piece = _k.affine_image(piece, *xaff, *yaff)
        else:
            if rightward:
                lo = last[:2]
                hi = _k.eval_at(xmap, lo)
            else:
                hi = first[:2]
                lo = _k.eval_at(xmap, hi)
            piece = _k.compose(ymap, _k.compose(piece, _k.restrict(xinv, lo, hi)))
        pieces.append(piece)
    return pieces


def _seam_gap(piece):
    """max |L⁻¹(y) - x| over piece's interior breakpoints (x, y), L its chord.

    piece is an increasing kernel piece; the gap is a kernel pair in
    lowest terms, (0, 1) when piece has no interior breakpoint. With
    run/rise the chord's slope, L⁻¹(y) - x is the fraction

        ((y - y0)·run - (x - x0)·rise) / rise,

    over the piece's first point (x0, y0). Each point's fraction stays
    unreduced, with a positive denominator; the running max is compared
    by cross-multiplication and normalized once at the end.
    """
    x0n, x0d, y0n, y0d = piece[0]
    x1n, x1d, y1n, y1d = piece[-1]
    # run = rn/rd and rise = sn/sd, with rn * sd and rd * sn both positive
    rs = (x1n * x0d - x0n * x1d) * (y1d * y0d)
    sr = (x1d * x0d) * (y1n * y0d - y0n * y1d)
    wn, wd = 0, 1
    for xn, xd, yn, yd in piece[1:-1]:
        dy = yn * y0d - y0n * yd  # y - y0, over yd * y0d
        dx = xn * x0d - x0n * xd  # x - x0, over xd * x0d
        xq = xd * x0d
        yq = yd * y0d
        gn = abs(dy * rs * xq - dx * yq * sr)
        gd = yq * sr * xq
        if gn * wd > wn * gd:
            wn, wd = gn, gd
    return _k.rnorm(wn, wd)


def _affine_tail(piece, xaff, yaff, rightward, near, stop, margin, budget):
    """_orbit's pieces after piece when every step is (xaff, yaff).

    xaff and yaff are (slope, offset) pairs of the end segments that hold
    piece's cell and its values; the pieces never leave them (see the
    module docstring). Each new piece starts where the last one ends
    (ends where it starts, leftward), so that point is reused and only
    the others are mapped.

    The first new piece whose seam error E is under margin is replaced by
    its chord (see Seam in the module docstring). The pieces from there
    on are chords, so they are returned as one polygon through the orbit
    points, whose interior points are all kinks unless xaff and yaff have
    the same slope, when it is a single segment. E is the seam gap times
    1 on the forward orbit, where near is the newest point, and times
    g's slope 1/σ on the backward one; it shrinks by σ per step.

    The polygon grows by one point per step, on bare integers (see Affine
    tail in the module docstring): each coordinate of the new point is
    s·v + o over one common denominator, reduced by one gcd, and the stop
    test is _outside's, inline.
    """
    sigma = xaff[0]
    newest = -1 if rightward else 0
    forward = near == newest
    # E of the next piece, whose seam gap is sigma times piece's
    err = _seam_gap(piece)
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
    # the polygon: each step maps the newest orbit point and nothing else.
    # x goes to (xa*x + xb) / xc and y to (ya*y + yb) / yc
    (sxn, sxd), (oxn, oxd) = xaff
    (syn, syd), (oyn, oyd) = yaff
    xa, xb, xc = sxn * oxd, oxn * sxd, sxd * oxd
    ya, yb, yc = syn * oyd, oyn * syd, syd * oyd
    sn, sd = stop
    mn, md = margin
    point = piece[newest]
    polygon = [point]
    xn, xd, yn, yd = point
    # the end piece[near] whose distance to stop is tested: forward the
    # newest point, backward the one before it
    en, ed = piece[near][:2]
    while abs(sn * ed - en * sd) * md > mn * sd * ed:
        budget.spend()
        if not forward:
            en, ed = xn, xd
        n = xa * xn + xb * xd
        d = xc * xd
        c = gcd(n, d)
        xn, xd = n // c, d // c
        n = ya * yn + yb * yd
        d = yc * yd
        c = gcd(n, d)
        yn, yd = n // c, d // c
        if forward:
            en, ed = xn, xd
        polygon.append((xn, xd, yn, yd))
    if len(polygon) == 1:
        return pieces
    if not rightward:
        polygon.reverse()
    if sigma == yaff[0]:
        polygon = [polygon[0], polygon[-1]]
    return pieces + [polygon]


def _transport(f, finv, g, ginv, gcomp, fends, gends, sign, eta_cap, budget):
    """Orbit-matched conjugator pieces inside one component pair.

    Maps are whole kernel lists, fends and gends the component's end
    segment indices in f and g (_check_fixed_structure), the rest kernel
    pairs; gcomp holds its ends in g.
    Returns kernel pieces in ascending x order; they run from h's
    breakpoint at the component's low end on the g side to the one at
    its high end.

    The fundamental domain h0 maps [q0, g(q0)] affinely onto [p0, f(p0)],
    where q0 and p0 are the _orbit_anchor breakpoints of g and f.
    """
    c, d = gcomp
    q = _orbit_anchor(g, gends)
    p = _orbit_anchor(f, fends)
    h0 = [q[:2] + p[:2], q[2:] + p[2:]] if sign > 0 else [q[2:] + p[2:], q[:2] + p[:2]]

    # each end in g, with its segment in g and f; g⁻¹ and f⁻¹ take the
    # same indices there
    low = c, (gends[0], fends[0])
    high = d, (gends[1], fends[1])
    attract, repel = (high, low) if sign > 0 else (low, high)
    # a piece's end toward the attracting end: q1 on h0. Forward, it is
    # the newest orbit point; backward, it is g of the newest one, and the
    # cap bound at the repelling end is that previous orbit point, so keep
    # stepping until it is already inside the margin
    near = -1 if sign > 0 else 0
    fwd = _orbit(h0, g, ginv, f, sign > 0, near, *attract, eta_cap, budget)
    back = _orbit(h0, ginv, g, finv, sign < 0, near, *repel, eta_cap, budget)

    if sign > 0:
        return back[::-1] + [h0] + fwd
    return fwd[::-1] + [h0] + back


def _slope_bound(kb, lo, hi):
    """Floor of the largest slope or inverse slope over segments meeting (lo, hi).

    kb is an increasing kernel list, lo and hi are pairs; at least 1.
    """
    worst = 1
    for i in range(len(kb) - 1):
        x0n, x0d, y0n, y0d = kb[i]
        x1n, x1d, y1n, y1d = kb[i + 1]
        if x1n * lo[1] <= lo[0] * x1d or x0n * hi[1] >= hi[0] * x0d:
            continue
        dy = (y1n * y0d - y0n * y1d) * x1d * x0d
        dx = (x1n * x0d - x0n * x1d) * y1d * y0d
        worst = max(worst, dy // dx, dx // dy)
    return worst


def _half_squeeze(u, v, m, theta, eta_cap, f, rising):
    """Kernel piece compressing [u, v] into the window next to m.

    rising=True: values climb from m - theta at u to exactly m at v.
    rising=False: values climb from exactly m at u to m + theta at v.
    The window halves per equal-width piece, so a point displaced by f
    within a slope ratio under 2^k lands at most k pieces away. The pieces
    are at most eta_cap/(k+1) wide, which keeps the window's error under
    eta_cap (see Cap error accounting in the module docstring). All
    arguments but f and rising are kernel pairs.
    """
    mn, md = m
    tn, td = theta
    ratio = _slope_bound(f, _k.rsub(m, theta), _k.radd(m, theta))
    # width = eta_cap / c_const, and npieces = ceil((v - u) / width)
    c_const = 1 + (ratio + 1).bit_length()
    sn, sd = _k.rsub(v, u)
    npieces = max(1, -((-sn * c_const * eta_cap[1]) // (sd * eta_cap[0])))
    un, ud = u
    sign = -1 if rising else 1
    pts = []
    for j in range(npieces + 1):
        x = _k.rnorm(un * sd * npieces + j * sn * ud, ud * sd * npieces)
        # m - theta/2^k rising, m + theta/2^k falling; m itself at k = npieces
        k = j if rising else npieces - j
        if k == npieces:
            y = m
        else:
            y = _k.rnorm(mn * td * 2**k + sign * tn * md, md * td * 2**k)
        pts.append(x + y)
    return _k.canonical(pts)


def _mid(a, b):
    """(a + b) / 2 on kernel pairs."""
    return _k.rnorm(a[0] * b[1] + b[0] * a[1], 2 * a[1] * b[1])


def _gap_pieces(j, ncomp, gap_g, gap_f, left, right, eta_cap, f):
    """Pieces over one fixed gap plus the anchor values at its two ends.

    left and right are h's breakpoints at the inner ends of the
    neighbouring components (None at 0 and 1). Returns (pieces,
    left_anchor, right_anchor): h's value at the gap's left end (where
    the previous component's cap attaches) and right end (where the next
    component's cap starts). Everything is on kernel pairs; f is f's
    kernel list.
    """
    u, v = gap_g
    fu, fv = gap_f
    if u != v and fu != fv:
        return [[u + fu, v + fv]], fu, fv
    if u == v and fu == fv:
        return [], fu, fu
    if u == v:
        # g pinches where f pauses: the neighbouring caps absorb the f-gap
        if j == 0:
            anchor = (0, 1)
        elif j == ncomp:
            anchor = (1, 1)
        else:
            anchor = _mid(fu, fv)
        return [], anchor, anchor
    # g pauses where f pinches: squeeze [u, v] into a geometric window
    m = fu
    if j == 0:
        theta = _k.rmul(_k.rsub(right[2:], m), (1, 2))
        return [_half_squeeze(u, v, m, theta, eta_cap, f, False)], m, _k.radd(m, theta)
    if j == ncomp:
        theta = _k.rmul(_k.rsub(m, left[2:]), (1, 2))
        return [_half_squeeze(u, v, m, theta, eta_cap, f, True)], _k.rsub(m, theta), m
    mid = _mid(u, v)
    th_l = _k.rmul(_k.rsub(m, left[2:]), (1, 2))
    th_r = _k.rmul(_k.rsub(right[2:], m), (1, 2))
    pieces = [
        _half_squeeze(u, mid, m, th_l, eta_cap, f, True),
        _half_squeeze(mid, v, m, th_r, eta_cap, f, False),
    ]
    return pieces, _k.rsub(m, th_l), _k.radd(m, th_r)


def _build_conjugator(f, g, f_ivs, g_ivs, f_ends, g_ends, signs, eta_cap, budget):
    """The conjugator, from fixed intervals and eta_cap as kernel pairs.

    f_ends and g_ends are _check_fixed_structure's end segments of f and g.
    """
    ncomp = len(signs)
    fk, gk = f._kbps, g._kbps
    finv, ginv = _k.invert(fk), _k.invert(gk)
    comps = []
    for j, sign in enumerate(signs):
        gcomp = (g_ivs[j][1], g_ivs[j + 1][0])
        comps.append(_transport(
            fk, finv, gk, ginv, gcomp, f_ends[j], g_ends[j], sign, eta_cap, budget
        ))

    parts = []
    for j in range(ncomp + 1):
        left = comps[j - 1][-1][-1] if j > 0 else None
        right = comps[j][0][0] if j < ncomp else None
        pieces, left_anchor, right_anchor = _gap_pieces(
            j, ncomp, g_ivs[j], f_ivs[j], left, right, eta_cap, f._kbps
        )
        if left is not None:
            parts.append([left, g_ivs[j][0] + left_anchor])
        parts.extend(pieces)
        if right is not None:
            parts.append([g_ivs[j][1] + right_anchor, right])
            parts.extend(comps[j])
    return PLHomeo._from_kernel(_k.concat(parts))


def _cap_margin(eta, f_ivs, g_ivs):
    """The pair's error margin eta_cap as a kernel pair, from Fraction eta.

    η when g never pauses on a fixed interval where f only touches, so no
    squeeze window is built; η/2 when it does, since the cap next to a
    window errs by up to twice the margin. See Cap error accounting in the
    module docstring.
    """
    squeeze = any(u != v and fu == fv for (u, v), (fu, fv) in zip(g_ivs, f_ivs))
    return _k.rnorm(eta.numerator, eta.denominator * (2 if squeeze else 1))


def _conjugacy_gap(fk, hk, gk):
    """sup |h⁻¹ ∘ f ∘ h - g| as a Fraction, on kernel lists.

    Scored in h's range, as sup |h⁻¹ ∘ f - g ∘ h⁻¹|; see Post-check in the
    module docstring.
    """
    hinv = _k.invert(hk)
    return Fraction(*_k.compose_pair_sup(hinv, fk, gk, hinv)[:2])


def _checked_build(f, g, eta):
    """approx_conjugator's conjugator h, checked before it is built: (h, steps).

    eta is a Fraction; it must be positive, both fixed structures must fit
    their maps and the signatures must agree. steps is the orbit budget
    the build spent.
    """
    if eta <= 0:
        raise ValueError("eta must be positive")
    if f == g:
        return identity(), 0
    f_ivs, f_signs = fixed_structure(f)
    g_ivs, signs = fixed_structure(g)
    f_ends = _check_fixed_structure(f._kbps, f_ivs, f_signs)
    g_ends = _check_fixed_structure(g._kbps, g_ivs, signs)
    if f_signs != signs:
        raise SignatureMismatchError(
            "maps are not conjugate: signatures differ"
        )
    eta_cap = _cap_margin(eta, f_ivs, g_ivs)
    budget = _Budget(MAX_ORBIT_STEPS)
    h = _build_conjugator(f, g, f_ivs, g_ivs, f_ends, g_ends, signs, eta_cap, budget)
    return h, MAX_ORBIT_STEPS - budget.left


def _refuse_miss(achieved, eta):
    if achieved >= eta:
        raise ConjugatorError(
            f"post-check failed: achieved {achieved}, needed < {eta}"
        )


def _checked_conjugator(f, g, eta):
    """approx_conjugator's build and post-check: (h, achieved, steps).

    achieved is the exact sup_dist(h⁻¹ ∘ f ∘ h, g), found without building
    the conjugate, and steps is the orbit budget the build spent.
    """
    eta = Fraction(eta)
    h, steps = _checked_build(f, g, eta)
    achieved = _conjugacy_gap(f._kbps, h._kbps, g._kbps)
    _refuse_miss(achieved, eta)
    return h, achieved, steps


def _checked_conjugate(f, g, eta):
    """(h⁻¹ ∘ f ∘ h, achieved, steps), h the conjugator _checked_conjugator builds.

    For a caller that needs the conjugate as a map: it is built once, and
    achieved is read off it exactly with sup_diff in place of the merged
    walk. A miss is refused with the same ConjugatorError.
    """
    eta = Fraction(eta)
    h, steps = _checked_build(f, g, eta)
    hk = h._kbps
    conj = _k.compose(_k.compose(_k.invert(hk), f._kbps), hk)
    achieved = Fraction(*_k.sup_diff(conj, g._kbps)[:2])
    _refuse_miss(achieved, eta)
    return PLHomeo._from_kernel(conj), achieved, steps


def approx_conjugator(f, g, eta):
    """A homeomorphism h with sup_dist(h⁻¹ ∘ f ∘ h, g) < eta, exact-checked.

    Requires signature(f) == signature(g). One build meets eta by the
    module's cap error accounting: caps and seams take all of eta, or
    eta/2 on a pair with a squeeze window, whose pieces are at most
    eta_cap/(k+1) wide. The exact post-check confirms it. Raises
    OrbitCapError when the orbit matching needs more than MAX_ORBIT_STEPS
    iterations, and ConjugatorError when the post-check fails.
    """
    return _checked_conjugator(f, g, eta)[0]


def grid_block_conjugate(f, d, h, eta):
    """Blockwise conjugator g with sup_dist(g⁻¹ ∘ ⊕ᵈ(f) ∘ g, h) < eta.

    h must fix every grid point i/d; each rescaled block of h must be
    conjugate to f (even block) or to its reflection (odd block). The
    returned g fixes the grid, and sup_dist(g, id) equals the largest
    block conjugator norm divided by d, exactly. Refuses (ValueError)
    up front when d < 1 or oplus_power(f, d) would be too large to build.
    """
    if d < 1:
        raise ValueError("degree must be a positive integer")
    check_size(oplus_size(f, d), f"oplus_power of degree {d}")
    eta = Fraction(eta)
    blocks = []
    for i in range(d + 1):
        p = Fraction(i, d)
        if h(p) != p:
            raise GridNotFixedError(f"h moves the grid point {i}/{d}")
    sig_f = signature(f)
    for i in range(d):
        kb = _k.restrict(h._kbps, _k.rnorm(i, d), _k.rnorm(i + 1, d))
        kb = _k.affine_image(kb, (d, 1), (-i, 1), (d, 1), (-i, 1))
        block = PLHomeo._from_kernel(kb)
        want = sig_f if i % 2 == 0 else signature_reflect(sig_f)
        if signature(block) != want:
            raise SignatureMismatchError(
                f"block {i} of h is not conjugate to the required model"
            )
        if i % 2 == 0:
            w = approx_conjugator(f, block, d * eta)
        else:
            w = reflect(approx_conjugator(f, reflect(block), d * eta))
        blocks.append(w)
    g = block_sum(blocks)
    ident = identity()
    norm = sup_dist(g, ident)
    if norm != max(sup_dist(w, ident) for w in blocks) / d:
        raise ConjugatorError(
            f"blockwise post-check failed: sup_dist(g, id) = {norm} is not "
            f"the largest block norm over {d}"
        )
    achieved = _conjugacy_gap(oplus_power(f, d)._kbps, g._kbps, h._kbps)
    if achieved >= eta:
        raise ConjugatorError(
            f"blockwise post-check failed: achieved {achieved}, needed < {eta}"
        )
    return g


def alternating_signs(k):
    """The signature pseudo_generic(k) has: k alternating signs, + first."""
    return [(-1) ** i for i in range(k)]


def pseudo_generic(k, seed=0):
    """Seeded map with k non-fixed intervals of alternating sign, + first.

    Genuine generic elements have densely interleaved intervals and are
    not PL; this is the finite stand-in the density experiment lifts.
    Refuses (SignatureMismatchError) a draw whose signature is not
    alternating_signs(k).
    """
    if k < 1:
        raise ValueError("need at least one non-fixed interval")
    signs = alternating_signs(k)
    h = rand_signature_homeo(derive_rng(seed, "pseudo-generic", k), signs)
    if signature(h) != signs:
        raise SignatureMismatchError(
            f"generated map has signature {signature(h)}, requested {signs}"
        )
    return h


def conjugator_certificate(f, g, eta):
    """JSON-ready record of approx_conjugator(f, g, eta) and its post-check.

    achieved_distance is the exact sup_dist(h⁻¹ ∘ f ∘ h, g) the post-check
    found; a failed post-check raises, so "ok" is always true. breakpoints,
    max_den_bits (the longest denominator of h, in bits) and orbit_steps
    (the orbit budget the build spent) say what the conjugator cost; all
    three are deterministic.
    """
    h, achieved, steps = _checked_conjugator(f, g, eta)
    eta = Fraction(eta)
    return {
        "f": to_json_dict(f),
        "g": to_json_dict(g),
        "conjugator": to_json_dict(h),
        "breakpoints": len(h._kbps),
        "max_den_bits": max(max(p[1], p[3]).bit_length() for p in h._kbps),
        "orbit_steps": steps,
        "achieved_distance": format_rational(achieved),
        "eta": format_rational(eta),
        "ok": achieved < eta,
    }
