"""The merge-walk compose, its sup scorers, seam-only concat and sliced
restrict against the code they replaced.

compose walks one index through f and tests only g's interior breakpoints
for collinearity; concat tests only the seams; restrict slices its input
between two located ends and tests nothing. All three rely on canonical
inputs. The oracles below are the straightforward versions: compose
locates every g segment in f by binary search, solves for each crossing
with _interp_x and canonicalizes the whole output, concat canonicalizes
the glued list, restrict scans every breakpoint and canonicalizes.
Outputs must be bit-identical and canonical.

_walk, the stream of points both share, sets up a segment's crossings
only when it crosses an f breakpoint and keeps f's segment constants
from one g segment to the next. oracle_walk is the walk before that, set
up afresh for every segment; the two streams must be equal tuple for
tuple, unreduced coordinates included, on every compose and
compose_pair_sup draw below. Three draws take the post-check's shapes:
a few-piece inner map under a many-breakpoint outer map, the reverse,
and the two together in one compose_pair_sup.

compose_pair_sup merges two walks and builds neither composite; value
and witness must match sup_diff of the two built composites, and the
merged-xs oracle_sup_diff: evaluate both built lists on the union of
their breakpoints and keep the leftmost largest gap. With a target t as
the outer map over the identity, compose_pair_sup(f, g, t, id) is the sup
of |f∘g - t|; it must match oracle_sup_diff(oracle_compose(f, g), t).
sup_diff(f, g) is compose_pair_sup with the identity as both inner maps,
checked against oracle_sup_diff directly. The conjugator's post-check
scores sup |h⁻¹∘f∘h - g| in h's range as compose_pair_sup(h⁻¹, f, g, h⁻¹);
it must equal sup_dist of the built conjugate.
"""

import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knaster_lab import _kernel_py as _k
from knaster_lab.conjugator import _checked_conjugator, _conjugacy_gap, grid_block_conjugate
from knaster_lab.experiments import VERIFY_SUITES, ExperimentConfig, run_verify_suite
from knaster_lab.plmap import OpenPLMap, PLHomeo, PLMap, compose, reflect, sup_dist
from knaster_lab.tents import oplus_power, tent

from difference import pl_sub
from test_conjugator_frozen import ETAS, PAIRS

F = Fraction


def _interp_x(u, p, q):
    """Preimage of the value u on the segment p->q (y strictly monotone)."""
    un, ud = u
    x0n, x0d, y0n, y0d = p
    x1n, x1d, y1n, y1d = q
    tn = un * y0d - y0n * ud  # u - y0, over td
    td = ud * y0d
    dyn = y1n * y0d - y0n * y1d
    dyd = y1d * y0d
    dxn = x1n * x0d - x0n * x1d
    dxd = x1d * x0d
    num = x0n * (td * dyn * dxd) + x0d * (tn * dyd * dxn)
    den = x0d * td * dyn * dxd
    return _k.rnorm(num, den)


def oracle_sup_diff(f, g):
    """sup |f - g| and its leftmost witness, over the merged breakpoints."""
    xs = _k.merged_xs(f, g)
    fv = _k.eval_sorted(f, xs)
    gv = _k.eval_sorted(g, xs)
    best = (0, 1)
    wit = xs[0]
    for k in range(len(xs)):
        d = _k.rsub(fv[k], gv[k])
        d = (abs(d[0]), d[1])
        if _k.rcmp(d, best) > 0:
            best = d
            wit = xs[k]
    return best[0], best[1], wit[0], wit[1]


def oracle_compose(f, g):
    """f∘g by a binary search per g segment, then a full canonical pass."""
    out = []
    y0 = (g[0][2], g[0][3])
    v = _k.eval_at(f, y0)
    out.append((g[0][0], g[0][1], v[0], v[1]))
    nf = len(f)
    for k in range(len(g) - 1):
        p = g[k]
        q = g[k + 1]
        ya = (p[2], p[3])
        yb = (q[2], q[3])
        s = _k.rcmp(yb, ya)
        if s > 0:
            j = _k._locate(f, ya) + 1
            while j < nf and f[j][0] * yb[1] < yb[0] * f[j][1]:
                xs = _interp_x((f[j][0], f[j][1]), p, q)
                out.append((xs[0], xs[1], f[j][2], f[j][3]))
                j += 1
        elif s < 0:
            j = _k._locate(f, ya)
            if f[j][0] * ya[1] == ya[0] * f[j][1]:
                j -= 1
            while j >= 0 and f[j][0] * yb[1] > yb[0] * f[j][1]:
                xs = _interp_x((f[j][0], f[j][1]), p, q)
                out.append((xs[0], xs[1], f[j][2], f[j][3]))
                j -= 1
        v = _k.eval_at(f, yb)
        out.append((q[0], q[1], v[0], v[1]))
    return _k.canonical(out)


def oracle_walk(f, g):
    """_kernel_py._walk as it was before it set up crossings lazily.

    The points of f∘g that compose keeps, before its collinearity test.

    Yields (xn, xd, vn, vd, end) in increasing x, with vn/vd the value of
    f∘g at xn/xd: g's breakpoints (end true) and the points where g
    strictly crosses a breakpoint of f (end false). The range of g must lie
    in f's domain. One index i into f (the largest with f[i].x <= the
    current value of g) walks forward or backward with each g segment,
    since g is continuous. A segment yields the f breakpoints it strictly
    crosses, then its end value, read off f[i] or interpolated once. Every
    denominator is positive, but one coordinate may not be in lowest
    terms: the x of a crossing, or the value at a g breakpoint.
    """
    p = g[0]
    yn, yd = p[2], p[3]
    i = _k._locate(f, (yn, yd))
    a = f[i]
    if a[0] * yd == yn * a[1]:
        vn, vd = a[2], a[3]
    else:
        vn, vd = _k._interp((yn, yd), a, f[i + 1])
    yield p[0], p[1], vn, vd, True
    for q in g[1:]:
        qn, qd = q[2], q[3]
        c = qn * yd - yn * qd
        if c:
            if c > 0:
                s, j = 1, i + 1
            else:
                s = -1
                j = i - 1 if f[i][0] * yd == yn * f[i][1] else i
            u = f[j]
            # g takes the value un/ud at (ud*m1 + (un*y0d - y0n*ud)*m2) / (ud*m3)
            x0n, x0d, y0n, y0d = p
            rise = (qn * y0d - y0n * qd) * q[1]
            m2 = (q[0] * x0d - x0n * q[1]) * qd
            if rise < 0:
                rise, m2 = -rise, -m2
            m1, m3 = x0n * rise, x0d * rise
            # cross the f breakpoints strictly before the end value
            while (qn * u[1] - u[0] * qd) * s > 0:
                yield (u[1] * m1 + (u[0] * y0d - y0n * u[1]) * m2, u[1] * m3,
                       u[2], u[3], False)
                j += s
                u = f[j]
            if u[0] * qd == qn * u[1]:
                vn, vd = u[2], u[3]
                i = j
            else:
                i = j - 1 if s > 0 else j
                a, b = f[i], f[i + 1]
                # f at q's value, on the segment a->b
                w = qd * b[3] * (b[0] * a[1] - a[0] * b[1])
                dy = (b[2] * a[3] - a[2] * b[3]) * b[1]
                vn = a[2] * w + (qn * a[1] - a[0] * qd) * dy
                vd = a[3] * w
        yield q[0], q[1], vn, vd, True
        p = q
        yn, yd = qn, qd


def oracle_concat(pieces):
    """Glue the pieces, then canonicalize the whole list."""
    out = list(pieces[0])
    for piece in pieces[1:]:
        if out[-1] != piece[0]:
            raise ValueError(f"pieces do not meet: {out[-1]} vs {piece[0]}")
        out.extend(piece[1:])
    return _k.canonical(out)


def oracle_restrict(bps, a, b):
    """The restriction to [a, b] by a scan of every breakpoint, canonicalized."""
    va = _k.eval_at(bps, a)
    vb = _k.eval_at(bps, b)
    out = [(a[0], a[1], va[0], va[1])]
    for p in bps:
        if _k.rcmp((p[0], p[1]), a) > 0 and _k.rcmp((p[0], p[1]), b) < 0:
            out.append(p)
    out.append((b[0], b[1], vb[0], vb[1]))
    return _k.canonical(out)


def _pair(x):
    return (x.numerator, x.denominator)


# small denominators, so values land on each other's breakpoints often
interior = st.fractions(min_value=0, max_value=1, max_denominator=24).filter(
    lambda x: 0 < x < 1
)
coarse = st.integers(0, 6).map(lambda k: F(k, 6))


@st.composite
def homeos(draw, max_interior=5):
    k = draw(st.integers(0, max_interior))
    xs = sorted(draw(st.sets(interior, min_size=k, max_size=k)))
    ys = sorted(draw(st.sets(interior, min_size=k, max_size=k)))
    return PLHomeo([(0, 0)] + list(zip(xs, ys)) + [(1, 1)])


@st.composite
def flat_maps(draw):
    """PLMaps on a coarse value grid, so flat segments and turns are common."""
    xs = [F(0)] + sorted(draw(st.sets(interior, max_size=6))) + [F(1)]
    ys = draw(st.lists(coarse, min_size=len(xs), max_size=len(xs)))
    return PLMap(list(zip(xs, ys)))


@st.composite
def open_maps(draw):
    """tent(d)∘h: open maps with interior breakpoints off the values 0 and 1."""
    d = draw(st.integers(1, 4))
    h = draw(homeos())
    return OpenPLMap._from_kernel(oracle_compose(tent(d)._kbps, h._kbps))


any_maps = flat_maps() | homeos() | open_maps()


def check_walk(f, g):
    """_walk against oracle_walk, on kernel lists."""
    assert list(_k._walk(f, g)) == list(oracle_walk(f, g))


def check_compose(f, g):
    check_walk(f._kbps, g._kbps)
    got = _k.compose(f._kbps, g._kbps)
    assert got == oracle_compose(f._kbps, g._kbps)
    assert _k.canonical(got) == got


@settings(max_examples=150, deadline=None)
@given(homeos(), homeos())
def test_homeo_after_homeo(f, g):
    check_compose(f, g)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 5), homeos())
def test_tent_after_inducer(d, g):
    check_compose(tent(d), g)


@settings(max_examples=100, deadline=None)
@given(open_maps(), homeos())
def test_open_after_homeo(f, g):
    check_compose(f, g)


@settings(max_examples=100, deadline=None)
@given(open_maps(), open_maps())
def test_open_after_open(f, g):
    # g turns at 0 and 1, so the walk through f reverses direction
    check_compose(f, g)


@settings(max_examples=150, deadline=None)
@given(flat_maps() | homeos() | open_maps(), flat_maps())
def test_maps_with_flat_segments(f, g):
    check_compose(f, g)
    check_compose(g, f)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_g_values_on_f_breakpoints(data):
    f = data.draw(flat_maps() | homeos() | open_maps())
    fx = [x for x, _ in f.breakpoints]
    xs = [F(0)] + sorted(data.draw(st.sets(interior, max_size=6))) + [F(1)]
    ys = data.draw(st.lists(st.sampled_from(fx), min_size=len(xs), max_size=len(xs)))
    check_compose(f, PLMap(list(zip(xs, ys))))


def test_collinear_g_point_before_f_crossing():
    # f is flat on [0, 1/2]. g's breakpoint (1/2, 1/4) maps into that flat
    # part, so f∘g is flat up to the point 2/3 where g crosses f's kink at
    # 1/2. The g point's right neighbour is that crossing, not g's next
    # breakpoint, and it must be dropped.
    f = PLMap([(0, 0), (F(1, 2), 0), (1, 1)])
    g = PLHomeo([(0, 0), (F(1, 2), F(1, 4)), (1, 1)])
    want = [(0, 1, 0, 1), (2, 3, 0, 1), (1, 1, 1, 1)]
    assert oracle_compose(f._kbps, g._kbps) == want
    assert _k.compose(f._kbps, g._kbps) == want


def test_compose_locates_once_and_never_canonicalizes(monkeypatch):
    located = []
    real_locate = _k._locate

    def locate(bps, x):
        located.append(x)
        return real_locate(bps, x)

    def canonical(bps):
        raise AssertionError("compose must not canonicalize its output")

    f, g = tent(3)._kbps, PLHomeo([(0, 0), (F(1, 3), F(2, 3)), (1, 1)])._kbps
    want = oracle_compose(f, g)
    monkeypatch.setattr(_k, "_locate", locate)
    monkeypatch.setattr(_k, "canonical", canonical)
    assert _k.compose(f, g) == want
    assert located == [(0, 1)]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_concat_of_restrictions(data):
    f = data.draw(flat_maps() | homeos() | open_maps())
    # cut at breakpoints (kinks stay) and elsewhere (collinear seams go)
    fx = [x for x, _ in f.breakpoints[1:-1]]
    cuts = data.draw(st.sets(interior | st.sampled_from(fx or [F(1, 2)]), max_size=5))
    edges = [F(0)] + sorted(cuts) + [F(1)]
    pieces = [_k.restrict(f._kbps, _pair(a), _pair(b)) for a, b in zip(edges, edges[1:])]
    got = _k.concat(pieces)
    assert got == oracle_concat(pieces) == f._kbps


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_restrict_matches_oracle(data):
    f = data.draw(flat_maps() | homeos() | open_maps())
    # ends on breakpoints, off them, and at 0 and 1
    fx = [x for x, _ in f.breakpoints]
    ends = data.draw(
        st.sets(interior | st.sampled_from(fx) | st.sampled_from([F(0), F(1)]),
                min_size=2, max_size=2)
    )
    a, b = sorted(ends)
    got = _k.restrict(f._kbps, _pair(a), _pair(b))
    assert got == oracle_restrict(f._kbps, _pair(a), _pair(b))
    assert _k.canonical(got) == got


@settings(max_examples=100, deadline=None)
@given(st.lists(homeos(max_interior=3), min_size=1, max_size=5))
def test_concat_of_blocks(maps):
    # identity blocks meet collinearly, so whole runs of seams collapse
    n = len(maps)
    pieces = [
        _k.affine_image(h._kbps, (1, n), (i, n), (1, n), (i, n))
        for i, h in enumerate(maps)
    ]
    got = _k.concat(pieces)
    assert got == oracle_concat(pieces)
    assert _k.canonical(got) == got


# -------------------------------------------- compose_pair_sup, a target

IDENT = [(0, 1, 0, 1), (1, 1, 1, 1)]


def check_target_sup(f, g, t):
    """compose_pair_sup(f, g, t, id), the sup of |f∘g - t|, against the
    oracle chain; returns the sup."""
    check_walk(f, g)
    check_walk(t, IDENT)
    got = _k.compose_pair_sup(f, g, t, IDENT)
    assert got == oracle_sup_diff(oracle_compose(f, g), t)
    return got[:2]


@st.composite
def values(draw, n):
    """n values in [-1, 2], so f∘g - t takes both signs."""
    return draw(st.lists(st.fractions(-1, 2, max_denominator=12), min_size=n, max_size=n))


@st.composite
def targets(draw):
    """Kernel lists on [0, 1] with values outside [0, 1] too."""
    xs = [F(0)] + sorted(draw(st.sets(interior, max_size=6))) + [F(1)]
    ys = draw(values(len(xs)))
    return [_pair(x) + _pair(y) for x, y in zip(xs, ys)]


@settings(max_examples=200, deadline=None)
@given(any_maps, any_maps, targets() | homeos().map(lambda h: h._kbps))
def test_compose_pair_sup_against_a_target(f, g, t):
    check_target_sup(f._kbps, g._kbps, t)


@settings(max_examples=150, deadline=None)
@given(any_maps, any_maps, values(2))
def test_compose_pair_sup_two_point_target(f, g, ends):
    t = [(0, 1) + _pair(ends[0]), (1, 1) + _pair(ends[1])]
    check_target_sup(f._kbps, g._kbps, t)


def _kinked_target(fg, cuts):
    """fg with a breakpoint moved off it strictly inside some of its segments.

    cuts holds (segment, position in (0, 1), offset) triples; the segment
    index is taken mod the segment count and the last triple for a segment
    wins. Returns t and the largest |offset|: the sup of |fg - t|, attained
    only at the new points, where f∘g has no breakpoint.
    """
    cut = {k % (len(fg) - 1): (r, dy) for k, r, dy in cuts}
    out = [fg[0]]
    for k in range(len(fg) - 1):
        if k in cut:
            r, dy = cut[k]
            a, b = F(fg[k][0], fg[k][1]), F(fg[k + 1][0], fg[k + 1][1])
            x = a + r * (b - a)
            out.append(_pair(x) + _pair(F(*_k.eval_at(fg, _pair(x))) + dy))
        out.append(fg[k + 1])
    return out, max(abs(dy) for _, dy in cut.values())


nonzero = st.fractions(-1, 1, max_denominator=12).filter(lambda v: v != 0)


@settings(max_examples=150, deadline=None)
@given(any_maps, any_maps,
       st.lists(st.tuples(st.integers(0, 20), interior, nonzero), min_size=1, max_size=4))
def test_compose_pair_sup_target_kinks_inside_a_walk_segment(f, g, cuts):
    t, gap = _kinked_target(_k.compose(f._kbps, g._kbps), cuts)
    assert F(*check_target_sup(f._kbps, g._kbps, t)) == gap


@pytest.mark.parametrize("y", [F(1, 6), F(5, 6)])
def test_compose_pair_sup_target_kink_off_the_walk(y):
    # f∘g is the identity and t leaves it only at 1/2, by 1/3 below or
    # above: the sup is 1/3, attained at a point that is neither a
    # breakpoint of g nor a crossing of f, with f∘g - t of either sign
    g = PLHomeo([(0, 0), (F(1, 4), F(1, 2)), (1, 1)])
    t = [(0, 1, 0, 1), (1, 2) + _pair(y), (1, 1, 1, 1)]
    assert _k.compose_pair_sup(g.invert()._kbps, g._kbps, t, IDENT) == (1, 3, 1, 2)


# ------------------------------------------------------- compose_pair_sup


def check_compose_pair_sup(f1, g1, f2, g2):
    """compose_pair_sup against sup_diff of the built composites."""
    check_walk(f1, g1)
    check_walk(f2, g2)
    got = _k.compose_pair_sup(f1, g1, f2, g2)
    c1, c2 = _k.compose(f1, g1), _k.compose(f2, g2)
    assert got == _k.sup_diff(c1, c2)
    assert got == oracle_sup_diff(oracle_compose(f1, g1), oracle_compose(f2, g2))
    return got


@st.composite
def collinear_inner(draw):
    """A homeo's list with a collinear point added inside one segment."""
    h = draw(homeos())._kbps
    k = draw(st.integers(0, len(h) - 2))
    r = draw(interior)
    a, b = F(h[k][0], h[k][1]), F(h[k + 1][0], h[k + 1][1])
    x = _pair(a + r * (b - a))
    return h[:k + 1] + [x + _k.eval_at(h, x)] + h[k + 1:]


@settings(max_examples=150, deadline=None)
@given(homeos(), st.integers(1, 6))
def test_compose_pair_sup_semiconjugacy(g, d):
    # g∘T_d against T_d∘⊕_d g: equal maps, so the sup is 0 at 0
    t = tent(d)._kbps
    got = check_compose_pair_sup(g._kbps, t, t, oplus_power(g, d)._kbps)
    assert got == (0, 1, 0, 1)


@settings(max_examples=150, deadline=None)
@given(homeos(), homeos(), st.integers(1, 6))
def test_compose_pair_sup_against_another_block_sum(g, h, d):
    # g∘T_d against T_d∘⊕_d h, the semiconjugacy shape with unequal sides
    t = tent(d)._kbps
    check_compose_pair_sup(g._kbps, t, t, oplus_power(h, d)._kbps)


@settings(max_examples=150, deadline=None)
@given(homeos() | collinear_inner().map(PLMap._from_kernel),
       homeos() | collinear_inner().map(PLMap._from_kernel), st.integers(1, 6))
def test_compose_pair_sup_tent_after_inducers(f, g, d):
    # T_d∘f against T_d∘g, tent_witness's case 1
    t = tent(d)._kbps
    check_compose_pair_sup(t, f._kbps, t, g._kbps)


@settings(max_examples=200, deadline=None)
@given(any_maps, any_maps | collinear_inner().map(PLMap._from_kernel),
       any_maps, any_maps | collinear_inner().map(PLMap._from_kernel))
def test_compose_pair_sup_unequal_pairs(f1, g1, f2, g2):
    check_compose_pair_sup(f1._kbps, g1._kbps, f2._kbps, g2._kbps)


def test_compose_pair_sup_points_inside_each_other():
    # walk 1 is 0, 1/3, 1 and walk 2 is 0, 2/3, 1: each interior point lies
    # strictly inside a segment of the other walk and is scored against its
    # chord. At 1/3 the gap is 1/2 - 1/6 = 1/3, at 2/3 it is 3/4 - 1/3 =
    # 5/12, the sup, whichever walk comes first
    g1 = [(0, 1, 0, 1), (1, 3, 1, 2), (1, 1, 1, 1)]
    g2 = [(0, 1, 0, 1), (2, 3, 1, 3), (1, 1, 1, 1)]
    assert check_compose_pair_sup(IDENT, g1, IDENT, g2) == (5, 12, 2, 3)
    assert check_compose_pair_sup(IDENT, g2, IDENT, g1) == (5, 12, 2, 3)



@st.composite
def many_piece_homeos(draw):
    """Homeos with 20 to 40 interior breakpoints on the 1/48 grid, which
    holds every 1/d with d | 48 that the few-piece maps draw too."""
    k = draw(st.integers(20, 40))
    grid = st.lists(st.integers(1, 47), min_size=k, max_size=k, unique=True)
    xs, ys = sorted(draw(grid)), sorted(draw(grid))
    return PLHomeo([(0, 0)] + [(F(x, 48), F(y, 48)) for x, y in zip(xs, ys)] + [(1, 1)])


# the post-check's shapes: h⁻¹ has many breakpoints, f and g few
many = many_piece_homeos()
few = homeos(max_interior=2)


@settings(max_examples=100, deadline=None)
@given(many, few | open_maps())
def test_walk_of_a_few_piece_map_under_a_many_piece_map(f, g):
    # compose_pair_sup(h⁻¹, f, g, h⁻¹)'s first walk, h⁻¹ after f
    check_compose(f, g)


@settings(max_examples=100, deadline=None)
@given(few | open_maps(), many)
def test_walk_of_a_many_piece_map_under_a_few_piece_map(f, g):
    # its second walk, g after h⁻¹: most of h⁻¹'s segments cross none of
    # g's breakpoints
    check_compose(f, g)


@settings(max_examples=100, deadline=None)
@given(many, few, few, many)
def test_compose_pair_sup_in_the_post_check_shape(hinv, f, g, hinv2):
    check_compose_pair_sup(hinv._kbps, f._kbps, g._kbps, hinv._kbps)
    check_compose_pair_sup(hinv._kbps, f._kbps, g._kbps, hinv2._kbps)


# ---------------------------------------------------------------- sup_diff


def check_sup_diff(f, g):
    """sup_diff both ways round against the merged-xs oracle."""
    assert _k.sup_diff(f, g) == oracle_sup_diff(f, g)
    assert _k.sup_diff(g, f) == oracle_sup_diff(g, f)


@settings(max_examples=300, deadline=None)
@given(any_maps, any_maps | targets().map(PLMap._from_kernel))
def test_sup_diff_matches_oracle(f, g):
    check_sup_diff(f._kbps, g._kbps)


@settings(max_examples=200, deadline=None)
@given(any_maps, any_maps, any_maps)
def test_sup_diff_of_differences(f, g, h):
    # pl_sub lists leave [0, 1] and change sign, as conjugator errors do
    d = pl_sub(f._kbps, g._kbps)
    check_sup_diff(d, h._kbps)
    check_sup_diff(d, pl_sub(h._kbps, f._kbps))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_sup_diff_on_a_subdomain(data):
    # restricted lists start and end off the grid, as a conjugator cell does
    f, g = data.draw(any_maps), data.draw(any_maps)
    fx = [x for x, _ in f.breakpoints]
    ends = data.draw(
        st.sets(interior | st.sampled_from(fx), min_size=2, max_size=2)
    )
    a, b = _pair(min(ends)), _pair(max(ends))
    check_sup_diff(_k.restrict(f._kbps, a, b), _k.restrict(g._kbps, a, b))


@settings(max_examples=100, deadline=None)
@given(any_maps, st.fractions(-1, 1, max_denominator=12))
def test_sup_diff_constant_gap_is_witnessed_at_the_left_end(f, c):
    # |f - (f + c)| is |c| everywhere, so every candidate ties
    shifted = _k.affine_image(f._kbps, (1, 1), (0, 1), (1, 1), _pair(c))
    assert _k.sup_diff(f._kbps, shifted) == _pair(abs(c)) + (0, 1)
    check_sup_diff(f._kbps, shifted)


def check_conjugacy_gap(f, h, g):
    """_conjugacy_gap, scored in h's range, against the built conjugate."""
    want = sup_dist(compose(compose(h.invert(), f), h), g)
    hinv = _k.invert(h._kbps)
    check_walk(hinv, f._kbps)
    check_walk(g._kbps, hinv)
    assert _conjugacy_gap(f._kbps, h._kbps, g._kbps) == want
    return want


def test_checked_conjugator_matches_chain():
    """achieved is the old chain's sup_dist(h⁻¹∘f∘h, g) on the frozen pairs.

    The post-check's gap must match the chain for h on the reflected pair
    too, where h conjugates nothing and the gap is large.
    """
    gaps = []
    for f, g in PAIRS:
        for ff, gg in ((f, g), (reflect(f), reflect(g))):
            for eta in ETAS:
                h, achieved, _ = _checked_conjugator(ff, gg, eta)
                assert achieved == check_conjugacy_gap(ff, h, gg)
                gaps.append(check_conjugacy_gap(reflect(ff), h, reflect(gg)))
    assert max(gaps) > F(1, 100)


def test_conjugacy_gap_of_a_grid_block_conjugate():
    # the blockwise post-check: ⊕²(bump) against ⊕² of a conjugate of it
    bump = PLHomeo([(0, 0), (F(1, 2), F(3, 4)), (1, 1)])
    phi = PLHomeo([(0, 0), (F(1, 3), F(1, 2)), (1, 1)])
    target = oplus_power(compose(compose(phi.invert(), bump), phi), 2)
    eta = F(1, 100)
    g = grid_block_conjugate(bump, 2, target, eta)
    assert check_conjugacy_gap(oplus_power(bump, 2), g, target) < eta


# ------------------------------------------------- canonical-input contract


def _synthesis_workload():
    """A small seed-0 synthesis workload of the benchmark (perfbench/workloads.py).

    Larger than its reference inputs, so compose still runs over a
    thousand times now that most orbit steps are affine images, the
    orbit anchors sit on breakpoints and the post-check composes nothing.
    """
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    wl = workloads.Synthesis(0, regular=48, squeeze=8, grid=4)
    return wl, wl.ops


def test_callers_pass_canonical_inputs(monkeypatch):
    """Every compose, concat and restrict call in the campaigns and synthesis
    is canonical."""
    calls = {"compose": 0, "concat": 0, "restrict": 0}
    real_compose, real_concat, real_restrict = _k.compose, _k.concat, _k.restrict

    def compose(f, g):
        assert _k.canonical(f) == f, "compose got a non-canonical f"
        assert _k.canonical(g) == g, "compose got a non-canonical g"
        calls["compose"] += 1
        return real_compose(f, g)

    def concat(pieces):
        for piece in pieces:
            assert _k.canonical(piece) == piece, "concat got a non-canonical piece"
        calls["concat"] += 1
        return real_concat(pieces)

    def restrict(bps, a, b):
        assert _k.canonical(bps) == bps, "restrict got a non-canonical list"
        calls["restrict"] += 1
        return real_restrict(bps, a, b)

    monkeypatch.setattr(_k, "compose", compose)
    monkeypatch.setattr(_k, "concat", concat)
    monkeypatch.setattr(_k, "restrict", restrict)
    for suite in VERIFY_SUITES:
        report = run_verify_suite(ExperimentConfig(suite=suite, trials=3, seed=1))
        assert report.all_ok(), suite
    wl, ops = _synthesis_workload()
    for op in ops:
        wl.run(op)
    assert calls["compose"] > 1000 and calls["concat"] > 50
    assert calls["restrict"] > 300
