"""Exact rational kernel for piecewise-linear breakpoint lists.

Every map operation in the package ends up here, on plain integers.

Flat representation: a continuous PL function on a closed interval is a list
of breakpoints ``[(xn, xd, yn, yd), ...]`` where every rational is in lowest
terms with a positive denominator and the x coordinates are strictly
increasing. Values are *not* range-restricted here -- differences of maps are
legal PL functions at this layer. Domain/range invariants belong to the typed
layer in ``plmap.py``.

All functions assume well-formed input (at least two breakpoints, normalized
entries, strict x order) and evaluation points inside the domain; the typed
layer enforces this once at construction.

``compose`` (its outer map f), ``concat`` (each piece) and ``restrict`` also
require canonical input: no interior breakpoint collinear with its
neighbours. They test collinearity only where a kink can vanish (restrict
nowhere), so a collinear point in the input would survive into the output.
Typed maps are canonical, and so are the lists that compose, concat and
restrict return, and the affine_image of a canonical list under a map
with sy != 0.

One walk of f∘g serves two functions, and through them every exact sup
of a difference of maps. ``_walk(f, g)`` yields g's breakpoints and the
points where g crosses a breakpoint of f, with their values, unreduced.
``compose`` normalizes them and drops the collinear ones.
``compose_pair_sup(f1, g1, f2, g2)`` merges two walks in x and scores
each against the other's chords, for the sup of |f1∘g1 - f2∘g2|; with
the identity as both inner maps it is ``sup_diff(f, g)``. It needs no
canonical input: it tests no collinearity and builds no list, so a
collinear point only adds a candidate. It needs each inner map's range
inside its outer map's domain, as compose does, and both inner maps on
one domain: the same first and last x.
"""

from math import gcd

# ---------------------------------------------------------------------------
# scalar rational helpers, operating on (numerator, denominator) pairs


def rnorm(n, d):
    """Lowest terms, positive denominator."""
    if d < 0:
        n = -n
        d = -d
    g = gcd(n, d)
    if g > 1:
        n //= g
        d //= g
    return n, d


def radd(a, b):
    return rnorm(a[0] * b[1] + b[0] * a[1], a[1] * b[1])


def rsub(a, b):
    return rnorm(a[0] * b[1] - b[0] * a[1], a[1] * b[1])


def rmul(a, b):
    return rnorm(a[0] * b[0], a[1] * b[1])


def rdiv(a, b):
    if b[0] == 0:
        raise ZeroDivisionError("rational division by zero")
    return rnorm(a[0] * b[1], a[1] * b[0])


def rcmp(a, b):
    """Sign of a - b."""
    s = a[0] * b[1] - b[0] * a[1]
    return (s > 0) - (s < 0)


# ---------------------------------------------------------------------------
# segment primitives


def _interp(x, p, q):
    """Value at x of the segment through breakpoints p and q (p.x < q.x)."""
    xn, xd = x
    x0n, x0d, y0n, y0d = p
    x1n, x1d, y1n, y1d = q
    tn = xn * x0d - x0n * xd  # x - x0, over td
    td = xd * x0d
    dxn = x1n * x0d - x0n * x1d  # x1 - x0, over dxd
    dxd = x1d * x0d
    dyn = y1n * y0d - y0n * y1d  # y1 - y0, over dyd
    dyd = y1d * y0d
    num = y0n * (td * dxn * dyd) + y0d * (tn * dxd * dyn)
    den = y0d * td * dxn * dyd
    return rnorm(num, den)


def segment_root(x0, x1, ya, yb):
    """Zero of the segment from (x0, ya) to (x1, yb); needs ya != yb."""
    return radd(x0, rmul(rsub(x1, x0), rdiv(ya, rsub(ya, yb))))


def _collinear(p1, p2, p3):
    """Slope(p1,p2) == slope(p2,p3), by integer cross-multiplication."""
    a = p2[2] * p1[3] - p1[2] * p2[3]  # y2 - y1 (over b)
    b = p1[3] * p2[3]
    c = p3[0] * p2[1] - p2[0] * p3[1]  # x3 - x2 (over d)
    d = p2[1] * p3[1]
    e = p3[2] * p2[3] - p2[2] * p3[3]  # y3 - y2 (over f)
    f = p2[3] * p3[3]
    g = p2[0] * p1[1] - p1[0] * p2[1]  # x2 - x1 (over h)
    h = p1[1] * p2[1]
    return a * c * f * h == e * g * b * d


# ---------------------------------------------------------------------------
# breakpoint-list operations


def canonical(bps):
    """Drop interior breakpoints collinear with their neighbors."""
    out = [bps[0]]
    for p in bps[1:]:
        out.append(p)
        while len(out) >= 3 and _collinear(out[-3], out[-2], out[-1]):
            del out[-2]
    return out


def _locate(bps, x):
    """Largest index i with bps[i].x <= x. x must lie in the domain."""
    xn, xd = x
    lo, hi = 0, len(bps) - 1
    while lo < hi:
        mid = (lo + hi + 1) >> 1
        b = bps[mid]
        if b[0] * xd <= xn * b[1]:
            lo = mid
        else:
            hi = mid - 1
    return lo


def eval_at(bps, x):
    """Value at the rational point x = (n, d)."""
    i = _locate(bps, x)
    p = bps[i]
    if p[0] * x[1] == x[0] * p[1]:
        return p[2], p[3]
    return _interp(x, p, bps[i + 1])


def eval_sorted(bps, xs):
    """Values at a nondecreasing list of points, walking segments once."""
    out = []
    i = 0
    top = len(bps) - 1
    for x in xs:
        xn, xd = x
        while i + 1 < top and bps[i + 1][0] * xd <= xn * bps[i + 1][1]:
            i += 1
        p = bps[i]
        if p[0] * xd == xn * p[1]:
            out.append((p[2], p[3]))
            continue
        q = bps[i + 1]
        if q[0] * xd == xn * q[1]:
            out.append((q[2], q[3]))
            continue
        out.append(_interp(x, p, q))
    return out


def _walk(f, g):
    """The points of f∘g that compose keeps, before its collinearity test.

    Yields (xn, xd, vn, vd, end) in increasing x, with vn/vd the value of
    f∘g at xn/xd: g's breakpoints (end true) and the points where g
    strictly crosses a breakpoint of f (end false). The range of g must lie
    in f's domain. One index i into f (the largest with f[i].x <= the
    current value of g) walks forward or backward with each g segment,
    since g is continuous. A segment yields the f breakpoints it strictly
    crosses, then its end value, read off f[i] or interpolated once. Every
    denominator is positive, but one coordinate may not be in lowest
    terms: the x of a crossing, or the value at a g breakpoint.

    Work is spent only where a point needs it. The parametrization of a g
    segment that places its crossings is set up once that segment is
    found to cross an f breakpoint, which most segments of a many-piece g
    over a few-piece f never do (the post-check's g∘h⁻¹). The end value's
    two products that depend on f's segment alone are kept while
    consecutive g segments end on that same segment. The walk stays a
    generator: a caller may stream a million points through it (a tent
    slice, or both sides of compose_pair_sup), and no second list of
    them is held.
    """
    p = g[0]
    yn, yd = p[2], p[3]
    i = _locate(f, (yn, yd))
    a = f[i]
    if a[0] * yd == yn * a[1]:
        vn, vd = a[2], a[3]
    else:
        vn, vd = _interp((yn, yd), a, f[i + 1])
    yield p[0], p[1], vn, vd, True
    k = -1  # the f segment f[k]..f[k + 1] that kx and ky belong to
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
            if (qn * u[1] - u[0] * qd) * s > 0:
                # g takes the value un/ud at (ud*m1 + (un*y0d - y0n*ud)*m2) / (ud*m3)
                x0n, x0d, y0n, y0d = p
                rise = (qn * y0d - y0n * qd) * q[1]
                m2 = (q[0] * x0d - x0n * q[1]) * qd
                if rise < 0:
                    rise, m2 = -rise, -m2
                m1, m3 = x0n * rise, x0d * rise
                # cross the f breakpoints strictly before the end value
                while True:
                    yield (u[1] * m1 + (u[0] * y0d - y0n * u[1]) * m2, u[1] * m3,
                           u[2], u[3], False)
                    j += s
                    u = f[j]
                    if (qn * u[1] - u[0] * qd) * s <= 0:
                        break
            if u[0] * qd == qn * u[1]:
                vn, vd = u[2], u[3]
                i = j
            else:
                i = j - 1 if s > 0 else j
                a = f[i]
                if i != k:
                    # f at qn/qd on the segment a->b, with w = qd*kx, is
                    # (a[2]*w + (qn*a[1] - a[0]*qd)*ky) / (a[3]*w)
                    b = f[i + 1]
                    kx = b[3] * (b[0] * a[1] - a[0] * b[1])
                    ky = (b[2] * a[3] - a[2] * b[3]) * b[1]
                    k = i
                w = qd * kx
                vn = a[2] * w + (qn * a[1] - a[0] * qd) * ky
                vd = a[3] * w
        yield q[0], q[1], vn, vd, True
        p = q
        yn, yd = qn, qd


def compose(f, g):
    """Canonical breakpoints of f∘g. The range of g must lie in f's domain.

    f must be canonical; g need only have strictly increasing x. The
    points are _walk's, each normalized. An f breakpoint crossed inside a
    non-flat g segment is a kink of f∘g because f is canonical, so only
    the interior g breakpoints can be collinear: each is tested when its
    right neighbour arrives, which may be an f crossing of the next
    segment.
    """
    walk = _walk(f, g)
    xn, xd, vn, vd, _ = next(walk)
    out = [(xn, xd) + rnorm(vn, vd)]
    pending = False  # out[-1] is an interior g breakpoint not yet tested
    for xn, xd, vn, vd, end in walk:
        if end:
            vn, vd = rnorm(vn, vd)
        else:
            xn, xd = rnorm(xn, xd)
        pt = (xn, xd, vn, vd)
        if pending and _collinear(out[-2], out[-1], pt):
            out.pop()
        out.append(pt)
        pending = end
    return out


def compose_pair_sup(f1, g1, f2, g2):
    """Exact sup of |f1∘g1 - f2∘g2| over the common domain, leftmost witness.

    Returns (dn, dd, wxn, wxd), both in lowest terms, and builds neither
    composite. g1 and g2 share their first and last x, and each g's range
    lies in its f's domain. The difference is affine between consecutive
    points of the two walks, so the two _walk streams are merged in x and
    scored left to right; only a strictly larger score moves the witness. A point of one walk strictly inside a segment of
    the other is scored against that segment's chord, read off the
    other walk's points on either side. Nothing is reduced to lowest
    terms until the end: every denominator stays positive, and scores
    are compared by cross-multiplication. It tests no collinearity, so
    no input need be canonical.
    """
    w1 = _walk(f1, g1)
    w2 = _walk(f2, g2)
    a = next(w1)
    b = next(w2)
    bn, bd, wn, wd = -1, 1, 0, 1  # below any score, so the first point wins
    while True:
        xn, xd, an, ad, _ = a
        yn, yd, cn, cd, _ = b
        c = xn * yd - yn * xd
        if c:
            if c < 0:
                # a lies strictly inside b's segment pb..b: chord of w2 at a
                p, q = pb, b
            else:
                # b lies strictly inside a's segment pa..a: chord of w1 at b
                xn, xd, an, ad = yn, yd, cn, cd
                p, q = pa, a
            x0n, x0d, v0n, v0d, _ = p
            x1n, x1d, v1n, v1d, _ = q
            # the chord at x is v0 + (v1 - v0)·tn/tq, with tn/tq = (x - x0)/(x1 - x0)
            tn = (xn * x0d - x0n * xd) * x1d
            tq = (x1n * x0d - x0n * x1d) * xd
            cn = v0n * v1d * tq + (v1n * v0d - v0n * v1d) * tn
            cd = v0d * v1d * tq
        dn = abs(an * cd - cn * ad)
        dd = ad * cd
        if dn * bd > bn * dd:
            bn, bd, wn, wd = dn, dd, xn, xd
        if c < 0:
            pa = a
            a = next(w1)
        elif c > 0:
            pb = b
            b = next(w2)
        else:
            pa = a
            pb = b
            a = next(w1, None)
            if a is None:
                break
            b = next(w2)
    return rnorm(bn, bd) + rnorm(wn, wd)


def invert(bps):
    """Swap axes of a strictly monotone PL function."""
    out = [(p[2], p[3], p[0], p[1]) for p in bps]
    if rcmp((bps[-1][2], bps[-1][3]), (bps[0][2], bps[0][3])) < 0:
        out.reverse()
    return out


def merged_xs(f, g):
    """Sorted union of the x coordinates of two sorted lists.

    Entries are breakpoints or bare (n, d) points; only the x is read.
    """
    out = []
    i = j = 0
    nf, ng = len(f), len(g)
    while i < nf and j < ng:
        a = f[i]
        b = g[j]
        c = a[0] * b[1] - b[0] * a[1]
        if c < 0:
            out.append((a[0], a[1]))
            i += 1
        elif c > 0:
            out.append((b[0], b[1]))
            j += 1
        else:
            out.append((a[0], a[1]))
            i += 1
            j += 1
    while i < nf:
        out.append((f[i][0], f[i][1]))
        i += 1
    while j < ng:
        out.append((g[j][0], g[j][1]))
        j += 1
    return out


def sup_diff(f, g):
    """Exact sup of |f - g| over their common domain, with leftmost witness.

    f and g share their first and last x. f - g is f∘id - g∘id, so this is
    compose_pair_sup with the identity on that domain as both inner maps:
    its walks are f's and g's breakpoints, merged and scored left to
    right. Returns (dn, dd, wxn, wxd).
    """
    a, b = f[0][:2], f[-1][:2]
    ident = [a + a, b + b]
    return compose_pair_sup(f, ident, g, ident)


def fixed_structure(bps):
    """Fixed intervals of h and the signs of h - id on the gaps between them.

    bps is a canonical increasing homeomorphism of [0, 1]. Returns
    (intervals, signs): intervals as ((ln, ld), (rn, rd)) pairs, a
    degenerate one for an isolated fixed point, and one sign (+1 or -1)
    per gap. h is canonical, so h - id has the breakpoints of h. The sign
    of h - id at one is the sign of yn*xd - xn*yd; a run of zeros is a
    fixed interval, and a strict sign change inside a segment is one
    isolated root. A gap's sign is that of the first nonzero breakpoint
    after the interval opening it: every gap holds one, since a segment
    joining two fixed points would be fixed.
    """
    intervals = []
    signs = []
    run = None  # left end of the open run of fixed breakpoints
    last = len(bps) - 1
    for i in range(last + 1):
        xn, xd, yn, yd = bps[i]
        s = yn * xd - xn * yd
        if s == 0:
            if run is None:
                run = (xn, xd)
            end = (xn, xd)
            continue
        if run is not None:
            intervals.append((run, end))
            run = None
        if len(signs) < len(intervals):
            signs.append(1 if s > 0 else -1)
        if i < last:
            qn, qd, zn, zd = bps[i + 1]
            t = zn * qd - qn * zd
            if (t > 0 and s < 0) or (t < 0 and s > 0):
                r = segment_root(
                    (xn, xd), (qn, qd), rnorm(s, yd * xd), rnorm(t, zd * qd)
                )
                intervals.append((r, r))
    if run is not None:
        intervals.append((run, end))
    return intervals, signs


def restrict(bps, a, b):
    """Breakpoints of the restriction to [a, b] inside the domain (a < b).

    A slice of bps between the two ends. An end that is a breakpoint is kept
    as it is; any other lies on the segment of the neighbour it replaces, so
    with bps canonical every kept point stays a kink. Restricted to its whole
    domain, bps comes back as a plain copy.
    """
    i = _locate(bps, a)
    j = _locate(bps, b)
    if bps[i][:2] == a:
        out = bps[i:j + 1]
    else:
        out = [a + _interp(a, bps[i], bps[i + 1])] + bps[i + 1:j + 1]
    if out[-1][:2] != b:
        out.append(b + _interp(b, bps[j], bps[j + 1]))
    return out


def affine_image(bps, sx, ox, sy, oy):
    """Apply x -> sx*x + ox and y -> sy*y + oy to every breakpoint (sx != 0).

    Each coordinate is one normalization of (s_n*n*o_d + o_n*s_d*d) over
    s_d*d*o_d. With sy != 0 the image of a canonical list is canonical:
    an invertible affine map keeps collinear points collinear, and no others.
    """
    sxn, sxd = sx
    oxn, oxd = ox
    syn, syd = sy
    oyn, oyd = oy
    out = []
    for xn, xd, yn, yd in bps:
        nx = rnorm(sxn * xn * oxd + oxn * sxd * xd, sxd * xd * oxd)
        ny = rnorm(syn * yn * oyd + oyn * syd * yd, syd * yd * oyd)
        out.append((nx[0], nx[1], ny[0], ny[1]))
    if sxn < 0:
        out.reverse()
    return out


def segment_affine(bps, k):
    """(slope, offset) of y = slope*x + offset on the segment bps[k]..bps[k + 1]."""
    x0n, x0d, y0n, y0d = bps[k]
    x1n, x1d, y1n, y1d = bps[k + 1]
    slope = rnorm((y1n * y0d - y0n * y1d) * x1d * x0d,
                  (x1n * x0d - x0n * x1d) * y1d * y0d)
    offset = rnorm(y0n * slope[1] * x0d - slope[0] * x0n * y0d,
                   y0d * slope[1] * x0d)
    return slope, offset


def concat(pieces):
    """Glue canonical PL pieces left to right; adjacent endpoints must coincide.

    Each piece is canonical, so only a seam point can be collinear.
    """
    out = list(pieces[0])
    for piece in pieces[1:]:
        if out[-1] != piece[0]:
            raise ValueError(
                f"pieces do not meet: {out[-1]} vs {piece[0]}"
            )
        if _collinear(out[-2], out[-1], piece[1]):
            out.pop()
        out.extend(piece[1:])
    return out
