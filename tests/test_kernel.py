"""Kernel-level checks on the flat breakpoint representation.

Expected values here were worked out by hand first and frozen; the
kernel has to reproduce them exactly.
"""

import ast
import random
from pathlib import Path

from knaster_lab import _kernel_py as k

from difference import pl_sub

# the "bump" homeo (0,0), (1/2,3/4), (1,1) and both tents, flat form
BUMP = [(0, 1, 0, 1), (1, 2, 3, 4), (1, 1, 1, 1)]
ID = [(0, 1, 0, 1), (1, 1, 1, 1)]
TENT2 = [(0, 1, 0, 1), (1, 2, 1, 1), (1, 1, 0, 1)]
TENT4 = [
    (0, 1, 0, 1),
    (1, 4, 1, 1),
    (1, 2, 0, 1),
    (3, 4, 1, 1),
    (1, 1, 0, 1),
]


def test_rnorm():
    assert k.rnorm(2, 4) == (1, 2)
    assert k.rnorm(-2, -4) == (1, 2)
    assert k.rnorm(2, -4) == (-1, 2)
    assert k.rnorm(0, -7) == (0, 1)


def test_scalar_ops():
    assert k.radd((1, 2), (1, 3)) == (5, 6)
    assert k.rsub((1, 2), (1, 3)) == (1, 6)
    assert k.rmul((2, 3), (3, 4)) == (1, 2)
    assert k.rdiv((1, 2), (3, 4)) == (2, 3)
    assert k.rcmp((1, 2), (2, 4)) == 0
    assert k.rcmp((1, 2), (1, 3)) == 1
    assert k.rcmp((-1, 2), (1, 3)) == -1


def test_eval_frozen():
    # bump at 1/4: halfway up the first segment, value 3/8
    assert k.eval_at(BUMP, (1, 4)) == (3, 8)
    assert k.eval_at(BUMP, (1, 2)) == (3, 4)
    assert k.eval_at(BUMP, (0, 1)) == (0, 1)
    assert k.eval_at(BUMP, (1, 1)) == (1, 1)
    # tent2 folds 3/4 down to 1/2
    assert k.eval_at(TENT2, (3, 4)) == (1, 2)


def test_eval_sorted_matches_eval_at():
    xs = [(0, 1), (1, 8), (1, 4), (1, 2), (5, 8), (1, 1)]
    assert k.eval_sorted(TENT4, xs) == [k.eval_at(TENT4, x) for x in xs]


def test_canonical_removes_collinear():
    bps = [(0, 1, 0, 1), (1, 4, 1, 4), (1, 2, 1, 2), (1, 1, 1, 1)]
    assert k.canonical(bps) == ID
    # non-collinear points survive
    assert k.canonical(BUMP) == BUMP


def test_compose_tents():
    # tent2 after tent2 is tent4
    assert k.compose(TENT2, TENT2) == TENT4


def test_compose_pointwise():
    rng = random.Random(20260819)
    comp = k.compose(BUMP, TENT2)
    for _ in range(50):
        x = (rng.randint(0, 96), 96)
        assert k.eval_at(comp, x) == k.eval_at(BUMP, k.eval_at(TENT2, x))


def test_invert_roundtrip():
    inv = k.invert(BUMP)
    assert k.eval_at(inv, (3, 4)) == (1, 2)
    assert k.compose(inv, BUMP) == ID
    assert k.compose(BUMP, inv) == ID


def test_invert_decreasing():
    down = [(0, 1, 1, 1), (1, 1, 0, 1)]
    assert k.invert(down) == down


def test_sup_diff_frozen():
    # |bump - id| peaks at x = 1/2 with value 1/4
    assert k.sup_diff(BUMP, ID) == (1, 4, 1, 2)
    # |tent2 - tent4| peaks at x = 1/2 where tent2 is 1 and tent4 is 0
    assert k.sup_diff(TENT2, TENT4) == (1, 1, 1, 2)
    assert k.sup_diff(TENT2, TENT2) == (0, 1, 0, 1)


def test_pl_sub_and_roots():
    diff = pl_sub(TENT2, ID)
    assert k.eval_at(diff, (2, 3)) == (0, 1)


def test_segment_root():
    # tent2 - id runs from (1/2, 1/2) down to (1, -1): zero at 2/3
    assert k.segment_root((1, 2), (1, 1), (1, 2), (-1, 1)) == (2, 3)
    # the same segment walked upward, and a root off the unit interval
    assert k.segment_root((1, 1), (1, 2), (-1, 1), (1, 2)) == (2, 3)
    assert k.segment_root((0, 1), (1, 1), (1, 1), (3, 1)) == (-1, 2)


def test_restrict():
    piece = k.restrict(TENT2, (1, 4), (3, 4))
    assert piece == [(1, 4, 1, 2), (1, 2, 1, 1), (3, 4, 1, 2)]


def test_restrict_keeps_ends_on_breakpoints(monkeypatch):
    # an end on a breakpoint is that breakpoint, not interpolated again,
    # so the whole domain is a plain copy
    def refuse(*_):
        raise AssertionError("interpolated an end that is a breakpoint")

    monkeypatch.setattr(k, "_interp", refuse)
    whole = k.restrict(TENT4, (0, 1), (1, 1))
    assert whole == TENT4 and whole is not TENT4
    assert k.restrict(TENT4, (1, 4), (3, 4)) == TENT4[1:4]


def test_affine_image_reflection():
    # x -> 1-x, y -> 1-y turns the bump into its mirror
    got = k.affine_image(BUMP, (-1, 1), (1, 1), (-1, 1), (1, 1))
    assert got == [(0, 1, 0, 1), (1, 2, 1, 4), (1, 1, 1, 1)]


def old_affine_image(bps, sx, ox, sy, oy):
    """affine_image as first written: a product and a sum per coordinate."""
    out = []
    for p in bps:
        nx = k.radd(k.rmul(sx, (p[0], p[1])), ox)
        ny = k.radd(k.rmul(sy, (p[2], p[3])), oy)
        out.append((nx[0], nx[1], ny[0], ny[1]))
    if sx[0] < 0:
        out.reverse()
    return out


def _rand_rational(rng, nonzero=False):
    while True:
        r = k.rnorm(rng.randint(-40, 40), rng.randint(1, 40))
        if r[0] or not nonzero:
            return r


def test_affine_image_matches_old_body():
    rng = random.Random(20261018)
    for _ in range(300):
        n = rng.randint(2, 6)
        xs = sorted({k.rnorm(rng.randint(-50, 50), rng.randint(1, 30)) for _ in range(3 * n)},
                    key=lambda r: r[0] / r[1])[:n]
        if len(xs) < 2:
            continue
        bps = [x + _rand_rational(rng) for x in xs]
        sx = _rand_rational(rng, nonzero=True)  # sx < 0 takes the reflect path
        args = (sx, _rand_rational(rng), _rand_rational(rng), _rand_rational(rng))
        assert k.affine_image(bps, *args) == old_affine_image(bps, *args)
    # both signs of sx on a fixed list
    for sx in [(-3, 2), (3, 2)]:
        args = (sx, (1, 7), (-5, 3), (2, 9))
        assert k.affine_image(TENT4, *args) == old_affine_image(TENT4, *args)


def test_segment_affine_reproduces_breakpoints():
    rng = random.Random(7)
    lists = [BUMP, TENT2, TENT4, ID, [(1, 3, -2, 5), (1, 2, 7, 3), (9, 4, 7, 3)]]
    for _ in range(50):
        xs = sorted({k.rnorm(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range(6)},
                    key=lambda r: r[0] / r[1])
        lists.append([x + _rand_rational(rng) for x in xs])
    for bps in lists:
        for i in range(len(bps) - 1):
            slope, offset = k.segment_affine(bps, i)
            for p in bps[i], bps[i + 1]:
                y = k.radd(k.rmul(slope, (p[0], p[1])), offset)
                assert y == (p[2], p[3])
            assert slope == k.rnorm(*slope) and offset == k.rnorm(*offset)


def test_outputs_stay_normalized():
    # representation equality relies on every tuple being in lowest terms
    from math import gcd

    def check(bps):
        for xn, xd, yn, yd in bps:
            assert xd > 0 and yd > 0
            assert gcd(xn, xd) == 1 and gcd(yn, yd) == 1

    for bps in [
        k.compose(TENT2, TENT2),
        k.invert(BUMP),
        pl_sub(TENT2, ID),
        k.restrict(TENT4, (1, 8), (7, 8)),
        k.affine_image(BUMP, (2, 3), (1, 6), (1, 2), (1, 4)),
    ]:
        check(bps)


def test_concat():
    left = [(0, 1, 0, 1), (1, 2, 1, 1)]
    right = [(1, 2, 1, 1), (1, 1, 0, 1)]
    assert k.concat([left, right]) == TENT2
    bad = [(1, 2, 0, 1), (1, 1, 0, 1)]
    try:
        k.concat([left, bad])
    except ValueError:
        pass
    else:
        raise AssertionError("mismatched pieces must not glue")


def test_every_kernel_function_is_used():
    # a public kernel function nothing in the package calls is dead code
    src = Path(k.__file__).parent
    used = set()
    for path in src.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    public = [
        name
        for name, obj in vars(k).items()
        if not name.startswith("_") and getattr(obj, "__module__", None) == k.__name__
    ]
    assert "compose" in public
    assert sorted(set(public) - used) == []


def test_no_assert_under_src():
    # python -O strips asserts, and certificates must check themselves there
    src = Path(k.__file__).parent
    found = [
        f"{path.relative_to(src)}:{node.lineno}"
        for path in sorted(src.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
