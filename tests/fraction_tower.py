"""The tower's stalk layer as it was on Fractions, before kernel pairs.

knaster keeps stalk coordinates as (n, d) pairs and builds diag_dist's
witness and tail weights in integers. The fraction_* functions below are
the straightforward versions they replaced: every coordinate a Fraction,
every stalk built through the validating TruncatedKnasterPoint
constructor, every stalk computed by folding its top coordinate down the
tents, and the tail weights summed term by term. tests/test_tower_oracle.py
requires the kernel-pair layer to agree with them bit for bit.
"""

from fractions import Fraction

from knaster_lab import _kernel_py as _k
from knaster_lab.knaster import CertifiedDistance, TruncatedKnasterPoint
from knaster_lab.tents import oplus_power, tent

from difference import pl_sub


def fraction_tent_value(d, x):
    """tent(d)(x) as a Fraction: lap floor(d*x), even laps rise from 0."""
    u = Fraction(d) * x
    k = u.numerator // u.denominator
    t = u - k
    if k == d:
        return Fraction(k & 1)
    return t if k % 2 == 0 else 1 - t


def fraction_validate_point(x, P):
    for m in range(1, len(x.coords)):
        want = fraction_tent_value(P.prime(m), x.coords[m])
        if x.coords[m - 1] != want:
            raise ValueError(
                f"incoherent point: coordinate {m - 1} is "
                f"{x.coords[m - 1]}, bonding map gives {want}"
            )


def fraction_extend_point(x, n, P):
    x = Fraction(x)
    if x < 0 or x > 1:
        raise ValueError("coordinate must lie in [0, 1]")
    if n < 0:
        raise ValueError("truncation must be nonnegative")
    coords = [x]
    for m in range(n, 0, -1):
        coords.append(fraction_tent_value(P.prime(m), coords[-1]))
    coords.reverse()
    return TruncatedKnasterPoint(tuple(coords))


def fraction_knaster_dist(x, y, P):
    if x.truncation != y.truncation:
        raise ValueError("points have different truncations")
    fraction_validate_point(x, P)
    fraction_validate_point(y, P)
    n = x.truncation
    lower = abs(x.coords[0] - y.coords[0]) / 2
    for i in range(1, n + 1):
        lower += P.weight(i) * abs(x.coords[i] - y.coords[i])
    return CertifiedDistance(lower, lower + P.tail_bound(n), n, None)


def fraction_eval_diagonal(F, x, P):
    """The image stalk, one rational block step per level above the base."""
    fraction_validate_point(x, P)
    n = x.truncation
    b = F.base_coord
    if n < b:
        raise ValueError("truncation is below the base coordinate")
    v = F.inducer(x.coords[b])
    for k in range(b + 1, n + 1):
        p = P.prime(k)
        u = p * x.coords[k]
        j = min(u.numerator // u.denominator, p - 1)
        if j & 1:
            v = 1 - v
        v = (j + v) / p
    return fraction_extend_point(v, n, P)


def fraction_level_weight(m, P):
    return Fraction(1, 2) if m == 0 else P.weight(m)


def fraction_tail_weights(M, N, P):
    """(C(M, N), C(M, N) + r_N), summed term by term."""
    collapsed = sum(
        fraction_level_weight(i, P) / P.product(M + 1, i) for i in range(M, N + 1)
    )
    high = collapsed + Fraction(
        4, 3 * P.product(1, N + 1) * P.product(M + 1, N + 1)
    )
    return collapsed, high


def fraction_diag_dist(F, G, N, P):
    """diag_dist with its witness and tail weights built from Fractions.

    The fold, merge and score passes run over all of [0, 1], as
    diag_dist's did before it skipped the stretches where the two maps
    agree; the lift to M is one block sum, and the witness is extended
    down from the top.
    """
    if N < F.base_coord or N < G.base_coord:
        raise ValueError("truncation is below a base coordinate")
    M = max(F.base_coord, G.base_coord)
    A = oplus_power(F.inducer, P.product(F.base_coord + 1, M))._kbps
    B = oplus_power(G.inducer, P.product(G.base_coord + 1, M))._kbps

    levels = []
    m = M
    while True:
        levels.append((m, pl_sub(A, B)))
        if m == 0:
            break
        t = tent(P.prime(m))._kbps
        A = _k.compose(t, A)
        B = _k.compose(t, B)
        m -= 1

    xs = [(p[0], p[1]) for p in levels[0][1]]
    for _, D in levels[1:]:
        xs = _k.merged_xs(xs, D)

    below = [(0, 1)] * len(xs)
    for m, D in levels[1:]:
        w = fraction_level_weight(m, P)
        w = (w.numerator, w.denominator)
        for i, v in enumerate(_k.eval_sorted(D, xs)):
            if v[0]:
                below[i] = _k.radd(below[i], _k.rmul((abs(v[0]), v[1]), w))

    collapsed, high = fraction_tail_weights(M, N, P)
    c = (collapsed.numerator, collapsed.denominator)
    h = (high.numerator, high.denominator)
    lower = upper = (-1, 1)
    wit = xs[0]
    for x, b, v in zip(xs, below, _k.eval_sorted(levels[0][1], xs)):
        a = (abs(v[0]), v[1])
        lo = _k.radd(b, _k.rmul(a, c))
        if _k.rcmp(lo, lower) > 0:
            lower = lo
            wit = x
        hi = _k.radd(b, _k.rmul(a, h))
        if _k.rcmp(hi, upper) > 0:
            upper = hi

    witness = fraction_extend_point(Fraction(*wit) / P.product(M + 1, N), N, P)
    return CertifiedDistance(Fraction(*lower), Fraction(*upper), N, witness)
