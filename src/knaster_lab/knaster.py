"""Finite truncations of the tent-tower continuum and its diagonal maps.

The space is the inverse limit of copies of [0,1] bonded by tent maps
whose degrees follow a configurable prime schedule. A point is stored as
a coherent finite stalk (x_0, ..., x_N) with x_{m-1} = T_{p_m}(x_m); a
degree-one diagonal homeomorphism is stored as a single interval
homeomorphism acting at some coordinate, with the canonical lift
(n, f) == (n+1, oplus_power(f, p_{n+1})) identifying representations.

Distances are never floats. The metric

    d(x, y) = |x_0 - y_0|/2 + sum_i |x_i - y_i| / (p_1...p_i)

is reported as a CertifiedDistance: an exact rational interval
[lower, upper] containing the value the untruncated objects would have,
with the tail beyond the truncation absorbed into the upper bound; for
diagonal maps on "all2" that bound is the untruncated value itself.

Nothing is lifted to the truncation. Above M = max(F.base_coord,
G.base_coord) both inducers are block sums of their level-M forms, so
every coordinate above M repeats the level-M difference scaled down by
the bonding degrees (the semiconjugacy g o T_d == T_d o oplus_power(g, d)
of tents.py). diag_dist therefore lifts only to M and costs the same at
every truncation N >= M, and eval_diagonal walks the stalk's block
indices instead of building the level-N inducer. Below M, diag_dist
folds only where the two level-M maps differ: every level's difference
vanishes wherever they agree (see diag_dist).

One metric serves points and maps. knaster_dist and diag_dist both
score a pair of coherent stalks with one weighted sum in integers
(_stalk_sum): knaster_dist the two stalks it is given, diag_dist the
level-M stalks through A(s) and B(s) at each candidate s, with the
collapsed tail as the level-M weight. The Fraction boundary sits where
it sits for maps (see plmap). Stalks keep their coordinates as kernel
pairs (n, d), and extend_point, validate_point, eval_diagonal, the
stalk sum and diag_dist's witness and tail weights run on integers.
Fractions appear only at the typed surface: a stalk's ``coords``, its
constructor and JSON, the values callers pass in, and a
CertifiedDistance's lower and upper, each built once per call.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import prod

from . import _kernel_py as _k
from .plmap import PLHomeo
from .plmap import from_json_dict as _map_from
from .plmap import to_json_dict as _map_json
from .rational import format_rational, parse_rational
from .tents import MAX_BREAKPOINTS, check_size, oplus_power, oplus_size, tent_fold

_PRIME_NAMES = ("diagonal", "all2")

_SMALL_PRIMES = [2]


def _is_prime(n):
    if n < 2:
        return False
    k = 2
    while k * k <= n:
        if n % k == 0:
            return False
        k += 1
    return True


def _first_primes(k):
    while len(_SMALL_PRIMES) < k:
        c = _SMALL_PRIMES[-1] + 1
        while not _is_prime(c):
            c += 1
        _SMALL_PRIMES.append(c)
    return _SMALL_PRIMES[:k]


class PrimeSequence:
    """A reproducible schedule p_1, p_2, ... of bonding-map degrees.

    "all2" repeats 2 forever. "diagonal" walks the triangle 2 | 2,3 |
    2,3,5 | 2,3,5,7 | ... so every prime recurs infinitely often. An
    explicit list, or its comma string ("5", "2,3,5"), gives a finite
    schedule that errors past its end; certificates at truncation N need
    N+1 terms (the tail bound looks one level down).
    """

    def __init__(self, spec="diagonal"):
        if isinstance(spec, str) and spec not in _PRIME_NAMES:
            try:
                spec = [int(p) for p in spec.split(",")]
            except ValueError:
                raise ValueError(f"unknown prime schedule {spec!r}") from None
        if isinstance(spec, str):
            self._name = spec
            self._prefix = None
            self._cache = []
            self._row = 0
        else:
            primes = [int(p) for p in spec]
            if not primes:
                raise ValueError("explicit prime schedule must be nonempty")
            for p in primes:
                if not _is_prime(p):
                    raise ValueError(f"schedule entry {p} is not prime")
            self._name = None
            self._prefix = tuple(primes)
            self._cache = list(primes)
            self._row = 0

    def _extend(self, n):
        if len(self._cache) >= n:
            return
        if self._prefix is not None:
            raise ValueError(
                f"schedule has only {len(self._prefix)} terms, needs {n}"
            )
        if self._name == "all2":
            self._cache.extend([2] * (n - len(self._cache)))
            return
        while len(self._cache) < n:
            self._row += 1
            self._cache.extend(_first_primes(self._row))

    def require(self, n, what):
        """Refuse (ValueError) an explicit schedule of fewer than n terms.

        A named schedule never ends, so it is never extended here.
        """
        if self._prefix is not None and len(self._prefix) < n:
            raise ValueError(f"{what} needs p_1...p_{n}, but the schedule "
                             f"has only {len(self._prefix)} terms")

    def prime(self, i):
        """p_i, 1-indexed."""
        if i < 1:
            raise ValueError("prime indices start at 1")
        self._extend(i)
        return self._cache[i - 1]

    def prefix(self, n):
        """(p_1, ..., p_n)."""
        self._extend(n)
        return tuple(self._cache[:n])

    def product(self, i, j):
        """p_i * ... * p_j, empty (= 1) when j < i."""
        if j < i:
            return 1
        self._extend(j)
        return prod(self._cache[i - 1:j])

    def weight(self, i):
        """1/(p_1...p_i); at most 2^-i, so metric tails are summable."""
        return Fraction(1, self.product(1, i))

    def tail_bound(self, n):
        """Closed-form bound for sum_{i>n} weight(i).

        Each factor is at least 2, so the tail is dominated by the
        geometric series 2 * weight(n+1).
        """
        return Fraction(2, self.product(1, n + 1))

    def describe(self):
        if self._name is not None:
            return self._name
        return "prefix" + repr(list(self._prefix))

    def to_json_dict(self):
        if self._name is not None:
            return {"name": self._name}
        return {"prefix": list(self._prefix)}

    @classmethod
    def from_json_dict(cls, data):
        if isinstance(data, (str, list, tuple)):
            return cls(data)
        if "name" in data:
            return cls(data["name"])
        if "prefix" in data:
            return cls(data["prefix"])
        raise ValueError("prime schedule needs a 'name' or a 'prefix'")

    def __eq__(self, other):
        if not isinstance(other, PrimeSequence):
            return NotImplemented
        return (self._name, self._prefix) == (other._name, other._prefix)

    def __hash__(self):
        return hash((self._name, self._prefix))

    def __repr__(self):
        return f"PrimeSequence({self.describe()})"


class TruncatedKnasterPoint:
    """A coherent stalk (x_0, ..., x_N); stands for all its extensions.

    The coordinates are kept as kernel pairs (n, d) in lowest terms, as
    PLMap keeps its breakpoints; ``coords`` is their Fraction view. The
    constructor takes any values Fraction accepts and checks each lies
    in [0, 1]; ``_from_kernel`` is the trusted path for the stalks this
    module builds itself, which are in range and coherent by
    construction. Coherence of a user-built stalk is validate_point's
    job, and every function taking a stalk runs it.
    """

    __slots__ = ("_kc", "_coords")

    def __init__(self, coords):
        pts = tuple(Fraction(c) for c in coords)
        if not pts:
            raise ValueError("a point needs at least coordinate 0")
        for c in pts:
            if c < 0 or c > 1:
                raise ValueError("coordinates must lie in [0, 1]")
        self._kc = tuple((c.numerator, c.denominator) for c in pts)
        self._coords = pts

    @classmethod
    def _from_kernel(cls, kc):
        """Trusted constructor: kc a tuple of in-range pairs in lowest terms."""
        obj = object.__new__(cls)
        obj._kc = kc
        obj._coords = None
        return obj

    @property
    def coords(self):
        """The coordinates as a tuple of Fractions."""
        if self._coords is None:
            self._coords = tuple(Fraction(n, d) for n, d in self._kc)
        return self._coords

    @property
    def truncation(self):
        return len(self._kc) - 1

    def __eq__(self, other):
        if not isinstance(other, TruncatedKnasterPoint):
            return NotImplemented
        return self._kc == other._kc

    def __hash__(self):
        return hash(self._kc)

    def __repr__(self):
        return f"TruncatedKnasterPoint(coords={self.coords!r})"

    def to_json_dict(self):
        return {"coords": [format_rational(c) for c in self.coords]}

    @classmethod
    def from_json_dict(cls, data):
        return cls(tuple(parse_rational(c) for c in data["coords"]))


def _stalk(top, n, P):
    """Kernel coordinates of the level-n stalk through the pair top."""
    ps = P.prefix(n)
    coords = [top]
    for m in range(n, 0, -1):
        coords.append(tent_fold(ps[m - 1], *coords[-1]))
    coords.reverse()
    return tuple(coords)


def validate_point(x, P):
    """Check the bonding relations x_{m-1} = T_{p_m}(x_m) exactly."""
    kc = x._kc
    for m in range(1, len(kc)):
        want = tent_fold(P.prime(m), *kc[m])
        if kc[m - 1] != want:
            raise ValueError(
                f"incoherent point: coordinate {m - 1} is "
                f"{Fraction(*kc[m - 1])}, bonding map gives {Fraction(*want)}"
            )


def extend_point(x, n, P):
    """The stalk through coordinate value x at level n, computed downward.

    Raises ValueError, before folding, when its n + 1 coordinates pass
    tents.MAX_BREAKPOINTS.
    """
    x = Fraction(x)
    if x < 0 or x > 1:
        raise ValueError("coordinate must lie in [0, 1]")
    if n < 0:
        raise ValueError("truncation must be nonnegative")
    check_size(n + 1, f"a stalk of truncation {n}", "coordinates")
    return TruncatedKnasterPoint._from_kernel(
        _stalk((x.numerator, x.denominator), n, P)
    )


@dataclass(frozen=True)
class CertifiedDistance:
    """An exact interval [lower, upper] around an untruncatable metric value.

    lower is the metric truncated at coordinate `truncation`. upper -
    lower never exceeds the schedule's closed-form tail bound there; for
    diag_dist, upper is a sup under a high tail weight, exact on "all2".
    witness, when present, is an input stalk realizing the lower bound.
    """

    lower: Fraction
    upper: Fraction
    truncation: int
    witness: "TruncatedKnasterPoint | None"

    def to_json_dict(self):
        coords = self.witness.coords if self.witness is not None else ()
        return {
            "lower": format_rational(self.lower),
            "upper": format_rational(self.upper),
            "N": self.truncation,
            "witness": [format_rational(c) for c in coords],
        }


def _stalk_sum(xs, ys, P, top=None):
    """The truncated metric between two coherent kernel stalks, in lowest terms.

    sum_{i<n} w_i |x_i - y_i| + top |x_n - y_n|, with w_0 = 1/2,
    w_i = 1/(p_1...p_i) and top a pair, a collapsed tail weight in
    diag_dist, or None for w_n, the metric itself. A coherent stalk's
    denominators all divide its top one's, since each tent fold only
    cancels. So with X and Y the top denominators, every term sits over
    2 p_1...p_n X Y, and the sum is normalized once.

    With top None it returns (lower, upper), the sum and the sum plus the
    tail bound 2/(p_1...p_{n+1}), which is 4 X Y / (2 p_1...p_n X Y p_{n+1}):
    upper is formed over that denominator times p_{n+1}, from the same
    unreduced sum, and normalized once too.
    """
    n = len(xs) - 1
    dx, dy = xs[n][1], ys[n][1]
    # c = 2 p_{i+1}...p_n is w_i times 2 p_1...p_n; w_0 takes half of it
    num, c = 0, 2
    for i in range(n - 1, -1, -1):
        c *= P.prime(i + 1)
        (an, ad), (bn, bd) = xs[i], ys[i]
        diff = abs(an * (dx // ad) * dy - bn * (dy // bd) * dx)
        num += (c if i else c >> 1) * diff
    diff = abs(xs[n][0] * dy - ys[n][0] * dx)
    if top is None:  # c = 2 p_1...p_n, so w_n is 2/c (1/c = 1/2 at n = 0)
        num += (2 if n else 1) * diff
        q, p = c * dx * dy, P.prime(n + 1)
        return _k.rnorm(num, q), _k.rnorm(num * p + 4 * dx * dy, q * p)
    tn, td = top
    return _k.rnorm(num * td + tn * c * diff, c * td * dx * dy)


def knaster_dist(x, y, P):
    """Certified metric distance between two stalks of equal truncation.

    lower is the stalk sum (_stalk_sum) with w_N on the top coordinate,
    and upper adds the tail bound 2/(p_1...p_{N+1}) inside that one sum.
    """
    if x.truncation != y.truncation:
        raise ValueError("points have different truncations")
    validate_point(x, P)
    validate_point(y, P)
    lower, upper = _stalk_sum(x._kc, y._kc, P)
    return CertifiedDistance(Fraction(*lower), Fraction(*upper), x.truncation, None)


@dataclass(frozen=True)
class DiagonalHomeo:
    """A degree-one diagonal homeomorphism: one inducer at one coordinate.

    Two representations describe the same map when they agree after
    lifting to a common coordinate; lift() and diagonal_equal() decide
    that, this dataclass compares structurally.
    """

    base_coord: int
    inducer: PLHomeo

    def __post_init__(self):
        if self.base_coord < 0:
            raise ValueError("base coordinate must be nonnegative")
        if not isinstance(self.inducer, PLHomeo):
            raise TypeError("inducer must be an increasing homeomorphism")

    def to_json_dict(self):
        return {
            "base_coord": self.base_coord,
            "inducer": _map_json(self.inducer),
        }

    @classmethod
    def from_json_dict(cls, data):
        return cls(int(data["base_coord"]), _map_from(data["inducer"]))


def _check_depth(levels, what):
    """Refuse (ValueError) a block sum over `levels` levels from its depth.

    Every prime is at least 2, so it needs over 2^levels breakpoints,
    past tents.MAX_BREAKPOINTS once levels reaches that limit's bit
    length; no product of the schedule is formed.
    """
    if levels >= MAX_BREAKPOINTS.bit_length():
        raise ValueError(
            f"{what} needs over 2^{levels} breakpoints, "
            f"more than the limit {MAX_BREAKPOINTS}"
        )


def lift(F, m, P):
    """The canonical representation of F at coordinate m >= F.base_coord.

    One level up replaces the inducer by its p-fold alternating block
    sum, and ⊕_b(⊕_a g) = ⊕_{ab} g, so the lift is one block sum of
    degree p_{base+1}...p_m; at m = base it is F itself. Raises
    ValueError, before building anything, when it would have more than
    tents.MAX_BREAKPOINTS breakpoints: from the depth m - base alone
    (_check_depth), and otherwise from the product.
    """
    b = F.base_coord
    if m < b:
        raise ValueError("cannot lift below the base coordinate")
    if m == b:
        return F
    _check_depth(m - b, f"lifting to coordinate {m}")
    d = P.product(b + 1, m)
    check_size(oplus_size(F.inducer, d), f"lifting to coordinate {m}")
    return DiagonalHomeo(m, oplus_power(F.inducer, d))


def diagonal_equal(F, G, P):
    """Equality of the represented maps, decided at a common coordinate."""
    m = max(F.base_coord, G.base_coord)
    return lift(F, m, P).inducer == lift(G, m, P).inducer


def eval_diagonal(F, x, P):
    """Image stalk of x under F; coherent by construction.

    Evaluates the level-n lift of the inducer at the top coordinate
    without building it. Coordinate k of x lies in block
    j = min(floor(p_k x_k), p_k - 1) of the level-k block sum, and the
    stalk already holds the point that block hands down: x_{k-1} =
    T_{p_k}(x_k). So the inducer acts on x_b at the base coordinate b,
    and each level k = b+1..n puts the value back into its block:
    v <- 1 - v on odd j (the reflected copy), then v <- (j + v)/p_k.
    Cost is O(n) rational steps, independent of p_1...p_n.
    """
    validate_point(x, P)
    n = x.truncation
    b = F.base_coord
    if n < b:
        raise ValueError("truncation is below the base coordinate")
    kc = x._kc
    vn, vd = _k.eval_at(F.inducer._kbps, kc[b])
    for k in range(b + 1, n + 1):
        p = P.prime(k)
        xn, xd = kc[k]
        j = min(p * xn // xd, p - 1)
        if j & 1:
            vn = vd - vn
        vn, vd = j * vd + vn, p * vd
    return TruncatedKnasterPoint._from_kernel(_stalk(_k.rnorm(vn, vd), n, P))


def check_fold_size(M, P):
    """Refuse (ValueError) a diag_dist whose maps live at coordinate M.

    diag_dist folds both level-M maps down to coordinate 0 through the
    tents, and the level-0 fold of a homeomorphism is an open map with
    p_1...p_M laps, so at least p_1...p_M + 1 breakpoints. Refused when
    that passes tents.MAX_BREAKPOINTS: from the depth M alone
    (_check_depth), and otherwise from the product.
    """
    _check_depth(M, f"folding coordinate {M} down to 0")
    size = P.product(1, M) + 1
    if size > MAX_BREAKPOINTS:
        raise ValueError(
            f"folding coordinate {M} down to 0 needs at least {size} "
            f"breakpoints, more than the limit {MAX_BREAKPOINTS}"
        )


def _tail_weights(M, N, P):
    """diag_dist's level-M weights (collapsed, high) as kernel pairs.

    Over 2D, with D = p_1...p_N p_{M+1}...p_N, term i >= 1 of
    collapsed = C(M, N) is 2 (p_{i+1}...p_N)^2 and the i = 0 term w_0 = 1/2
    is D. high = collapsed + 4/(3 D p_{N+1}^2).
    """
    num, q = 0, 1
    for i in range(N, max(M, 1) - 1, -1):
        num += 2 * q * q
        q *= P.prime(i)
    D = P.product(1, N) * P.product(M + 1, N)
    if M == 0:
        num += D
    p2 = P.prime(N + 1) ** 2
    return _k.rnorm(num, 2 * D), _k.rnorm(3 * p2 * num + 8, 6 * D * p2)


def _support(D):
    """The closed intervals between the maximal zero segments of D, in order.

    D is a canonical breakpoint list, so a maximal zero segment is one
    segment with both ends at 0, and the intervals are nondegenerate.
    """
    out = []
    a = D[0][:2]
    for p, q in zip(D, D[1:]):
        if p[2] == 0 == q[2]:
            if p[:2] != a:
                out.append((a, p[:2]))
            a = q[:2]
    if a != D[-1][:2]:
        out.append((a, D[-1][:2]))
    return out


def _candidates(A, B, M, P):
    """Where diag_dist scores two level-M lists: their level-0 folds' breakpoints.

    Each fold composes a tent on the left, and a tent has no flat piece,
    so every kink of a level's fold stays a kink one level down. The
    merged breakpoints of the two level-0 folds therefore hold every
    breakpoint of every level's difference.

    Tents compose by degree, T_a o T_b = T_ab, so the level-0 fold is
    one compose with the degree-D tent, D = p_1...p_M (none at M = 0).
    compose reads its outer map only over the inner map's range, here
    [f[0].y, f[-1].y] since f is increasing, so each map takes only the
    tent's breakpoints (k/D, k mod 2) from floor(D y_0) to ceil(D y_1).
    That slice is canonical, like any slice of a tent, and a PL map's
    canonical list is unique, so the fold is the chain's bit for bit.
    """
    if M:
        D = P.product(1, M)
        A, B = (_k.compose([_k.rnorm(k, D) + (k & 1, 1) for k in range(
            D * f[0][2] // f[0][3], -(-D * f[-1][2] // f[-1][3]) + 1)], f) for f in (A, B))
    return _k.merged_xs(A, B)


def diag_dist(F, G, N, P):
    """Certified sup-metric distance between two diagonal homeomorphisms.

    Cost does not depend on N: both maps are lifted only to
    M = max(F.base_coord, G.base_coord). At coordinate m >= M the image
    difference is the level-M difference D_M at x_M, scaled by
    1/(p_{M+1}...p_m) (and reflected on odd blocks, which |.| ignores).
    So the truncated metric between the images of a stalk is

        sum_{m<M} w_m |D_m(x_M)| + C(M, N) |D_M(x_M)|,
        C(M, N) = sum_{i=M..N} w_i / (p_{M+1}...p_i),

    with w_0 = 1/2 and w_i = 1/(p_1...p_i), where D_m for m < M folds
    D_M down through one tent, of degree p_{m+1}...p_M, since tents
    compose by degree. With A and B the level-M inducers,
    D_m(s) = a_m - b_m for the level-M stalks (a_0, ..., a_M) through
    A(s) and (b_0, ..., b_M) through B(s), s = x_M. So the score at s is
    the truncated metric between those two stalks with C(M, N) in place
    of w_M: the sum knaster_dist takes (_stalk_sum), once for lower and
    once under the high weight for upper. It is piecewise linear in s,
    and its sup is attained at a breakpoint of some D_m. (A sign-change
    zero of one difference is a convex kink of the sum and can never be
    a strict maximum.)

    The candidates are the merged breakpoints of the level-0 folds of A
    and B, which hold every breakpoint of every D_m (see _candidates);
    each fold is one compose with the degree p_1...p_M tent. Between two
    consecutive breakpoints of the D_m the score is a sum of absolute
    values of affine maps, so convex: a point strictly inside scores at
    most the larger end, and reaches the maximum over the two ends only
    where the left end does too. So an extra candidate is never the
    leftmost maximum, and it changes neither bound nor the witness. The
    witness is the level-N stalk through s/(p_{M+1}...p_N): it lies in
    block 0 at every level above M, so the tents carry it back to s
    unreflected.

    Only the support of D_M is folded. D_m = T(A) - T(B) for the
    composed tent T, so wherever A(s) = B(s) every level vanishes and s
    scores 0. So D_M's maximal zero segments are skipped, and the
    intervals between them are each folded and scored on restrictions
    of A and B, left to right. An interval's candidates are exactly the
    full fold's inside it (a kink is local, and its ends are
    breakpoints of D_M), and every point skipped scores 0. D_m(0) = 0 at
    every level, since homeomorphisms and tents fix 0, so the full
    fold's leftmost witness is 0 until some point scores above 0:
    starting from 0 at 0 and letting only a strictly larger score move
    the witness gives the same lower, upper and witness, bit for bit.
    Equal maps fold nothing.

    Untruncated, the level-M weight is C(M, inf), whose terms past N
    shrink by 1/p_{i+1}^2 <= 1/4; so C(M, inf) <= C(M, N) + r_N with
    r_N = 4/(3 p_1...p_{N+1} p_{M+1}...p_{N+1}), equal on "all2". upper
    is the sup under that high weight, the untruncated distance on "all2".
    Both weights are computed in integers: with D = p_1...p_N p_{M+1}...p_N,

        C(M, N) = (sum_{i=max(M,1)..N} (p_{i+1}...p_N)^2 + [M = 0] D/2) / D,
        C(M, N) + r_N = C(M, N) + 4/(3 D p_{N+1}^2).

    Raises ValueError before lifting or folding when the fold would pass
    tents.MAX_BREAKPOINTS (see check_fold_size).
    """
    if N < F.base_coord or N < G.base_coord:
        raise ValueError("truncation is below a base coordinate")
    M = max(F.base_coord, G.base_coord)
    check_fold_size(M, P)
    A, B = (lift(H, M, P).inducer._kbps for H in (F, G))
    DM = _k.pl_sub(A, B)
    c, h = _tail_weights(M, N, P)

    # D_m(0) = 0 at every level, and every skipped point scores 0
    lower = upper = wit = (0, 1)
    for left, right in _support(DM):
        fa, fb = _k.restrict(A, left, right), _k.restrict(B, left, right)
        xs = _candidates(fa, fb, M, P)
        for x, a, b in zip(xs, _k.eval_sorted(fa, xs), _k.eval_sorted(fb, xs)):
            sa, sb = _stalk(a, M, P), _stalk(b, M, P)
            lo = _stalk_sum(sa, sb, P, c)
            if _k.rcmp(lo, lower) > 0:
                lower, wit = lo, x
            hi = _stalk_sum(sa, sb, P, h)
            if _k.rcmp(hi, upper) > 0:
                upper = hi

    witness = TruncatedKnasterPoint._from_kernel(
        _stalk(_k.rmul(wit, (1, P.product(M + 1, N))), N, P))
    return CertifiedDistance(Fraction(*lower), Fraction(*upper), N, witness)
