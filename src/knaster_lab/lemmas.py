"""Certified lower and upper bound checkers for the tower metric.

Each checker validates its preconditions, then produces an exact
rational certificate that a distance bound holds:

  * certify_mod_bound: two inducers within eps/(p_1...p_n) in the sup
    metric stay within eps as diagonal maps; the certificate is a
    CertifiedDistance whose upper bound is strictly below eps.
  * tent_witness: a sup gap of delta/d survives composition with the
    degree-d tent, either undiminished (case 1) or halved but pinned to
    a boundary value (case 2); one exact search returns the witness
    point: the sup of the tent composites, taken on one merged walk
    without building them, then the grid preimages. check_tent_witness
    rechecks it.
  * separation_lower_bound: a window that moves the grid point 1/d is
    uniformly far from every diagonal induced below it; the certificate
    is the metric at the stalk through 1/d, the point the proof names.
  * comod_lower_bound_check: a sup gap at a high coordinate forces a
    metric gap at a fixed low coordinate, via tent_witness.

A CounterexampleError from any of them means the checked claim failed
on inputs satisfying its preconditions; the payload replays the inputs.
Tests treat any occurrence as fatal.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from . import _kernel_py as _k
from .knaster import (
    DiagonalHomeo,
    TruncatedKnasterPoint,
    diag_dist,
    eval_diagonal,
    extend_point,
    knaster_dist,
    lift,
)
from .plmap import sup_dist, sup_dist_witness, to_json_dict
from .rational import format_rational
from .tents import tent, tent_value


class CounterexampleError(RuntimeError):
    """A certified search failed where the theory says it cannot."""

    def __init__(self, message, payload):
        super().__init__(message)
        self.payload = payload


def certify_mod_bound(g, h, n, eps, P):
    """Certify that the diagonal distance of (n,g) and (n,h) is below eps.

    Requires sup_dist(g, h) < eps/(p_1...p_n); one diag_dist at N = n
    then certifies. The tents are p-Lipschitz, so the level-m difference
    is below eps/(p_1...p_m), and the terms of diag_dist's upper bound
    are below eps/2 at level 0, eps/(p_1...p_m)^2 at level m >= 1 and
    4 eps/(3 (p_1...p_{n+1})^2) for the tail weight r_n. As every
    p_i >= 2, they sum to at most eps (1/2 + sum_{i>=1} 4^-i) = 5 eps/6,
    so an upper bound at or above eps raises CounterexampleError; else
    that CertifiedDistance is returned.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    if n < 0:
        raise ValueError("coordinate must be nonnegative")
    gap = sup_dist(g, h)
    bound = eps / P.product(1, n)
    if gap >= bound:
        raise ValueError(
            f"sup distance {gap} is not below eps/(p_1...p_n) = {bound}"
        )
    d = diag_dist(DiagonalHomeo(n, g), DiagonalHomeo(n, h), n, P)
    if d.upper >= eps:
        raise CounterexampleError(
            "the certified upper bound is not below eps",
            {
                "g": to_json_dict(g),
                "h": to_json_dict(h),
                "coord": n,
                "eps": format_rational(eps),
            },
        )
    return d


class TentWitness(NamedTuple):
    x: Fraction
    case: int


def _tent_pair(f, g, d, x):
    return tent_value(d, f(x)), tent_value(d, g(x))


def tent_witness(f, g, d, delta):
    """A point where the degree-d tent keeps f and g visibly apart.

    Requires delta < 1/4 and sup_dist(f, g) >= delta/d. Returns
    TentWitness(x, case) with case 1 meaning |T∘f - T∘g| >= delta at x,
    and case 2 meaning the gap is >= delta/2 with one side in {0, 1}.

    The search takes the exact sup of |T∘f - T∘g| and its leftmost
    witness from compose_pair_sup, which walks both composites together
    and builds neither. That witness is the one the built composites'
    sup_dist_witness gives: the leftmost maximizer of the difference is
    0 or one of its kinks, and both searches score every kink. When the
    sup falls under delta, the search takes the finitely many grid
    preimages f⁻¹(k/d) and g⁻¹(k/d). Every case-2 point the proof's
    anchored walk can end on is one of them, so the search finds a
    witness whenever the lemma holds.
    """
    delta = Fraction(delta)
    if d < 1:
        raise ValueError("tent degree must be positive")
    if not 0 < delta < Fraction(1, 4):
        raise ValueError("delta must lie in (0, 1/4)")
    if sup_dist(f, g) < delta / d:
        raise ValueError("pair is closer than delta/d in the sup metric")
    t = tent(d)._kbps
    mn, md, wn, wd = _k.compose_pair_sup(t, f._kbps, t, g._kbps)
    if Fraction(mn, md) >= delta:
        return TentWitness(Fraction(wn, wd), 1)
    # the full composite sup fell under delta, so hunt along the exact
    # preimages of the tent grid, where one side is pinned to 0 or 1
    half = delta / 2
    cands = set()
    for k in range(d + 1):
        y = Fraction(k, d)
        cands.add(f.preimage(y))
        cands.add(g.preimage(y))
    for x in sorted(cands):
        a, b = _tent_pair(f, g, d, x)
        if abs(a - b) >= half and (a in (0, 1) or b in (0, 1)):
            return TentWitness(x, 2)
    raise CounterexampleError(
        "no tent witness on a pair meeting the preconditions",
        {
            "f": to_json_dict(f),
            "g": to_json_dict(g),
            "d": d,
            "delta": format_rational(delta),
        },
    )


def check_tent_witness(f, g, d, delta, w):
    """Exact recheck of a TentWitness certificate; True when it holds."""
    a, b = _tent_pair(f, g, d, w.x)
    gap = abs(a - b)
    if w.case == 1:
        return gap >= delta
    return gap >= Fraction(delta) / 2 and (a in (0, 1) or b in (0, 1))


@dataclass(frozen=True)
class SeparationCertificate:
    bound: Fraction
    lower: Fraction
    witness: TruncatedKnasterPoint


def separation_lower_bound(F, h_window, m, eta, P):
    """Certify d >= eta/(p_1...p_m) between F and the window's diagonal.

    F lives at a coordinate n < m; d = p_{n+1}...p_m. Every lift of F
    fixes the grid point 1/d, so a window with |h(1/d) - 1/d| >= 2*eta
    stays a weighted step away from F. The check follows that argument:
    x is the level-m stalk through 1/d, and the metric between the two
    image stalks, truncated at m, is at least its coordinate-m term
    |h(1/d) - 1/d|/(p_1...p_m) >= 2*eta/(p_1...p_m). Returns
    SeparationCertificate(bound, lower, witness): lower is that
    truncated metric and witness is x. The sup over all stalks that
    diag_dist takes is at least lower, so this check is the stricter.
    """
    eta = Fraction(eta)
    if eta <= 0:
        raise ValueError("eta must be positive")
    n = F.base_coord
    if m <= n:
        raise ValueError("window coordinate must exceed the base coordinate")
    d = P.product(n + 1, m)
    grid = Fraction(1, d)
    margin = abs(h_window(grid) - grid)
    if margin < 2 * eta:
        raise ValueError("window moves 1/d by less than 2*eta")
    x = extend_point(grid, m, P)
    ya = eval_diagonal(F, x, P)
    yb = eval_diagonal(DiagonalHomeo(m, h_window), x, P)
    lower = knaster_dist(ya, yb, P).lower
    bound = eta / P.product(1, m)
    if lower < bound:
        raise CounterexampleError(
            "separation bound failed at the grid stalk",
            {
                "inducer": to_json_dict(F.inducer),
                "base_coord": n,
                "window": to_json_dict(h_window),
                "coord": m,
                "eta": format_rational(eta),
                "witness": x.to_json_dict(),
            },
        )
    return SeparationCertificate(bound, lower, x)


@dataclass(frozen=True)
class ComodCertificate:
    bound: Fraction
    achieved: Fraction
    coordinate: int
    route: str
    witness: TruncatedKnasterPoint


def comod_lower_bound_check(p_prime, n, g_phi, j, delta, P):
    """Certify d >= delta/(p_1...p_j) from a sup gap at coordinate n >= j.

    p_prime induces at coordinate n; g_phi induces at coordinate j and
    is compared through its lift. Requires j >= 2, delta below both 1/4
    and 1/p_j, and sup_dist(p_prime, lift) >= delta/(p_{j+1}...p_n).

    With n = j the sup witness itself separates coordinate j. With
    n > j, tent_witness supplies a point whose images separate at
    coordinate j (case 1), or at coordinate j-1 after the degree-p_j
    tent doubles a boundary-pinned half gap (case 2).
    """
    delta = Fraction(delta)
    if j < 2:
        raise ValueError("base coordinate j must be at least 2")
    if n < j:
        raise ValueError("n must be at least j")
    pj = P.prime(j)
    if not 0 < delta < min(Fraction(1, 4), Fraction(1, pj)):
        raise ValueError("delta must lie in (0, min(1/4, 1/p_j))")
    lifted = lift(DiagonalHomeo(j, g_phi), n, P).inducer
    d = P.product(j + 1, n)
    if sup_dist(p_prime, lifted) < delta / d:
        raise ValueError("pair is closer than delta/(p_{j+1}...p_n)")

    if n == j:
        _, x_top = sup_dist_witness(p_prime, lifted)
        route = "direct"
        coord_used = j
    else:
        w = tent_witness(p_prime, lifted, d, delta)
        x_top = w.x
        route = f"tent-case-{w.case}"
        coord_used = j if w.case == 1 else j - 1

    x = extend_point(x_top, n, P)
    ya = eval_diagonal(DiagonalHomeo(n, p_prime), x, P)
    yb = eval_diagonal(DiagonalHomeo(n, lifted), x, P)
    dist = knaster_dist(ya, yb, P)
    bound = delta / P.product(1, j)
    if dist.lower < bound:
        raise CounterexampleError(
            "comod lower bound failed at its witness",
            {
                "p_prime": to_json_dict(p_prime),
                "n": n,
                "g_phi": to_json_dict(g_phi),
                "j": j,
                "delta": format_rational(delta),
                "witness": x.to_json_dict(),
            },
        )
    return ComodCertificate(bound, dist.lower, coord_used, route, x)
