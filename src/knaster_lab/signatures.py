"""Fixed-point structure of interval homeomorphisms.

For an increasing homeomorphism h fixing 0 and 1 the fixed set is a finite
union of closed intervals (h is PL), and on each complementary gap h - id
keeps one sign. The ordered list of those gap signs is a complete conjugacy
invariant: two such homeomorphisms are conjugate through an increasing
homeomorphism exactly when their sign lists agree. The classes here compute
the invariant, its behaviour under reflection and block sums, and the
resulting (decidable) conjugacy test.
"""

from fractions import Fraction

from . import _kernel_py as _k
from .plmap import PLHomeo

_ID = [(0, 1, 0, 1), (1, 1, 1, 1)]


def fixed_intervals(h):
    """Maximal closed intervals of fixed points, as (left, right) pairs.

    Degenerate intervals (left == right) are isolated fixed points. 0 and 1
    are always fixed, so the list starts at 0 and ends at 1.
    """
    if not isinstance(h, PLHomeo):
        raise TypeError("fixed-point structure needs an increasing homeomorphism")
    diff = _k.pl_sub(h._kbps, _ID)
    out = []
    cur_left = None
    prev_zero_x = None

    def flush():
        nonlocal cur_left, prev_zero_x
        if cur_left is not None:
            out.append((cur_left, prev_zero_x))
            cur_left = None
            prev_zero_x = None

    n = len(diff)
    for i in range(n):
        xn, xd, yn, _ = diff[i]
        x = Fraction(xn, xd)
        if yn == 0:
            if cur_left is None:
                cur_left = x
            prev_zero_x = x
            continue
        # nonzero value at this breakpoint: close any open run strictly
        # before it, then look for an isolated crossing inside the segment
        flush()
        if i + 1 < n:
            q = diff[i + 1]
            if q[2] != 0 and (yn > 0) != (q[2] > 0):
                r = _k.segment_root(
                    (xn, xd), (q[0], q[1]), (yn, diff[i][3]), (q[2], q[3])
                )
                out.append((Fraction(*r), Fraction(*r)))
    flush()
    return out


def signature(h):
    """Signs of h - id on the gaps between consecutive fixed intervals."""
    return gap_signs(h, fixed_intervals(h))


def gap_signs(h, ivs):
    """Signature of h from its fixed intervals ivs = fixed_intervals(h)."""
    signs = []
    for k in range(len(ivs) - 1):
        a = ivs[k][1]
        b = ivs[k + 1][0]
        mid = (a + b) / 2
        signs.append(1 if h(mid) > mid else -1)
    return signs


def signature_reflect(signs):
    """Signature of the reflection: reversed order, flipped signs."""
    return [-s for s in reversed(signs)]


def signature_oplus(signs, d):
    """Signature of the d-fold alternating block sum."""
    out = []
    for i in range(d):
        out.extend(signs if i % 2 == 0 else signature_reflect(signs))
    return out


def decide_conjugate(f, g):
    """Whether some increasing homeomorphism w satisfies w∘f∘w⁻¹ == g.

    The signature is a complete invariant for increasing homeomorphisms
    fixing 0 and 1, so this is a finite comparison.
    """
    return signature(f) == signature(g)


def signature_to_string(signs):
    """Sign list as a compact string, e.g. [1, -1, 1] -> "+-+"."""
    return "".join("+" if s > 0 else "-" for s in signs)
