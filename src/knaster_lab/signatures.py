"""Fixed-point structure of interval homeomorphisms.

For an increasing homeomorphism h fixing 0 and 1 the fixed set is a finite
union of closed intervals (h is PL), and on each complementary gap h - id
keeps one sign. The ordered list of those gap signs, the signature, is not
a complete conjugacy invariant: a map fixing all of [1/3, 2/3] and one
fixing only 1/2 share the signature +-, yet no homeomorphism maps an
interval onto a point. Equal signatures are what conjugator synthesis
needs; exact conjugacy also needs each fixed interval's kind, a point or
not, to match. The functions here compute the signature, its behaviour
under reflection and block sums, and the (decidable) conjugacy test.

The fixed intervals and the signature come from one integer pass over the breakpoints of h
(_kernel_py.fixed_structure). h is canonical, so h - id breaks exactly
where h does, and the sign of h - id at a breakpoint is an integer sign
test. Runs of zeros are the fixed intervals, and a strict sign change
inside a segment adds one isolated fixed point. No gap needs a point
evaluated: each one holds a breakpoint where h - id is not zero, since a
segment joining two fixed points is fixed, so the gap's sign is the sign
at the first nonzero breakpoint after the interval that opens it.
"""

from fractions import Fraction

from . import _kernel_py as _k
from .plmap import PLHomeo


def fixed_structure(h):
    """(intervals, signs) of _kernel_py.fixed_structure, on kernel pairs."""
    if not isinstance(h, PLHomeo):
        raise TypeError("fixed-point structure needs an increasing homeomorphism")
    return _k.fixed_structure(h._kbps)


def fixed_intervals(h):
    """Maximal closed intervals of fixed points, as (left, right) pairs.

    Degenerate intervals (left == right) are isolated fixed points. 0 and 1
    are always fixed, so the list starts at 0 and ends at 1.
    """
    return [(Fraction(*a), Fraction(*b)) for a, b in fixed_structure(h)[0]]


def signature(h):
    """Signs of h - id on the gaps between consecutive fixed intervals."""
    return fixed_structure(h)[1]


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

    Such a w maps Fix(f) onto Fix(g) in order, so each fixed interval onto
    one of the same kind (a point or not) and each gap onto a gap of the
    same sign; conversely, equal kinds and signs give a w gap by gap. So
    the structure word, the kinds interleaved with the signs, is a complete
    invariant, and this is a finite comparison of its two parts.
    """
    return _structure_word(f) == _structure_word(g)


def _structure_word(h):
    """(each fixed interval's kind, True for a point; the gap signs)."""
    ivs, signs = fixed_structure(h)
    return [a == b for a, b in ivs], signs


def signature_to_string(signs):
    """Sign list as a compact string, e.g. [1, -1, 1] -> "+-+"."""
    return "".join("+" if s > 0 else "-" for s in signs)
