"""Typed piecewise-linear maps of the unit interval.

Three public classes:

- ``PLMap``: continuous PL function [0,1] -> [0,1], stored as canonical
  breakpoints (no collinear interior points). Two maps are equal exactly
  when their canonical breakpoint lists are equal.
- ``PLHomeo``: strictly increasing PLMap fixing 0 and 1.
- ``OpenPLMap``: open continuous surjection [0,1] -> [0,1]. Openness for a
  PL map means: no flat segments, both endpoint values in {0,1}, and the
  value at every interior slope sign change in {0,1}. Together these force
  the image to be all of [0,1] and the map to fold through full laps.

All arithmetic is exact; floats never enter. The heavy lifting happens on a
flat integer representation in ``_kernel_py``, and that list of kernel
pairs is all a map keeps: ``breakpoints`` and ``laps()`` are Fraction
views built on each read, and ``repr`` and the JSON writer format the
pairs themselves.
"""

from fractions import Fraction

from . import _kernel_py as _k
from .rational import format_pair, parse_rational

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _to_kernel(points):
    """Kernel breakpoints of (x, y) points; ints and Fractions are read as
    they are, anything else (a "p/q" string, a float) goes through Fraction."""
    out = []
    for x, y in points:
        if type(x) is not int and type(x) is not Fraction:
            x = Fraction(x)
        if type(y) is not int and type(y) is not Fraction:
            y = Fraction(y)
        out.append((x.numerator, x.denominator, y.numerator, y.denominator))
    return out


class PLMap:
    """Continuous piecewise-linear function [0,1] -> [0,1]."""

    __slots__ = ("_kbps",)

    def __init__(self, points):
        kb = _to_kernel(points)
        if len(kb) < 2:
            raise ValueError("need at least two breakpoints")
        for i in range(1, len(kb)):
            if kb[i - 1][0] * kb[i][1] >= kb[i][0] * kb[i - 1][1]:
                raise ValueError("breakpoint x coordinates must strictly increase")
        if (kb[0][0], kb[0][1]) != (0, 1) or (kb[-1][0], kb[-1][1]) != (1, 1):
            raise ValueError("domain must be exactly [0,1]")
        for p in kb:
            if p[2] < 0 or p[2] > p[3]:
                raise ValueError("values must lie in [0,1]")
        self._kbps = _k.canonical(kb)
        self._check()

    def _check(self):
        pass

    @classmethod
    def _from_kernel(cls, kbps):
        """Trusted constructor: kbps already canonical and invariant-true."""
        obj = object.__new__(cls)
        obj._kbps = kbps
        return obj

    @property
    def breakpoints(self):
        """Canonical breakpoints as a tuple of (x, y) Fraction pairs, built
        on each read."""
        return tuple(
            (Fraction(p[0], p[1]), Fraction(p[2], p[3])) for p in self._kbps
        )

    def __call__(self, x):
        xf = Fraction(x)
        if xf < _ZERO or xf > _ONE:
            raise ValueError(f"point {xf} outside [0,1]")
        n, d = _k.eval_at(self._kbps, (xf.numerator, xf.denominator))
        return Fraction(n, d)

    def __eq__(self, other):
        if not isinstance(other, PLMap):
            return NotImplemented
        return self._kbps == other._kbps

    def __hash__(self):
        return hash(tuple(self._kbps))

    def __repr__(self):
        pts = ", ".join(
            f"({format_pair(xn, xd)}, {format_pair(yn, yd)})"
            for xn, xd, yn, yd in self._kbps
        )
        return f"{type(self).__name__}([{pts}])"


class PLHomeo(PLMap):
    """Strictly increasing PL self-homeomorphism of [0,1] fixing 0 and 1."""

    __slots__ = ()

    def _check(self):
        kb = self._kbps
        if (kb[0][2], kb[0][3]) != (0, 1) or (kb[-1][2], kb[-1][3]) != (1, 1):
            raise ValueError("homeomorphism must fix 0 and 1")
        for i in range(1, len(kb)):
            if kb[i - 1][2] * kb[i][3] >= kb[i][2] * kb[i - 1][3]:
                raise ValueError("homeomorphism values must strictly increase")

    def invert(self):
        return PLHomeo._from_kernel(_k.invert(self._kbps))

    def preimage(self, y):
        """The unique x with self(x) == y; y outside [0,1] is a ValueError."""
        return self.invert()(y)


class OpenPLMap(PLMap):
    """Open PL surjection of [0,1]: full laps folded through 0 and 1."""

    __slots__ = ()

    def _check(self):
        kb = self._kbps
        if kb[0][2] * (kb[0][3] - kb[0][2]) != 0:
            raise ValueError("open map must send 0 to 0 or 1")
        if kb[-1][2] * (kb[-1][3] - kb[-1][2]) != 0:
            raise ValueError("open map must send 1 to 0 or 1")
        prev_sign = 0
        for i in range(1, len(kb)):
            dy = kb[i][2] * kb[i - 1][3] - kb[i - 1][2] * kb[i][3]
            sign = (dy > 0) - (dy < 0)
            if sign == 0:
                raise ValueError("open map cannot have flat segments")
            if prev_sign and sign != prev_sign:
                v = kb[i - 1]
                if v[2] != 0 and v[2] != v[3]:
                    raise ValueError(
                        "open map must turn only at values 0 or 1"
                    )
            prev_sign = sign

    @property
    def degree(self):
        """Number of monotone laps."""
        return len(self._laps())

    def laps(self):
        """Maximal monotone pieces, as (left_x, right_x, rising) triples."""
        return [(Fraction(*a), Fraction(*b), up) for a, b, up in self._laps()]

    def _laps(self):
        """laps() with each end as a kernel pair (n, d)."""
        kb = self._kbps
        out = []
        start = (0, 1)
        prev_sign = 0
        for i in range(1, len(kb)):
            dy = kb[i][2] * kb[i - 1][3] - kb[i - 1][2] * kb[i][3]
            sign = 1 if dy > 0 else -1
            if prev_sign and sign != prev_sign:
                turn = kb[i - 1][:2]
                out.append((start, turn, prev_sign > 0))
                start = turn
            prev_sign = sign
        out.append((start, (1, 1), prev_sign > 0))
        return out


def identity():
    """The identity homeomorphism."""
    return PLHomeo._from_kernel([(0, 1, 0, 1), (1, 1, 1, 1)])


def _result_class(f, g):
    if isinstance(f, PLHomeo) and isinstance(g, PLHomeo):
        return PLHomeo
    if isinstance(f, (PLHomeo, OpenPLMap)) and isinstance(g, (PLHomeo, OpenPLMap)):
        return OpenPLMap
    return PLMap


def compose(f, g):
    """f after g. Homeo∘homeo stays a homeo, open∘open stays open."""
    kb = _k.compose(f._kbps, g._kbps)
    return _result_class(f, g)._from_kernel(kb)


def sup_dist(f, g):
    """Exact sup over [0,1] of |f - g|."""
    dn, dd, _, _ = _k.sup_diff(f._kbps, g._kbps)
    return Fraction(dn, dd)


def sup_dist_witness(f, g):
    """(sup |f - g|, leftmost point attaining it)."""
    dn, dd, wn, wd = _k.sup_diff(f._kbps, g._kbps)
    return Fraction(dn, dd), Fraction(wn, wd)


def reflect(f):
    """Conjugate by x -> 1-x: returns the map x -> 1 - f(1-x), same class."""
    kb = _k.affine_image(f._kbps, (-1, 1), (1, 1), (-1, 1), (1, 1))
    return type(f)._from_kernel(kb)


def degree(f):
    """Lap count of an open map; 1 for a homeomorphism."""
    if isinstance(f, PLHomeo):
        return 1
    if isinstance(f, OpenPLMap):
        return f.degree
    raise TypeError("degree is defined for open maps and homeomorphisms")


# JSON kinds, most specific first: a PLHomeo is also a PLMap
_KINDS = {"homeo": PLHomeo, "open": OpenPLMap, "plmap": PLMap}


def to_json_dict(f):
    kind = next(k for k, cls in _KINDS.items() if isinstance(f, cls))
    return {
        "kind": kind,
        "breakpoints": [
            [format_pair(xn, xd), format_pair(yn, yd)] for xn, xd, yn, yd in f._kbps
        ],
    }


def from_json_dict(data):
    """The map of a to_json_dict object; any other shape is a ValueError."""
    bps = data.get("breakpoints") if isinstance(data, dict) else None
    if not isinstance(bps, list) or any(type(p) is not list or len(p) != 2 for p in bps):
        raise ValueError("a map is an object whose 'breakpoints' is a list of [x, y]")
    kind = data.get("kind", "plmap")
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ValueError(f"unknown map kind {kind!r}")
    return _KINDS[kind]([(parse_rational(x), parse_rational(y)) for x, y in bps])
