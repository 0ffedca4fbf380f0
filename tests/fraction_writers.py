"""The writers and lap loop as they were when maps and stalks cached Fractions.

Each function below is the library's code before its writers read the
kernel pairs: the text of a map, a stalk or a certificate witness went
through the Fraction views (``breakpoints``, ``coords``), and laps() walked
the breakpoints building a Fraction at every turn. The bodies are kept as
they were, as the oracle that tests/test_plmap.py and tests/test_knaster.py
compare the pair writers against, output for output.
"""

from fractions import Fraction

from knaster_lab.plmap import OpenPLMap, PLHomeo
from knaster_lab.rational import _int_text


def format_rational(q):
    """Inverse of parse_rational: "p/q", or "p" when the denominator is 1."""
    q = Fraction(q)
    if q.denominator == 1:
        return _int_text(str, q.numerator)
    return f"{_int_text(str, q.numerator)}/{_int_text(str, q.denominator)}"


def map_repr(self):
    pts = ", ".join(
        f"({format_rational(x)}, {format_rational(y)})"
        for x, y in self.breakpoints
    )
    return f"{type(self).__name__}([{pts}])"


def to_json_dict(f):
    kind = (
        "homeo"
        if isinstance(f, PLHomeo)
        else "open" if isinstance(f, OpenPLMap) else "plmap"
    )
    return {
        "kind": kind,
        "breakpoints": [
            [format_rational(x), format_rational(y)] for x, y in f.breakpoints
        ],
    }


def laps(self):
    """Maximal monotone pieces, as (left_x, right_x, rising) triples."""
    kb = self._kbps
    out = []
    start = Fraction(0)
    prev_sign = 0
    for i in range(1, len(kb)):
        dy = kb[i][2] * kb[i - 1][3] - kb[i - 1][2] * kb[i][3]
        sign = 1 if dy > 0 else -1
        if prev_sign and sign != prev_sign:
            turn = Fraction(kb[i - 1][0], kb[i - 1][1])
            out.append((start, turn, prev_sign > 0))
            start = turn
        prev_sign = sign
    out.append((start, Fraction(1), prev_sign > 0))
    return out


def point_json_dict(self):
    return {"coords": [format_rational(c) for c in self.coords]}


def distance_json_dict(self):
    coords = self.witness.coords if self.witness is not None else ()
    return {
        "lower": format_rational(self.lower),
        "upper": format_rational(self.upper),
        "N": self.truncation,
        "witness": [format_rational(c) for c in coords],
    }
