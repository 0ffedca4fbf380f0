"""Exact rational scalars.

Scalars are ``fractions.Fraction``: arbitrary precision, always lowest
terms, positive denominator. The helpers here pin the text format used by
the CLI and the JSON files to the strict form ``"p/q"`` (or ``"p"`` for
integers) so serialized output round-trips exactly.
"""

from fractions import Fraction


def parse_rational(text):
    """Parse "p/q" or "p" with optional sign. Whitespace around is allowed."""
    s = text.strip()
    if "/" in s:
        num, _, den = s.partition("/")
        num = num.strip()
        den = den.strip()
        if not _is_int(num) or not _is_int(den):
            raise ValueError(f"not a rational literal: {text!r}")
        d = int(den)
        if d == 0:
            raise ValueError(f"zero denominator: {text!r}")
        return Fraction(int(num), d)
    if not _is_int(s):
        raise ValueError(f"not a rational literal: {text!r}")
    return Fraction(int(s))


def _is_int(s):
    if s and s[0] in "+-":
        s = s[1:]
    return s.isdigit()


def format_rational(q):
    """Inverse of parse_rational: "p/q", or "p" when the denominator is 1."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"
