"""Exact rational scalars.

Scalars are ``fractions.Fraction``: arbitrary precision, always lowest
terms, positive denominator. The helpers here pin the text format used by
the CLI and the JSON files to the strict form ``"p/q"`` (or ``"p"`` for
integers) so serialized output round-trips exactly, at any size: CPython's
limit on integer string conversion (4300 digits by default) is lifted for
the one conversion that exceeds it. format_pair writes a kernel pair
(n, d) in that form without building a Fraction. parse_int reads the
integers of flags and JSON files by the same rule: ASCII digits only.
"""

import sys
from fractions import Fraction
from math import gcd


def _int_text(convert, value):
    """convert(value) between int and str, at any number of digits.

    If CPython's digit limit refuses the conversion, it is lifted for one
    retry and restored afterwards. Pythons without the limit never refuse.
    """
    try:
        return convert(value)
    except ValueError:
        if not hasattr(sys, "set_int_max_str_digits"):
            raise
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return convert(value)
    finally:
        sys.set_int_max_str_digits(limit)


def parse_rational(text):
    """Parse "p/q" or "p" with optional sign. Whitespace around is allowed."""
    return Fraction(*_parse_terms(text))


def parse_rational_pair(text):
    """parse_rational as a pair (n, d) in lowest terms with d > 0.

    It refuses what parse_rational refuses, and builds no Fraction.
    """
    n, d = _parse_terms(text)
    if d < 0:
        n, d = -n, -d
    g = gcd(n, d)
    return n // g, d // g


def _parse_terms(text):
    """The integers p and q of "p/q", or p and 1 of "p"; q is never 0."""
    if not isinstance(text, str):
        raise ValueError(f"not a rational literal: {text!r}")
    s = text.strip()
    if "/" in s:
        num, _, den = s.partition("/")
        num = num.strip()
        den = den.strip()
        if not _is_int(num) or not _is_int(den):
            raise ValueError(f"not a rational literal: {text!r}")
        d = _int_text(int, den)
        if d == 0:
            raise ValueError(f"zero denominator: {text!r}")
        return _int_text(int, num), d
    if not _is_int(s):
        raise ValueError(f"not a rational literal: {text!r}")
    return _int_text(int, s), 1


def _is_int(s):
    if s and s[0] in "+-":
        s = s[1:]
    # ASCII only: str.isdigit also takes other scripts' digits and "²"
    return s.isascii() and s.isdigit()


def parse_int(value):
    """value as an int: an int that is no bool, or an ASCII decimal literal.

    A literal takes an optional sign and the whitespace around it that
    parse_rational allows. Anything else, a float or "1_0" or another
    script's digits, is a ValueError naming the value.
    """
    if type(value) is int:
        return value
    if isinstance(value, str) and _is_int(value.strip()):
        return _int_text(int, value.strip())
    raise ValueError(f"not an integer: {value!r}")


def format_pair(n, d):
    """The text of n/d, a pair in lowest terms with d > 0: "n/d", or "n"
    when d is 1."""
    text = _int_text(str, n)
    return text if d == 1 else f"{text}/{_int_text(str, d)}"


def format_rational(q):
    """Inverse of parse_rational: "p/q", or "p" when the denominator is 1."""
    q = Fraction(q)
    return format_pair(q.numerator, q.denominator)
