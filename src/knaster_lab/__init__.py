"""Exact piecewise-linear interval dynamics and truncated Knaster continua.

Everything is computed in exact rational arithmetic: PL maps as canonical
breakpoint lists, tent maps and their block sums, conjugacy invariants and
synthesized conjugators, and certified distance bounds on finite
truncations of the universal Knaster continuum.
"""

from .plmap import (
    OpenPLMap,
    PLHomeo,
    PLMap,
    compose,
    degree,
    from_json_dict,
    identity,
    reflect,
    sup_dist,
    sup_dist_witness,
    to_json_dict,
)
from .rational import format_rational, parse_rational

__all__ = [
    "OpenPLMap",
    "PLHomeo",
    "PLMap",
    "compose",
    "degree",
    "format_rational",
    "from_json_dict",
    "identity",
    "parse_rational",
    "reflect",
    "sup_dist",
    "sup_dist_witness",
    "to_json_dict",
]
