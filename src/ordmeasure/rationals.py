"""Exact scalars: rationals and the extended positive half line.

A scalar is read, computed and printed as a pair ``(num, den)`` of
integers in lowest terms with ``den > 0``: `parse_rational` reads one,
`format_pair` prints one, and a function's values are integer numerators
over one denominator (`over_one_den`).  The library API also takes ints
and `fractions.Fraction` instances, which `as_pair` reads; `fractions` is
imported only for such an argument and for the `Fraction` views that the
API returns (``Element.coords``, a function's ``values``), so a run of the
command line loads neither it nor `decimal`.  The extended positive half
line adjoins a single absorbing point `INFINITY`; the conventions for its
arithmetic are

    inf + r = inf,   r * inf = inf (r > 0),   0 * inf = 0,
    inf * 0 = 0,     inf * r = inf (r > 0),   inf * inf = inf,

and every scalar satisfies r <= inf.
"""

from __future__ import annotations

import json
import math
import re
import sys
from typing import Union

from .errors import DimensionLimitError, SchemaError


class _Infinity:
    """The adjoined top point of the extended positive half line."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "infinity"

    def __deepcopy__(self, memo):
        return self

    def __hash__(self):
        return hash("ordmeasure.infinity")


INFINITY = _Infinity()

ExtScalar = Union[tuple, int, "Fraction", _Infinity]


def is_infinite(r: ExtScalar) -> bool:
    return r is INFINITY


def is_fraction(r) -> bool:
    """Whether r is a `fractions.Fraction`, decided without importing
    `fractions`: no Fraction exists before that module is loaded."""
    fractions = sys.modules.get("fractions")
    return fractions is not None and isinstance(r, fractions.Fraction)


def as_pair(r) -> tuple:
    """The rational r as a pair ``(num, den)``, ``den > 0``: an int over 1, a
    pair as it is, and anything else (a Fraction, or what `Fraction` reads)
    as `Fraction(r)` reads it, importing `fractions` only for such a value.
    A tuple that is no such pair is a ValueError."""
    if isinstance(r, int):
        return int(r), 1  # True is 1
    if isinstance(r, tuple):
        if len(r) != 2 or r[1] <= 0:
            raise ValueError(f"a rational pair is (num, den) with den > 0, got {r!r}")
        return r
    if not is_fraction(r):
        from fractions import Fraction
        r = Fraction(r)
    return r.numerator, r.denominator


def lowest_terms(num: int, den: int) -> tuple:
    """num / den, for den > 0, as the pair in lowest terms, by one gcd."""
    g = math.gcd(num, den)
    return (num, den) if g == 1 else (num // g, den // g)


def over_one_den(values) -> tuple:
    """Scalars in lowest terms (pairs, ints or Fractions) or INFINITY as
    ``(nums, den, inf)``: numerators over the lcm of the denominators, in
    canonical form (``den > 0``, ``gcd(den, *nums) == 1``), and 0 at the
    points of the bitmask `inf`."""
    pairs = [None if v is INFINITY else as_pair(v) for v in values]
    den = math.lcm(*(d for _, d in filter(None, pairs)))
    nums = tuple(0 if p is None else p[0] * (den // p[1]) for p in pairs)
    return nums, den, sum(1 << x for x, p in enumerate(pairs) if p is None)


_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def parse_rational(text: str, path: str = "") -> tuple:
    """Parse "p/q" or "p" into the pair ``(num, den)`` in lowest terms;
    reject zero denominators.

    p is an optional minus sign and ASCII digits, q ASCII digits; nothing
    else is accepted (no sign on q, no spaces, underscores or other digits).
    A number of more digits than `int` converts is malformed.
    """
    if not isinstance(text, str):
        raise SchemaError(f"expected rational string, got {json.dumps(text, default=repr)}",
                          path)
    match = _RATIONAL.fullmatch(text)
    if match is None:
        raise SchemaError(f"malformed rational {text!r}", path)
    num, den = match.groups()
    try:
        num = int(num)
        if den is None:
            return num, 1
        den = int(den)
    except ValueError:  # more digits than int() converts
        raise SchemaError(f"malformed rational {text!r}", path) from None
    if not den:
        raise SchemaError(f"zero denominator in {text!r}", path)
    return lowest_terms(num, den)


def format_pair(num: int, den: int) -> str:
    """The text of num / den, for den > 0, in lowest terms: "p" or "p/q"."""
    num, den = lowest_terms(num, den)
    try:  # more digits than str() converts is a size-limit error
        return str(num) if den == 1 else f"{num}/{den}"
    except ValueError:
        raise DimensionLimitError("rational output limited to <= "
                                  f"{sys.get_int_max_str_digits()} digits") from None


def format_rational(q) -> str:
    """The text of an int or a Fraction q (`format_pair`)."""
    return format_pair(q.numerator, q.denominator)


def parse_ext_scalar(value, path: str = "") -> ExtScalar:
    if value == "infinity":
        return INFINITY
    return parse_rational(value, path)
