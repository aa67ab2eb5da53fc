"""Exact scalars: rationals and the extended positive half line.

Scalars enter and leave the library as `fractions.Fraction` instances,
which are always in lowest terms with positive denominator; a function's
values are integer numerators over one denominator (`over_one_den`).  The
extended positive half line adjoins a single absorbing point `INFINITY`;
the conventions for its arithmetic are

    inf + r = inf,   r * inf = inf (r > 0),   0 * inf = 0,
    inf * 0 = 0,     inf * r = inf (r > 0),   inf * inf = inf,

and every scalar satisfies r <= inf.
"""

from __future__ import annotations

import json
import math
import re
import sys
from fractions import Fraction
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

ExtScalar = Union[Fraction, _Infinity]


def is_infinite(r: ExtScalar) -> bool:
    return r is INFINITY


def over_one_den(values) -> tuple:
    """Fractions, ints or INFINITY as ``(nums, den, inf)``: numerators over
    the lcm of the denominators, in canonical form (``den > 0``,
    ``gcd(den, *nums) == 1``), and 0 at the points of the bitmask `inf`."""
    den = math.lcm(*(v.denominator for v in values if v is not INFINITY))
    nums = tuple(0 if v is INFINITY else v.numerator * (den // v.denominator)
                 for v in values)
    return nums, den, sum(1 << x for x, v in enumerate(values) if v is INFINITY)


_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def parse_rational(text: str, path: str = "") -> Fraction:
    """Parse "p/q" or "p" into an exact rational; reject zero denominators.

    p is an optional minus sign and ASCII digits, q ASCII digits; nothing
    else is accepted (no sign on q, no spaces, underscores or other digits).
    """
    if not isinstance(text, str):
        raise SchemaError(f"expected rational string, got {json.dumps(text, default=repr)}",
                          path)
    match = _RATIONAL.fullmatch(text)
    if match is None:
        raise SchemaError(f"malformed rational {text!r}", path)
    num, den = match.groups()
    try:
        return Fraction(int(num), int(den)) if den else Fraction(int(num))
    except ZeroDivisionError:
        raise SchemaError(f"zero denominator in {text!r}", path) from None
    except ValueError:  # more digits than int() converts
        raise SchemaError(f"malformed rational {text!r}", path) from None


def format_rational(q: Fraction) -> str:
    try:  # more digits than str() converts is a size-limit error
        return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
    except ValueError:
        raise DimensionLimitError("rational output limited to <= "
                                  f"{sys.get_int_max_str_digits()} digits") from None


def parse_ext_scalar(value, path: str = "") -> ExtScalar:
    if value == "infinity":
        return INFINITY
    return parse_rational(value, path)

