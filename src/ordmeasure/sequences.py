"""Finite surrogates for infinite sequences.

A `SequenceSpec` wraps a generator ``index -> value`` (1-based) together
with a horizon, an optional monotonicity claim, and optional metadata about
the limit behaviour.  Every claim is certified at sampled indices before a
result that depends on it is produced; nothing is ever inferred from the
samples alone beyond what the metadata licenses.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Callable, List, Optional, Sequence

from .errors import CertificationError, Frozen, ValidationError
from .rationals import format_rational

DEFAULT_HORIZON = 64

# Default certification schedule for gaps against the order unit.
DEFAULT_EPSILONS = (
    Fraction(1, 2**4),
    Fraction(1, 2**8),
    Fraction(1, 2**12),
    Fraction(1, 2**16),
)


def certify_gaps(
    epsilons: Sequence[Fraction],
    count: int,
    probe: Callable[[Fraction], Callable[[int], bool]],
    message: str,
) -> List[dict]:
    """Certify a gap schedule against `count` sampled indices.

    ``probe(eps)`` returns the test of one 1-based index; it is called once
    per epsilon, so per-epsilon work (such as scaling the order unit) is
    done there.  The trail holds, for each epsilon, the first index whose
    test passes, as ``{"epsilon", "index"}``.  When no index passes,
    `CertificationError` is raised with ``message.format(eps=eps)``.
    """
    trail = []
    for eps in epsilons:
        reaches = probe(eps)
        index = next((i for i in range(1, count + 1) if reaches(i)), None)
        if index is None:
            raise CertificationError(message.format(eps=eps))
        trail.append({"epsilon": format_rational(eps), "index": index})
    return trail


class StabilizesAt(Frozen):
    """The sequence is constant from this index on."""

    __slots__ = ("index",)

    def __init__(self, index: int):
        object.__setattr__(self, "index", index)


class DeclaredLimit(Frozen):
    """The sequence converges to this value (certified by gap schedules)."""

    __slots__ = ("value",)

    def __init__(self, value):
        object.__setattr__(self, "value", value)


class DivergesToInfinity(Frozen):
    """The sequence is unbounded above (certified against a bound ladder)."""

    __slots__ = ()


Metadata = Optional[object]


def check_horizon(horizon) -> int:
    """`horizon`, when it is a positive integer; otherwise a ValidationError.

    The one rule for a horizon, read by `SequenceSpec.sample` and by
    `scenarios.RunConfig`, which also caps it."""
    # bool is a subclass of int, but `True` is not a horizon
    if isinstance(horizon, bool) or not isinstance(horizon, int) or horizon < 1:
        raise ValidationError(f"horizon must be a positive integer, got {horizon!r}")
    return horizon


class SequenceSpec:
    """Lazily evaluated 1-indexed sequence with declared behaviour."""

    __slots__ = ("generator", "horizon", "metadata", "monotonicity", "_memo")

    def __init__(self, generator: Callable[[int], Any], horizon: int = DEFAULT_HORIZON,
                 metadata: Metadata = None, monotonicity: str = "none"):
        self.generator = generator
        self.horizon = horizon
        self.metadata = metadata
        self.monotonicity = monotonicity  # increasing | decreasing | none
        self._memo = {}

    def term(self, n: int):
        if n < 1:
            raise IndexError("sequence indices start at 1")
        if n not in self._memo:
            self._memo[n] = self.generator(n)
        return self._memo[n]

    def sample(self, horizon: Optional[int] = None) -> list:
        """Terms 1..h: h is `horizon` when given, else the spec's own
        horizon, else `DEFAULT_HORIZON` when that is unset (0 or None).

        A horizon that is not a positive integer, given or the spec's own,
        is a ValidationError (`check_horizon`)."""
        h = check_horizon(horizon if horizon is not None
                          else self.horizon or DEFAULT_HORIZON)
        return [self.term(n) for n in range(1, h + 1)]


def constant_sequence(value, horizon: int = DEFAULT_HORIZON) -> SequenceSpec:
    return SequenceSpec(
        generator=lambda n: value,
        horizon=horizon,
        metadata=StabilizesAt(1),
        monotonicity="increasing",
    )


def repeat_last(terms: Sequence) -> Callable[[int], Any]:
    """Term n of `terms` (1-based), the final term repeating forever."""
    return lambda n: terms[min(n, len(terms)) - 1]


def from_terms(
    terms: list,
    horizon: int = DEFAULT_HORIZON,
    metadata: Metadata = None,
    monotonicity: str = "none",
) -> SequenceSpec:
    """Explicit sequence; the final term repeats forever past the list.

    Repeating the last term makes the infinite sequence well defined, so
    stabilization metadata is attached automatically when none is given.
    """
    if not terms:
        raise ValueError("explicit sequence needs at least one term")
    items = list(terms)
    if metadata is None:
        metadata = StabilizesAt(len(items))
    return SequenceSpec(repeat_last(items), horizon=max(horizon, len(items)),
                        metadata=metadata, monotonicity=monotonicity)


def detect_stable_tail(samples: list) -> Optional[int]:
    """Smallest 1-based index from which the sampled values are constant.

    Returns None when the last two samples differ (no evidence of
    stabilization within the sampled window).
    """
    if not samples:
        return None
    last = samples[-1]
    idx = len(samples)
    for i in range(len(samples) - 1, 0, -1):
        if samples[i - 1] == last:
            idx = i
        else:
            break
    if idx == len(samples) and len(samples) > 1:
        return None
    return idx


def detect_cycle(samples: list) -> Optional[tuple]:
    """Detect an eventually periodic pattern in the sampled window.

    Returns ``(preperiod, period)`` with 0-based preperiod, where
    ``samples[i + period] == samples[i]`` for all ``i >= preperiod``, and the
    window covers at least two full periods past the preperiod.  Returns
    None when no such pattern exists in the window.
    """
    n = len(samples)
    for period in range(1, n // 2 + 1):
        for pre in range(0, n - 2 * period + 1):
            if all(samples[i] == samples[i + period] for i in range(pre, n - period)):
                return pre, period
    return None
