"""Finite surrogates for infinite sequences, and the kinds that build them.

A `SequenceSpec` wraps a generator ``index -> value`` (1-based) and the
metadata that declares its limit behaviour; the caller chooses the
horizon, how many terms are sampled.  The spec claims no order: a check
that needs a monotone sequence tests the order of its samples.  Nothing is
inferred from the samples beyond the metadata: a tail, `Periodic` (period 1
where the sequence stabilizes), read only by `declared_cycle`, which
refuses one that the window contradicts, or a `DeclaredLimit` value of the
terms' type; `declared_limit` reads a limit from either.

Each kind is built by one constructor, which makes its generator, its
declaration and its witnesses (forms that are functions of a kind exactly
when every term is) from the same arguments, and refuses with a
ValidationError an argument that would make the declaration false:

  listed(terms, "explicit")     Periodic(first index of the final run, 1)
  listed(terms, "alternating")  Periodic(1, least period of the list)
  geometric(base, bump, ratio)  base + ratio^n * bump, |ratio| < 1: limit base,
                                or Periodic(1, 1) if the ratio or bump is 0
  truncation_ladder(f)          f truncated at n: limit f, or Periodic(max(1,
                                ceil(max f)), 1) if f is finite
  scaled_index(shape)           n * shape: limit infinity on its support and 0
                                off it, or Periodic(1, 1) if the shape is 0

A list of any terms is continued past its end by `cycled` (`from_terms` is
an explicit list); the other kinds take and make `over_one_den` forms.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Any, Callable, List, Optional, Sequence

from .errors import MAX_EPSILON_EXPONENT, CertificationError, Frozen, ValidationError
from .rationals import format_rational

DEFAULT_HORIZON = 64

# Default certification schedule for gaps against the order unit.
DEFAULT_EPSILONS = (
    Fraction(1, 2**4),
    Fraction(1, 2**8),
    Fraction(1, 2**12),
    Fraction(1, 2**16),
)


def epsilon_schedule(epsilons: Optional[Sequence[Fraction]] = None) -> tuple:
    """The gap schedule `epsilons` as a tuple, `DEFAULT_EPSILONS` when None.

    The one rule for a schedule, read by `scenarios.RunConfig` and by every
    check that takes one.  A ValidationError refuses an empty schedule
    (it would certify every limit), a value that is not an int or a
    Fraction, and an epsilon below 2^-MAX_EPSILON_EXPONENT, so any that is
    not positive."""
    if epsilons is None:
        return DEFAULT_EPSILONS
    schedule, smallest = tuple(epsilons), Fraction(1, 2**MAX_EPSILON_EXPONENT)
    if not schedule:
        raise ValidationError("empty epsilon schedule")
    for eps in schedule:
        # bool is a subclass of int, but `True` is not an epsilon
        if isinstance(eps, bool) or not isinstance(eps, (int, Fraction)):
            raise ValidationError(f"epsilon must be an int or a Fraction, got {eps!r}")
        if eps < smallest:
            raise ValidationError(f"epsilon below 2^-{MAX_EPSILON_EXPONENT} in the schedule")
    return schedule


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


class Periodic(Frozen):
    """From 1-based term `index` on, term n + `period` equals term n; a
    period of 1 declares the sequence constant from term `index` on."""

    __slots__ = ("index", "period")


class DeclaredLimit(Frozen):
    """The sequence converges to this value, of its terms' type (a function
    may be infinite at some points)."""

    __slots__ = ("value",)


def check_horizon(horizon) -> int:
    """`horizon`, when it is a positive integer; otherwise a ValidationError.

    The one rule for a horizon, read by `SequenceSpec.sample` and by
    `scenarios.RunConfig`, which also caps it."""
    # bool is a subclass of int, but `True` is not a horizon
    if isinstance(horizon, bool) or not isinstance(horizon, int) or horizon < 1:
        raise ValidationError(f"horizon must be a positive integer, got {horizon!r}")
    return horizon


class SequenceSpec:
    """Lazily evaluated 1-indexed sequence; a raw spec's metadata is its caller's claim."""

    __slots__ = ("generator", "metadata", "_memo")

    def __init__(self, generator: Callable[[int], Any], *, metadata: Optional[object] = None):
        self.generator = generator
        self.metadata = metadata
        self._memo = {}

    def term(self, n: int):
        if n < 1:
            raise IndexError("sequence indices start at 1")
        if n not in self._memo:
            self._memo[n] = self.generator(n)
        return self._memo[n]

    def sample(self, horizon: Optional[int] = None) -> list:
        """Terms 1..horizon (`DEFAULT_HORIZON` when None); any other horizon
        that is not a positive integer is a ValidationError (`check_horizon`)."""
        h = check_horizon(DEFAULT_HORIZON if horizon is None else horizon)
        return [self.term(n) for n in range(1, h + 1)]


def cycled(terms: Sequence, tail: Periodic) -> Callable[[int], Any]:
    """Term n of `terms` (1-based) before `tail.index`, and from there on the
    term of the declared cycle, ``terms[index - 1 + (n - index) % period]``."""
    start, period = tail.index, tail.period
    return lambda n: terms[n - 1 if n < start else start - 1 + (n - start) % period]


def stable_from(terms: Sequence) -> Periodic:
    """The tail of `terms` with its final term repeating forever: period 1
    from the first index of the final run of equal terms, which is also
    where a check reports that a sampled window settles (its ``at``)."""
    return Periodic(1 + max((n for n, t in enumerate(terms, start=1) if t != terms[-1]),
                            default=0), 1)


def least_cycle(terms: Sequence) -> Periodic:
    """The tail of `terms` cycled forever: periodic from term 1, with the
    least period of the list, a divisor of its length."""
    size = len(terms)
    return Periodic(1, next(p for p in range(1, size + 1)
                            if size % p == 0 and terms[p:] == terms[:size - p]))


def listed(terms: Sequence, kind: str) -> tuple:
    """``(spec, terms)`` of a nonempty "explicit" or "alternating" list, `cycled`
    from the tail that its kind declares (`stable_from`, `least_cycle`)."""
    items = list(terms)
    if not items or kind not in ("explicit", "alternating"):
        raise ValidationError(f"a list needs terms and the kind explicit or alternating, "
                              f"got {len(items)} of kind {kind!r}")
    tail = (least_cycle if kind == "alternating" else stable_from)(items)
    return SequenceSpec(cycled(items, tail), metadata=tail), tuple(items)


def from_terms(terms: Sequence) -> SequenceSpec:
    """`listed(terms, "explicit")`; the horizon sampled is the caller's."""
    return listed(terms, "explicit")[0]


def geometric(base: tuple, bump: tuple, ratio: Fraction) -> tuple:
    """``(spec, witnesses)`` of ``base + ratio^n * bump``: terms 1 and 2 (their
    difference fixes the bump on each atom when the ratio is not 0, and every
    term is the base when it is) and the least value at each point,
    base + min(0, ratio * bump, ratio^2 * bump), 0 approached, not attained."""
    if abs(ratio) >= 1:
        raise ValidationError("geometric ratio must satisfy |ratio| < 1", {"key": "ratio"})
    if base[2] or bump[2]:
        raise ValidationError("geometric sequences need finite base and bump")
    if len(base[0]) != len(bump[0]):
        raise ValidationError("geometric base and bump differ in length")
    den = math.lcm(base[1], bump[1])
    b, h = ([n * (den // g[1]) for n in g[0]] for g in (base, bump))
    p, q = ratio.numerator, ratio.denominator

    def term(n):  # (b * q^n + h * p^n) / (den * q^n)
        pn, qn = p**n, q**n
        return tuple(x * qn + y * pn for x, y in zip(b, h)), den * qn, 0
    least = tuple(x * q * q + min(0, p * q * y, p * p * y) for x, y in zip(b, h))
    metadata = Periodic(1, 1) if p == 0 or not any(h) else DeclaredLimit(base)
    return SequenceSpec(term, metadata=metadata), (term(1), term(2), (least, den * q * q, 0))


def truncation_ladder(f: tuple) -> tuple:
    """``(spec, witnesses)`` of `f` truncated at level n: the rung above every
    finite value, which keeps them and makes infinity a value of its own."""
    nums, den, inf = f

    def rung(n):
        cap = n * den
        return tuple(cap if inf >> x & 1 else min(v, cap) for x, v in enumerate(nums)), den, 0
    # floor of the largest finite value; an infinite point's 0 changes
    # no level at or above 1.  A finite f is rung n from n >= max f on.
    metadata = DeclaredLimit(f) if inf else Periodic(max(1, -(-max(nums) // den)), 1)
    return SequenceSpec(rung, metadata=metadata), (rung(max(1, max(nums) // den + 1)),)


def scaled_index(shape: tuple) -> tuple:
    """``(spec, witnesses)`` of ``n * shape``: term 1, the shape, which has
    every term's sign and level sets."""
    nums, den, inf = shape
    if inf:
        raise ValidationError("scaled_index shape must be finite")

    def scaled(n):
        return tuple(n * v for v in nums), den, 0
    support = sum(1 << x for x, v in enumerate(nums) if v)
    metadata = DeclaredLimit(((0,) * len(nums), 1, support)) if support else Periodic(1, 1)
    return SequenceSpec(scaled, metadata=metadata), (scaled(1),)


def typed(seq: SequenceSpec, term: Callable, limit: Callable) -> SequenceSpec:
    """`seq` with its terms mapped by `term` (lazily), a declared limit by `limit`."""
    metadata, generator = seq.metadata, seq.generator
    if isinstance(metadata, DeclaredLimit):
        metadata = DeclaredLimit(limit(metadata.value))
    return SequenceSpec(lambda n: term(generator(n)), metadata=metadata)


def declared_cycle(seq: SequenceSpec, horizon: Optional[int]) -> tuple:
    """``(samples, preperiod, period)``: the terms of `seq` up to the horizon
    and the cycle its metadata declares, ``samples[preperiod:][:period]``.
    The one reader of a tail: a CertificationError refuses a sequence that
    declares no `Periodic` cycle, a horizon that ends before its first full
    cycle does, and a term past it that is not the term one period before."""
    samples, metadata = seq.sample(horizon), seq.metadata
    if (not isinstance(metadata, Periodic)
            or len(samples) < metadata.index - 1 + metadata.period):
        raise CertificationError(f"tail not certifiable within horizon {len(samples)}: "
                                 "it needs a declared cycle, sampled in full")
    pre, period = metadata.index - 1, metadata.period
    for n in range(pre + period, len(samples)):
        if samples[n] != samples[n - period]:
            raise CertificationError(f"declared cycle contradicted by term {n + 1}")
    return samples, pre, period


def declared_limit(seq: SequenceSpec, horizon: Optional[int]) -> tuple:
    """``(samples, limit)``: the terms of `seq` up to the horizon and the limit
    its metadata declares.  The one reader of a limit: a declared period of 1
    gives term `index`, read by `declared_cycle`, and `DeclaredLimit` its
    value, when that has the type of the terms.  One CertificationError
    refuses anything else."""
    metadata = seq.metadata
    if isinstance(metadata, Periodic) and metadata.period == 1:
        samples, pre, _ = declared_cycle(seq, horizon)
        return samples, samples[pre]
    samples = seq.sample(horizon)
    if isinstance(metadata, DeclaredLimit) and type(metadata.value) is type(samples[0]):
        return samples, metadata.value
    raise CertificationError("limit not certifiable: it needs a declared stabilization "
                             "or limit of its terms' type")
