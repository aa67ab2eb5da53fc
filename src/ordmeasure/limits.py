"""Suprema and limits of sequences of elements, certified from their samples.

The library API of the paper's sigma-monotone completeness on its own:
the supremum of an increasing sequence of elements (`sup_increasing`), of
a list or sequence in the extended space (`ext_sup`), and the exact limit
inferior and superior of a lattice-valued sequence (`ext_liminf_limsup`).
Every limit a sequence declares is read by `sequences.declared_limit`, and
certified by `extended.certify_monotone_limit` in the direction the samples
show; the limits of a sequence that declares its cycle
(`sequences.declared_cycle`) are the lattice infimum and supremum of that
cycle, folded by `spaces.inf_pair` and `spaces.sup_pair` as Fatou's lemma
folds its cycle's integrals.  No scenario check and no CLI command uses
this module, so none of them loads it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from typing import Callable, Optional, Sequence, Union

from . import spaces
from .errors import CertificationError, Frozen
from .extended import ExtElement, certify_monotone_limit, finite, infinity
from .rationals import INFINITY
from .sequences import (
    DEFAULT_EPSILONS,
    SequenceSpec,
    declared_cycle,
    declared_limit,
    epsilon_schedule,
)
from .spaces import Element, NoSupremum


class GapReport(Frozen):
    """Residual evidence when a sequence supremum cannot be certified."""

    __slots__ = ("horizon", "last_value", "bound", "residual", "message")
    _defaults = {"bound": None, "residual": None,
                 "message": "no limit declared; samples alone certify none"}


def ext_sup_finite_list(items: Sequence[ExtElement]) -> Union[ExtElement, NoSupremum]:
    """Supremum of a nonempty finite set in the extended space."""
    if not items:
        raise ValueError("supremum of an empty collection is undefined")
    space = items[0].space
    for item in items:
        spaces.require_same_space(items[0], item)
    if any(item.is_infinite for item in items):
        return infinity(space)
    current = items[0].finite
    for item in items[1:]:
        nxt = spaces.sup_pair(current, item.finite)
        if isinstance(nxt, NoSupremum):
            return nxt
        current = nxt
    return finite(current)


def _sequence_sup(seq: SequenceSpec, horizon: Optional[int],
                  epsilons: Optional[Sequence[Fraction]], lift: Callable,
                  bound: Optional[Element] = None) -> Union[ExtElement, GapReport]:
    """The certified limit of the increasing samples of `seq`, each made an
    extended element by `lift`: the limit it declares (`declared_limit`), or
    a `GapReport` on the last sample when it declares nothing."""
    terms, target = [lift(t) for t in seq.sample(horizon)], None
    if seq.metadata is not None:
        _, limit = declared_limit(seq, horizon)
        target = infinity(terms[0].space) if limit is INFINITY else lift(limit)
    certify_monotone_limit(terms, target, epsilon_schedule(epsilons))
    if target is not None:
        return target
    last = terms[-1].finite
    residual = spaces.sub(bound, last) if bound is not None else None
    return GapReport(len(terms), last, bound, residual)


def sup_increasing(
    seq: SequenceSpec,
    bound: Optional[Element] = None,
    horizon: Optional[int] = None,
    epsilons: Optional[Sequence[Fraction]] = None,
) -> Union[Element, ExtElement, GapReport]:
    """Supremum of an increasing sequence of elements, certified from samples.

    The terms up to the horizon must increase, and stay below `bound` when
    one is given.  The supremum is the limit the sequence declares
    (`declared_limit`), certified by `certify_monotone_limit`: an element,
    or the point at infinity for a certified divergence.  With nothing
    declared the result is a `GapReport`.
    """
    if bound is not None:
        for n, t in enumerate(seq.sample(horizon), start=1):
            if not spaces.leq(t, bound):
                raise CertificationError(f"bound violated at n={n}")
    result = _sequence_sup(seq, horizon, epsilons, finite, bound)
    if isinstance(result, ExtElement) and result.is_finite:
        return result.finite
    return result


def ext_sup(
    items: Union[Sequence[ExtElement], SequenceSpec],
    horizon: Optional[int] = None,
    epsilons: Optional[Sequence[Fraction]] = None,
) -> Union[ExtElement, NoSupremum, GapReport]:
    """Supremum in the extended space of a finite list or an increasing sequence.

    The supremum of a sequence is the limit it declares (`declared_limit`),
    certified by `certify_monotone_limit`, or a `GapReport` when nothing is
    declared.
    """
    if not isinstance(items, SequenceSpec):
        return ext_sup_finite_list(list(items))
    return _sequence_sup(items, horizon, epsilons, lambda t: t)


def ext_liminf_limsup(
    seq: SequenceSpec, horizon: Optional[int] = None
) -> tuple:
    """Exact (liminf, limsup) of an order-bounded lattice-valued sequence.

    Requires a lattice backend (tail infima and suprema must exist).  A
    sequence that declares its cycle, sampled in full (`declared_cycle`),
    has tails exactly computable from that cycle.  Any other sequence must
    declare a finite limit (`declared_limit`) and be monotone: increasing
    when its first sample is below its last, decreasing otherwise, which
    `certify_monotone_limit` certifies with the limit.
    """
    terms = seq.sample(horizon)
    space = terms[0].space
    if not space.is_lattice:
        raise CertificationError(
            "liminf/limsup needs a lattice backend; "
            f"{space.describe()} is not sigma-Dedekind complete"
        )

    try:
        _, pre, period = declared_cycle(seq, horizon)
    except CertificationError:
        _, limit = declared_limit(seq, horizon)
        if limit is INFINITY:
            raise CertificationError("liminf/limsup needs an order-bounded sequence")
        certify_monotone_limit([finite(t) for t in terms], finite(limit), DEFAULT_EPSILONS,
                               spaces.leq(terms[0], terms[-1]))
        return limit, limit
    cycle_vals = terms[pre : pre + period]
    return reduce(spaces.inf_pair, cycle_vals), reduce(spaces.sup_pair, cycle_vals)
