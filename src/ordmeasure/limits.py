"""Suprema and limits of sequences of elements, certified from their samples.

The library API of the paper's sigma-monotone completeness on its own:
the supremum of an increasing sequence of elements (`sup_increasing`), of
a list or sequence in the extended space (`ext_sup`), and the exact limit
inferior and superior of a lattice-valued sequence (`ext_liminf_limsup`).
Every declared limit is decided by `extended.certify_monotone_limit`, in the
direction the samples show; the limits of a sequence that declares its
cycle (`sequences.declared_cycle`) are the lattice infimum and supremum of
that cycle, folded by `spaces.inf_pair` and `spaces.sup_pair` as Fatou's
lemma folds its cycle's integrals.  No scenario check and no CLI command
uses this module, so none of them loads it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from typing import Optional, Sequence, Union

from . import spaces
from .errors import CertificationError, Frozen
from .extended import ExtElement, certify_monotone_limit, finite, infinity
from .sequences import (
    DEFAULT_EPSILONS,
    DeclaredLimit,
    DivergesToInfinity,
    SequenceSpec,
    StabilizesAt,
    declared_cycle,
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


def _as_ext(value) -> ExtElement:
    return value if isinstance(value, ExtElement) else finite(value)


def _declared_limit(seq: SequenceSpec, terms: Sequence[ExtElement]) -> Optional[ExtElement]:
    """The limit of `seq` that its sampled `terms` and metadata declare.

    An infinite term or `DivergesToInfinity` declares the point at
    infinity, `StabilizesAt(k)` declares term k and `DeclaredLimit` its
    value.  Otherwise nothing is declared and the result is None: a
    constant sampled tail is not a limit.
    """
    metadata = seq.metadata
    if isinstance(metadata, DivergesToInfinity) or any(t.is_infinite for t in terms):
        return infinity(terms[0].space)
    if isinstance(metadata, StabilizesAt):
        return _as_ext(seq.term(metadata.index))
    if isinstance(metadata, DeclaredLimit):
        if not isinstance(metadata.value, (Element, ExtElement)):
            raise CertificationError("declared limit must be an element")
        return _as_ext(metadata.value)
    return None


def _sequence_sup(seq: SequenceSpec, terms: Sequence[ExtElement],
                  epsilons: Optional[Sequence[Fraction]],
                  bound: Optional[Element] = None) -> Union[ExtElement, GapReport]:
    """The certified declared limit of the increasing `terms` of `seq`, or a
    `GapReport` on the last term when nothing is declared."""
    target = _declared_limit(seq, terms)
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
    one is given.  The supremum is the limit the metadata declares, certified
    by `certify_monotone_limit`: an element, or the point at infinity for a
    certified divergence.  With nothing declared the result is a `GapReport`.
    """
    terms = seq.sample(horizon)
    if bound is not None:
        for n, t in enumerate(terms, start=1):
            if not spaces.leq(t, bound):
                raise CertificationError(f"bound violated at n={n}")
    result = _sequence_sup(seq, [finite(t) for t in terms], epsilons, bound)
    if isinstance(result, ExtElement) and result.is_finite:
        return result.finite
    return result


def ext_sup(
    items: Union[Sequence[ExtElement], SequenceSpec],
    horizon: Optional[int] = None,
    epsilons: Optional[Sequence[Fraction]] = None,
) -> Union[ExtElement, NoSupremum, GapReport]:
    """Supremum in the extended space of a finite list or an increasing sequence.

    The supremum of a sequence is the limit its metadata or an infinite term
    declares, certified by `certify_monotone_limit`, or a `GapReport` when
    nothing is declared.
    """
    if not isinstance(items, SequenceSpec):
        return ext_sup_finite_list(list(items))
    return _sequence_sup(items, items.sample(horizon), epsilons)


def ext_liminf_limsup(
    seq: SequenceSpec, horizon: Optional[int] = None
) -> tuple:
    """Exact (liminf, limsup) of an order-bounded lattice-valued sequence.

    Requires a lattice backend (tail infima and suprema must exist).  A
    sequence that declares its limit must be monotone: increasing when its
    first sample is below its last, decreasing otherwise, which
    `certify_monotone_limit` certifies with the limit.  Any other sequence
    must declare its cycle, sampled in full (`declared_cycle`), so the
    tails are exactly computable from that cycle.
    """
    terms = seq.sample(horizon)
    space = terms[0].space
    if not space.is_lattice:
        raise CertificationError(
            "liminf/limsup needs a lattice backend; "
            f"{space.describe()} is not sigma-Dedekind complete"
        )

    if isinstance(seq.metadata, DeclaredLimit):
        ext_terms = [finite(t) for t in terms]
        target = _declared_limit(seq, ext_terms)
        if target.is_infinite:
            raise CertificationError("liminf/limsup needs an order-bounded sequence")
        certify_monotone_limit(ext_terms, target, DEFAULT_EPSILONS,
                               spaces.leq(terms[0], terms[-1]))
        return target.finite, target.finite

    _, pre, period = declared_cycle(seq, horizon)
    cycle_vals = terms[pre : pre + period]
    return reduce(spaces.inf_pair, cycle_vals), reduce(spaces.sup_pair, cycle_vals)
