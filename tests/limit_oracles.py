"""The supremum of an increasing sequence as it was decided before the one
certifier in `ordmeasure.extended`, kept as a test oracle.

`stable_tail_sup_increasing` also returns a constant sampled tail as the
supremum when the metadata declares nothing (or declares a limit); that
guess is exactly what the library no longer makes, so compare with it only
on sequences that never stabilize below their declared limit.

`detect_stable_tail`, the former ``sequences.detect_stable_tail``, is the
window guess that procedure read.

`repeat_last` and `cycling`, the former ``sequences.repeat_last`` and
``scenarios._cycling``, are the two generators that continued an explicit
and an alternating list past its end before `sequences.cycled` read the
list's declared tail.

`parsed_geometric`, `parsed_ladder` and `parsed_scaled_index` are the
generated kinds as the branches of the former ``scenarios._parse_sequence``
built them, before each kind moved into its `ordmeasure.sequences`
constructor: ``(generator, declaration, witnesses)`` on (nums, den, inf)
forms.

`ext_inf_finite_list`, the former ``extended.ext_inf_finite_list``, is the
infimum of a finite list in the extended space that Fatou's right-hand side
was computed by before `integral.fatou` folded `spaces.inf_pair` itself.
"""

import math
from fractions import Fraction
from typing import Any, Callable, Optional, Sequence, Union

import ordmeasure as om
from ordmeasure.errors import CertificationError
from ordmeasure.sequences import (
    DEFAULT_EPSILONS,
    DeclaredLimit,
    Periodic,
    SequenceSpec,
)
from ordmeasure.spaces import (Element, NoSupremum, add, inf_pair, leq, order_unit, scale,
                               require_same_space)


def repeat_last(terms: Sequence) -> Callable[[int], Any]:
    """Term n of `terms` (1-based), the final term repeating forever."""
    return lambda n: terms[min(n, len(terms)) - 1]


def cycling(terms: Sequence) -> Callable[[int], Any]:
    """Term n of `terms` (1-based), the whole list cycling forever."""
    return lambda n: terms[(n - 1) % len(terms)]


def parsed_geometric(base: tuple, bump: tuple, ratio: Fraction) -> tuple:
    """``base + ratio^n * bump`` on finite forms, with |ratio| < 1."""
    den = math.lcm(base[1], bump[1])
    b = [n * (den // base[1]) for n in base[0]]
    h = [n * (den // bump[1]) for n in bump[0]]
    p, q = ratio.numerator, ratio.denominator

    def geometric(n):  # (b * q^n + h * p^n) / (den * q^n)
        pn, qn = p**n, q**n
        return tuple(x * qn + y * pn for x, y in zip(b, h)), den * qn, 0
    least = tuple(x * q * q + min(0, p * q * y, p * p * y) for x, y in zip(b, h))
    metadata = Periodic(1, 1) if p == 0 or not any(h) else DeclaredLimit(base)
    return geometric, metadata, (geometric(1), geometric(2), (least, den * q * q, 0))


def parsed_ladder(f: tuple) -> tuple:
    """`f` truncated at level n."""
    nums, den, inf = f

    def rung(n):
        cap = n * den
        return tuple(cap if inf >> x & 1 else min(v, cap)
                     for x, v in enumerate(nums)), den, 0
    metadata = DeclaredLimit(f) if inf else Periodic(max(1, -(-max(nums) // den)), 1)
    return rung, metadata, (rung(max(1, max(nums) // den + 1)),)


def parsed_scaled_index(shape: tuple) -> tuple:
    """``n * shape`` on a finite form."""
    nums, den, _ = shape
    ground = len(nums)

    def scaled(n):
        return tuple(n * v for v in nums), den, 0
    support = om.points_to_mask(x for x, v in enumerate(nums) if v)
    metadata = DeclaredLimit(((0,) * ground, 1, support)) if support else Periodic(1, 1)
    return scaled, metadata, (scaled(1),)


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


def stable_tail_sup_increasing(
    seq: SequenceSpec,
    horizon: Optional[int] = None,
    epsilons: Optional[Sequence[Fraction]] = None,
) -> Optional[Element]:
    """Supremum of an increasing sequence of elements, certified from samples.

    The sequence is validated to be increasing at every index up to the
    horizon.  The result is

    * the stabilized value, when the sampled tail is constant;
    * the declared limit L, when the spec carries one and both
      ``seq(n) <= L`` (all samples) and, for each epsilon of the schedule,
      ``L <= seq(n) + epsilon * unit`` at some sample are verified;
    * None otherwise, where the procedure reported the gap it could not close.
    """
    epsilons = list(epsilons) if epsilons is not None else list(DEFAULT_EPSILONS)
    terms = seq.sample(horizon)
    horizon = len(terms)
    space = terms[0].space
    unit = order_unit(space)

    for n in range(1, horizon):
        if not leq(terms[n - 1], terms[n]):
            raise CertificationError(
                f"monotonicity violation: term {n} > term {n + 1}"
            )

    stable_at = detect_stable_tail(terms)
    if isinstance(seq.metadata, Periodic) and seq.metadata.period == 1:
        k = seq.metadata.index
        if k <= horizon and all(terms[n] == terms[k - 1] for n in range(k - 1, horizon)):
            return terms[k - 1]
        raise CertificationError(f"sequence does not stabilize at declared index {k}")
    if stable_at is not None and stable_at < horizon:
        return terms[stable_at - 1]

    if isinstance(seq.metadata, DeclaredLimit):
        limit = seq.metadata.value
        if not isinstance(limit, Element):
            raise CertificationError("declared limit must be a finite element here")
        for n, t in enumerate(terms, start=1):
            if not leq(t, limit):
                raise CertificationError(
                    f"declared limit is not an upper bound at n={n}"
                )
        # The terms increase, so if any term comes within eps of the limit,
        # the last one does.
        for eps in epsilons:
            if not leq(limit, add(terms[-1], scale(eps, unit))):
                raise CertificationError(
                    f"gap {eps} to declared limit not reached within horizon {horizon}"
                )
        return limit
    return None


def ext_inf_finite_list(items: Sequence[om.ExtElement]) -> Union[om.ExtElement, NoSupremum]:
    """Infimum in the extended space: infinite entries are discarded unless
    the whole collection is infinite."""
    if not items:
        raise ValueError("infimum of an empty collection is undefined")
    space = items[0].space
    for item in items:
        require_same_space(items[0], item)
    finite_items = [item.finite for item in items if item.is_finite]
    if not finite_items:
        return om.infinity(space)
    current = finite_items[0]
    for el in finite_items[1:]:
        nxt = inf_pair(current, el)
        if isinstance(nxt, NoSupremum):
            return nxt
        current = nxt
    return om.finite(current)
