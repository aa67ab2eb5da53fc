"""The order integral over finite ground sets, with double-entry oracles.

A function is integer numerators over one denominator, with a bitmask of
its infinite points.  Its integral is computed two ways on that form
(`_core`): a closed form folding f(atom) * mu(atom) one atom at a time, and
the supremum of the canonical ladder of truncations, each rung one integer
row summed on the measure's atom table.  The routes share no summation
code, each settles 0 * inf itself, and they must agree exactly on the
value, a row of `extended`: the checks compute on rows, and an element is
built only for a value that a report prints.  The parts that `dct` and the
signed integral (`_signed_row`) integrate (|f|, f+, f-, the shifted parts,
|t - f|) are integer transforms of a function's numerators.  Whether a
signed function is integrable (`is_integrable`: a finite integral of |f|)
is asked once per function, where the API or a check states it
(`integrate_signed`, `dct` and `l1_quotient`), and `_signed_row` trusts
that answer.  `truncate` and `integrate_elementary` build and integrate
rungs as elementary functions for the tests.

The monotone and dominated convergence theorems and the Fatou inequality
are certified checks on what a sequence declares: Fatou reads its cycle
(`declared_cycle`), and `mct`, `mct_decreasing` and `dct` its limit
(`declared_limit`), which must be f exactly off the null points (infinite
where the terms diverge).  Each check compares its sampled functions on
one integer table (`_columns`), and `_certify_convergence` certifies that
the samples reach f at each point: against an epsilon schedule in
multiples of the order unit where f is finite, and on the ladder of bounds
of `extended.certify_divergence` where it is infinite; the monotone checks
then certify their integral rows with `extended.certify_monotone_limit`.
Each check returns `reports.verdict`; an unmet hypothesis raises
`HypothesisError` (`NotIntegrableError` for an L^1 statement) and an
uncertifiable claim `CertificationError`, which `reports.refused` reports.
The laws of the integral and its other structure checks are in
`ordmeasure.integral_checks`.
"""

from __future__ import annotations

import math
from functools import partial, reduce
from itertools import accumulate, repeat
from operator import add, mul, sub
from typing import Dict, Optional, Sequence, Tuple

from . import extended, spaces
from .errors import (CertificationError, Frozen, HypothesisError, NotIntegrableError,
                     OrdMeasureError, ValidationError)
from .extended import (ExtElement, certify_divergence, certify_monotone_limit, ext_add,
                       ext_leq, ext_scale, ext_to_json, ext_zero, from_row)
from .measures import MeasurableSpace, Measure, mask_to_points, points_to_mask
from .rationals import INFINITY, format_pair, over_one_den
from .reports import CheckResult, verdict, word
from .sequences import (SequenceSpec, certify_gaps, declared_cycle, declared_limit,
                        epsilon_schedule, stable_from)
from .spaces import (Element, SpaceDescriptor, canonical, reals, row_add, row_eq,
                     row_lattice, row_leq, row_sub, scaled_unit)


def _check_level_sets(f: "_PointFunction"):
    """Measurability: every sublevel set of the range lands in the algebra.

    That holds exactly when the function is constant on each atom, which is
    tested first, on the numerators and the infinite points; the sublevel
    sets are swept only to name one that fails.
    """
    space, nums = f.space, f.nums
    if f.inf in space and all(nums[x] == nums[points[0]]
                              for points in space.atom_points.values()
                              for x in points[1:]):
        return
    # Each finite level r is swept below r, then up to r (below r + 1 on
    # the integers); infinity is swept last, below it lie the finite points.
    finite = [(x, n) for x, n in enumerate(nums) if not f.inf >> x & 1]
    sweeps = [(format_pair(r, f.den), r + closed)
              for r in dict.fromkeys(n for _, n in finite) for closed in (0, 1)]
    for level, bound in sweeps + [("infinity", None)]:
        mask = points_to_mask(x for x, n in finite if bound is None or n < bound)
        if mask not in space:
            raise ValidationError(
                f"function is not measurable: level set for {level} is not in the algebra",
                witness={"level": level, "set": mask_to_points(mask)},
            )


def _trusted(cls, space: MeasurableSpace, nums: tuple, den: int, inf: int = 0):
    """The trusted constructor of `ExtFunction` and `SignedFunction` from a
    canonical form (`spaces.canonical`), unchecked: only for functions derived
    from validated ones in ways that keep them measurable (and nonnegative)."""
    return object.__new__(cls)._set(space, nums, den, inf)


def _pos(n: int) -> int:
    return n if n > 0 else 0


def _neg(n: int) -> int:
    return -n if n < 0 else 0


def _distance(x: int, y: int) -> int:
    return abs(x - y)


def _part(op, nums: tuple, den: int) -> tuple:
    """The canonical form of op(f) for f = nums / den, where `op` (abs, `_pos`
    or `_neg`) maps each numerator and commutes with positive scaling."""
    return canonical(tuple(map(op, nums)), den)


def _pointwise_part(op, f, g) -> tuple:
    """The canonical form of op(f(x), g(x)) for two finite functions on one
    space; `op` commutes with positive scaling, so it acts on the numerators
    over the common denominator."""
    if f.space is not g.space and f.space != g.space:
        raise ValidationError("functions live on different spaces")
    den = math.lcm(f.den, g.den)
    a, b = den // f.den, den // g.den
    return canonical(tuple(op(x * a, y * b) for x, y in zip(f.nums, g.nums)), den)


class _PointFunction(Frozen):
    """A function given by its value at each ground point of `space`: the
    integer numerators `nums` over one denominator `den`, in canonical form
    (``den > 0``, ``gcd(den, *nums) == 1``, as in `spaces.Element`), and the
    bitmask `inf` of the points where it is infinite (`nums` holds 0 there).
    ``values`` derives the Fraction and INFINITY tuple for the library API.
    """

    __slots__ = ("space", "nums", "den", "inf")

    def __init__(self, space: MeasurableSpace, values: tuple):
        nums, den, inf = over_one_den(values)  # a pair need not be in lowest terms
        self._set(space, *canonical(nums, den), inf)._validate()

    @classmethod
    def from_nums(cls, space: MeasurableSpace, nums: tuple, den: int, inf: int = 0):
        """The function with values nums[x] / den and infinity on the points of
        `inf` (see `_trusted`), validated as the constructor validates values."""
        fn = _trusted(cls, space, *canonical(nums, den), inf)
        fn._validate()
        return fn

    def _validate(self):  # `_check_values` is the subclass's test of its values
        if len(self.nums) != self.space.ground_size:
            raise ValidationError("function needs one value per ground point")
        self._check_values()
        _check_level_sets(self)

    @property
    def values(self) -> tuple:
        """The value at each point: a Fraction, or INFINITY."""
        from fractions import Fraction
        den, inf = self.den, self.inf
        return tuple(INFINITY if inf >> x & 1 else Fraction(n, den)
                     for x, n in enumerate(self.nums))


class ExtFunction(_PointFunction):
    """A measurable function into the extended nonnegative rationals."""

    __slots__ = ()

    def _check_values(self):
        for n in self.nums:
            if n < 0:
                raise ValidationError(
                    f"extended function value {format_pair(n, self.den)} is negative")

    def support_mask(self) -> int:
        return self.inf | points_to_mask(x for x, n in enumerate(self.nums) if n)


class SignedFunction(_PointFunction):
    """A measurable finite real-valued function (any sign)."""

    __slots__ = ()

    def _check_values(self):
        if self.inf:
            raise ValidationError("a signed function cannot take the value infinity")

    # Functions derived from measurable ones on one space are measurable
    # there, so they are built by the trusted constructor from the integer
    # part transforms the integrals of `integrate_signed` and `dct` read.
    def abs(self) -> ExtFunction:
        return _trusted(ExtFunction, self.space, *_part(abs, self.nums, self.den))

    def sup_with(self, other: "SignedFunction") -> "SignedFunction":
        return _trusted(SignedFunction, self.space, *_pointwise_part(max, self, other))

    def inf_with(self, other: "SignedFunction") -> "SignedFunction":
        return _trusted(SignedFunction, self.space, *_pointwise_part(min, self, other))


def ext_function(space: MeasurableSpace, values: Sequence) -> ExtFunction:
    return ExtFunction(space, tuple(values))


def signed_function(space: MeasurableSpace, values: Sequence) -> SignedFunction:
    return SignedFunction(space, tuple(values))


class ElementaryFunction(Frozen):
    """A finite nonnegative combination of indicators of measurable sets:
    `terms` are (integer numerator >= 0, bitmask) pairs over the denominator
    `den`."""

    __slots__ = ("space", "terms", "den")

    def __init__(self, space: MeasurableSpace, terms: tuple):
        """`terms` are (Fraction coefficient >= 0, bitmask) pairs."""
        for coeff, mask in terms:
            if coeff < 0:
                raise ValidationError("elementary coefficients must be >= 0")
            space.require_measurable(mask, "representation set")
        den = math.lcm(*(c.denominator for c, _ in terms))
        self._set(space, tuple((c.numerator * (den // c.denominator), mask)
                               for c, mask in terms), den)

    def dense_values(self) -> tuple:
        """The value at each point, as Fractions."""
        from fractions import Fraction
        out = [0] * self.space.ground_size
        for num, mask in self.terms:
            for x in mask_to_points(mask):
                out[x] += num
        return tuple(Fraction(n, self.den) for n in out)


def truncate(f: ExtFunction, level: int) -> ElementaryFunction:
    """The ladder rung f /\\ level as an elementary function, which the ladder
    sums as an integer row (`_rung_row`) instead: one term per atom where it
    is positive, read at the atom's first point (`f` is validated, so it is
    constant on atoms), min(num, level * den) over f's denominator, reduced
    by one gcd and built without checks."""
    cap, nums, inf = level * f.den, f.nums, f.inf
    terms = []
    for atom, points in f.space.atom_points.items():
        x = points[0]
        v = cap if inf >> x & 1 else min(nums[x], cap)
        if v:
            terms.append((v, atom))
    g = math.gcd(f.den, *(v for v, _ in terms))
    if g != 1:
        terms = [(v // g, atom) for v, atom in terms]
    return object.__new__(ElementaryFunction)._set(f.space, tuple(terms), f.den // g)


def _require_space(f, mu: Measure):
    if f.space is not mu.space and f.space != mu.space:
        raise ValidationError("function and measure live on different spaces")


def integrate_elementary(phi: ElementaryFunction, mu: Measure) -> ExtElement:
    """Integral of an elementary function, recomputed from its dense values
    on the atoms, so independent of its representation, with the extended
    scalar action (`ext_scale`) settling 0 * inf."""
    _require_space(phi, mu)
    dense = phi.dense_values()
    total = ext_zero(mu.backend)
    for atom in mu.space.atoms:
        v = dense[mask_to_points(atom)[0]]
        total = ext_add(total, ext_scale(v, mu.atom_values[atom]))
    return total


def _closed_form(nums: tuple, den: int, inf: int, mu: Measure) -> Optional[tuple]:
    """The closed form of the integral of f, with numerators nums over den
    and infinite on the points of `inf`: the sum over the atoms of
    f(atom) * mu(atom) as a canonical integer value (nums, den), or None for
    infinity.  It folds from zero one atom at a time, on the numerators of
    the atom values in `mu.atom_values`: a term over the running
    denominator is added as it is, and otherwise the sum and the term are
    brought over the lcm of their denominators.  f's denominator joins at
    the end, before one gcd.  0 * inf = 0 both ways round: an infinite value
    on a null atom and a zero value on an atom of infinite measure add
    nothing, and any other infinite factor makes the integral infinite."""
    acc, acc_den = [0] * mu.backend.ncoords, 1
    for atom, points in mu.space.atom_points.items():
        x, value = points[0], mu.atom_values[atom].finite
        if inf >> x & 1:
            if value is None or any(value.nums):
                return None
            continue
        v = nums[x]
        if not v:
            continue
        if value is None:
            return None
        d = value.den
        if d != acc_den:  # the sum and the term over the lcm of their denominators
            g = math.gcd(acc_den, d)
            acc, v = list(map(mul, acc, repeat(d // g))), v * (acc_den // g)
            acc_den = acc_den // g * d
        acc = list(map(add, acc, map(mul, value.nums, repeat(v))))
    return canonical(tuple(acc), acc_den * den)


def _ladder_scan(nums: tuple, den: int, inf: int, table) -> Tuple[list, set]:
    """One pass over `table` (`Measure.atom_table`) for the ladder of f
    (numerators nums over den, infinite on `inf`), read at each atom's first
    point: the pairs (v, row) that `_rung_row` sums, one for each atom where
    f is positive (v its numerator, None where f is infinite), and the break
    levels of `_ladder_supremum` but nstar + 1: 1, and floor(v) and ceil(v)
    when at least 1 for every positive finite value v.  A validated f is
    constant on atoms, so its values there are all its values, and a zero
    value adds no level."""
    terms, values = [], set()
    for x, row in table:
        if inf >> x & 1:
            terms.append((None, row))
        elif nums[x]:
            terms.append((nums[x], row))
            values.add(nums[x])
    return terms, {1}.union(k for v in values for k in (v // den, -(-v // den)) if k > 0)


def _rung_row(terms: list, level: int, den: int, width: int) -> Optional[list]:
    """The rung f /\\ level as one integer row over den times the table's
    denominator: the sum of min(v, level * den) * row over the `terms` of
    `_ladder_scan` (v None where f is infinite: the cap is its value).  None
    when a positive coefficient sits on an atom of infinite measure (row
    None); zero coefficients never reach it."""
    cap = level * den
    acc = [0] * width
    for v, row in terms:
        if row is None:
            return None
        acc = list(map(add, acc, map(mul, row, repeat(cap if v is None or v > cap else v))))
    return acc


def _ladder_supremum(nums: tuple, den: int, inf: int, mu: Measure
                     ) -> Tuple[Optional[tuple], dict]:
    """Supremum of the truncation-ladder integrals of f (numerators nums over
    den, infinite on `inf`), decided exactly: a canonical integer value
    (nums, den) or None for infinity, and the ladder's trail.

    Only the break levels are evaluated: 1, nstar = max(1, ceil(top)),
    nstar + 1, and floor(v) and ceil(v) (when at least 1) for every finite
    value v of f.  No value lies strictly between consecutive break levels
    a < b unless b = a + 1, so on the integers of [a, b] the rung integrals
    are A + n * D, and the rise (b - a) * D is positive exactly when every
    unit rise D in [a, b] is: consecutive break levels test every pair of
    the full ladder, with O(distinct values) rungs instead of O(top).

    Past the largest finite value the rungs only add the measure of the
    infinity set: equal rungs at nstar and nstar + 1 mean the ladder has
    stabilized, and otherwise a fixed positive increment makes it unbounded
    (Archimedean), so the supremum is infinity.  A positive value on an atom
    of infinite measure makes every rung infinite, so it shows at level 1.
    One scan of the measure's atom table (`_ladder_scan`) gives the rung
    terms and the levels; each rung is one integer row over one denominator
    (`_rung_row`), and consecutive rungs are ordered by
    `spaces.is_positive_row` on their difference.
    """
    table_den, table = mu.atom_table
    terms, levels = _ladder_scan(nums, den, inf, table)
    nstar = max(levels)
    levels.add(nstar + 1)
    backend, width = mu.backend, mu.backend.ncoords
    previous = rung = None
    for n in sorted(levels):
        previous, rung = rung, _rung_row(terms, n, den, width)
        if rung is None:
            return None, {"mode": "infinite-rung", "at_level": n}
        if previous is not None and not spaces.is_positive_row(
                backend, list(map(sub, rung, previous))):
            raise OrdMeasureError("ladder integrals failed to increase")
    if rung == previous:
        return canonical(tuple(rung), den * table_den), {"mode": "stabilized",
                                                         "at_level": nstar}
    return None, {"mode": "divergent", "increment_from_level": nstar}


class IntegralReport(Frozen):
    """Value of an order integral, on which both routes agree, plus the
    ladder's trail."""

    __slots__ = ("value", "trail")


def _core(mu: Measure, nums: tuple, den: int, inf: int = 0) -> list:
    """The two-route integral on `mu` of the canonical form (nums, den, inf):
    the closed form and the ladder must agree exactly on its row (`extended`).
    Both run once per distinct form: ``mu.integral_memo`` keeps ``[row, trail,
    report]``, the report built by `integrate_extended` on first use.  Callers
    check the space (`_require_space`)."""
    key = (nums, den, inf)
    entry = mu.integral_memo.get(key)
    if entry is None:
        closed = _closed_form(nums, den, inf, mu)
        ladder, trail = _ladder_supremum(nums, den, inf, mu)
        if closed != ladder:
            raise OrdMeasureError(
                f"integral routes disagree: closed form {closed!r} vs ladder {ladder!r}")
        entry = mu.integral_memo[key] = [closed, trail, None]
    return entry


def _row(g, mu: Measure) -> Optional[tuple]:
    """The row of the integral of g, once its space is checked; no element."""
    _require_space(g, mu)
    return _core(mu, g.nums, g.den, g.inf)[0]


def integrate_extended(f: ExtFunction, mu: Measure) -> IntegralReport:
    """Order integral of an extended-nonnegative measurable function, once
    its space is checked: the value and trail of `_core` on its canonical
    form, with one element and one report per distinct form."""
    _require_space(f, mu)
    entry = _core(mu, f.nums, f.den, f.inf)
    if entry[2] is None:  # by position, Frozen's fast path
        entry[2] = IntegralReport(extended.from_row(mu.backend, entry[0]), entry[1])
    return entry[2]


def integral_value(f: ExtFunction, mu: Measure) -> ExtElement:
    return integrate_extended(f, mu).value


def is_integrable(f: SignedFunction, mu: Measure) -> bool:
    _require_space(f, mu)
    return _core(mu, *_part(abs, f.nums, f.den))[0] is not None


def _shifted_parts(space: MeasurableSpace, nums: tuple, den: int) -> Tuple[tuple, tuple]:
    """The canonical forms of f + c * s and c * s for f = nums / den, with s
    the indicator of the support of f and c = floor(max |f|) + 1, the least
    integer above every |f(x)|: constant on atoms, as f is, positive on the
    support and zero off it.  c * s is an integer form, so functions with
    one support and one floor(max |f|) share its integral (`_core`'s memo)."""
    space.require_measurable(points_to_mask(x for x, n in enumerate(nums) if n), "support")
    c = (max(map(abs, nums), default=0) // den + 1) * den  # c * den
    return (canonical(tuple(n + c if n else 0 for n in nums), den),
            canonical(tuple(c if n else 0 for n in nums), den))


def _signed_row(f: SignedFunction, mu: Measure) -> tuple:
    """Integral of a signed function that `is_integrable` admits (its caller
    asks, which checks the space too) as the row f+ - f-, verified against
    the shifted decomposition (f + c * s) - c * s (`_shifted_parts`).  Each
    part is an integer transform of f's numerators, not a function."""
    result = row_sub(_core(mu, *_part(_pos, f.nums, f.den))[0],
                     _core(mu, *_part(_neg, f.nums, f.den))[0])
    lhs, rhs = (_core(mu, *part)[0] for part in _shifted_parts(f.space, f.nums, f.den))
    if lhs is not None and rhs is not None and not row_eq(row_sub(lhs, rhs), result):
        raise OrdMeasureError("signed integral depends on the decomposition")
    return result


def integrate_signed(f: SignedFunction, mu: Measure) -> Element:
    """The integral of an integrable signed function, as an element: the
    row of `_signed_row`, once `is_integrable` admits f."""
    if not is_integrable(f, mu):
        raise NotIntegrableError("the function has an infinite |f| integral")
    return spaces._element(mu.backend, *_signed_row(f, mu))


def _columns(functions: Sequence, null: int) -> Tuple[int, list]:
    """One integer table of `functions` on one space, off the points of the
    bitmask `null`: `den`, the lcm of their denominators, and `live`, the
    pairs (x, col) of the other points x in order, where ``col[i]`` is the
    numerator of function i at x over den, or None where it is infinite."""
    den = math.lcm(*(g.den for g in functions))
    cols = zip(*([None if g.inf >> x & 1 else n * (den // g.den)
                  for x, n in enumerate(g.nums)] for g in functions))
    return den, [(x, col) for x, col in enumerate(cols) if not null >> x & 1]


def _precedes(a: Optional[int], b: Optional[int]) -> bool:
    """a <= b on two entries of a `_columns` table, where None is infinity."""
    return b is None or (a is not None and a <= b)


def _require_declared_limit(seq: SequenceSpec, horizon: Optional[int], f, mu: Measure):
    """The limit that `seq` declares (`declared_limit`) is f exactly off the
    null points; a CertificationError names the other points."""
    limit = declared_limit(seq, horizon)[1]
    bad = [x for x, (a, b) in _columns([limit, f], mu.null_mask)[1] if a != b]
    if bad:
        raise CertificationError(f"declared limit differs from f at non-null points {bad}")


def _certify_convergence(h: int, den: int, live: list, gap: str, epsilons):
    """Certificate that h samples converge to f, once their declared limit
    is f (`_require_declared_limit`): at each `live` point of a `_columns`
    table (the h samples, f, then any more columns) the samples reach f:
    where f is finite, within each epsilon from some index on ("<gap> <eps>
    at point <x> not certified" when none does), and where f is infinite,
    above each bound of the integrals' ladder (`certify_divergence`, on the
    reals)."""
    for x, col in live:
        values, target = col[:h], col[h]
        if target is not None:
            tail_max = list(accumulate(reversed([abs(s - target) for s in values]), max))[::-1]
            certify_gaps(epsilons, h,
                         lambda eps: lambda i: tail_max[i - 1] * eps[1] <= eps[0] * den,
                         f"{gap} {{eps}} at point {x} not certified")
        elif values[-1] is not None:  # so every sample is, once the order tests pass
            certify_divergence(reals(), [((v,), den) for v in values],
                               f"divergence at point {x} not certified against bound {{k}}")


def _monotone_convergence(name: str, mu: Measure, seq: SequenceSpec, f: ExtFunction,
                          horizon: Optional[int], epsilons, increasing: bool
                          ) -> CheckResult:
    """The monotone convergence theorem in the direction `increasing` names:
    integrals of a sequence increasing (decreasing) to f a.e. reach the
    integral of f; decreasing needs a finite first integral, tested first.
    The order tests read one `_columns` table of the terms and f: the terms'
    order, then, once the declared limit is f, the last sample against f; once
    they pass, the samples at a non-null point where f is finite are finite
    (below f, or below the first term) and their distances to f only shrink."""
    epsilons = epsilon_schedule(epsilons)
    terms = seq.sample(horizon)
    if not increasing and _row(terms[0], mu) is None:
        raise HypothesisError("decreasing convergence requires a finite first integral")
    direction = "increasing" if increasing else "decreasing"
    den, live = _columns(terms + [f], mu.null_mask)
    step = _precedes if increasing else (lambda a, b: _precedes(b, a))
    bad = [x for x, col in live if not all(map(step, col[:-2], col[1:-1]))]
    if bad:
        raise CertificationError(f"sequence not {direction} at non-null points {bad}")
    _require_declared_limit(seq, horizon, f, mu)
    bad = [x for x, col in live if not step(col[-2], col[-1])]  # the last sample decides
    if bad:
        crossing = "exceeds" if increasing else "dips below"
        raise CertificationError(f"sequence {crossing} the declared limit at non-null "
                                 f"points {bad}")
    _certify_convergence(len(terms), den, live, "pointwise gap", epsilons)

    values = [_row(t, mu) for t in terms]
    target = integral_value(f, mu)
    trail = certify_monotone_limit(mu.backend, values, _row(f, mu), epsilons, increasing)
    return verdict(name, True, limit_integral=ext_to_json(target), certification=trail)


def mct(mu: Measure, seq: SequenceSpec, f: ExtFunction,
        horizon: Optional[int] = None, epsilons=None) -> CheckResult:
    """Monotone convergence: integrals of an increasing sequence reach the
    integral of the almost-everywhere pointwise limit."""
    return _monotone_convergence("mct", mu, seq, f, horizon, epsilons, increasing=True)


def mct_decreasing(mu: Measure, seq: SequenceSpec, f: ExtFunction,
                   horizon: Optional[int] = None, epsilons=None) -> CheckResult:
    """Decreasing counterpart; requires the first integral to be finite."""
    return _monotone_convergence("mct_decreasing", mu, seq, f, horizon, epsilons,
                                 increasing=False)


def require_sigma_dedekind(backend: SpaceDescriptor, what: str):
    if not backend.is_sigma_dedekind_complete:
        raise HypothesisError(f"{what} requires a sigma-Dedekind complete lattice backend; "
                              f"{backend.describe()} is only monotone complete")


def fatou(mu: Measure, seq: SequenceSpec,
          horizon: Optional[int] = None) -> CheckResult:
    """Fatou inequality on a sequence of functions that declares its cycle
    (`declared_cycle`), both sides exact from that cycle: the pointwise limit
    inferior is the cycle minimum at each point, the right-hand side the
    infimum of its integrals."""
    require_sigma_dedekind(mu.backend, "the Fatou inequality")
    terms, pre, period = declared_cycle(seq, horizon)
    cycle_terms = terms[pre:pre + period]
    # Each point's least finite value over the cycle; infinite where every term is.
    den, live = _columns(cycle_terms, 0)
    mins = [min((v for v in col if v is not None), default=None) for _, col in live]
    liminf_f = ExtFunction.from_nums(
        mu.space, tuple(0 if m is None else m for m in mins), den,
        points_to_mask(x for x, m in enumerate(mins) if m is None))
    lhs = integral_value(liminf_f, mu)
    # The least integral over the cycle, on a lattice backend where the
    # infimum is coordinatewise; infinite only when every integral is.
    ints = [row for row in (_row(t, mu) for t in cycle_terms) if row is not None]
    rhs = from_row(mu.backend, reduce(partial(row_lattice, min), ints) if ints else None)
    ok = ext_leq(lhs, rhs)
    details = {"lhs": ext_to_json(lhs), "rhs": ext_to_json(rhs), "strict": lhs != rhs,
               "cycle": {"preperiod": pre, "period": period}}
    return verdict("fatou", ok, **details)


def dct(mu: Measure, seq: SequenceSpec, f: SignedFunction, g: ExtFunction,
        horizon: Optional[int] = None, epsilons=None) -> CheckResult:
    """Dominated convergence: all four conclusions, certified.  Requires a
    dominating function with finite integral and a sequence that declares
    f as its limit off the null points (`declared_limit`: a stabilization,
    or a declared limit whose integral deviations decrease).  Stabilizing
    sequences give exact equalities; otherwise each conclusion is certified
    down the epsilon schedule."""
    require_sigma_dedekind(mu.backend, "dominated convergence")
    epsilons = epsilon_schedule(epsilons)
    terms = seq.sample(horizon)

    if _row(g, mu) is None:
        raise HypothesisError("the dominating function must have a finite integral")
    den, live = _columns(terms + [f, g], mu.null_mask)
    # |t(x)| <= g(x) off the null points, where g is finite, as its integral is
    violation = min(((n, x) for x, (*samples, _, bound) in live
                     for n, s in enumerate(samples, start=1) if abs(s) > bound),
                    default=None)
    if violation is not None:
        raise HypothesisError("domination violated at index {}, point {}".format(*violation))
    _require_declared_limit(seq, horizon, f, mu)
    _certify_convergence(len(terms), den, live, "pointwise convergence gap", epsilons)

    part1 = all(is_integrable(t, mu) for t in terms)
    part2 = is_integrable(f, mu)
    details: Dict[str, object] = {
        "part1_terms_integrable": word(part1),
        "part2_limit_integrable": word(part2),
    }
    if not (part1 and part2):
        return verdict("dct", False, **details)

    deviations = [_core(mu, *_pointwise_part(_distance, t, f))[0] for t in terms]
    details["part3_deviation_infimum"] = word(True)
    f_int = _signed_row(f, mu)  # parts 1 and 2 admitted f and every term
    if all(not any(d[0]) for d in deviations[-2:]):  # the last two, or the one at horizon 1
        details["part3_mode"] = {"mode": "stabilized", "at": stable_from(deviations).index}
        part4 = row_eq(_signed_row(terms[-1], mu), f_int)
        details["part4_sandwich"] = word(part4)
        if not part4:
            return verdict("dct", False, **details)
        details["part4_mode"] = {"mode": "stabilized"}
    else:
        if not all(row_leq(mu.backend, a, b) for a, b in zip(deviations[1:], deviations)):
            raise CertificationError(
                "integral deviations are not decreasing; tails not certifiable")

        def deviation_probe(eps):
            bound = scaled_unit(mu.backend, eps)
            return lambda i: row_leq(mu.backend, deviations[i - 1], bound)

        gaps = certify_gaps(epsilons, len(deviations), deviation_probe,
                            "deviation gap {eps} not certified")
        details["part3_mode"] = {"mode": "gap-certified", "gaps": gaps}
        # Inf and sup of every tail window, each in one backward pass.
        backward = [_signed_row(t, mu) for t in reversed(terms)]
        window_infs, window_sups = (list(accumulate(backward, partial(row_lattice, op)))[::-1]
                                    for op in (min, max))

        def sandwich_probe(eps):
            bump = scaled_unit(mu.backend, eps)
            lower, upper = row_sub(f_int, bump), row_add(f_int, bump)
            return lambda i: (row_leq(mu.backend, lower, window_infs[i - 1])
                              and row_leq(mu.backend, window_sups[i - 1], upper))

        gaps = certify_gaps(epsilons, len(terms), sandwich_probe,
                            "sandwich gap {eps} not certified")
        details["part4_sandwich"] = word(True)
        details["part4_mode"] = {"mode": "gap-certified", "gaps": gaps}
    details["limit_integral"] = ext_to_json(from_row(mu.backend, f_int))
    return verdict("dct", True, **details)
