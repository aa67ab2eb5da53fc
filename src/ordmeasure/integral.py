"""The order integral over finite ground sets, with double-entry oracles.

Extended-nonnegative measurable functions are integrated two ways: a
closed form over the atom partition using the extended scalar action, and
the supremum of the canonical elementary ladder of truncations.  The two
routes are independent implementations and must agree exactly; the ladder
is retained purely as an oracle against convention bugs (0 * inf versus
inf * 0).  Functions are integer numerators over one denominator.  The
closed form folds pairwise with `ext_scale` and `ext_add`, while each rung
is one integer row summed on the measure's atom table
(`Measure.atom_table`), so the routes share no summation code.
`truncate`, `ElementaryFunction` and `integrate_elementary` build and
integrate the rungs as elementary functions; the tests compare the ladder
with them.

The monotone and dominated convergence theorems and the Fatou inequality
are exercised as certified checks: stabilizing sequences give exact
equalities, declared limits are certified against an epsilon schedule
measured in multiples of the backend's order unit, and divergence is
certified against a ladder of bounds.  Each check compares its sampled
functions on one integer table (`_columns`: numerators over one lcm, None
where a value is infinite), and `mct`, `mct_decreasing` and `dct` certify
a finite pointwise limit by one function (`_certify_pointwise`).  The laws
of the integral and its other structure checks are in
`ordmeasure.integral_checks`.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import reduce
from itertools import accumulate
from typing import Dict, Optional, Sequence, Tuple

from . import extended, spaces
from .errors import (CertificationError, Frozen, HypothesisError, NotIntegrableError,
                     OrdMeasureError, ValidationError)
from .extended import (ExtElement, certify_monotone_limit, divergence_top, ext_add, ext_leq,
                       ext_scale, ext_to_json, ext_zero)
from .measures import MeasurableSpace, Measure, mask_to_points, points_to_mask
from .rationals import INFINITY, format_rational, is_infinite, over_one_den
from .reports import CheckResult, fails, holds
from .sequences import (DeclaredLimit, DivergesToInfinity, SequenceSpec, StabilizesAt,
                        certify_gaps, detect_cycle, detect_stable_tail, epsilon_schedule)
from .spaces import Element, SpaceDescriptor


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
    sweeps = [(format_rational(Fraction(r, f.den)), r + closed)
              for r in dict.fromkeys(n for _, n in finite) for closed in (0, 1)]
    for level, bound in sweeps + [("infinity", None)]:
        mask = points_to_mask(x for x, n in finite if bound is None or n < bound)
        if mask not in space:
            raise ValidationError(
                f"function is not measurable: level set for {level} is not in the algebra",
                witness={"level": level, "set": mask_to_points(mask)},
            )


def _trusted(cls, space: MeasurableSpace, nums: tuple, den: int, inf: int = 0):
    """The trusted constructor of `ExtFunction` and `SignedFunction`: nums
    over den, reduced by one gcd, infinite on `inf`, stored by `Frozen._set`
    unchecked.  Only for functions derived from validated ones on one space
    in ways that keep them measurable and, for the extended kind, nonnegative."""
    g = math.gcd(den, *nums)
    if g != 1:
        nums, den = tuple(n // g for n in nums), den // g
    return object.__new__(cls)._set(space, nums, den, inf)


def _pointwise(op, f, g) -> "SignedFunction":
    """The function op(f(x), g(x)) of two finite functions on one space; `op`
    commutes with scaling by a positive number, so it acts on the numerators
    over the common denominator."""
    if f.space is not g.space and f.space != g.space:
        raise ValidationError("functions live on different spaces")
    den = math.lcm(f.den, g.den)
    a, b = den // f.den, den // g.den
    return _trusted(SignedFunction, f.space,
                    tuple(op(x * a, y * b) for x, y in zip(f.nums, g.nums)), den)


class _PointFunction(Frozen):
    """A function given by its value at each ground point of `space`: the
    integer numerators `nums` over one denominator `den`, in canonical form
    (``den > 0``, ``gcd(den, *nums) == 1``, as in `spaces.Element`), and the
    bitmask `inf` of the points where it is infinite (`nums` holds 0 there).
    ``values`` derives the Fraction and INFINITY tuple.
    """

    __slots__ = ("space", "nums", "den", "inf")

    def __init__(self, space: MeasurableSpace, values: tuple):
        self._set(space, *over_one_den(values))._validate()

    @classmethod
    def from_nums(cls, space: MeasurableSpace, nums: tuple, den: int, inf: int = 0):
        """The function with values nums[x] / den and infinity on the points of
        `inf` (see `_trusted`), validated as the constructor validates values."""
        fn = _trusted(cls, space, nums, den, inf)
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
                    f"extended function value {Fraction(n, self.den)} is negative")

    def support_mask(self) -> int:
        return self.inf | points_to_mask(x for x, n in enumerate(self.nums) if n)


class SignedFunction(_PointFunction):
    """A measurable finite real-valued function (any sign)."""

    __slots__ = ()

    def _check_values(self):
        if self.inf:
            raise ValidationError("a signed function cannot take the value infinity")

    # Functions derived from measurable ones on one space are measurable
    # there, so they are built by the trusted constructor.
    def __add__(self, other: "SignedFunction") -> "SignedFunction":
        return _pointwise(operator.add, self, other)

    def __sub__(self, other: "SignedFunction") -> "SignedFunction":
        return _pointwise(operator.sub, self, other)

    def abs(self) -> ExtFunction:
        return _trusted(ExtFunction, self.space, tuple(map(abs, self.nums)), self.den)

    def pos_part(self) -> ExtFunction:
        return _trusted(ExtFunction, self.space,
                        tuple(max(n, 0) for n in self.nums), self.den)

    def neg_part(self) -> ExtFunction:
        return _trusted(ExtFunction, self.space,
                        tuple(max(-n, 0) for n in self.nums), self.den)

    def sup_with(self, other: "SignedFunction") -> "SignedFunction":
        return _pointwise(max, self, other)

    def inf_with(self, other: "SignedFunction") -> "SignedFunction":
        return _pointwise(min, self, other)


def ext_function(space: MeasurableSpace, values: Sequence) -> ExtFunction:
    coerced = tuple(v if is_infinite(v) else Fraction(v) for v in values)
    return ExtFunction(space, coerced)


def signed_function(space: MeasurableSpace, values: Sequence) -> SignedFunction:
    return SignedFunction(space, tuple(Fraction(v) for v in values))


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

    def dense_values(self) -> Tuple[Fraction, ...]:
        out = [0] * self.space.ground_size
        for num, mask in self.terms:
            for x in mask_to_points(mask):
                out[x] += num
        return tuple(Fraction(n, self.den) for n in out)


def truncate(f: ExtFunction, level: int) -> ElementaryFunction:
    """The canonical ladder rung f /\\ level (finite-valued, elementary),
    which the ladder itself sums as an integer row (`_rung_row`).

    One term per atom where the rung is positive, read from the atom's
    first point: `f` is validated, so it is constant on each atom.  The
    coefficient is min(num, level * den) over f's denominator, reduced by
    one gcd, and the rung is built without checks.
    """
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


def integrate_elementary(phi: ElementaryFunction, mu: Measure) -> ExtElement:
    """Integral of an elementary function, canonicalized to the atoms.

    The result does not depend on the representation: it is recomputed from
    the dense values on the atom partition, where the extended scalar action
    settles every convention (a coefficient of zero kills an infinite atom,
    a positive coefficient on an infinite atom gives infinity).
    """
    if phi.space != mu.space:
        raise ValidationError("function and measure live on different spaces")
    dense = phi.dense_values()
    total = ext_zero(mu.backend)
    for atom in mu.space.atoms:
        v = dense[mask_to_points(atom)[0]]
        total = ext_add(total, ext_scale(v, mu.atom_values[atom]))
    return total


def _closed_form_integral(f: ExtFunction, mu: Measure) -> ExtElement:
    """The pairwise fold of ext_scale(f(atom), mu(atom)) from the first
    atom's term, each finite value given to `ext_scale` as its numerator
    over f's denominator; zero when there are no atoms."""
    total = None
    for atom, points in mu.space.atom_points.items():
        x = points[0]
        v = INFINITY if f.inf >> x & 1 else f.nums[x]
        term = ext_scale(v, mu.atom_values[atom], f.den)
        total = term if total is None else ext_add(total, term)
    return ext_zero(mu.backend) if total is None else total


def _rung_terms(f: ExtFunction, table) -> list:
    """The pairs (v, row) that `_rung_row` sums, one for each atom of
    `table` (`Measure.atom_table`) where f is positive: f's numerator at the
    atom's first point, or None where f is infinite, and the atom's row."""
    nums, inf = f.nums, f.inf
    return [(None if inf >> x & 1 else nums[x], row)
            for x, row in table if inf >> x & 1 or nums[x]]


def _rung_row(terms: list, level: int, den: int, width: int) -> Optional[list]:
    """The rung f /\\ level of the ladder as one integer row: the sum of
    min(v, level * den) * row over the `terms` (v, row) of the atoms where f
    is positive, with v None where f is infinite (the cap is its value
    there).  `row` is the atom's value over the denominator of the
    measure's table (`Measure.atom_table`), so the sum is over den times
    that.  None when the rung is infinite: a positive coefficient on an atom
    of infinite measure (row None); zero coefficients never reach it."""
    cap = level * den
    acc = [0] * width
    for v, row in terms:
        if row is None:
            return None
        c = cap if v is None or v > cap else v
        acc = [a + c * r for a, r in zip(acc, row)]
    return acc


def _ladder_supremum(f: ExtFunction, mu: Measure) -> Tuple[ExtElement, dict]:
    """Supremum of the truncation-ladder integrals, decided exactly.

    Only the break levels are evaluated: 1, nstar = max(1, ceil(top)),
    nstar + 1, and floor(v) and ceil(v) (when at least 1, by integer division)
    for every finite value v of f, in increasing order.  No value of f lies
    strictly between two consecutive break levels a < b unless b = a + 1, so
    on the integers of [a, b] each min(v, n) is v throughout or n throughout,
    and the rung integrals are A + n * D there.  The rise from rung a to rung
    b is (b - a) * D, which is positive exactly when the unit rise D between
    any two neighbouring rungs in [a, b] is; testing consecutive break levels
    therefore tests every consecutive pair of the full ladder, with
    O(number of distinct values) rungs instead of O(top).

    Past the largest finite value of f the rungs only keep adding the total
    measure of the infinity set; if the rungs at nstar and nstar + 1 agree,
    the ladder has stabilized for good, and otherwise the increments are a
    fixed nonzero positive element, so the rungs are unbounded above by the
    Archimedean property and the supremum is the point at infinity.  A rung
    is infinite exactly when a positive value sits on an atom of infinite
    measure, at every level alike, so an infinite ladder shows at level 1.

    Each rung is one integer row over one denominator for the whole ladder
    (`_rung_row` on the measure's atom table), consecutive rungs are ordered
    by `spaces.is_positive_row` on their difference, and only the stabilized
    row becomes an element.  The closed form folds `ext_scale` and `ext_add`
    instead, so the two routes share no summation code.
    """
    if f.space is not mu.space and f.space != mu.space:
        raise ValidationError("function and measure live on different spaces")
    den, inf, nums = f.den, f.inf, f.nums
    table_den, table = mu.atom_table
    terms = _rung_terms(f, table)
    finite_nums = {n for x, n in enumerate(nums) if not inf >> x & 1}
    nstar = max(1, -(-max(finite_nums, default=0) // den))
    levels = {1, nstar, nstar + 1}
    levels.update(k for n in finite_nums for k in (n // den, -(-n // den)) if k >= 1)
    backend, width = mu.backend, mu.backend.ncoords
    previous = rung = None
    for n in sorted(levels):
        previous, rung = rung, _rung_row(terms, n, den, width)
        if rung is None:
            return extended.infinity(backend), {"mode": "infinite-rung", "at_level": n}
        if previous is not None and not spaces.is_positive_row(
                backend, [b - a for a, b in zip(previous, rung)]):
            raise OrdMeasureError("ladder integrals failed to increase")
    if rung == previous:
        return extended.finite(spaces._element(backend, tuple(rung), den * table_den)), {
            "mode": "stabilized", "at_level": nstar}
    return extended.infinity(backend), {
        "mode": "divergent", "increment_from_level": nstar}


class IntegralReport(Frozen):
    """Value of an order integral, on which both routes agree, plus the
    ladder's trail."""

    __slots__ = ("value", "trail")


def integrate_extended(f: ExtFunction, mu: Measure) -> IntegralReport:
    """Order integral of an extended-nonnegative measurable function.

    Computes the closed form over the atoms and, independently, the
    supremum of the canonical elementary ladder, and insists that they
    agree exactly.  Both routes run once per distinct function on `mu`:
    the report is kept in ``mu.integral_memo`` under the function's space
    and canonical integer form, and later calls for an equal function
    return it.  A function on another space never matches a key, so it
    still reaches the ladder's space check.
    """
    key = (f.space, f.nums, f.den, f.inf)
    report = mu.integral_memo.get(key)
    if report is None:
        closed = _closed_form_integral(f, mu)
        ladder, trail = _ladder_supremum(f, mu)
        if closed != ladder:
            raise OrdMeasureError(
                f"integral routes disagree: closed form {closed!r} vs ladder {ladder!r}"
            )
        report = IntegralReport(closed, trail)  # by position, Frozen's fast path
        mu.integral_memo[key] = report
    return report


def integral_value(f: ExtFunction, mu: Measure) -> ExtElement:
    return integrate_extended(f, mu).value


def is_integrable(f: SignedFunction, mu: Measure) -> bool:
    return integral_value(f.abs(), mu).is_finite


def _shifted_parts(f: SignedFunction) -> Tuple[ExtFunction, ExtFunction]:
    """f + c * s and c * s, where s is the indicator of the support of f and
    c exceeds every |f(x)|.  Both are constant on the atoms, as f and its
    support are, positive on the support and zero off it."""
    support = points_to_mask(x for x, n in enumerate(f.nums) if n)
    f.space.require_measurable(support, "support")
    c = max(map(abs, f.nums), default=0) + f.den  # c * den
    shifted = _trusted(ExtFunction, f.space, tuple(
        n + c if support >> x & 1 else n for x, n in enumerate(f.nums)), f.den)
    shift_only = _trusted(ExtFunction, f.space, tuple(
        c if support >> x & 1 else 0 for x in range(f.space.ground_size)), f.den)
    return shifted, shift_only


def integrate_signed(f: SignedFunction, mu: Measure) -> Element:
    """Integral of an integrable signed function via its two-sided parts.

    The positive/negative decomposition is the one used; independence of
    the decomposition is verified against the shifted decomposition
    f = (f + c * s) - c * s with s the indicator of the support of f.
    """
    total_abs = integral_value(f.abs(), mu)
    if not total_abs.is_finite:
        raise NotIntegrableError("the function has an infinite |f| integral")
    pos = integral_value(f.pos_part(), mu).payload()
    negv = integral_value(f.neg_part(), mu).payload()
    result = spaces.sub(pos, negv)

    shifted, shift_only = _shifted_parts(f)
    lhs = integral_value(shifted, mu)
    rhs = integral_value(shift_only, mu)
    if lhs.is_finite and rhs.is_finite:
        alt = spaces.sub(lhs.payload(), rhs.payload())
        if alt != result:
            raise OrdMeasureError("signed integral depends on the decomposition")
    return result


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


def _certify_pointwise(samples: list, target: int, den: int, epsilons, message: str):
    """Certificate that the finite `samples` at one point converge to the
    finite `target`, all numerators over den: for each epsilon, an index
    from which every distance to the target, that is the largest of them,
    is within it.  `message` takes ``{eps}``, as in `certify_gaps`."""
    if samples[-1] == target:
        return
    tail_max = list(accumulate(reversed([abs(s - target) for s in samples]), max))[::-1]
    certify_gaps(epsilons, len(samples),
                 lambda eps: lambda i: (tail_max[i - 1] * eps.denominator
                                        <= eps.numerator * den), message)


def _monotone_convergence(name: str, mu: Measure, seq: SequenceSpec, f: ExtFunction,
                          horizon: Optional[int], epsilons, increasing: bool
                          ) -> CheckResult:
    """The monotone convergence theorem in the direction `increasing` names:
    the integrals of a sequence that increases (decreases) to f almost
    everywhere reach the integral of f.  Decreasing needs a finite first
    integral, which is tested before the terms are.

    The order tests read one `_columns` table of the terms and f.  Once
    they pass, the samples at a non-null point where f is finite are finite
    (below f, or below the first term, whose integral is finite) and their
    distances to f only shrink."""
    epsilons = epsilon_schedule(epsilons)
    terms = seq.sample(horizon)
    if not increasing and not integral_value(terms[0], mu).is_finite:
        raise HypothesisError("decreasing convergence requires a finite first integral")
    direction = "increasing" if increasing else "decreasing"
    den, live = _columns(terms + [f], mu.null_mask)
    step = _precedes if increasing else (lambda a, b: _precedes(b, a))
    bad = [x for x, col in live if not all(map(step, col[:-2], col[1:-1]))]
    if bad:
        raise CertificationError(f"sequence not {direction} at non-null points {bad}")
    bad = [x for x, col in live if not step(col[-2], col[-1])]  # the last sample decides
    if bad:
        crossing = "exceeds" if increasing else "dips below"
        raise CertificationError(f"sequence {crossing} the declared limit at non-null "
                                 f"points {bad}")
    if increasing:
        declared = (StabilizesAt, DeclaredLimit, DivergesToInfinity)
        kinds = "stabilization, limit, or divergence"
    else:
        declared, kinds = (StabilizesAt, DeclaredLimit), "stabilization or limit"
    if not isinstance(seq.metadata, declared):
        raise CertificationError(f"pointwise convergence must be declared ({kinds})")
    for x, (*samples, target) in live:
        if target is not None:
            _certify_pointwise(samples, target, den, epsilons,
                               f"pointwise gap {{eps}} at point {x} not certified")
        elif samples[-1] is not None:
            # The bounds are those of the integrals' ladder, k = 1 .. top, and no
            # sample exceeds k exactly when the last, the largest, is at most k:
            # the first such k fails.
            k = max(1, -(-samples[-1] // den))
            if k <= divergence_top(len(samples)):
                raise CertificationError(
                    f"divergence at point {x} not certified against bound {k}")

    values = [integral_value(t, mu) for t in terms]
    target = integral_value(f, mu)
    trail = certify_monotone_limit(values, target, epsilons, increasing,
                                   prefix="integral ")
    return holds(name, limit_integral=ext_to_json(target), certification=trail)


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
        raise HypothesisError(
            f"{what} requires a sigma-Dedekind complete lattice backend; "
            f"{backend.describe()} is only monotone complete"
        )


def fatou(mu: Measure, seq: SequenceSpec,
          horizon: Optional[int] = None) -> CheckResult:
    """Fatou inequality on an eventually periodic sequence of functions.

    Both sides are computed exactly from one cycle: the pointwise limit
    inferior is the cycle minimum at each point, and the right-hand side is
    the infimum of the cycle's integrals in the extended space.
    """
    require_sigma_dedekind(mu.backend, "the Fatou inequality")
    terms = seq.sample(horizon)
    cycle = detect_cycle([(t.nums, t.den, t.inf) for t in terms])
    if cycle is None:
        raise CertificationError(
            "tails not exactly computable: sequence is not eventually periodic "
            "within the horizon"
        )
    pre, period = cycle
    cycle_terms = terms[pre:pre + period]
    # Each point's least finite value over the cycle; infinite where every term is.
    den, live = _columns(cycle_terms, 0)
    mins = [min((v for v in col if v is not None), default=None) for _, col in live]
    liminf_f = ExtFunction.from_nums(
        mu.space, tuple(0 if m is None else m for m in mins), den,
        points_to_mask(x for x, m in enumerate(mins) if m is None))
    lhs = integral_value(liminf_f, mu)
    # The least integral over the cycle, on a lattice backend where every pair
    # has an infimum; infinite only when every integral is.
    ints = [integral_value(t, mu) for t in cycle_terms]
    finite_ints = [v.finite for v in ints if v.is_finite]
    rhs = extended.finite(reduce(spaces.inf_pair, finite_ints)) if finite_ints else ints[0]
    ok = ext_leq(lhs, rhs)
    details = {
        "lhs": ext_to_json(lhs),
        "rhs": ext_to_json(rhs),
        "strict": lhs != rhs,
        "cycle": {"preperiod": pre, "period": period},
    }
    return holds("fatou", **details) if ok else fails("fatou", **details)


def dct(mu: Measure, seq: SequenceSpec, f: SignedFunction, g: ExtFunction,
        horizon: Optional[int] = None, epsilons=None) -> CheckResult:
    """Dominated convergence: all four conclusions, certified.

    Requires a dominating function with finite integral and a sequence
    declared to converge to f (stabilization, or a declared limit whose
    integral deviations decrease).  Stabilizing sequences give exact
    equalities; otherwise every conclusion is certified down the epsilon
    schedule against the order unit.
    """
    require_sigma_dedekind(mu.backend, "dominated convergence")
    epsilons = epsilon_schedule(epsilons)
    terms = seq.sample(horizon)

    g_int = integral_value(g, mu)
    if not g_int.is_finite:
        raise HypothesisError("the dominating function must have a finite integral")
    den, live = _columns(terms + [f, g], mu.null_mask)
    # |t(x)| <= g(x) off the null points, where g is finite, as its integral is
    violation = min(((n, x) for x, (*samples, _, bound) in live
                     for n, s in enumerate(samples, start=1) if abs(s) > bound),
                    default=None)
    if violation is not None:
        raise HypothesisError("domination violated at index {}, point {}".format(*violation))
    if not isinstance(seq.metadata, (StabilizesAt, DeclaredLimit)):
        raise CertificationError("convergence to f must be declared")
    for x, (*samples, target, _) in live:
        _certify_pointwise(samples, target, den, epsilons,
                           f"pointwise convergence gap {{eps}} at point {x} not certified")

    part1 = all(is_integrable(t, mu) for t in terms)
    part2 = is_integrable(f, mu)
    details: Dict[str, object] = {
        "part1_terms_integrable": "holds" if part1 else "fails",
        "part2_limit_integrable": "holds" if part2 else "fails",
    }
    if not (part1 and part2):
        return fails("dct", **details)

    unit = spaces.order_unit(mu.backend)
    deviations = [integral_value((t - f).abs(), mu).payload() for t in terms]
    stable_from = detect_stable_tail(deviations)
    details["part3_deviation_infimum"] = "holds"
    f_int = integrate_signed(f, mu)
    if stable_from is not None and deviations[-1].is_zero():
        details["part3_mode"] = {"mode": "stabilized", "at": stable_from}
        part4 = integrate_signed(terms[-1], mu) == f_int
        details["part4_sandwich"] = "holds" if part4 else "fails"
        if not part4:
            return fails("dct", **details)
        details["part4_mode"] = {"mode": "stabilized"}
    else:
        if not all(map(spaces.leq, deviations[1:], deviations[:-1])):
            raise CertificationError(
                "integral deviations are not decreasing; tails not certifiable"
            )

        def deviation_probe(eps):
            bound = spaces.scale(eps, unit)
            return lambda i: spaces.leq(deviations[i - 1], bound)

        gaps = certify_gaps(epsilons, len(deviations), deviation_probe,
                            "deviation gap {eps} not certified")
        details["part3_mode"] = {"mode": "gap-certified", "gaps": gaps}
        # Inf and sup of every tail window, each in one backward pass.
        backward = [integrate_signed(t, mu) for t in reversed(terms)]
        window_infs = list(accumulate(backward, spaces.inf_pair))[::-1]
        window_sups = list(accumulate(backward, spaces.sup_pair))[::-1]

        def sandwich_probe(eps):
            bump = spaces.scale(eps, unit)
            lower, upper = spaces.sub(f_int, bump), spaces.add(f_int, bump)
            return lambda i: (spaces.leq(lower, window_infs[i - 1])
                              and spaces.leq(window_sups[i - 1], upper))

        gaps = certify_gaps(epsilons, len(terms), sandwich_probe,
                            "sandwich gap {eps} not certified")
        details["part4_sandwich"] = "holds"
        details["part4_mode"] = {"mode": "gap-certified", "gaps": gaps}
    details["limit_integral"] = ext_to_json(extended.finite(f_int))
    return holds("dct", **details)
