"""The order integral over finite ground sets, with double-entry oracles.

Extended-nonnegative measurable functions are integrated two ways: a
closed form over the atom partition using the extended scalar action, and
the supremum of the canonical elementary ladder of truncations.  The two
routes are independent implementations and must agree exactly; the ladder
is retained purely as an oracle against convention bugs (0 * inf versus
inf * 0).

The monotone and dominated convergence theorems and the Fatou inequality
are exercised as certified checks: stabilizing sequences give exact
equalities, declared limits are certified against an epsilon schedule
measured in multiples of the backend's order unit, and divergence is
certified against a ladder of bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Dict, List, Optional, Sequence, Tuple

from . import extended, spaces
from .errors import (
    CertificationError,
    HypothesisError,
    NotIntegrableError,
    OrdMeasureError,
    ValidationError,
)
from .extended import ExtElement, ext_add, ext_leq, ext_scale, ext_to_json, ext_zero
from .measures import MeasurableSpace, Measure, full_mask, mask_to_points, points_to_mask
from .rationals import (
    INFINITY,
    ExtScalar,
    ext_scalar_add,
    ext_scalar_leq,
    ext_scalar_min,
    ext_scalar_mul,
    format_ext_scalar,
    format_rational,
    is_infinite,
)
from .reports import CheckResult, fails, holds
from .sequences import (
    DEFAULT_EPSILONS,
    DeclaredLimit,
    DivergesToInfinity,
    SequenceSpec,
    StabilizesAt,
    certify_gaps,
    detect_cycle,
    detect_stable_tail,
)
from .spaces import Element, SpaceDescriptor


def _scalar_lt(a: ExtScalar, b: ExtScalar) -> bool:
    return a != b and ext_scalar_leq(a, b)


def _check_level_sets(space: MeasurableSpace, values: Sequence[ExtScalar]):
    """Measurability: every sublevel set of the range lands in the algebra.

    That holds exactly when the function is constant on each atom, which is
    tested first; the sublevel sets are swept only to name one that fails.
    """
    if all(len({values[x] for x in mask_to_points(a)}) == 1 for a in space.atoms):
        return
    sweeps = [(test, v) for v in dict.fromkeys(values) if not is_infinite(v)
              for test in (_scalar_lt, ext_scalar_leq)]
    for test, r in sweeps + [(_scalar_lt, INFINITY)]:
        mask = points_to_mask(x for x, v in enumerate(values) if test(v, r))
        if mask not in space:
            raise ValidationError(
                f"function is not measurable: level set for {format_ext_scalar(r)} "
                "is not in the algebra",
                witness={"level": format_ext_scalar(r), "set": mask_to_points(mask)},
            )


@dataclass(frozen=True)
class ExtFunction:
    """A measurable function into the extended nonnegative rationals."""

    space: MeasurableSpace
    values: tuple  # ExtScalar per ground point

    def __post_init__(self):
        if len(self.values) != self.space.ground_size:
            raise ValidationError("function needs one value per ground point")
        for v in self.values:
            if not is_infinite(v) and v < 0:
                raise ValidationError(f"extended function value {v} is negative")
        _check_level_sets(self.space, self.values)

    def at(self, point: int) -> ExtScalar:
        return self.values[point]

    def atom_value(self, atom: int) -> ExtScalar:
        return self.values[mask_to_points(atom)[0]]

    def infinity_mask(self) -> int:
        return points_to_mask(x for x, v in enumerate(self.values) if is_infinite(v))

    def support_mask(self) -> int:
        return points_to_mask(
            x for x, v in enumerate(self.values) if is_infinite(v) or v != 0
        )


@dataclass(frozen=True)
class SignedFunction:
    """A measurable finite real-valued function (any sign)."""

    space: MeasurableSpace
    values: tuple  # Fraction per ground point

    def __post_init__(self):
        if len(self.values) != self.space.ground_size:
            raise ValidationError("function needs one value per ground point")
        _check_level_sets(self.space, self.values)

    def at(self, point: int) -> Fraction:
        return self.values[point]

    def __add__(self, other: "SignedFunction") -> "SignedFunction":
        return SignedFunction(self.space,
                              tuple(a + b for a, b in zip(self.values, other.values)))

    def __sub__(self, other: "SignedFunction") -> "SignedFunction":
        return SignedFunction(self.space,
                              tuple(a - b for a, b in zip(self.values, other.values)))

    def scaled(self, r: Fraction) -> "SignedFunction":
        r = Fraction(r)
        return SignedFunction(self.space, tuple(r * v for v in self.values))

    def abs(self) -> ExtFunction:
        return ExtFunction(self.space, tuple(abs(v) for v in self.values))

    def pos_part(self) -> ExtFunction:
        return ExtFunction(self.space, tuple(max(v, Fraction(0)) for v in self.values))

    def neg_part(self) -> ExtFunction:
        return ExtFunction(self.space, tuple(max(-v, Fraction(0)) for v in self.values))

    def sup_with(self, other: "SignedFunction") -> "SignedFunction":
        return SignedFunction(self.space,
                              tuple(max(a, b) for a, b in zip(self.values, other.values)))

    def inf_with(self, other: "SignedFunction") -> "SignedFunction":
        return SignedFunction(self.space,
                              tuple(min(a, b) for a, b in zip(self.values, other.values)))


def ext_function(space: MeasurableSpace, values: Sequence) -> ExtFunction:
    coerced = tuple(v if is_infinite(v) else Fraction(v) for v in values)
    return ExtFunction(space, coerced)


def signed_function(space: MeasurableSpace, values: Sequence) -> SignedFunction:
    return SignedFunction(space, tuple(Fraction(v) for v in values))


def indicator(space: MeasurableSpace, mask: int, coefficient=Fraction(1)) -> ExtFunction:
    space.require_measurable(mask)
    c = Fraction(coefficient)
    return ExtFunction(
        space,
        tuple(c if mask >> x & 1 else Fraction(0) for x in range(space.ground_size)),
    )


def combine(r1, f: ExtFunction, r2, g: ExtFunction) -> ExtFunction:
    """Pointwise r1*f + r2*g with the extended scalar conventions."""
    vals = tuple(
        ext_scalar_add(ext_scalar_mul(Fraction(r1), a), ext_scalar_mul(Fraction(r2), b))
        for a, b in zip(f.values, g.values)
    )
    return ExtFunction(f.space, vals)


def pointwise_leq(f: ExtFunction, g: ExtFunction) -> bool:
    return all(ext_scalar_leq(a, b) for a, b in zip(f.values, g.values))


@dataclass(frozen=True)
class ElementaryFunction:
    """A finite nonnegative combination of indicators of measurable sets."""

    space: MeasurableSpace
    terms: tuple  # (Fraction coefficient >= 0, bitmask) pairs

    def __post_init__(self):
        for coeff, mask in self.terms:
            if coeff < 0:
                raise ValidationError("elementary coefficients must be >= 0")
            self.space.require_measurable(mask, "representation set")

    def dense_values(self) -> Tuple[Fraction, ...]:
        out = [Fraction(0)] * self.space.ground_size
        for coeff, mask in self.terms:
            for x in mask_to_points(mask):
                out[x] += coeff
        return tuple(out)

    @classmethod
    def from_dense(cls, space: MeasurableSpace, values: Sequence[Fraction]
                   ) -> "ElementaryFunction":
        """Canonical atom representation of finite nonnegative dense values."""
        terms = []
        for atom in space.atoms:
            v = values[mask_to_points(atom)[0]]
            for x in mask_to_points(atom):
                if values[x] != v:
                    raise ValidationError("values are not constant on an atom")
            if v != 0:
                terms.append((Fraction(v), atom))
        return cls(space, tuple(terms))


def truncate(f: ExtFunction, level: int) -> ElementaryFunction:
    """The canonical ladder rung f /\\ level (finite-valued, elementary)."""
    cap = Fraction(level)
    dense = tuple(
        cap if is_infinite(v) else min(v, cap) for v in f.values
    )
    return ElementaryFunction.from_dense(f.space, dense)


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
    total = ext_zero(mu.backend)
    for atom in mu.space.atoms:
        total = ext_add(total, ext_scale(f.atom_value(atom), mu.atom_values[atom]))
    return total


def _ladder_supremum(f: ExtFunction, mu: Measure) -> Tuple[ExtElement, dict]:
    """Supremum of the truncation-ladder integrals, decided exactly.

    Only the break levels are evaluated: 1, nstar = max(1, ceil(top)),
    nstar + 1, and floor(v) and ceil(v) (when at least 1) for every finite
    value v of f, in increasing order.  No value of f lies strictly between
    two consecutive break levels a < b unless b = a + 1, so on the integers
    of [a, b] each min(v, n) is v throughout or n throughout, and the rung
    integrals are A + n * D there.  The rise from rung a to rung b is
    (b - a) * D, which is positive exactly when the unit rise D between any
    two neighbouring rungs in [a, b] is; testing consecutive break levels
    therefore tests every consecutive pair of the full ladder, with
    O(number of distinct values) rungs instead of O(top).

    Past the largest finite value of f the rungs only keep adding the total
    measure of the infinity set; if the rungs at nstar and nstar + 1 agree,
    the ladder has stabilized for good, and otherwise the increments are a
    fixed nonzero positive element, so the rungs are unbounded above by the
    Archimedean property and the supremum is the point at infinity.  A rung
    is infinite exactly when a positive value sits on an atom of infinite
    measure, at every level alike, so an infinite ladder shows at level 1.
    """
    finite_vals = {v for v in f.values if not is_infinite(v)}
    top = max(finite_vals, default=Fraction(0))
    nstar = max(1, math.ceil(top))
    levels = {1, nstar, nstar + 1}
    levels.update(k for v in finite_vals for k in (math.floor(v), math.ceil(v))
                  if k >= 1)
    rungs = []
    for n in sorted(levels):
        rung = integrate_elementary(truncate(f, n), mu)
        if rungs and not ext_leq(rungs[-1], rung):
            raise OrdMeasureError("ladder integrals failed to increase")
        rungs.append(rung)
        if rung.is_infinite:
            return extended.infinity(mu.backend), {
                "mode": "infinite-rung", "at_level": n}
    if rungs[-1] == rungs[-2]:
        return rungs[-1], {"mode": "stabilized", "at_level": nstar}
    return extended.infinity(mu.backend), {
        "mode": "divergent", "increment_from_level": nstar}


@dataclass(frozen=True)
class IntegralReport:
    """Value of an order integral plus the agreement trail of both routes."""

    value: ExtElement
    closed_form: ExtElement
    ladder: ExtElement
    trail: dict


def integrate_extended(f: ExtFunction, mu: Measure) -> IntegralReport:
    """Order integral of an extended-nonnegative measurable function.

    Computes the closed form over the atoms and, independently, the
    supremum of the canonical elementary ladder, and insists that they
    agree exactly.  Both routes run once per distinct function on `mu`:
    the report is kept in ``mu.integral_memo`` under the function's space
    and values, and later calls for an equal function return it.  A
    function on another space never matches a key, so it still reaches
    the ladder's space check.
    """
    key = (f.space, f.values)
    report = mu.integral_memo.get(key)
    if report is None:
        closed = _closed_form_integral(f, mu)
        ladder, trail = _ladder_supremum(f, mu)
        if closed != ladder:
            raise OrdMeasureError(
                f"integral routes disagree: closed form {closed!r} vs ladder {ladder!r}"
            )
        report = IntegralReport(value=closed, closed_form=closed, ladder=ladder,
                                trail=trail)
        mu.integral_memo[key] = report
    return report


def integral_value(f: ExtFunction, mu: Measure) -> ExtElement:
    return integrate_extended(f, mu).value


def is_integrable(f: SignedFunction, mu: Measure) -> bool:
    return integral_value(f.abs(), mu).is_finite


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

    support = points_to_mask(x for x, v in enumerate(f.values) if v != 0)
    f.space.require_measurable(support, "support")
    c = max((abs(v) for v in f.values), default=Fraction(0)) + 1
    shift = tuple(
        v + (c if support >> x & 1 else 0) for x, v in enumerate(f.values)
    )
    shifted = ExtFunction(f.space, tuple(Fraction(s) for s in shift))
    shift_only = indicator(f.space, support, c)
    lhs = integral_value(shifted, mu)
    rhs = integral_value(shift_only, mu)
    if lhs.is_finite and rhs.is_finite:
        alt = spaces.sub(lhs.payload(), rhs.payload())
        if alt != result:
            raise OrdMeasureError("signed integral depends on the decomposition")
    return result


def check_integral_laws(mu: Measure, f: ExtFunction, g: ExtFunction,
                        r1=Fraction(1), r2=Fraction(1)) -> CheckResult:
    """Linearity in the extended cone and monotonicity of the integral."""
    r1, r2 = Fraction(r1), Fraction(r2)
    if r1 < 0 or r2 < 0:
        raise HypothesisError("integral linearity uses nonnegative coefficients")
    combo = combine(r1, f, r2, g)
    lhs = integral_value(combo, mu)
    rhs = ext_add(ext_scale(r1, integral_value(f, mu)),
                  ext_scale(r2, integral_value(g, mu)))
    linear_ok = lhs == rhs
    details = {"linearity": "holds" if linear_ok else "fails",
               "combination": ext_to_json(lhs)}
    mono_ok = True
    if pointwise_leq(f, g):
        mono_ok = ext_leq(integral_value(f, mu), integral_value(g, mu))
        details["monotonicity"] = "holds" if mono_ok else "fails"
    else:
        details["monotonicity"] = "not-applicable: f is not below g"
    fg = combine(Fraction(1), f, Fraction(1), g)
    mono2_ok = ext_leq(integral_value(f, mu), integral_value(fg, mu))
    details["monotonicity_f_below_f_plus_g"] = "holds" if mono2_ok else "fails"
    if linear_ok and mono_ok and mono2_ok:
        return holds("integral_laws", **details)
    return fails("integral_laws", **details)


def ae_analysis(f: ExtFunction, mu: Measure) -> CheckResult:
    """Almost-everywhere statements for one function on one measure.

    Asserts: a finite integral forces the function to be finite almost
    everywhere; the integral vanishes exactly when the function vanishes
    almost everywhere; changing the function on a null atom does not change
    the integral; and the ladder formulation of the almost-everywhere
    finite supremum statement.
    """
    inf_mask = f.infinity_mask()
    pos_mask = f.support_mask()
    null = mu.null_mask
    value = integral_value(f, mu)
    details = {
        "infinity_set": mask_to_points(inf_mask),
        "positive_set": mask_to_points(pos_mask),
        "null_union": mask_to_points(null),
        "integral": ext_to_json(value),
    }
    problems = []

    if value.is_finite:
        inf_measure = mu.evaluate(inf_mask)
        if not (inf_measure.is_finite and inf_measure.finite.is_zero()):
            problems.append("finite integral but the infinity set is not null")
        details["ae_finite"] = "holds"
    else:
        details["ae_finite"] = "not-applicable: integral is infinite"

    zero_integral = value.is_finite and value.finite.is_zero()
    ae_zero = pos_mask & ~null == 0
    if zero_integral != ae_zero:
        problems.append("zero integral and almost-everywhere zero disagree")
    details["zero_iff_ae_zero"] = "fails" if zero_integral != ae_zero else "holds"

    null_atoms = [a for a in mu.space.atoms if mu.is_null_exception(a)]
    if null_atoms:
        bumped = list(f.values)
        for x in mask_to_points(null_atoms[0]):
            bumped[x] = ext_scalar_add(bumped[x], Fraction(7))
        variant = ExtFunction(f.space, tuple(bumped))
        same = integral_value(variant, mu) == value
        if not same:
            problems.append("changing a null atom changed the integral")
        details["ae_equal_same_integral"] = "holds" if same else "fails"
    else:
        details["ae_equal_same_integral"] = "not-applicable: no null atom"

    ladder, trail = _ladder_supremum(f, mu)
    if ladder.is_finite:
        inf_measure = mu.evaluate(inf_mask)
        ok = inf_measure.is_finite and inf_measure.finite.is_zero()
        if not ok:
            problems.append("finite ladder supremum but infinity set not null")
        details["ae_finite_sup"] = "holds" if ok else "fails"
    else:
        details["ae_finite_sup"] = "not-applicable: ladder supremum infinite"

    if problems:
        return fails("ae_analysis", problems=problems, **details)
    return holds("ae_analysis", **details)


def _certify_scalar_convergence(samples: List[ExtScalar], target: ExtScalar,
                                epsilons, increasing: bool, point: int):
    """Pointwise convergence certificate at one ground point."""
    if any(s == target for s in samples) and samples[-1] == target:
        return
    if is_infinite(target):
        # The bounds are k = 1 .. len - 1, and no sample exceeds k exactly
        # when the largest sample is at most k: the first such k fails.
        if not any(is_infinite(s) for s in samples):
            k = max(1, math.ceil(max(samples)))
            if k < len(samples):
                raise CertificationError(
                    f"divergence at point {point} not certified against bound {k}"
                )
        return

    def probe(eps):
        def reaches(i):
            s = samples[i - 1]
            if is_infinite(s):
                return False
            return target <= s + eps if increasing else s <= target + eps
        return reaches

    certify_gaps(epsilons, len(samples), probe,
                 f"pointwise gap {{eps}} at point {point} not certified")


def _pointwise_monotone_ae(mu: Measure, terms: List[ExtFunction],
                           increasing: bool) -> int:
    """Mask of points violating pointwise monotonicity (must be null)."""
    bad = 0
    for n in range(1, len(terms)):
        for x in range(mu.space.ground_size):
            a, b = terms[n - 1].values[x], terms[n].values[x]
            ok = ext_scalar_leq(a, b) if increasing else ext_scalar_leq(b, a)
            if not ok:
                bad |= 1 << x
    return bad


def _certify_element_limit(values: List[ExtElement], target: ExtElement,
                           unit: Element, epsilons, increasing: bool) -> dict:
    """Certify that a monotone sequence of integrals has the target as its
    supremum (increasing) or infimum (decreasing, with finite terms)."""
    def precedes(a, b):
        return ext_leq(a, b) if increasing else ext_leq(b, a)

    direction = "increasing" if increasing else "decreasing"
    for n in range(1, len(values)):
        if not precedes(values[n - 1], values[n]):
            raise CertificationError(f"integral sequence not {direction} at {n}")
    crossing = "exceeds" if increasing else "dips below"
    for n, v in enumerate(values, start=1):
        if not precedes(v, target):
            raise CertificationError(f"integral sequence {crossing} the target at {n}")
    if values[-1] == target:
        stable = detect_stable_tail(values)
        return {"mode": "stabilized", "at": stable or len(values)}
    if target.is_infinite:
        extended.certify_divergence(values, target.space, len(values))
        return {"mode": "divergence-certified", "ladder_top": len(values) - 1}

    def probe(eps):
        bump = extended.finite(spaces.scale(eps, unit))
        if increasing:
            return lambda i: ext_leq(target, ext_add(values[i - 1], bump))
        ceiling = ext_add(target, bump)
        return lambda i: ext_leq(values[i - 1], ceiling)

    gaps = certify_gaps(epsilons, len(values), probe,
                        "integral gap {eps} not certified")
    return {"mode": "gap-certified", "gaps": gaps}


def _function_terms(seq: SequenceSpec, horizon: Optional[int]) -> List:
    h = horizon if horizon is not None else seq.horizon
    return [seq.term(n) for n in range(1, h + 1)]


def mct(mu: Measure, seq: SequenceSpec, f: ExtFunction,
        horizon: Optional[int] = None, epsilons=None) -> CheckResult:
    """Monotone convergence: integrals of an increasing sequence reach the
    integral of the almost-everywhere pointwise limit."""
    epsilons = list(epsilons) if epsilons is not None else list(DEFAULT_EPSILONS)
    terms = _function_terms(seq, horizon)
    null = mu.null_mask

    bad = _pointwise_monotone_ae(mu, terms, increasing=True)
    if bad & ~null:
        raise CertificationError(
            f"sequence not increasing at non-null points {mask_to_points(bad & ~null)}"
        )
    bad_dom = 0
    for t in terms:
        for x in range(mu.space.ground_size):
            if not ext_scalar_leq(t.values[x], f.values[x]):
                bad_dom |= 1 << x
    if bad_dom & ~null:
        raise CertificationError(
            "sequence exceeds the declared limit at non-null points "
            f"{mask_to_points(bad_dom & ~null)}"
        )
    if not isinstance(seq.metadata, (StabilizesAt, DeclaredLimit, DivergesToInfinity)):
        raise CertificationError(
            "pointwise convergence must be declared (stabilization, limit, "
            "or divergence)"
        )
    for x in range(mu.space.ground_size):
        if (1 << x) & null:
            continue
        samples = [t.values[x] for t in terms]
        _certify_scalar_convergence(samples, f.values[x], epsilons,
                                    increasing=True, point=x)

    values = [integral_value(t, mu) for t in terms]
    target = integral_value(f, mu)
    unit = spaces.order_unit(mu.backend)
    trail = _certify_element_limit(values, target, unit, epsilons, increasing=True)
    return holds("mct", limit_integral=ext_to_json(target), certification=trail)


def mct_decreasing(mu: Measure, seq: SequenceSpec, f: ExtFunction,
                   horizon: Optional[int] = None, epsilons=None) -> CheckResult:
    """Decreasing counterpart; requires the first integral to be finite."""
    epsilons = list(epsilons) if epsilons is not None else list(DEFAULT_EPSILONS)
    terms = _function_terms(seq, horizon)
    null = mu.null_mask
    first = integral_value(terms[0], mu)
    if not first.is_finite:
        raise HypothesisError(
            "decreasing convergence requires a finite first integral"
        )
    bad = _pointwise_monotone_ae(mu, terms, increasing=False)
    if bad & ~null:
        raise CertificationError(
            f"sequence not decreasing at non-null points {mask_to_points(bad & ~null)}"
        )
    bad_dom = 0
    for t in terms:
        for x in range(mu.space.ground_size):
            if not ext_scalar_leq(f.values[x], t.values[x]):
                bad_dom |= 1 << x
    if bad_dom & ~null:
        raise CertificationError(
            "sequence dips below the declared limit at non-null points "
            f"{mask_to_points(bad_dom & ~null)}"
        )
    if not isinstance(seq.metadata, (StabilizesAt, DeclaredLimit)):
        raise CertificationError(
            "pointwise convergence must be declared (stabilization or limit)"
        )
    for x in range(mu.space.ground_size):
        if (1 << x) & null:
            continue
        samples = [t.values[x] for t in terms]
        _certify_scalar_convergence(samples, f.values[x], epsilons,
                                    increasing=False, point=x)
    values = [integral_value(t, mu) for t in terms]
    target = integral_value(f, mu)
    unit = spaces.order_unit(mu.backend)
    trail = _certify_element_limit(values, target, unit, epsilons, increasing=False)
    return holds("mct_decreasing", limit_integral=ext_to_json(target),
                 certification=trail)


def _require_sigma_dedekind(backend: SpaceDescriptor, what: str):
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
    _require_sigma_dedekind(mu.backend, "the Fatou inequality")
    terms = _function_terms(seq, horizon)
    samples = [t.values for t in terms]
    cycle = detect_cycle(samples)
    if cycle is None:
        raise CertificationError(
            "tails not exactly computable: sequence is not eventually periodic "
            "within the horizon"
        )
    pre, period = cycle
    cycle_terms = terms[pre:pre + period]
    liminf_vals = list(cycle_terms[0].values)
    for t in cycle_terms[1:]:
        liminf_vals = [ext_scalar_min(a, b) for a, b in zip(liminf_vals, t.values)]
    liminf_f = ExtFunction(mu.space, tuple(liminf_vals))
    lhs = integral_value(liminf_f, mu)
    integrals = [integral_value(t, mu) for t in cycle_terms]
    rhs = extended.ext_inf_finite_list(integrals)
    if not isinstance(rhs, ExtElement):
        raise CertificationError("tail infimum of the integrals does not exist")
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
    _require_sigma_dedekind(mu.backend, "dominated convergence")
    epsilons = list(epsilons) if epsilons is not None else list(DEFAULT_EPSILONS)
    terms = _function_terms(seq, horizon)
    null = mu.null_mask

    g_int = integral_value(g, mu)
    if not g_int.is_finite:
        raise HypothesisError("the dominating function must have a finite integral")
    for n, t in enumerate(terms, start=1):
        for x in range(mu.space.ground_size):
            if (1 << x) & null:
                continue
            if not ext_scalar_leq(abs(t.values[x]), g.values[x]):
                raise HypothesisError(
                    f"domination violated at index {n}, point {x}"
                )
    if not isinstance(seq.metadata, (StabilizesAt, DeclaredLimit)):
        raise CertificationError("convergence to f must be declared")
    for x in range(mu.space.ground_size):
        if (1 << x) & null:
            continue
        distances = [abs(t.values[x] - f.values[x]) for t in terms]
        # Index i reaches eps when every distance from i on is within eps,
        # that is when the largest of them is.
        tail_max = list(accumulate(reversed(distances), max))[::-1]
        certify_gaps(epsilons, len(distances),
                     lambda eps: lambda i: tail_max[i - 1] <= eps,
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
    stabilized = all(d.is_zero() for d in deviations[-2:]) and any(
        d.is_zero() for d in deviations
    )
    if stabilized:
        stable_from = next(i for i, d in enumerate(deviations, start=1)
                           if all(e.is_zero() for e in deviations[i - 1:]))
        details["part3_deviation_infimum"] = "holds"
        details["part3_mode"] = {"mode": "stabilized", "at": stable_from}
    else:
        for n in range(1, len(deviations)):
            if not spaces.leq(deviations[n], deviations[n - 1]):
                raise CertificationError(
                    "integral deviations are not decreasing; tails not certifiable"
                )

        def deviation_probe(eps):
            bound = spaces.scale(eps, unit)
            return lambda i: spaces.leq(deviations[i - 1], bound)

        gaps = certify_gaps(epsilons, len(deviations), deviation_probe,
                            "deviation gap {eps} not certified")
        details["part3_deviation_infimum"] = "holds"
        details["part3_mode"] = {"mode": "gap-certified", "gaps": gaps}

    f_int = integrate_signed(f, mu)
    term_ints = [integrate_signed(t, mu) for t in terms]
    # Inf and sup of every tail window, in one backward pass: on a lattice
    # backend the pair operations are coordinatewise min and max.
    window_infs = list(term_ints)
    window_sups = list(term_ints)
    for n in range(len(term_ints) - 2, -1, -1):
        window_infs[n] = spaces.inf_pair(term_ints[n], window_infs[n + 1])
        window_sups[n] = spaces.sup_pair(term_ints[n], window_sups[n + 1])
    if stabilized:
        part4 = window_infs[-1] == f_int and window_sups[-1] == f_int
        details["part4_sandwich"] = "holds" if part4 else "fails"
        if not part4:
            return fails("dct", **details)
        details["part4_mode"] = {"mode": "stabilized"}
    else:
        def sandwich_probe(eps):
            bump = spaces.scale(eps, unit)
            lower, upper = spaces.sub(f_int, bump), spaces.add(f_int, bump)

            def reaches(i):
                lo_ok = spaces.leq(lower, window_infs[i - 1])
                hi_ok = spaces.leq(window_sups[i - 1], upper)
                return lo_ok and hi_ok
            return reaches

        gaps = certify_gaps(epsilons, len(term_ints), sandwich_probe,
                            "sandwich gap {eps} not certified")
        details["part4_sandwich"] = "holds"
        details["part4_mode"] = {"mode": "gap-certified", "gaps": gaps}
    details["limit_integral"] = ext_to_json(extended.finite(f_int))
    return holds("dct", **details)


def triangle_inequality(mu: Measure, f: SignedFunction) -> CheckResult:
    """|integral of f| is below the integral of |f| on lattice backends."""
    _require_sigma_dedekind(mu.backend, "the triangle inequality")
    total = integrate_signed(f, mu)
    abs_total = integral_value(f.abs(), mu)
    lhs = spaces.abs_element(total)
    ok = ext_leq(extended.finite(lhs), abs_total)
    details = {
        "abs_of_integral": [format_rational(c) for c in lhs.coords],
        "integral_of_abs": ext_to_json(abs_total),
    }
    return holds("triangle", **details) if ok else fails("triangle", **details)


def _apply_matrix(matrix: Sequence[Sequence[Fraction]], el: Element,
                  target: SpaceDescriptor) -> Element:
    coords = tuple(
        sum((row[j] * el.coords[j] for j in range(len(el.coords))), Fraction(0))
        for row in matrix
    )
    return Element(target, coords)


def push_forward(mu: Measure, matrix: Sequence[Sequence], target: SpaceDescriptor,
                 f=None) -> CheckResult:
    """Intertwining of the integral with a positive map into another backend.

    The map is an entrywise-nonnegative matrix between coordinatewise
    backends (where entrywise nonnegativity is exactly positivity and the
    map is automatically sigma-order continuous); the measure must be
    finite.  Builds the image measure, validates it, and checks the
    identity on the supplied function, both extended-positive and signed.
    """
    from .spaces import SpaceKind

    coordinatewise = (SpaceKind.REALS, SpaceKind.COORD, SpaceKind.ENTRYWISE_MAT)
    if mu.backend.kind not in coordinatewise or target.kind not in coordinatewise:
        raise HypothesisError(
            "push-forward maps act between coordinatewise backends"
        )
    if not mu.is_finite():
        raise HypothesisError("push-forward requires a finite measure")
    rows = [[Fraction(v) for v in row] for row in matrix]
    if len(rows) != target.ncoords or any(len(r) != mu.backend.ncoords for r in rows):
        raise ValidationError("matrix shape does not match the backends")
    for row in rows:
        for v in row:
            if v < 0:
                raise ValidationError("push-forward matrix must be entrywise >= 0")

    image_values = {
        atom: extended.finite(_apply_matrix(rows, v.payload(), target))
        for atom, v in mu.atom_values.items()
    }
    mu_t = Measure(mu.space, target, image_values)

    details: Dict[str, object] = {"image_classification": mu_t.classification()}
    if f is None:
        return holds("push_forward", **details)
    if isinstance(f, SignedFunction):
        lhs = _apply_matrix(rows, integrate_signed(f, mu), target)
        rhs = integrate_signed(f, mu_t)
        ok = lhs == rhs
    else:
        base = integral_value(f, mu)
        if not base.is_finite:
            raise HypothesisError(
                "push-forward intertwining needs a finite integral"
            )
        lhs = _apply_matrix(rows, base.payload(), target)
        rhs_v = integral_value(f, mu_t)
        ok = rhs_v.is_finite and lhs == rhs_v.payload()
    details["intertwined"] = "holds" if ok else "fails"
    details["image_integral"] = [format_rational(c) for c in lhs.coords]
    return holds("push_forward", **details) if ok else fails("push_forward", **details)


def l1_quotient(mu: Measure, functions: Sequence[SignedFunction]) -> CheckResult:
    """Structure of the integrable functions modulo null functions.

    Two integrable functions are equivalent when they differ only on null
    atoms.  Verifies that equivalent functions have equal integrals, that a
    nonnegative class with zero integral is the zero class (strict
    positivity of the quotient integral), and that pointwise lattice
    operations descend to the classes.
    """
    for f in functions:
        if not is_integrable(f, mu):
            raise NotIntegrableError("all inputs must be integrable")
    null = mu.null_mask

    def class_key(f: SignedFunction) -> tuple:
        return tuple(
            f.values[x] for x in range(mu.space.ground_size) if not (null >> x & 1)
        )

    classes: Dict[tuple, List[int]] = {}
    for i, f in enumerate(functions):
        classes.setdefault(class_key(f), []).append(i)

    problems = []
    for key, members in classes.items():
        ints = [integrate_signed(functions[i], mu) for i in members]
        if any(v != ints[0] for v in ints[1:]):
            problems.append({"issue": "equal classes with unequal integrals",
                             "members": members})
    zero_el = spaces.zero(mu.backend)
    for i, f in enumerate(functions):
        nonneg_ae = all(
            f.values[x] >= 0 for x in range(mu.space.ground_size)
            if not (null >> x & 1)
        )
        if nonneg_ae and integrate_signed(f, mu) == zero_el:
            if any(v != 0 for v in class_key(f)):
                problems.append({"issue": "strict positivity violated", "index": i})
    for m1 in classes.values():
        for m2 in classes.values():
            f1, f2 = functions[m1[0]], functions[m1[-1]]
            g1, g2 = functions[m2[0]], functions[m2[-1]]
            if class_key(f1.sup_with(g1)) != class_key(f2.sup_with(g2)):
                problems.append({"issue": "supremum does not descend",
                                 "classes": [m1, m2]})
            if class_key(f1.inf_with(g1)) != class_key(f2.inf_with(g2)):
                problems.append({"issue": "infimum does not descend",
                                 "classes": [m1, m2]})
    details = {
        "classes": sorted(classes.values()),
        "null_union": mask_to_points(null),
    }
    if problems:
        return fails("l1_quotient", problems=problems, **details)
    return holds("l1_quotient", **details)

