"""The structure checks of the order integral, loaded by the checks that run them.

The laws of the integral (linearity in the extended cone, monotonicity),
its almost-everywhere statements, the triangle inequality, the
intertwining of the integral with a positive map, and the integrable
functions modulo null functions.  Every integral is computed by
`ordmeasure.integral`, looked up on that module at call time.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Sequence

from . import extended, integral, spaces
from .errors import HypothesisError, NotIntegrableError, ValidationError
from .extended import element_to_json, ext_add, ext_leq, ext_scale, ext_to_json
from .integral import ExtFunction, SignedFunction
from .measures import Measure, mask_to_points
from .reports import CheckResult, verdict, word
from .spaces import Element, SpaceDescriptor


def combine(r1, f: ExtFunction, r2, g: ExtFunction) -> ExtFunction:
    """Pointwise r1*f + r2*g with the extended scalar conventions (0 * inf = 0),
    on the numerators over the product of the four denominators."""
    r1, r2 = Fraction(r1), Fraction(r2)
    a = r1.numerator * r2.denominator * g.den
    b = r2.numerator * r1.denominator * f.den
    inf = (f.inf if r1 else 0) | (g.inf if r2 else 0)
    return ExtFunction.from_nums(f.space, tuple(
        0 if inf >> x & 1 else a * m + b * n for x, (m, n) in enumerate(zip(f.nums, g.nums))
    ), r1.denominator * r2.denominator * f.den * g.den, inf)


def check_integral_laws(mu: Measure, f: ExtFunction, g: ExtFunction,
                        r1=Fraction(1), r2=Fraction(1)) -> CheckResult:
    """Linearity in the extended cone and monotonicity of the integral."""
    r1, r2 = Fraction(r1), Fraction(r2)
    if r1 < 0 or r2 < 0:
        raise HypothesisError("integral linearity uses nonnegative coefficients")
    combo = combine(r1, f, r2, g)
    lhs = integral.integral_value(combo, mu)
    int_f, int_g = integral.integral_value(f, mu), integral.integral_value(g, mu)
    linear_ok = lhs == ext_add(ext_scale(r1, int_f), ext_scale(r2, int_g))
    details = {"linearity": word(linear_ok),
               "combination": ext_to_json(lhs)}
    mono_ok = True
    _, live = integral._columns([f, g], mu.null_mask)  # f <= g a.e. is enough
    if all(integral._precedes(a, b) for _, (a, b) in live):
        mono_ok = ext_leq(int_f, int_g)
        details["monotonicity"] = word(mono_ok)
    else:
        details["monotonicity"] = "not-applicable: f is not below g"
    fg = combine(Fraction(1), f, Fraction(1), g)
    mono2_ok = ext_leq(int_f, integral.integral_value(fg, mu))
    details["monotonicity_f_below_f_plus_g"] = word(mono2_ok)
    return verdict("integral_laws", linear_ok and mono_ok and mono2_ok, **details)


def ae_analysis(mu: Measure, f: ExtFunction) -> CheckResult:
    """Almost-everywhere statements for one function on one measure.

    Asserts: a finite integral forces the function to be finite almost
    everywhere; the integral vanishes exactly when the function vanishes
    almost everywhere; changing the function on a null atom does not change
    the integral; and the ladder formulation of the almost-everywhere
    finite supremum statement, which the same test of the infinity set
    decides, as the report's value is the ladder supremum too.
    """
    inf_mask = f.inf
    pos_mask = f.support_mask()
    null = mu.null_mask
    value = integral.integrate_extended(f, mu).value
    details = {
        "infinity_set": mask_to_points(inf_mask),
        "positive_set": mask_to_points(pos_mask),
        "null_union": mask_to_points(null),
        "integral": ext_to_json(value),
    }
    problems = []

    inf_null = None  # whether the infinity set is null, tested when the value is finite
    if value.is_finite:
        inf_measure = mu.evaluate(inf_mask)
        inf_null = inf_measure.is_finite and inf_measure.finite.is_zero()
        if not inf_null:
            problems.append("finite integral but the infinity set is not null")
        details["ae_finite"] = word(True)
        details["ae_finite_sup"] = word(inf_null)
    else:
        details["ae_finite"] = "not-applicable: integral is infinite"
        details["ae_finite_sup"] = "not-applicable: ladder supremum infinite"

    zero_integral = value.is_finite and value.finite.is_zero()
    ae_zero = pos_mask & ~null == 0
    if zero_integral != ae_zero:
        problems.append("zero integral and almost-everywhere zero disagree")
    details["zero_iff_ae_zero"] = word(zero_integral == ae_zero)

    null_atoms = [a for a in mu.space.atoms if mu.is_null_exception(a)]
    if null_atoms:
        # f + 7 on the first null atom: infinite points stay infinite
        bump = null_atoms[0] & ~f.inf
        variant = ExtFunction.from_nums(f.space, tuple(
            n + 7 * f.den if bump >> x & 1 else n for x, n in enumerate(f.nums)),
            f.den, f.inf)
        same = integral.integral_value(variant, mu) == value
        if not same:
            problems.append("changing a null atom changed the integral")
        details["ae_equal_same_integral"] = word(same)
    else:
        details["ae_equal_same_integral"] = "not-applicable: no null atom"

    if inf_null is False:
        problems.append("finite ladder supremum but infinity set not null")
    if problems:
        return verdict("ae_analysis", False, problems=problems, **details)
    return verdict("ae_analysis", True, **details)


def triangle_inequality(mu: Measure, f: SignedFunction) -> CheckResult:
    """|integral of f| is below the integral of |f| on lattice backends."""
    integral.require_sigma_dedekind(mu.backend, "the triangle inequality")
    total = integral.integrate_signed(f, mu)
    abs_total = integral.integral_value(f.abs(), mu)
    lhs = spaces.abs_element(total)
    ok = ext_leq(extended.finite(lhs), abs_total)
    details = {
        "abs_of_integral": element_to_json(lhs),
        "integral_of_abs": ext_to_json(abs_total),
    }
    return verdict("triangle", ok, **details)


def _apply_matrix(matrix: Sequence[Sequence[Fraction]], el: Element,
                  target: SpaceDescriptor) -> Element:
    return Element(target, tuple(
        sum((v * n for v, n in zip(row, el.nums)), Fraction(0)) / el.den for row in matrix
    ))


def push_forward(mu: Measure, target: SpaceDescriptor, matrix: Sequence[Sequence],
                 f=None) -> CheckResult:
    """Intertwining of the integral with a positive map into another backend.

    The map is an entrywise-nonnegative matrix between coordinatewise
    backends (where entrywise nonnegativity is exactly positivity and the
    map is automatically sigma-order continuous); the measure must be
    finite.  Builds the image measure, validates it, and checks the
    identity on the supplied function, both extended-positive and signed.
    """
    coordinatewise = (spaces.SpaceKind.REALS, spaces.SpaceKind.COORD,
                      spaces.SpaceKind.ENTRYWISE_MAT)
    if mu.backend.kind not in coordinatewise or target.kind not in coordinatewise:
        raise HypothesisError(
            "push-forward maps act between coordinatewise backends"
        )
    if not mu.is_finite:
        raise HypothesisError("push-forward requires a finite measure")
    rows = [[Fraction(v) for v in row] for row in matrix]
    if len(rows) != target.ncoords or any(len(r) != mu.backend.ncoords for r in rows):
        raise ValidationError("matrix shape does not match the backends")
    if any(v < 0 for row in rows for v in row):
        raise ValidationError("push-forward matrix must be entrywise >= 0")

    image_values = {
        atom: extended.finite(_apply_matrix(rows, v.payload(), target))
        for atom, v in mu.atom_values.items()
    }
    mu_t = Measure(mu.space, target, image_values)

    details: Dict[str, object] = {"image_classification": mu_t.classification()}
    if f is None:
        return verdict("push_forward", True, **details)
    if isinstance(f, SignedFunction):
        lhs = _apply_matrix(rows, integral.integrate_signed(f, mu), target)
        rhs = integral.integrate_signed(f, mu_t)
        ok = lhs == rhs
    else:
        base = integral.integral_value(f, mu)
        if not base.is_finite:
            raise HypothesisError(
                "push-forward intertwining needs a finite integral"
            )
        lhs = _apply_matrix(rows, base.payload(), target)
        rhs_v = integral.integral_value(f, mu_t)
        ok = rhs_v.is_finite and lhs == rhs_v.payload()
    details["intertwined"] = word(ok)
    details["image_integral"] = element_to_json(lhs)
    return verdict("push_forward", ok, **details)


def l1_quotient(mu: Measure, functions: Sequence[SignedFunction]) -> CheckResult:
    """Structure of the integrable functions modulo null functions.

    Two integrable functions are equivalent when they differ only on null
    atoms.  Verifies that equivalent functions have equal integrals, that a
    nonnegative class with zero integral is the zero class (strict
    positivity of the quotient integral), and that pointwise lattice
    operations descend to the classes.
    """
    for f in functions:
        if not integral.is_integrable(f, mu):
            raise NotIntegrableError("all inputs must be integrable")
    null = mu.null_mask

    def class_key(f: SignedFunction) -> tuple:
        """den, then the numerators off `null`, reduced by one gcd."""
        nums, den = spaces.canonical(
            tuple(n for x, n in enumerate(f.nums) if not null >> x & 1), f.den)
        return den, *nums

    keys = [class_key(f) for f in functions]
    classes: Dict[tuple, List[int]] = {}
    for i, key in enumerate(keys):
        classes.setdefault(key, []).append(i)

    ints = [integral.integrate_signed(f, mu) for f in functions]
    problems = []
    for members in classes.values():
        if any(ints[i] != ints[members[0]] for i in members[1:]):
            problems.append({"issue": "equal classes with unequal integrals",
                             "members": members})
    zero_el = spaces.zero(mu.backend)
    for i, (_, *nums) in enumerate(keys):
        if all(n >= 0 for n in nums) and ints[i] == zero_el:
            if any(nums):
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
        return verdict("l1_quotient", False, problems=problems, **details)
    return verdict("l1_quotient", True, **details)
