"""The integral routes as they were computed before the library moved them
onto integers, kept as test oracles.

All but a few take a library function and read only its derived ``values``
(the Fraction and INFINITY tuple), so none of it shares the integer code it
is compared with: the closed form, the break-level ladder with `truncate`
and the rung integral, the canonical atom representation of dense values
(the former ``ElementaryFunction.from_dense``), the pointwise combination
of two functions with the extended scalar sum, order and product (the
former ``rationals.ext_scalar_add``, ``ext_scalar_leq`` and
``ext_scalar_mul``), the terms of the three generated sequence kinds, and
the Fraction class key of `integral_checks.l1_quotient`;
`assert_routes_agree` compares both routes of the integral core
(`core_routes`, read through `ext_value`) with them.
The former ``rationals.format_ext_scalar`` and ``integral.indicator``,
which only the tests used, are here too, and `fraction_parse_rational`,
the former ``rationals.parse_rational``, which read a rational string
into a Fraction before the library read every number as an integer pair.

The exceptions read a function's integer form as the library did before
it moved onto one table.  `combination_rung_integral`, the former
``integral._rung_integral``, is the integral of a `truncate` rung as one
`combination` of the atom values, which the ladder ran on every rung
before it summed integer rows on the measure's atom table; `combination`
is the former general body of `spaces.combination`, with coefficients and
a common denominator, which the library now only uses to sum.
`out_of_order_points` and `certify_scalar_convergence`, the former
``integral._out_of_order_points`` and ``_certify_scalar_convergence``, are
the order test and the pointwise certificate of the monotone convergence
theorem before it compared all its functions on one `_columns` table:
the first crosswise on each pair of numerators, the second over one lcm
per ground point, on the side of the target that the direction names.

`minors_psd` decides positive semidefiniteness by every principal minor,
and the ``frac_*`` functions are the Fraction-tuple arithmetic, order and
lattice operations of an element before it stored integer numerators over
one denominator, with None for infinity in `frac_row`, `frac_ext_add` and
`frac_ext_leq`; they share nothing with the row kernels of `spaces`, on
which the element, extended and table operations all run.

`ext_certify_monotone_limit` is the former ``extended.certify_monotone_limit``
on extended elements, before the certifier moved onto the integer rows of
the integral core; its divergence branch scans the full ladder of bounds
(`ladder_certify_divergence`) instead of bisecting it.  It, the ladder
divergence scan, `closed_form_integral` and the order test of
`ladder_supremum` decide every sum, scaling and order test on Fraction
coordinates (`frac_ext`, `frac_ext_add`, `frac_ext_leq`, `frac_scale`), not
on the row kernels of the routes they check.
"""

import itertools
import json
import math
import re
from fractions import Fraction
from typing import Sequence

import ordmeasure as om
from ordmeasure import extended, integral, spaces
from ordmeasure.errors import CertificationError, OrdMeasureError, SchemaError, ValidationError
from ordmeasure.measures import mask_to_points
from ordmeasure.rationals import INFINITY, is_infinite
from ordmeasure.sequences import certify_gaps, stable_from


def elementary_from_dense(space, values: Sequence[Fraction]) -> om.ElementaryFunction:
    """Canonical atom representation of finite nonnegative dense values."""
    terms = []
    for atom in space.atoms:
        v = values[mask_to_points(atom)[0]]
        for x in mask_to_points(atom):
            if values[x] != v:
                raise ValidationError("values are not constant on an atom")
        if v != 0:
            terms.append((Fraction(v), atom))
    return om.ElementaryFunction(space, tuple(terms))


def truncate_terms(f, level: int) -> tuple:
    """The (Fraction coefficient, atom) terms of the rung f /\\ level: one per
    atom where the rung is positive, read from the atom's first point."""
    cap = Fraction(level)
    terms = []
    for atom, points in f.space.atom_points.items():
        v = f.values[points[0]]
        v = cap if is_infinite(v) else min(v, cap)
        if v:
            terms.append((v, atom))
    return tuple(terms)


def combination(space, pairs, den: int = 1) -> om.Element:
    """The linear combination sum of (r / den) * e over `(r, e)` pairs of
    `space`, for int or Fraction r and an int den > 0: every term over one
    common denominator, the lcm of the products r.denominator * e.den, and
    the result reduced by a single gcd.  An empty combination is zero."""
    terms = []
    for r, e in pairs:
        r = Fraction(r)
        if r:
            terms.append((r.numerator, r.denominator * e.den, e.nums))
    common = math.lcm(*(d for _, d, _ in terms))
    acc = [0] * space.ncoords
    for num, d, nums in terms:
        factor = num * (common // d)
        acc = [a + factor * x for a, x in zip(acc, nums)]
    return spaces._element(space, tuple(acc), common * den)


def rung_integral(terms: tuple, mu) -> om.ExtElement:
    """The integral of atom terms: infinity when a positive coefficient sits
    on an atom of infinite measure, else one combination with Fraction
    coefficients."""
    pairs = []
    for coeff, atom in terms:
        value = mu.atom_values[atom].finite
        if value is None:
            if coeff:
                return extended.infinity(mu.backend)
        else:
            pairs.append((coeff, value))
    return extended.finite(combination(mu.backend, pairs))


def combination_rung_integral(phi: om.ElementaryFunction, mu) -> om.ExtElement:
    """Integral of an elementary function whose terms are atoms of its space,
    as `truncate` builds them: the point at infinity when a positive
    coefficient sits on an atom of infinite measure, and otherwise one
    `combination` of the finite atom values over the rung's
    denominator (a zero coefficient kills an infinite atom)."""
    if phi.space is not mu.space and phi.space != mu.space:
        raise ValidationError("function and measure live on different spaces")
    pairs = []
    for coeff, atom in phi.terms:
        value = mu.atom_values[atom].finite
        if value is None:
            if coeff:
                return extended.infinity(mu.backend)
        else:
            pairs.append((coeff, value))
    return extended.finite(combination(mu.backend, pairs, phi.den))


def fraction_class_key(f, null: int) -> tuple:
    """The former class key of `integral_checks.l1_quotient`: f's Fraction
    values off the points of `null`."""
    return tuple(v for x, v in enumerate(f.values) if not null >> x & 1)


def closed_form_integral(f, mu) -> om.ExtElement:
    """The closed form on Fraction coordinates: each atom's value scaled by
    f's value there (`frac_scale`; zero times infinity, either way round, is
    zero), summed by `frac_ext_add`."""
    total = (Fraction(0),) * mu.backend.ncoords
    for atom, points in mu.space.atom_points.items():
        r, a = f.values[points[0]], frac_ext(mu.atom_values[atom])
        if r == 0 or (a is not None and not any(a)):
            continue
        total = frac_ext_add(total, None if is_infinite(r) or a is None
                             else frac_scale(r, a))
    return frac_to_ext(mu.backend, total)


def ext_value(mu, value) -> om.ExtElement:
    """An integer value of the integral core, (nums, den) or None for
    infinity, as the extended element of `mu`'s backend that it stands for."""
    if value is None:
        return extended.infinity(mu.backend)
    return om.finite(om.Element(mu.backend, tuple(Fraction(n, value[1]) for n in value[0])))


def core_routes(f, mu) -> tuple:
    """The two routes of the integral core `integral._core` on f's
    canonical integer form, recomputed: the closed form's value, and the
    ladder's value and trail, each value as an extended element."""
    closed = integral._closed_form(f.nums, f.den, f.inf, mu)
    ladder, trail = integral._ladder_supremum(f.nums, f.den, f.inf, mu)
    return ext_value(mu, closed), (ext_value(mu, ladder), trail)


def assert_routes_agree(report, f, mu):
    """Each route of the integral core, recomputed for the report that
    `integral.integrate_extended` gives f, gives the value of its `report`
    (the ladder its trail too) and what its Fraction oracle gives."""
    closed, ladder = core_routes(f, mu)
    assert closed == report.value == closed_form_integral(f, mu)
    assert ladder == (report.value, report.trail) == ladder_supremum(f, mu)


def ladder_supremum(f, mu):
    """The break-level ladder on Fraction values: levels 1, nstar, nstar + 1,
    and floor(v) and ceil(v) of every finite value v, at least 1."""
    finite_vals = {v for v in f.values if not is_infinite(v)}
    top = max(finite_vals, default=Fraction(0))
    nstar = max(1, math.ceil(top))
    levels = {1, nstar, nstar + 1}
    levels.update(k for v in finite_vals for k in (math.floor(v), math.ceil(v))
                  if k >= 1)
    rungs = []
    for n in sorted(levels):
        rung = rung_integral(truncate_terms(f, n), mu)
        if rungs and not frac_ext_leq(mu.backend, frac_ext(rungs[-1]), frac_ext(rung)):
            raise OrdMeasureError("ladder integrals failed to increase")
        rungs.append(rung)
        if rung.is_infinite:
            return extended.infinity(mu.backend), {
                "mode": "infinite-rung", "at_level": n}
    if rungs[-1] == rungs[-2]:
        return rungs[-1], {"mode": "stabilized", "at_level": nstar}
    return extended.infinity(mu.backend), {
        "mode": "divergent", "increment_from_level": nstar}


def ext_scalar_add(a, b):
    """Sum on the extended half line, with infinity absorbing."""
    if a is INFINITY or b is INFINITY:
        return INFINITY
    return a + b


def ext_scalar_leq(a, b) -> bool:
    """Order on the extended half line: every scalar is below infinity."""
    if b is INFINITY:
        return True
    if a is INFINITY:
        return False
    return a <= b


def ext_scalar_mul(a, b):
    """Product on the extended half line, with 0 absorbing against infinity."""
    if a is INFINITY:
        return INFINITY if b != 0 else Fraction(0)
    if b is INFINITY:
        return INFINITY if a != 0 else Fraction(0)
    return a * b


def combine_values(r1, f, r2, g) -> tuple:
    """Pointwise r1*f + r2*g with the extended scalar conventions."""
    return tuple(
        ext_scalar_add(ext_scalar_mul(Fraction(r1), a), ext_scalar_mul(Fraction(r2), b))
        for a, b in zip(f.values, g.values))


def geometric_term(base: list, bump: list, ratio: Fraction, n: int) -> list:
    return [b + ratio**n * h for b, h in zip(base, bump)]


def ladder_term(f: list, n: int) -> list:
    return [Fraction(n) if is_infinite(v) else min(v, Fraction(n)) for v in f]


def scaled_term(shape: list, n: int) -> list:
    return [Fraction(n) * v for v in shape]



def format_ext_scalar(r) -> str:
    """An extended scalar as the library prints it: "infinity" or the rational."""
    return "infinity" if r is INFINITY else om.format_rational(r)


def indicator(space, mask: int, coefficient=Fraction(1)) -> om.ExtFunction:
    """`coefficient` on the points of the measurable set `mask`, 0 elsewhere."""
    space.require_measurable(mask)
    return om.ext_function(space, [coefficient if mask >> x & 1 else 0
                                   for x in range(space.ground_size)])


def out_of_order_points(pairs, increasing: bool) -> int:
    """Mask of the points x where some pair of functions (g, h) has g(x)
    not below h(x) (not above, when decreasing).  Finite values compare by
    their numerators crosswise."""
    bad = 0
    for g, h in pairs:
        if not increasing:
            g, h = h, g
        gd, hd, either = g.den, h.den, g.inf | h.inf
        bad |= g.inf & ~h.inf
        for x, (a, b) in enumerate(zip(g.nums, h.nums)):
            if a * hd > b * gd and not either >> x & 1:
                bad |= 1 << x
    return bad


def certify_scalar_convergence(terms, f, x: int, epsilons, increasing: bool):
    """Pointwise convergence certificate at the ground point x, on the values
    there as numerators over the lcm of the denominators (None: infinite)."""
    den = math.lcm(f.den, *(t.den for t in terms))

    def at(g):
        return None if g.inf >> x & 1 else g.nums[x] * (den // g.den)
    samples, target = [at(t) for t in terms], at(f)
    if samples[-1] == target:
        return
    if target is None:
        k = len(samples) if None in samples else max(1, -(-max(samples) // den))
        if k < len(samples):
            raise CertificationError(
                f"divergence at point {x} not certified against bound {k}")
        return

    sign = 1 if increasing else -1

    def probe(eps):  # the sample is within eps = (num, den) of the target, on its side
        bound, q = eps[0] * den, eps[1]
        return lambda i: (samples[i - 1] is not None
                          and (target - samples[i - 1]) * sign * q <= bound)

    certify_gaps([(e.numerator, e.denominator) for e in map(Fraction, epsilons)],
                 len(samples), probe, f"pointwise gap {{eps}} at point {x} not certified")


def ladder_certify_divergence(terms) -> int:
    """Oracle for `extended.certify_divergence` on the Fraction coordinates of
    extended elements: every rung k = 1 .. h - 1 of h terms tested (rung 1
    when h is 1), and the top rung returned."""
    space = terms[0].space
    unit, coords = om.order_unit(space).coords, [frac_ext(t) for t in terms]
    top = max(len(terms), 2) - 1
    for k in range(1, top + 1):
        bound = frac_scale(k, unit)
        if not any(not frac_ext_leq(space, t, bound) for t in coords):
            raise CertificationError(
                f"divergence not certified: all samples below {k} * unit"
            )
    return top


def ext_certify_monotone_limit(values, target, epsilons, increasing: bool = True) -> dict:
    """The certificate that `target` is the supremum of the increasing
    extended elements `values`, or the infimum of the decreasing ones: the
    stabilized, divergence-certified or gap-certified mode with its
    evidence, or the CertificationError that refuses it.  Every order test
    and sum is decided on Fraction coordinates; the `epsilons` are pairs
    (num, den), as the library's certifier takes them."""
    space, coords, goal = target.space, [frac_ext(v) for v in values], frac_ext(target)

    def precedes(a, b):
        return frac_ext_leq(space, a, b) if increasing else frac_ext_leq(space, b, a)

    direction = "increasing" if increasing else "decreasing"
    for n in range(1, len(coords)):
        if not precedes(coords[n - 1], coords[n]):
            raise CertificationError(f"integral sequence not {direction} at {n}")
    crossing = "exceeds" if increasing else "dips below"
    for n, v in enumerate(coords, start=1):
        if not precedes(v, goal):
            raise CertificationError(f"integral sequence {crossing} the target at {n}")
    if values[-1] == target:
        return {"mode": "stabilized", "at": stable_from(values).index}
    if target.is_infinite:
        return {"mode": "divergence-certified",
                "ladder_top": ladder_certify_divergence(values)}
    unit = spaces.order_unit(space).coords

    def probe(eps):  # a pair (num, den), as the library's certifier takes it
        bump = frac_scale(Fraction(*eps), unit)
        if increasing:
            return lambda i: frac_ext_leq(space, goal, frac_ext_add(coords[i - 1], bump))
        ceiling = frac_ext_add(goal, bump)
        return lambda i: frac_ext_leq(space, coords[i - 1], ceiling)

    gaps = certify_gaps(epsilons, len(values), probe, "integral gap {eps} not certified")
    return {"mode": "gap-certified", "gaps": gaps}


def _det(rows: list) -> Fraction:
    """Exact determinant by fraction Gaussian elimination."""
    n = len(rows)
    m = [list(row) for row in rows]
    det = Fraction(1)
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if m[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            if m[r][col] != 0:
                factor = m[r][col] * inv
                for c in range(col, n):
                    m[r][c] -= factor * m[col][c]
    return det


def minors_psd(coords: tuple, d: int) -> bool:
    """Oracle: PSD iff every principal minor (not only the leading ones) is >= 0.

    `coords` are the d x d matrix's Fraction entries, row-major."""
    return all(
        _det([[coords[i * d + j] for j in subset] for i in subset]) >= 0
        for size in range(1, d + 1)
        for subset in itertools.combinations(range(d), size)
    )


# The Fraction-tuple arithmetic an Element used before it stored integer
# numerators over one denominator, kept as the oracle for the integer code.
def frac_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def frac_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def frac_neg(a):
    return tuple(-x for x in a)


def frac_scale(r, a):
    return tuple(r * x for x in a)


def frac_leq(space, a, b):
    if space.kind is om.SpaceKind.LOEWNER_SYM:
        return minors_psd(frac_sub(b, a), space.dim)
    return all(x <= y for x, y in zip(a, b))


def frac_sup_pair(space, a, b):
    """The supremum, or None where `sup_pair` declines."""
    if space.is_lattice:
        return tuple(max(x, y) for x, y in zip(a, b))
    if frac_leq(space, a, b):
        return b
    if frac_leq(space, b, a):
        return a
    return None


def frac_inf_pair(space, a, b):
    if space.is_lattice:
        return tuple(min(x, y) for x, y in zip(a, b))
    if frac_leq(space, a, b):
        return a
    if frac_leq(space, b, a):
        return b
    return None


def frac_abs_element(a):
    return tuple(abs(x) for x in a)


def frac_row(row):
    """A row of the kernels of `spaces`, (nums, den) or None for infinity,
    as its Fraction coordinates, or None."""
    return None if row is None else tuple(Fraction(n, row[1]) for n in row[0])


def frac_ext_add(a, b):
    """The sum of two Fraction tuples, None (infinity) absorbing."""
    return None if a is None or b is None else frac_add(a, b)


def frac_ext_leq(space, a, b) -> bool:
    """a <= b for Fraction tuples or None (infinity)."""
    return b is None or (a is not None and frac_leq(space, a, b))


def frac_ext(v):
    """An extended element as its Fraction coordinates, or None for infinity."""
    return None if v.is_infinite else v.finite.coords


def frac_to_ext(space, coords) -> om.ExtElement:
    """Fraction coordinates, or None for infinity, as an extended element of
    `space`."""
    return extended.infinity(space) if coords is None else om.finite(om.Element(space, coords))


_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def fraction_parse_rational(text, path: str = "") -> Fraction:
    """Parse "p/q" or "p" into a Fraction; reject zero denominators.

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
