"""The integral routes as they were computed before the library moved them
onto integers, kept as test oracles.

All but one take a library function and read only its derived ``values``
(the Fraction and INFINITY tuple), so none of it shares the integer code it
is compared with: the closed form, the break-level ladder with `truncate`
and the rung integral, the canonical atom representation of dense values
(the former ``ElementaryFunction.from_dense``), the pointwise combination
of two functions with the extended scalar sum, order and product (the
former ``rationals.ext_scalar_add``, ``ext_scalar_leq`` and
``ext_scalar_mul``), and the terms of the three generated sequence kinds.

The exception is `combination_rung_integral`, the former
``integral._rung_integral``: the integral of a `truncate` rung as one
`spaces.combination` of the atom values, which the ladder ran on every
rung before it summed integer rows on the measure's atom table.
"""

import math
from fractions import Fraction
from typing import Sequence

import ordmeasure as om
from ordmeasure import extended, spaces
from ordmeasure.errors import OrdMeasureError, ValidationError
from ordmeasure.extended import ext_add, ext_leq, ext_scale, ext_zero
from ordmeasure.measures import mask_to_points
from ordmeasure.rationals import INFINITY, is_infinite


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
    return extended.finite(spaces.combination(mu.backend, pairs))


def combination_rung_integral(phi: om.ElementaryFunction, mu) -> om.ExtElement:
    """Integral of an elementary function whose terms are atoms of its space,
    as `truncate` builds them: the point at infinity when a positive
    coefficient sits on an atom of infinite measure, and otherwise one
    `spaces.combination` of the finite atom values over the rung's
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
    return extended.finite(spaces.combination(mu.backend, pairs, phi.den))


def closed_form_integral(f, mu) -> om.ExtElement:
    total = ext_zero(mu.backend)
    for atom, points in mu.space.atom_points.items():
        total = ext_add(total, ext_scale(f.values[points[0]], mu.atom_values[atom]))
    return total


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

