"""Order measures that norm-based vector measures cannot handle.

Two truncated experiments on the sequence space with the supremum norm,
which is used only inside this harness:

* ``sup_measure``: the measure of a set is the coordinatewise supremum of
  the unit vectors it selects.  Order sigma-additivity validates exactly,
  while the terms of the corresponding series have supremum norm one, so
  they do not even converge to zero in norm and no norm-convergent series
  can represent the measure.

* ``series_measure``: the measure of {n} is the n-th unit vector divided
  by n (1-based).  The unbounded function n -> n is order integrable with
  the all-ones vector as integral, yet the partial classical integrals are
  at supremum-norm distance one from each other, so they are not a Cauchy
  sequence and the order integral strictly extends the norm-based one.
"""

from __future__ import annotations

import math
from itertools import accumulate

from . import integral as integral_mod
from .errors import MAX_TRUNCATION, ValidationError, check_cap
from .extended import element_to_json, ext_add, ext_leq, ext_zero, finite
from .measures import Measure, full_mask, power_set_space
from .rationals import format_pair
from .reports import word
from .spaces import Element, add, basis_vector, coord, scale, sub


def _sup_norm(el: Element) -> int:
    """The supremum norm of `el` times its denominator."""
    return max(abs(n) for n in el.nums)


def sup_norm(el: Element) -> "Fraction":
    """The supremum norm of `el`, a Fraction of the library API."""
    from fractions import Fraction
    return Fraction(_sup_norm(el), el.den)


def _check_truncation(n: int):
    if n < 1:
        raise ValidationError(f"truncation must be positive, got {n}")
    check_cap("truncation", n, MAX_TRUNCATION)


def sup_measure_experiment(n: int) -> dict:
    """Unit-vector supremum measure truncated to n points."""
    _check_truncation(n)
    backend = coord(n)
    space = power_set_space(n)
    atom_values = {1 << i: finite(basis_vector(backend, i)) for i in range(n)}
    mu = Measure(space, backend, atom_values)

    # Order sigma-additivity at the truncation: increasing partial sums of
    # the atom values reach the evaluation of the full set.
    partials = list(accumulate(atom_values.values(), ext_add, initial=ext_zero(backend)))
    total = mu.evaluate(full_mask(n))
    sigma_ok = all(map(ext_leq, partials, partials[1:])) and partials[-1] == total

    # the largest singleton norm from each cut on: one running max, backwards,
    # on the norms over one denominator
    singletons = [mu.evaluate(1 << i).payload() for i in range(n)]
    den = math.lcm(*(el.den for el in singletons))
    norms = [_sup_norm(el) * (den // el.den) for el in singletons]
    tail_norms = [format_pair(t, den) for t in accumulate(reversed(norms), max)][::-1]
    return {
        "experiment": "sup_measure",
        "n": n,
        "sigma_additivity": word(sigma_ok),
        "total": element_to_json(total.payload()),
        "tail_sup_norms": tail_norms,
        "norm_cauchy": all(t == "0" for t in tail_norms),
    }


def series_measure_experiment(n: int) -> dict:
    """Weighted unit-vector series measure and the unbounded integrand."""
    _check_truncation(n)
    backend = coord(n)
    space = power_set_space(n)
    atom_values = {1 << i: finite(scale((1, i + 1), basis_vector(backend, i)))
                   for i in range(n)}
    mu = Measure(space, backend, atom_values)

    growing = integral_mod.ExtFunction.from_nums(space, tuple(range(1, n + 1)), 1)
    report = integral_mod.integrate_extended(growing, mu)
    integral = report.value.payload()

    # Partial classical integrals of the truncations are sums of unit
    # vectors; consecutive ones differ by a whole unit vector in sup norm.
    partials = list(accumulate((basis_vector(backend, i) for i in range(n)), add))
    distances = [format_pair(_sup_norm(d), d.den)
                 for d in (sub(b, a) for a, b in zip(partials, partials[1:]))]
    return {
        "experiment": "series_measure",
        "n": n,
        "integral": element_to_json(integral),
        "ladder": report.trail,
        "consecutive_partial_distances": distances,
        "norm_cauchy": all(d == "0" for d in distances),
    }


def comparison_experiment(kind: str, n: int) -> dict:
    if kind == "sup_measure":
        return sup_measure_experiment(n)
    if kind == "series_measure":
        return series_measure_experiment(n)
    raise ValidationError(f"unknown experiment kind {kind!r}")
