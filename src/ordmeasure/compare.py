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

from fractions import Fraction

from . import integral as integral_mod
from .errors import MAX_TRUNCATION, ValidationError, check_cap
from .extended import ext_add, ext_leq, ext_zero, finite
from .measures import Measure, full_mask, power_set_space
from .rationals import format_rational
from .spaces import Element, basis_vector, coord


def sup_norm(el: Element) -> Fraction:
    return max((abs(c) for c in el.coords), default=Fraction(0))


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
    partial = ext_zero(backend)
    increasing = True
    for i in range(n):
        nxt = ext_add(partial, atom_values[1 << i])
        increasing = increasing and ext_leq(partial, nxt)
        partial = nxt
    total = mu.evaluate(full_mask(n))
    sigma_ok = increasing and partial == total

    tail_norms = []
    for cut in range(n):
        worst = max(
            sup_norm(mu.evaluate(1 << i).payload()) for i in range(cut, n)
        )
        tail_norms.append(format_rational(worst))
    return {
        "experiment": "sup_measure",
        "n": n,
        "sigma_additivity": "holds" if sigma_ok else "fails",
        "total": [format_rational(c) for c in total.payload().coords],
        "tail_sup_norms": tail_norms,
        "norm_cauchy": all(t == "0" for t in tail_norms),
    }


def series_measure_experiment(n: int) -> dict:
    """Weighted unit-vector series measure and the unbounded integrand."""
    _check_truncation(n)
    backend = coord(n)
    space = power_set_space(n)
    atom_values = {
        1 << i: finite(Element(
            backend,
            tuple(Fraction(1, i + 1) if j == i else Fraction(0) for j in range(n)),
        ))
        for i in range(n)
    }
    mu = Measure(space, backend, atom_values)

    growing = integral_mod.ext_function(space, [Fraction(i + 1) for i in range(n)])
    report = integral_mod.integrate_extended(growing, mu)
    integral = report.value.payload()

    # Partial classical integrals of the truncations are sums of unit
    # vectors; consecutive ones differ by a whole unit vector in sup norm.
    partials = []
    for k in range(1, n + 1):
        coords = tuple(
            Fraction(1) if i < k else Fraction(0) for i in range(n)
        )
        partials.append(Element(backend, coords))
    distances = [
        format_rational(sup_norm(Element(
            backend,
            tuple(a - b for a, b in zip(partials[k + 1].coords, partials[k].coords)),
        )))
        for k in range(n - 1)
    ]
    return {
        "experiment": "series_measure",
        "n": n,
        "integral": [format_rational(c) for c in integral.coords],
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
