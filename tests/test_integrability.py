"""Whether a signed function is integrable, asked once, against the routes it replaced.

`integrate_signed`, `dct` and `l1_quotient` ask `is_integrable` (a finite
integral of |f|) and then read the trusted row `integral._signed_row`,
which asks nothing; `l1_quotient` computes on integer forms.  Here, on
generated measures with null, positive and infinite atoms:

- `integrate_signed` refuses, with one message, exactly the functions whose
  |f| has an infinite Fraction closed form (`integral_oracles`), and
  otherwise gives f+ - f- on Fraction coordinates;
- `l1_quotient` gives the status, details or refusal of the former check,
  rebuilt here on Fraction values: `SignedFunction.values`, `sup_with` and
  `inf_with`, `integrate_signed` and `integral_oracles.fraction_class_key`;
- `ext_function` and `signed_function`, which pass their values to the
  validating constructors as they are, build the function, or refuse with
  the message, that those constructors give on the values made Fractions;
  a (num, den) pair, in lowest terms or not, is the Fraction num / den.
"""

from datetime import timedelta
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ordmeasure as om
from ordmeasure import integral, integral_checks
from ordmeasure.errors import NotIntegrableError, ValidationError
from ordmeasure.rationals import INFINITY

import integral_oracles as oracle

BUDGET = settings(max_examples=200, deadline=timedelta(seconds=5), derandomize=True)
BACKENDS = [om.reals(), om.coord(2), om.coord(3), om.entrywise_mat(2, 2)]
positive = st.fractions(min_value=Fraction(1, 6), max_value=4, max_denominator=6)
value = st.one_of(st.just(Fraction(0)), st.integers(-3, 3).map(Fraction),
                  st.fractions(min_value=-4, max_value=4, max_denominator=6))


@st.composite
def quotient_cases(draw):
    """(mu, functions): a measure on a power set or generated algebra of 1
    to 4 points, with null, positive and infinite atoms, and 1 to 5 signed
    functions, each new or a copy of an earlier one changed on some null
    atoms.  A function is mostly zero on an infinite atom, so that most
    are integrable and some are not."""
    backend = draw(st.sampled_from(BACKENDS))
    ground = draw(st.integers(1, 4))
    gens = draw(st.lists(st.integers(0, (1 << ground) - 1), max_size=2))
    space = (om.power_set_space(ground) if draw(st.booleans())
             else om.generate_sigma_algebra(gens, ground))
    kinds = ["positive"] * 2 + ["null"] * 2 + ["infinite"]
    atom_values = {}
    for atom in space.atoms:
        kind = draw(st.sampled_from(kinds))
        atom_values[atom] = (om.infinity(backend) if kind == "infinite"
                             else om.finite(om.zero(backend)) if kind == "null"
                             else om.finite(om.Element(backend, tuple(
                                 draw(positive) for _ in range(backend.ncoords)))))
    mu = om.Measure(space, backend, atom_values)
    null = mu.null_mask

    def per_atom(base=None):
        out = {}
        for atom in space.atoms:
            if base is not None and not (atom & null and draw(st.booleans())):
                out[atom] = base[atom]
            elif atom_values[atom].is_infinite and draw(st.integers(0, 3)):
                out[atom] = Fraction(0)
            else:
                out[atom] = draw(value)
        return out

    made = []
    for _ in range(draw(st.integers(1, 5))):
        made.append(per_atom(draw(st.sampled_from([None] + made))))
    return mu, [om.signed_function(space, [next(v for a, v in f.items() if a >> x & 1)
                                           for x in range(ground)]) for f in made]


def fraction_signed(f, mu):
    """The coordinates of f+ - f- by the Fraction closed form, or None when
    |f| has an infinite integral."""
    pos, neg = (oracle.closed_form_integral(
        om.ext_function(f.space, [max(s * v, 0) for v in f.values]), mu) for s in (1, -1))
    if pos.is_infinite or neg.is_infinite:
        return None
    return oracle.frac_sub(pos.finite.coords, neg.finite.coords)


def former_l1_quotient(mu, functions):
    """The status and details of the former `l1_quotient`, which built
    elements and functions: each input's `integrate_signed`, its class keyed
    by `fraction_class_key`, and the suprema and infima by `sup_with` and
    `inf_with`.  Raises NotIntegrableError as it did."""
    for f in functions:
        if not integral.is_integrable(f, mu):
            raise NotIntegrableError("all inputs must be integrable")
    null = mu.null_mask
    keys = [oracle.fraction_class_key(f, null) for f in functions]
    classes = {}
    for i, key in enumerate(keys):
        classes.setdefault(key, []).append(i)
    ints = [om.integrate_signed(f, mu) for f in functions]
    problems = []
    for members in classes.values():
        if any(ints[i] != ints[members[0]] for i in members[1:]):
            problems.append({"issue": "equal classes with unequal integrals",
                             "members": members})
    for i, key in enumerate(keys):
        if all(v >= 0 for v in key) and ints[i] == om.zero(mu.backend) and any(key):
            problems.append({"issue": "strict positivity violated", "index": i})
    for m1 in classes.values():
        for m2 in classes.values():
            f1, f2 = functions[m1[0]], functions[m1[-1]]
            g1, g2 = functions[m2[0]], functions[m2[-1]]
            for op, issue in (("sup_with", "supremum"), ("inf_with", "infimum")):
                if (oracle.fraction_class_key(getattr(f1, op)(g1), null)
                        != oracle.fraction_class_key(getattr(f2, op)(g2), null)):
                    problems.append({"issue": f"{issue} does not descend",
                                     "classes": [m1, m2]})
    details = {"classes": sorted(classes.values()), "null_union": om.mask_to_points(null)}
    if problems:
        return "fails", {"problems": problems, **details}
    return "holds", details


@BUDGET
@given(quotient_cases())
def test_integrate_signed_refuses_exactly_the_non_integrable(case):
    mu, functions = case
    for f in functions:
        expected = fraction_signed(f, mu)
        assert integral.is_integrable(f, mu) == (expected is not None)
        if expected is None:
            with pytest.raises(NotIntegrableError,
                               match=r"^the function has an infinite \|f\| integral$"):
                om.integrate_signed(f, mu)
        else:
            assert om.integrate_signed(f, mu).coords == expected


@BUDGET
@given(quotient_cases())
def test_l1_quotient_matches_the_former_check(case):
    mu, functions = case
    try:
        expected = former_l1_quotient(mu, functions)
    except NotIntegrableError:
        with pytest.raises(NotIntegrableError, match="^all inputs must be integrable$"):
            integral_checks.l1_quotient(mu, functions)
        return
    report = integral_checks.l1_quotient(mu, functions)
    assert (report.status, report.details) == expected


def outcome(build, space, values):
    """The function that `build` makes of `values`, or its refusal's text."""
    try:
        return build(space, values)
    except ValidationError as exc:
        return str(exc)


@BUDGET
@given(st.data())
def test_function_builders_match_the_validating_constructors(data):
    """Values at each point of a generated algebra, so that some functions
    are not measurable; ints, Fractions, pairs and INFINITY, some negative."""
    n = data.draw(st.integers(1, 4))
    gens = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=2))
    space = om.generate_sigma_algebra(gens, n)
    scalar = st.one_of(st.integers(-2, 3),
                       st.fractions(min_value=-2, max_value=3, max_denominator=4),
                       st.tuples(st.integers(-4, 6), st.integers(1, 4)))
    values = data.draw(st.lists(st.one_of(scalar, st.just(INFINITY)), min_size=n,
                                max_size=n))
    fractions = tuple(v if v is INFINITY else Fraction(*v) if isinstance(v, tuple)
                      else Fraction(v) for v in values)
    for builder, constructor in ((om.ext_function, om.ExtFunction),
                                 (om.signed_function, om.SignedFunction)):
        expected = outcome(constructor, space, fractions)
        assert outcome(builder, space, values) == expected
        assert outcome(builder, space, iter(values)) == expected
        if not isinstance(expected, str):
            assert expected.values == fractions
