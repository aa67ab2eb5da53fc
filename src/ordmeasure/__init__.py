"""Order measure theory over finite ground sets, in exact rational arithmetic.

Measures valued in the extended positive cone of a partially ordered vector
space, the Caratheodory construction of measurable sets from outer
measures, and the order integral with its convergence theorems, all
executable and property-testable on desk-scale instances.

Every public name is importable from the package (``from ordmeasure import
Measure``, ``ordmeasure.Measure``), but its submodule is imported only when
the name is first read (PEP 562), so ``python -m ordmeasure.cli`` compiles
only the modules that its subcommand runs.
"""

import importlib

__version__ = "0.1.0"

# Exported name -> the submodule that defines it.
_EXPORTS = {
    name: module
    for module, names in (
        ("errors", "CertificationError DimensionLimitError HypothesisError "
                   "NotIntegrableError OrdMeasureError SchemaError SpaceMismatchError "
                   "ValidationError"),
        ("rationals", "INFINITY format_rational parse_rational"),
        ("sequences", "DEFAULT_EPSILONS DEFAULT_HORIZON DeclaredLimit Periodic SequenceSpec "
                      "from_terms geometric listed scaled_index truncation_ladder"),
        ("spaces", "Element NoSupremum SpaceDescriptor SpaceKind add basis_vector "
                   "coord element entrywise_mat inf_pair is_psd leq loewner_sym "
                   "order_unit reals scale sub sup_pair sym_matrix zero"),
        ("extended", "ExtElement ext_add ext_leq ext_scale finite infinity"),
        ("measures", "MeasurableSpace Measure check_measure_identities "
                     "generate_sigma_algebra points_to_mask mask_to_points "
                     "power_set_space validate_sigma_algebra"),
        ("measure_checks", "borel_cantelli continuity_from_above continuity_from_below "
                           "operator_measure_bridge"),
        ("outer", "OuterMeasure caratheodory_measurable extract_measurable_algebra "
                  "induce_outer validate_outer_measure"),
        ("integral", "ElementaryFunction ExtFunction IntegralReport SignedFunction "
                     "dct ext_function fatou integral_value "
                     "integrate_elementary integrate_extended integrate_signed mct "
                     "mct_decreasing signed_function truncate"),
        ("integral_checks", "ae_analysis check_integral_laws l1_quotient push_forward "
                            "triangle_inequality"),
        ("compare", "comparison_experiment sup_norm"),
        ("scenarios", "RunConfig Scenario canonical_dumps load_scenario parse_scenario "
                      "run_scenario"),
    )
    for name in names.split()
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
