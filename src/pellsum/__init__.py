"""Exact arithmetic for Pell-type norm forms and sums of recurrence terms.

Everything here works over the integers and rationals: continued
fractions of square roots, solution orbits of x^2 - d*y^2 = m, closed
forms and degeneracy tests for linear recurrences, S-unit enumeration,
and searches for recurrence or S-unit sums landing in the solution
coordinate sets, with the counting bound that controls the finiteness
statements.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name and the layer that defines it. A layer is imported the
# first time one of its names is read (PEP 562), so a program, or a CLI job,
# that needs only the Pell layer never compiles the searches.
_LAYER_NAMES = {
    "errors": (
        "InvariantViolationError",
        "MixedFieldError",
        "NotSquarefreeError",
        "PellsumError",
        "RepeatedRootError",
        "SearchBudgetError",
        "TooManyIndicesError",
        "TupleTooLargeError",
        "UnknownRemarkError",
        "UnsupportedOrderError",
    ),
    "fixtures": ("FixtureReport", "verify_remark"),
    "normform": (
        "NormFormProblem",
        "NormFormSolutions",
        "SolutionOrbit",
        "coordinate_set",
        "solution_classes",
    ),
    "partitions": ("PartitionReport", "bell_number", "partition_analysis", "set_partitions"),
    "pell": ("PellData", "continued_fraction_sqrt", "pell_data"),
    "quadfield": (
        "QuadNum",
        "is_squarefree",
        "quad",
        "squarefree_decompose",
        "value_equal",
    ),
    "recurrences": (
        "BinetForm",
        "DegeneracyVerdict",
        "DependenceVerdict",
        "LinearRecurrence",
        "RecurrenceHypotheses",
        "audit_hypotheses",
        "binet",
        "characteristic_roots",
        "is_degenerate",
        "root_of_unity_order",
        "roots_multiplicatively_independent",
        "terms_up_to",
    ),
    "search": (
        "PairHit",
        "SearchReport",
        "SUnitHit",
        "coordinate_index",
        "describe_bound",
        "digit_count",
        "pair_sum_search",
        "schlickewei_bound",
        "sunit_sum_search",
        "vanishing_pair_sums",
    ),
    "sunits": (
        "SPrimeSet",
        "SubsumCertificate",
        "SUnit",
        "enumerate_sunits",
        "is_prime",
        "subsums_nonvanishing",
    ),
}
_LAYER_OF = {name: layer for layer, names in _LAYER_NAMES.items() for name in names}

__all__ = sorted(_LAYER_OF)


def __getattr__(name: str):
    try:
        layer = _LAYER_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f"{__name__}.{layer}"), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | _LAYER_OF.keys())
