"""Exact arithmetic for Pell-type norm forms and sums of recurrence terms.

Everything here works over the integers and rationals: continued
fractions of square roots, solution orbits of x^2 - d*y^2 = m, closed
forms and degeneracy tests for linear recurrences, S-unit enumeration,
and searches for recurrence or S-unit sums landing in the solution
coordinate sets, with the counting bound that controls the finiteness
statements.
"""

from .errors import (
    InvariantViolationError,
    MixedFieldError,
    NotSquarefreeError,
    PellsumError,
    RepeatedRootError,
    TooManyIndicesError,
    TupleTooLargeError,
    UnknownRemarkError,
    UnsupportedOrderError,
)
from .fixtures import FixtureReport, verify_remark
from .normform import (
    NormFormProblem,
    NormFormSolutions,
    SolutionOrbit,
    UnitPowerForm,
    coordinate_set,
    solution_classes,
    solutions_within,
    unit_power_form,
)
from .partitions import bell_number, set_partitions
from .pell import PellData, continued_fraction_sqrt, pell_data
from .quadfield import QuadNum, is_squarefree, quad, squarefree_decompose, value_equal
from .recurrences import (
    BinetForm,
    DegeneracyVerdict,
    DependenceVerdict,
    LinearRecurrence,
    binet,
    characteristic_roots,
    is_degenerate,
    root_of_unity_order,
    roots_multiplicatively_independent,
    terms_up_to,
)
from .search import (
    PairHit,
    PartitionReport,
    RecurrenceHypotheses,
    SearchReport,
    SUnitHit,
    audit_hypotheses,
    coordinate_index,
    describe_bound,
    digit_count,
    pair_sum_search,
    partition_analysis,
    schlickewei_bound,
    sunit_sum_search,
    vanishing_pair_sums,
)
from .sunits import (
    SPrimeSet,
    SubsumCertificate,
    SUnit,
    enumerate_sunits,
    is_prime,
    subsums_nonvanishing,
    sunit_from_rational,
)

__version__ = "0.1.0"

__all__ = [
    "BinetForm",
    "DegeneracyVerdict",
    "DependenceVerdict",
    "FixtureReport",
    "InvariantViolationError",
    "LinearRecurrence",
    "MixedFieldError",
    "NormFormProblem",
    "NormFormSolutions",
    "NotSquarefreeError",
    "PairHit",
    "PartitionReport",
    "PellData",
    "PellsumError",
    "QuadNum",
    "RecurrenceHypotheses",
    "RepeatedRootError",
    "SPrimeSet",
    "SUnit",
    "SUnitHit",
    "SearchReport",
    "SolutionOrbit",
    "SubsumCertificate",
    "TooManyIndicesError",
    "TupleTooLargeError",
    "UnitPowerForm",
    "UnknownRemarkError",
    "UnsupportedOrderError",
    "audit_hypotheses",
    "bell_number",
    "binet",
    "characteristic_roots",
    "continued_fraction_sqrt",
    "coordinate_index",
    "coordinate_set",
    "describe_bound",
    "digit_count",
    "enumerate_sunits",
    "is_degenerate",
    "is_prime",
    "is_squarefree",
    "pair_sum_search",
    "partition_analysis",
    "pell_data",
    "quad",
    "root_of_unity_order",
    "roots_multiplicatively_independent",
    "schlickewei_bound",
    "set_partitions",
    "solution_classes",
    "solutions_within",
    "squarefree_decompose",
    "subsums_nonvanishing",
    "sunit_from_rational",
    "sunit_sum_search",
    "terms_up_to",
    "unit_power_form",
    "value_equal",
    "vanishing_pair_sums",
    "verify_remark",
]
