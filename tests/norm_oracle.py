"""The solver's solutions in a box, for comparison with direct scans."""

from pellsum.normform import NormFormProblem, solution_classes


def solutions_within(problem: NormFormProblem, bound: int) -> list[tuple[int, int]]:
    """All solutions with 0 <= x <= bound, folded to nonnegative pairs.

    Walks every solution class the solver returns; bounding x bounds y too,
    so a direct scan over a box is a complete oracle for the result.
    """
    found: set[tuple[int, int]] = set()
    for orbit in solution_classes(problem).orbits:
        found.update(orbit.elements(bound, 1))
    return sorted(found)
