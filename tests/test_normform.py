import random
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pellsum import normform
from pellsum.errors import InvariantViolationError, NotSquarefreeError, SearchBudgetError
from pellsum.normform import (
    NormFormProblem,
    coordinate_set,
    sign_variants,
    solution_classes,
    step,
)
from pellsum.pell import pell_data
from pellsum.quadfield import QuadNum, is_squarefree, quad
from pellsum.recurrences import LinearRecurrence, binet

import norm_oracle
from norm_oracle import classes_match, fundamental_x, scan_seeds, seeds_match, solutions_within


def brute_solutions(d, m, xmax):
    """Every solution with 0 <= x <= xmax, y >= 0, by direct y scan."""
    out = set()
    ybound = isqrt((xmax * xmax - m) // d) + 2 if xmax * xmax >= m else 2
    for y in range(ybound + 1):
        s = m + d * y * y
        if s < 0:
            continue
        x = isqrt(s)
        if x * x == s and x <= xmax:
            out.add((x, y))
    return out


def test_problem_validation():
    with pytest.raises(NotSquarefreeError):
        NormFormProblem(12, 4)
    with pytest.raises(ValueError):
        NormFormProblem(13, 0)
    assert NormFormProblem(13, 4).norm_of((11, 3)) == 4


def test_sign_variants():
    assert set(sign_variants((11, 3))) == {(11, 3), (-11, 3), (11, -3), (-11, -3)}
    assert set(sign_variants((2, 0))) == {(2, 0), (-2, 0)}
    assert set(sign_variants((0, 1))) == {(0, 1), (0, -1)}


def test_step_and_inverse_are_inverse_maps():
    aut = (11, 3)
    pair = (11, 3)
    forward = step(aut, 13, *pair)
    assert forward == (119, 33)
    assert step((11, -3), 13, *forward) == pair
    # parity mismatch with an odd automorph is an internal error
    with pytest.raises(InvariantViolationError):
        step(aut, 13, 2, 1)


def test_single_class_for_13_4():
    orbits = solution_classes(NormFormProblem(13, 4)).orbits
    assert len(orbits) == 1
    orbit = orbits[0]
    assert orbit.representative == (11, 3)
    assert (2, 0) in orbit.seeds
    assert orbit.automorph == (11, 3)
    assert set(orbit.sign_class) == {(11, 3), (-11, 3), (11, -3), (-11, -3)}


def test_mixed_parity_orbit_uses_cubed_automorph():
    # x = y (mod 2) fails for (1, 0), so stepping needs the cube of the odd
    # automorph (11, 3), which is 2*fundamental = 2*(649, 180)
    orbits = solution_classes(NormFormProblem(13, 1)).orbits
    assert len(orbits) == 1
    assert orbits[0].automorph == (1298, 360)
    xs = coordinate_set(NormFormProblem(13, 1), 1, 10**7, include_trivial=True)
    assert xs == [1, 649, 842401]


def test_odd_automorph_cubes_to_twice_the_fundamental_solution():
    odd_d = 0
    for d in range(2, 400):
        if not is_squarefree(d):
            continue
        data = pell_data(d)
        t, u = data.automorph
        x1, y1 = data.fundamental
        if t % 2:
            odd_d += 1
            assert QuadNum(Fraction(t, 2), Fraction(u, 2), d) ** 3 == quad(x1, y1, d)
        if x1 > 10**4:
            continue  # the seed scan window grows with x1
        for m in (-4, -1, 1, 4, 11):
            for orbit in solution_classes(NormFormProblem(d, m)).orbits:
                assert orbit.automorph in ((t, u), (2 * x1, 2 * y1))
    assert odd_d == 33


def test_no_solutions_gives_no_classes():
    problem = NormFormProblem(5, 3)
    assert solution_classes(problem).orbits == ()
    assert coordinate_set(problem, 1, 10**6) == []
    assert solutions_within(problem, 10**6) == []


def test_pinned_coordinate_sets():
    p134 = NormFormProblem(13, 4)
    assert coordinate_set(p134, 1, 2 * 10**6) == [11, 119, 1298, 14159, 154451, 1684802]
    assert coordinate_set(p134, 2, 5 * 10**5) == [3, 33, 360, 3927, 42837, 467280]
    p54 = NormFormProblem(5, 4)
    assert coordinate_set(p54, 1, 20) == [3, 7, 18]
    assert coordinate_set(p54, 1, 20, include_trivial=True) == [2, 3, 7, 18]
    p2m1 = NormFormProblem(2, -1)
    assert coordinate_set(p2m1, 1, 300) == [1, 7, 41, 239]
    assert coordinate_set(p2m1, 2, 300) == [1, 5, 29, 169]


def test_zero_is_never_a_coordinate_value():
    # (2, 0) solves x^2 - 13 y^2 = 4; its y lands in no view
    values = coordinate_set(NormFormProblem(13, 4), 2, 10**6, include_trivial=True)
    assert 0 not in values
    assert values[0] == 3


def test_every_coordinate_value_comes_from_a_solution():
    # some y (resp. x) must complete each listed value to a solution
    for d, m in ((13, 4), (2, -1), (5, 4), (6, 10)):
        problem = NormFormProblem(d, m)
        for value in coordinate_set(problem, 1, 10**5, include_trivial=True):
            s = value * value - m
            y = isqrt(s // d) if s % d == 0 else -1
            assert y >= 0 and d * y * y == s, (d, m, value)
        for value in coordinate_set(problem, 2, 10**5, include_trivial=True):
            s = m + d * value * value
            x = isqrt(s)
            assert x * x == s, (d, m, value)


def test_orbits_match_brute_force_boxes():
    rng = random.Random(2024)
    cases = [(d, m) for d in (2, 3, 5, 6, 7, 10, 11, 13) for m in range(-8, 9) if m]
    rng.shuffle(cases)
    for d, m in cases[:60]:
        problem = NormFormProblem(d, m)
        got = set(solutions_within(problem, 3000))
        want = brute_solutions(d, m, 3000)
        assert got == want, (d, m)


def test_elements_are_sorted_and_closed_under_stepping():
    orbit = solution_classes(NormFormProblem(13, 4)).orbits[0]
    elems = orbit.elements(2 * 10**6)
    assert elems == sorted(elems, key=lambda p: (p[1], p[0]))
    for pair in elems:
        assert NormFormProblem(13, 4).norm_of(pair) == 4
        nxt = orbit.step(pair)
        if nxt[0] <= 2 * 10**6:
            assert nxt in elems


SMALL_UNIT_D = [d for d in range(2, 1000) if is_squarefree(d) and fundamental_x(d) <= 10**6]


@st.composite
def solvable_problems(draw):
    # m = k^2 * (x^2 - d*y^2) for x next to y*sqrt(d), so 0 < |m| <= 100 and
    # the problem has a class; most (d, m) drawn at random have none
    d = draw(st.sampled_from(SMALL_UNIT_D))
    y = draw(st.integers(1, 2))
    x = isqrt(d * y * y) + draw(st.integers(0, 1))
    m = x * x - d * y * y
    assume(abs(m) <= 100)
    return d, m * draw(st.integers(1, isqrt(100 // abs(m)))) ** 2


@settings(derandomize=True, deadline=None, max_examples=100)
@given(solvable_problems())
def test_class_coordinates_are_binet_values(problem):
    d, m = problem
    # along a class with automorph (t, u), each coordinate is
    # c1*eps^a + c2*conj(eps)^a with eps = (t + u*sqrt(d))/2: the order-2
    # recurrence with coefficients (t, -1) started at the representative
    for orbit in solution_classes(NormFormProblem(d, m)).orbits:
        t, u = orbit.automorph
        walk = [orbit.representative]
        for _ in range(20):
            walk.append(orbit.step(walk[-1]))
        for coord in (0, 1):
            form = binet(LinearRecurrence((t, -1), (walk[0][coord], walk[1][coord])))
            assert form.roots[0] == quad(Fraction(t, 2), Fraction(u, 2), d)
            assert [form.term(a) for a in range(21)] == [pair[coord] for pair in walk]


# (d, largest |m|) for each d whose seed window (isqrt(|m|) + 1) * 2 * x1
# stays within 1e5 for some 0 < |m| <= 100
WINDOWED = [
    (d, min(100, (10**5 // (2 * x1)) ** 2 - 1))
    for d, x1 in ((d, fundamental_x(d)) for d in SMALL_UNIT_D)
    if 10**5 // (2 * x1) >= 2
]


@st.composite
def windowed_problems(draw):
    # m is mostly the product of two norms x^2 - d*y^2 with x next to
    # y*sqrt(d), possibly negated: such m often have two or more classes,
    # which a uniform m in [-100, 100] rarely has
    d, most = draw(st.sampled_from(WINDOWED))
    m = draw(st.sampled_from((1, -1)))
    for _ in range(2):
        y = draw(st.integers(1, 3))
        x = isqrt(d * y * y) + draw(st.integers(0, 1))
        m *= x * x - d * y * y
    if not 0 < abs(m) <= most:
        m = draw(st.integers(1, most)) * draw(st.sampled_from((1, -1)))
    return d, m


@settings(derandomize=True, deadline=None, max_examples=600)
@given(windowed_problems())
def test_classes_group_seeds_as_the_union_find_did(problem):
    assert classes_match(NormFormProblem(*problem))


def test_class_sweep_counts_problems_and_fails_on_a_mismatch(monkeypatch, capsys):
    # windows <= 12 leave d = 2 (x1 = 3) with |m| <= 3, d = 3 (x1 = 2) with |m| <= 8
    assert norm_oracle.sweep(12) == 0
    assert capsys.readouterr().out == "22 problems, 0 class mismatches, 0 seed mismatches\n"
    monkeypatch.setattr(norm_oracle, "union_find_classes", lambda problem, seeds: [])
    assert norm_oracle.sweep(12) == 1
    # the 10 problems with a solution each print a mismatch line
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "class mismatch: d=2 m=-2" and len(out) == 11
    assert out[-1] == "22 problems, 10 class mismatches, 0 seed mismatches"
    monkeypatch.undo()
    monkeypatch.setattr(norm_oracle, "scan_seeds", lambda d, m, ylim: [])
    assert norm_oracle.sweep(12) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "seed mismatch: d=2 m=-2" and len(out) == 11
    assert out[-1] == "22 problems, 0 class mismatches, 10 seed mismatches"


# (d, largest |m|) for each squarefree d < 1000 whose seed window, sized as
# (isqrt(|m|) + 1) * 2 * x1 <= 13,000, holds some 0 < |m| <= 10^4; the
# window solution_classes takes is at most 1.5 times that size (d = 2, 3)
WHEEL_DRAWS = [
    (d, min(10**4, (13000 // (2 * x1)) ** 2 - 1))
    for d, x1 in ((d, fundamental_x(d)) for d in SMALL_UNIT_D)
    if 13000 // (2 * x1) >= 2
]


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.sampled_from(WHEEL_DRAWS).flatmap(
    lambda draw: st.tuples(st.just(draw[0]),
                           st.integers(1, draw[1]) | st.integers(-draw[1], -1))))
@example((2, 10**4))
@example((2, -(10**4)))
@example((3, 9999))
@example((5, -9996))
@example((7, 9993))
def test_wheel_finds_the_seeds_of_the_plain_scan(problem):
    solutions = solution_classes(NormFormProblem(*problem))
    assert solutions.scan_bound < 2 * 10**4
    assert seeds_match(NormFormProblem(*problem), solutions)
    # windows that end on a seed, or just before it
    for _, y in norm_oracle.solver_seeds(solutions.orbits)[:4]:
        for ylim in (y - 1, y):
            assert normform._seeds(*problem, ylim) == scan_seeds(*problem, ylim)


@pytest.mark.parametrize("d, m, scan_bound", [
    (103, 12, 189659), (2, 3, 20), (13, 6, 1374), (7, -5, 31), (3, 10, 26),
])
def test_problems_without_a_wheel_residue_have_no_seeds(d, m, scan_bound):
    # m + d*r^2 is a nonsquare mod 16, 9, 5 or 7 for every r mod 5040, so
    # the wheel visits no y and the plain scan of the window finds none
    squares = {q: {r * r % q for r in range(q)} for q in (16, 9, 5, 7)}
    assert not any(all((m + d * r * r) % q in squares[q] for q in squares)
                   for r in range(5040))
    solutions = solution_classes(NormFormProblem(d, m))
    assert (solutions.scan_bound, solutions.orbits) == (scan_bound, ())
    assert scan_seeds(d, m, solutions.scan_bound) == []


def test_representatives_are_minimal_nontrivial():
    # smallest solution with both coordinates nonzero, ordered by (y, x)
    for d, m, reps in ((2, -1, [(1, 1)]), (13, 4, [(11, 3)])):
        orbits = solution_classes(NormFormProblem(d, m)).orbits
        assert [orbit.representative for orbit in orbits] == reps


def test_multi_class_problem():
    # x^2 - 6 y^2 = 10 has the two classes of (4, 1) and (16, 13)... check
    # against brute force rather than pinning class count by hand
    problem = NormFormProblem(6, 10)
    assert len(solution_classes(problem).orbits) >= 1
    covered = set(solutions_within(problem, 10**4))
    assert covered == brute_solutions(6, 10, 10**4)


def test_coordinate_set_rejects_bad_coord():
    with pytest.raises(ValueError):
        coordinate_set(NormFormProblem(13, 4), 3, 100)


def _scanned_values(d, m, coord, bound, include_trivial):
    # the plain scan: every solution with x <= bound, or every y <= bound
    pairs = brute_solutions(d, m, bound) if coord == 1 else scan_seeds(d, m, bound)
    return sorted({(x, y)[coord - 1] for x, y in pairs
                   if (include_trivial or (x and y)) and (x, y)[coord - 1] >= 1})


@pytest.mark.parametrize("d, m, coord, bound", [
    (61, 4, 1, 10**6), (61, 4, 1, 2), (61, -4, 2, 10**5), (61, -4, 1, 10**6),
    (109, 4, 2, 10**5), (109, -4, 1, 10**7),
])
def test_coordinate_set_scans_its_own_window_past_the_class_budget(d, m, coord, bound):
    # the class windows of d = 61 and 109 (1.5e9 and 9.7e13) are past the
    # budget; the y windows of these bounds are within it
    for include_trivial in (False, True):
        assert coordinate_set(NormFormProblem(d, m), coord, bound, include_trivial) == (
            _scanned_values(d, m, coord, bound, include_trivial))


def test_coordinate_set_answers_below_the_budget_and_refuses_at_it(monkeypatch):
    problem = NormFormProblem(13, 4)
    window = solution_classes(problem).scan_bound + 1
    want = [coordinate_set(problem, 2, window - 2, True),
            coordinate_set(problem, 1, 3 * window, True)]
    monkeypatch.setattr(normform, "SEED_SCAN_BUDGET", window - 1)
    with pytest.raises(SearchBudgetError, match=f"a window of {window} y"):
        solution_classes(problem)
    # the bound's own window: bound for y, isqrt((bound^2 - 4) // 13) for x
    assert [coordinate_set(problem, 2, window - 2, True),
            coordinate_set(problem, 1, 3 * window, True)] == want
    for coord, bound in ((2, window - 1), (1, isqrt(13 * (window - 1) ** 2 + 4) + 1)):
        with pytest.raises(SearchBudgetError, match=f"a window of {window} y"):
            coordinate_set(problem, coord, bound)
