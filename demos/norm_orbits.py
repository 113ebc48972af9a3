"""Solution classes of x^2 - d y^2 = m and their coordinate sets.

The automorph acts on solutions; finitely many orbits cover everything,
so a short seed scan plus orbit stepping replaces unbounded search.
"""

from pellsum import (
    LinearRecurrence,
    NormFormProblem,
    binet,
    coordinate_set,
    solution_classes,
)
from pellsum.normform import step

problem = NormFormProblem(13, 4)
sol = solution_classes(problem)
print(f"x^2 - 13 y^2 = 4 has {len(sol.orbits)} class(es); scan went to y <= {sol.scan_bound}")

orbit = sol.orbits[0]
print(f"representative {orbit.representative}, automorph {orbit.automorph}")

# walk the orbit a few steps in both directions
pair = orbit.representative
for _ in range(4):
    pair = orbit.step(pair)
    print("  forward ->", pair)
# the conjugate generator (t, -u) steps back
t, u = orbit.automorph
pair = step((t, -u), problem.d, *orbit.representative)
print("  backward ->", pair, "(the seed (2, 0) folds in here)")

print()

# The coordinate sets are the positive values each coordinate takes.
# Trivial solutions (one coordinate zero) are excluded by default since
# the sum searches never want them; flip the flag to see them.
print("X1 up to 2e6: ", coordinate_set(problem, 1, 2 * 10**6))
print("X2 up to 5e5: ", coordinate_set(problem, 2, 5 * 10**5))
print("X1 of (5, 4) up to 20, with and without the trivial (2, 0):")
print("  ", coordinate_set(NormFormProblem(5, 4), 1, 20, include_trivial=True))
print("  ", coordinate_set(NormFormProblem(5, 4), 1, 20))

print()

# Each coordinate along a class is c1*eps^a + c2*conj(eps)^a with
# eps = (t + u*sqrt(d))/2, so it is the binary recurrence with
# coefficients (t, -1): this is how the coordinate sets connect back to
# linear recurrences, and binet gives the closed form.
t = orbit.automorph[0]
rep = orbit.representative
form = binet(LinearRecurrence((t, -1), (rep[0], orbit.step(rep)[0])))
print(f"coordinate 1 closed form: c1 = {form.coeffs[0]}, eps = {form.roots[0]}")
print("values:", [form.term(a) for a in range(5)])
