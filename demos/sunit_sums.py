"""S-units, vanishing subsums, and the desk search over S = {2, 3, 5}.

An S-unit is a rational whose numerator and denominator factor entirely
over a fixed prime set. Sums of boundedly many of them land in a Pell
coordinate set only finitely often once the subsum condition is imposed;
this script walks the ingredients and then reruns the small search.
"""

from fractions import Fraction

from pellsum import (
    NormFormProblem,
    SPrimeSet,
    enumerate_sunits,
    subsums_nonvanishing,
    sunit_sum_search,
)

# enumeration: one prime, tiny exponent box
basis = SPrimeSet((2,))
units = list(enumerate_sunits(basis, 1))
print("S = {2}, |b| <= 1:", [str(u.value) for u in units])

# each unit carries its exponent representation
u = next(unit for unit in enumerate_sunits(SPrimeSet((2, 3, 5)), 2)
         if unit.value == Fraction(90, 4))
print(f"90/4 over {{2, 3, 5}}: sign {u.sign}, exponents {u.exponents}")

print()

# subsum certificates: (5, -5, 2) has a vanishing pair, (1, 2, 4) does not
for entries in ((5, -5, 2), (1, 2, 4)):
    cert = subsums_nonvanishing(entries)
    label = "ok" if cert.ok else f"vanishing subsum at indices {cert.vanishing}"
    print(f"{entries}: {label}")

entries = (Fraction(1, 2), Fraction(3, 2), Fraction(9))
print(f"tuple {tuple(str(e) for e in entries)} sums to {sum(entries)}, "
      f"certificate ok: {subsums_nonvanishing(entries).ok}")

print()

# the desk search: pairs and triples of {2,3,5}-units with exponents
# bounded by 3, summed into the coordinate sets of x^2 - 13y^2 = 4
problem = NormFormProblem(13, 4)
report = sunit_sum_search(SPrimeSet((2, 3, 5)), 2, 3, problem, 1500)
print(f"t = 2, E = 3, coordinates up to 1500: {len(report.hits)} hits")
for hit in report.hits[:6]:
    entries = " + ".join(str(e) for e in hit.entries)
    coords = ", ".join(f"X{c}" for c, _ in hit.memberships)
    print(f"  {entries} = {hit.total} in {coords}")
print("  ...")

# the pinned pair from the report: -6 + 125 = 119 = x(4) on the X1 side
hit = next(h for h in report.hits if h.total == 119)
print(f"pinned: {' + '.join(str(e) for e in hit.entries)} = {hit.total}, "
      f"witness solution {hit.memberships[0][1]}")
