"""
Classifying the local picture above a crossing
==============================================

Above a point where two branch components cross, a cover looks like a
quotient of a disc pair by a finite-index subgroup of Z^2: the subgroup
records which winding numbers lift.  Its canonical basis reads off the
numbers (n, q, m1, m2) that drive everything downstream -- ramification
indices e1 = n*m1, e2 = n*m2, the local degree d_y = n*m1*m2, and the
singularity type A_{n,q} of the point upstairs (smooth iff n = 1).
"""

from collections import Counter

from ramcov.local_cover import LatticeSubgroup, enumerate_subgroups, local_type

# Three generators-to-type examples, from trivial to genuinely singular.
for g1, g2 in (((1, 0), (0, 1)), ((2, 0), (0, 2)), ((4, 0), (2, 1))):
    gamma = LatticeSubgroup(g1, g2)
    lt = local_type(gamma)
    sing = lt.singularity()
    print(f"generators {g1}, {g2}:")
    print(f"  index {gamma.index}, n={lt.n} q={lt.q} m1={lt.m1} m2={lt.m2}")
    print(f"  e1={lt.e1} e2={lt.e2} d_y={lt.d_y}, " + (sing.label if sing else "smooth"))

print()

# The classification does not care which generators you present: any
# unimodular change gives the same answer.
gamma = LatticeSubgroup((4, 0), (2, 1))
alt = LatticeSubgroup((6, 1), (2, 1))  # g1 + g2, g2
assert local_type(gamma) == local_type(alt)
print("generator choice does not matter:", local_type(alt))

# Swapping the two branch components swaps m1 and m2 and inverts q mod n.
swapped = local_type(gamma.swapped())
print("after swapping the two branches:", swapped)

print()

# There are sigma(k) = sum of divisors subgroups of each index k, so the
# enumeration up to index 6 yields 1 + 3 + 4 + 7 + 6 + 12 = 33 local
# models.  Count how many are actually singular.
subgroups = enumerate_subgroups(6)
print(f"subgroups of Z^2 with index <= 6: {len(subgroups)}")
by_index = Counter(g.index for g in subgroups)
print("  per index:", dict(sorted(by_index.items())))
singular = [g for g in subgroups if local_type(g).n > 1]
print(f"  of these, {len(singular)} produce a singular point upstairs")
worst = max(singular, key=lambda g: local_type(g).n)
lt = local_type(worst)
print(f"  deepest singularity in range: {lt.singularity().label} from generators {worst.g1}, {worst.g2}")
