"""
Cyclic quotient singularities and their exceptional chains
==========================================================

A point of type A_{n,q} resolves into a string of rational curves whose
self-intersections are the continued fraction entries of n/q.  Everything
below is exact integer/rational arithmetic.
"""

from fractions import Fraction

from ramcov.hj import SingularityType, hj_evaluate, hj_expand, resolve

# A worked example: n/q = 7/5 expands with entries [2, 2, 3].
sing = SingularityType(7, 5)
data = resolve(sing)
print(sing.label)
print("  chain entries:", list(data.chain.b))
print("  discrepancies:", [str(a) for a in data.a])
print("  correction to K^2 when resolving:", data.correction)

# The expansion inverts exactly: folding the chain back from the right
# recovers n/q as a fraction in lowest terms.
value = hj_evaluate(data.chain)
assert value == Fraction(7, 5)
print("  chain evaluates back to", value)

# Reversing the chain corresponds to inverting q mod n.  7/3 has the
# mirror-image chain of 7/5 because 3 * 5 = 15 = 1 mod 7.
mirror = hj_expand(SingularityType(7, 3))
assert list(mirror.b) == list(reversed(data.chain.b))
print("  reversed chain belongs to", SingularityType(7, 3).label)

print()

# Du Val points (q = n - 1) are the mildest case: all entries 2, all
# discrepancies 0, no correction at all.
for n in (2, 3, 5, 8):
    data = resolve(SingularityType(n, n - 1))
    assert data.sing.is_du_val
    assert data.correction == 0
    print(f"A_{{{n},{n-1}}}: chain {list(data.chain.b)}, correction 0 (du Val)")

print()

# Away from the du Val case the correction is strictly negative and the
# discrepancies sit inside (-1, 0].
print("sample of non-du-Val types:")
for n, q in ((4, 1), (5, 2), (12, 5), (25, 7)):
    data = resolve(SingularityType(n, q))
    worst = min(data.a)
    print(
        f"  A_{{{n},{q}}}: length {data.chain.length}, "
        f"correction {data.correction}, most negative discrepancy {worst}"
    )
    assert all(Fraction(-1) < a <= 0 for a in data.a)
    assert data.correction < 0
