"""
From cover description to determinant degree
============================================

The full pipeline on the built-in double cover of the quadric branched
along four lines (two fibres, two sections): validate the description,
then walk branch divisor -> (R,R) -> K^2 -> Euler numbers -> chi ->
degree of the determinant of cohomology on the base line.
"""

from ramcov.golden import double_cover, power_map_cover
from ramcov.invariants import invariant_report
from ramcov.model import validate

base, cover = double_cover()

# Strict validation also checks that the points above each crossing
# exhaust each sheet's degree, not just the totals.
violations = validate(base, cover, strict=True)
print("violations:", violations if violations else "none")

report = invariant_report(base, cover)
print()
print("branch multiplicities:", dict(report.B_mult))
print("(R,R) =", report.RR)
print(f"K_Y^2 = {report.KY_sq}, resolution correction = {report.correction_total}, "
      f"K_Y'^2 = {report.KYprime_sq}")
print(f"e_c(Y) = {report.euler_Y}, exceptional curves = {report.exceptional_s}, "
      f"e_c(Y') = {report.euler_Yprime}")
print(f"chi = {report.chi}  (integral: {report.chi_is_integral})")
print(f"deg_det = {report.deg_det}")

# The resolved double cover is a del-Pezzo-like surface with K^2 = 4,
# e = 8, chi = 1; its determinant degree on the base line vanishes.
assert report.KYprime_sq == 4 and report.euler_Yprime == 8
assert report.chi == 1 and report.deg_det == 0

print()

# A whole family at once: the power maps (u, v) -> (u^a, v^b).  Their
# determinant degree is 1 - a whatever b is -- the b-direction is the
# fibration direction and contributes nothing.
print("power map family, deg_det by (a, b):")
for a in range(1, 5):
    row = []
    for b in range(1, 5):
        dd = invariant_report(*power_map_cover(a, b)).deg_det
        assert dd == 1 - a
        row.append(str(dd).rjust(3))
    print(f"  a={a}: " + " ".join(row))
print("constant along each row: the bound story only needs the a-direction")
