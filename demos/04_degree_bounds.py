"""
Three bounds on the determinant degree
======================================

1. a linear bound |deg_det| <= c * degree whose coefficient c depends on
   the base configuration only, certified term by term;
2. an Arakelov-type bound for semistable fibrations, exact in rational
   arithmetic;
3. a logarithmic height bound for plane models -- the one place the
   package leaves exact arithmetic, and it says so.
"""

from fractions import Fraction

from ramcov.golden import double_cover, square_base
from ramcov.invariants import (
    FibrationInputs,
    arakelov_degree_bound,
    degree_linear_certificate,
    height_log_decimal,
    linear_coefficient,
    plane_model_terms,
)

# --- 1. the linear certificate -------------------------------------------
# One coefficient serves every cover of the square configuration.
c = linear_coefficient(square_base())
print(f"linear coefficient of the square base: c = {c}")

cert = degree_linear_certificate(*double_cover())
print(f"double cover: deg_det = {cert.deg_det}, degree = {cert.degree}, "
      f"|deg_det| <= c*d = {c * cert.degree}: {cert.deg_det_within_linear}")
# Each receipt is one row, its verdict decided where the walk computed it;
# the last row is deg_det against c*d.
print("per-term receipts (name, value, bound, per degree, ok):")
for name, value, bound, per_degree, ok in cert.receipts:
    print(f"  {name}: |{value}| <= {bound} = {per_degree}*d  {'ok' if ok else 'VIOLATED'}")
assert cert.satisfied

print()

# --- 2. the semistable fibration bound -----------------------------------
# Supplying the inputs asserts the hypotheses (semistable, connected
# fibres, horizontal branch etale over the base curve).
fib = FibrationInputs(gF=0, Dhor_dot_F=2, gC=0, nDC=2, nS=0)
bound = arakelov_degree_bound(fib.gF, fib.Dhor_dot_F, fib.gC, fib.nDC, fib.nS, 2)
print(f"fibration bound for the double cover: {bound}")
assert abs(cert.deg_det) <= bound

# The bound is monotone: overestimating the number of singular fibres
# only weakens it, never invalidates it.
for ns in range(5):
    print(f"  with nS = {ns}: bound = {arakelov_degree_bound(0, 2, 0, 2, ns, 2)}")

print()

# --- 3. the plane-model height bound -------------------------------------
# log(h + 1) + (5 d^2 nB + 12 d) log(d^3 nB), natural log scale.  The
# decimal evaluation is pinned at 50 significant digits and flagged as
# the only approximate number in the package.
for d, nB in ((2, 1), (2, 3), (3, 1)):
    coeff, base = plane_model_terms(d, nB)
    value = height_log_decimal(d, nB, 0)
    print(f"d={d}, {nB} branch point(s): log-height bound = {coeff} * log({base}) ~= {value}")

# The decimal converts exactly to a Fraction, for rational pipelines.
snapshot = Fraction(height_log_decimal(2, 3, 0))
print("as an exact rational snapshot:", snapshot.numerator, "/", snapshot.denominator)
