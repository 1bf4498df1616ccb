"""Exact-arithmetic invariants and degree bounds for branched covers of fibred surfaces.

The package computes, from purely numerical input, the resolution data of
cyclic quotient singularities, the local classification of a cover at a
normal crossing, and the full invariant chain of a branched cover of a
fibred surface down to the degree of the determinant of cohomology on the
base curve, together with certified linear and fibration-type bounds for
that degree.  Everything except one flagged logarithm is exact.

Import each public name from the module that defines it; that module's
``__all__`` lists its public names.
"""

__version__ = "0.1.0"
