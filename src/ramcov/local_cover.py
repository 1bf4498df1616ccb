"""Finite-index subgroups of Z^2 and the local shape of a cover at a crossing.

Near a point where two branch components cross, an abelian cover is
determined up to isomorphism by a finite-index subgroup ``Gamma`` of ``Z^2``
(the image of the local fundamental group of the cover).  Every such
subgroup has a unique basis of the form ``(n', 0), (q', m2)`` with
``0 <= q' < n'`` and ``m2 > 0``; splitting off ``m1 = gcd(n', q')`` leaves a
primitive pair ``(n, q)`` and the point upstairs looks like ``m1 * m2``-to-1
smooth data glued onto a cyclic quotient singularity ``A_{n,q}`` (smooth
exactly when ``n = 1``).

Coordinate convention: the first lattice coordinate is the winding number
around the first local branch, so ``e1 = n * m1`` is the ramification index
over that branch and ``m2`` is the degree of the upstairs curve over it.
Swapping the two coordinates fixes ``n``, exchanges ``m1`` and ``m2``, and
replaces ``q`` by its inverse mod ``n``.

Where values are checked: see the construction rule in :mod:`ramcov.value`.
"""

from __future__ import annotations

import math
from typing import Optional

from .errors import EnumerationLimitError, InvalidInputError, check_int
from .hj import SingularityType
from .value import Value

__all__ = [
    "ENUMERATION_CAP",
    "LatticeSubgroup",
    "LocalCoverType",
    "canonical_basis",
    "local_type",
    "enumerate_subgroups",
    "check_enumeration_bound",
]

#: Largest ``max_index`` accepted by :func:`enumerate_subgroups`, and largest
#: ``max_n`` accepted by :func:`ramcov.verify.hj_sweep`.
ENUMERATION_CAP = 1000


def check_enumeration_bound(name: str, value: int, minimum: int) -> None:
    """Raise unless the sweep bound ``name`` is an int with
    ``minimum <= value <= ENUMERATION_CAP``.

    A non-int (a bool too) or a value below the minimum raises
    :class:`InvalidInputError`, one above the cap
    :class:`EnumerationLimitError`; type, then range, is checked.
    """
    check_int(value, name, minimum)
    if value > ENUMERATION_CAP:
        raise EnumerationLimitError(f"{name} {value} exceeds the enumeration cap {ENUMERATION_CAP}")


class LatticeSubgroup(Value):
    """A finite-index subgroup of Z^2 given by two generators.

    The constructor checks that the generators are tuples of two integers,
    each coordinate by :func:`~ramcov.errors.check_int`, with nonzero
    determinant; the subgroups this module derives
    (:func:`enumerate_subgroups`, :meth:`swapped`) are built by
    ``LatticeSubgroup._derived``, which skips the constructor and so the
    check.
    """

    __slots__ = ("g1", "g2")

    def __new__(cls, g1: tuple[int, int], g2: tuple[int, int]):
        for g in (g1, g2):
            if not isinstance(g, tuple) or len(g) != 2:
                raise InvalidInputError(f"generators must be integer pairs (got {g!r})")
            for c in g:
                check_int(c, "generator coordinate")
        if g1[0] * g2[1] - g1[1] * g2[0] == 0:
            raise InvalidInputError(f"generators must be linearly independent (got {g1}, {g2})")
        return cls._derived(g1, g2)

    @property
    def index(self) -> int:
        """Index of the subgroup in Z^2, the absolute determinant of its generators."""
        return abs(self.g1[0] * self.g2[1] - self.g1[1] * self.g2[0])

    def swapped(self) -> "LatticeSubgroup":
        """The subgroup with the two coordinate axes exchanged."""
        # Swapping the coordinates of a checked subgroup negates det only.
        (a, b), (c, d) = self.g1, self.g2
        return LatticeSubgroup._derived((b, a), (d, c))

    def contains(self, v: tuple[int, int]) -> bool:
        """Membership test by Cramer's rule over the integers.

        ``v`` is a pair; the determinant is formed from the unpacked
        generators.
        """
        (a, b), (c, d) = self.g1, self.g2
        x, y = v
        det = a * d - b * c
        return (x * d - y * c) % det == 0 and (a * y - b * x) % det == 0


class LocalCoverType(Value):
    """Classified local data of a cover at a crossing point.

    ``n, q`` is the primitive singularity pair (``n = 1``, ``q = 0`` for a
    smooth point), ``m1`` and ``m2`` are the degrees of the upstairs branch
    curves over the second and first downstairs branch respectively.  The
    derived quantities are total local degree ``d_y = n*m1*m2`` and
    ramification indices ``e1 = n*m1``, ``e2 = n*m2`` over the first and
    second branch.

    Instances built from a :class:`LatticeSubgroup` always satisfy the
    range/gcd constraints; instances built from raw numbers in an input file
    may not, and :meth:`invariant_problems` reports what fails (the model
    validator surfaces these as V5 findings).
    """

    __slots__ = ("n", "q", "m1", "m2")

    @property
    def d_y(self) -> int:
        return self.n * self.m1 * self.m2

    @property
    def e1(self) -> int:
        return self.n * self.m1

    @property
    def e2(self) -> int:
        return self.n * self.m2

    def invariant_problems(self) -> list[str]:
        """Range and gcd constraints, reported rather than raised."""
        problems = []
        if self.n < 1:
            problems.append(f"n must be >= 1 (got {self.n})")
        if self.m1 < 1:
            problems.append(f"m1 must be >= 1 (got {self.m1})")
        if self.m2 < 1:
            problems.append(f"m2 must be >= 1 (got {self.m2})")
        if self.n >= 1 and not 0 <= self.q < self.n:
            problems.append(f"q must satisfy 0 <= q < n (got n={self.n}, q={self.q})")
        if self.n > 1 and self.q == 0:
            problems.append(f"q = 0 forces n = 1 (got n={self.n})")
        if self.n >= 1 and 0 <= self.q < self.n and math.gcd(self.n, self.q) != 1:
            problems.append(
                f"n and q must be coprime (got gcd({self.n}, {self.q}) = {math.gcd(self.n, self.q)})"
            )
        return problems

    def singularity(self) -> Optional[SingularityType]:
        """The quotient singularity sitting at this point, or None if smooth."""
        if self.n == 1:
            return None
        return SingularityType(self.n, self.q)


def canonical_basis(gamma: LatticeSubgroup) -> tuple[int, int, int]:
    """Reduce a subgroup to its unique basis ``(n', 0), (q', m2)``.

    Returns ``(n', q', m2)`` with ``n' > 0``, ``m2 > 0`` and
    ``0 <= q' < n'``; the index of the subgroup is ``n' * m2``.  ``m2`` is
    ``math.gcd`` of the second coordinates, and the Bezout pair that
    realizes it comes from the modular inverse ``pow(x, -1, m)``.
    """
    (a, b), (c, d) = gamma.g1, gamma.g2
    # Second coordinates generate m2 Z, and u*b + v*d = m2 gives the member
    # (u*a + v*c, m2).  Two Bezout pairs differ by a multiple of (d, -b)/m2,
    # which moves u*a + v*c by a multiple of det/m2 = +-n', so q' does not
    # depend on the pair.  With d != 0, u inverts b/m2 mod |d|/m2 and v is
    # (m2 - u*b)/d exactly; with d = 0, m2 = |b| and (u, v) = (b/m2, 0).
    m2 = math.gcd(b, d)
    n_prime = abs(a * d - b * c) // m2
    if d:
        u = pow(b // m2, -1, abs(d) // m2)
        return n_prime, (u * a + (m2 - u * b) // d * c) % n_prime, m2
    return n_prime, b // m2 * a % n_prime, m2


def local_type(gamma: LatticeSubgroup) -> LocalCoverType:
    """Classify a subgroup into its local cover type.

    Splits the canonical basis ``(n', 0), (q', m2)`` as ``n' = n*m1``,
    ``q' = q*m1`` with ``m1 = gcd(n', q')`` (so ``gcd(n, q) = 1``); note
    ``gcd(n', 0) = n'`` makes the product case come out as ``n = 1``.
    """
    n_prime, q_prime, m2 = canonical_basis(gamma)
    m1 = math.gcd(n_prime, q_prime)
    return LocalCoverType(n_prime // m1, q_prime // m1, m1, m2)


def enumerate_subgroups(max_index: int) -> list[LatticeSubgroup]:
    """All subgroups of Z^2 of index at most ``max_index``, one per subgroup.

    Each subgroup is produced exactly once, as its Hermite-form
    representative with generators ``(a, 0), (c, m)`` where ``a*m`` is the
    index and ``0 <= c < a``; for fixed index ``k`` this yields ``sigma(k)``
    (sum of divisors) subgroups.  Output order is deterministic: by index,
    then ``a`` ascending, then ``c`` ascending.

    Raises :class:`EnumerationLimitError` when ``max_index`` exceeds
    ``ENUMERATION_CAP``.
    """
    check_enumeration_bound("max_index", max_index, 1)
    out = []
    for k in range(1, max_index + 1):
        for a in range(1, k + 1):
            if k % a:
                continue
            m = k // a
            for c in range(a):
                # a, m >= 1 are ints, so det = a * m >= 1.
                out.append(LatticeSubgroup._derived((a, 0), (c, m)))
    return out
