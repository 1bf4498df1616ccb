"""Hirzebruch-Jung continued fractions and cyclic quotient singularities.

A surface singularity of type ``A_{n,q}`` (the quotient of the plane by the
cyclic group of order ``n`` acting with weights ``(1, q)``, ``0 < q < n``,
``gcd(n, q) = 1``) is resolved by a chain of rational curves whose
self-intersection numbers ``-b_1, ..., -b_lambda`` are read off the
Hirzebruch-Jung continued fraction expansion

    n/q = b_1 - 1/(b_2 - 1/(... - 1/b_lambda)),        all b_i >= 2.

This module computes the expansion, evaluates it back (the two directions
serve as mutual checks), and solves for the discrepancies ``a_i`` of the
exceptional curves together with the correction term they contribute to the
self-intersection of a canonical divisor under resolution.

Resolution data is kept as integers over ``n``: by Cramer's rule on the
chain every ``v_i = n a_i`` is an integer, and so is the correction
numerator ``n sum_i a_i (b_i - 2)``.  The solver works in integers only;
a Fraction is built where a number is printed or summed into a report.

Orientation convention: the chain is listed starting from the curve meeting
the first local branch.  Reversing the chain yields the expansion of
``n/q'`` where ``q q' = 1 (mod n)``; both orientations describe the same
singularity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import InvalidInputError

__all__ = [
    "SingularityType",
    "HJChain",
    "ResolutionData",
    "hj_expand",
    "hj_evaluate",
    "discrepancies",
    "resolve",
]


@dataclass(frozen=True)
class SingularityType:
    """A cyclic quotient surface singularity ``A_{n,q}``."""

    n: int
    q: int

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or not isinstance(self.q, int):
            raise InvalidInputError("n and q must be integers")
        if self.n < 2:
            raise InvalidInputError(f"order must satisfy n >= 2 (got n={self.n})")
        if not 1 <= self.q < self.n:
            raise InvalidInputError(
                f"weight must satisfy 1 <= q < n (got n={self.n}, q={self.q})"
            )
        g = math.gcd(self.n, self.q)
        if g != 1:
            raise InvalidInputError(
                f"n and q must be coprime (got gcd({self.n}, {self.q}) = {g})"
            )

    @property
    def label(self) -> str:
        return f"A_{{{self.n},{self.q}}}"

    @property
    def is_du_val(self) -> bool:
        """True exactly for ``A_{n,n-1}``, the rational double point case."""
        return self.q == self.n - 1


@dataclass(frozen=True)
class HJChain:
    """The entries ``b_1, ..., b_lambda`` of a Hirzebruch-Jung expansion.

    Entries are the negated self-intersection numbers of the exceptional
    curves, so every entry is at least 2 and the chain is non-empty.
    """

    b: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.b:
            raise InvalidInputError("chain must be non-empty")
        for i, bi in enumerate(self.b):
            if not isinstance(bi, int) or bi < 2:
                raise InvalidInputError(
                    f"chain entries must be integers >= 2 (got b_{i + 1} = {bi!r})"
                )

    @property
    def length(self) -> int:
        """Number of exceptional curves in the chain."""
        return len(self.b)

    def __len__(self) -> int:
        return len(self.b)

    def reversed(self) -> "HJChain":
        return HJChain(tuple(reversed(self.b)))


@dataclass(frozen=True)
class ResolutionData:
    """Minimal-resolution data of a cyclic quotient singularity.

    Carries the chain, the numerators ``v_i = n a_i`` of the discrepancies
    and the numerator ``n sum_i a_i (b_i - 2)`` of the correction the chain
    contributes to ``K^2`` on resolving.  The range ``(-1, 0]`` of every
    discrepancy is enforced here, while the defining tridiagonal relation is
    exposed via :meth:`recursion_residuals` and checked by the property suite.
    """

    sing: SingularityType
    chain: HJChain
    v: tuple[int, ...]
    correction_num: int

    def __post_init__(self) -> None:
        if len(self.v) != self.chain.length:
            raise InvalidInputError(
                "discrepancy vector length must match the chain length "
                f"(got {len(self.v)} vs {self.chain.length})"
            )
        n = self.sing.n
        for i, vi in enumerate(self.v):
            if not (-n < vi <= 0):
                raise InvalidInputError(
                    f"discrepancies must lie in (-1, 0] (got a_{i + 1} = {Fraction(vi, n)})"
                )

    @property
    def a(self) -> tuple[Fraction, ...]:
        """The discrepancies ``a_i = v_i / n``."""
        return tuple(Fraction(vi, self.sing.n) for vi in self.v)

    @cached_property
    def correction(self) -> Fraction:
        return Fraction(self.correction_num, self.sing.n)

    def recursion_residuals(self) -> tuple[int, ...]:
        """Residuals ``b_i v_i - v_{i-1} - v_{i+1} - (2 - b_i) n`` at each index.

        These are ``n`` times the residuals of the defining relation.  With
        ``v_0 = v_{lambda+1} = 0`` every residual is exactly zero; anything
        else indicates corrupted data.
        """
        n, w = self.sing.n, (0, *self.v, 0)
        return tuple(
            bi * w[i + 1] - w[i] - w[i + 2] - (2 - bi) * n for i, bi in enumerate(self.chain.b)
        )


def _chain_entries(chain: "HJChain | Sequence[int] | Iterable[int]") -> tuple[int, ...]:
    """Normalize a chain argument to a validated tuple of entries."""
    if isinstance(chain, HJChain):
        return chain.b
    entries = tuple(chain)
    # Route validation through the dataclass so the error messages agree.
    return HJChain(entries).b


def hj_expand(sing: SingularityType) -> HJChain:
    """Expand ``n/q`` into its Hirzebruch-Jung continued fraction.

    Runs the remainder recursion ``c_{i+1} = b_{i+1} c_i - c_{i-1}`` with
    ``c_{-1} = n``, ``c_0 = q`` and ``b_{i+1} = ceil(c_{i-1}/c_i)``, which
    keeps ``0 <= c_{i+1} < c_i`` and terminates when the remainder hits zero.
    Every entry is >= 2 and the chain length is at most ``n``.
    """
    prev, cur = sing.n, sing.q
    entries = []
    while cur > 0:
        bi = -(-prev // cur)  # ceil(prev / cur)
        entries.append(bi)
        prev, cur = cur, bi * cur - prev
    return HJChain(tuple(entries))


def hj_evaluate(chain: "HJChain | Sequence[int]") -> Fraction:
    """Evaluate a chain back to the rational number ``n/q > 1`` it encodes.

    Folds from the right: with every entry >= 2 each partial value stays
    strictly greater than 1, so no division by zero can occur, and
    consecutive numerator/denominator pairs remain coprime throughout.
    """
    b = _chain_entries(chain)
    num, den = b[-1], 1
    for bi in reversed(b[:-1]):
        num, den = bi * num - den, num
    return Fraction(num, den)


def discrepancies(chain: "HJChain | Sequence[int]") -> tuple[tuple[int, ...], int]:
    """Solve for the discrepancies of a chain and their correction term.

    The discrepancies are the unique solution of the tridiagonal system

        b_i a_i - a_{i-1} - a_{i+1} = 2 - b_i,    a_0 = a_{lambda+1} = 0,

    solved here by forward elimination and back substitution in exact
    arithmetic.  The eliminated pivots are ratios of the continuants
    ``p_i = b_i p_{i-1} - p_{i-2}`` (``p_0 = 1``), all positive since every
    entry is >= 2, so the sweep never divides by zero; the determinant
    ``p_lambda`` equals the numerator ``n`` of the evaluated chain, and by
    Cramer's rule every ``n a_i`` is an integer, which lets the back
    substitution run over plain integers.

    Returns ``(v, c)`` with ``v_i = n a_i`` and ``c = n sum_i a_i (b_i - 2)``,
    where ``n`` is the determinant of the chain.
    """
    b = _chain_entries(chain)
    lam = len(b)

    # Forward elimination.  Pivot at step i is p[i] / p[i-1]; the eliminated
    # right-hand side at step i is u[i] / p[i-1].
    p = [0] * (lam + 1)
    u = [0] * (lam + 1)
    p[0] = 1
    p_prev = 0  # p[-1]
    for i in range(1, lam + 1):
        p[i] = b[i - 1] * p[i - 1] - p_prev
        p_prev = p[i - 1]
        u[i] = (2 - b[i - 1]) * p[i - 1] + u[i - 1]

    n = p[lam]

    # Back substitution: v[i] = n * a_i is an integer; the divisions below
    # are exact and the remainders are checked to be zero.
    v = [0] * (lam + 2)
    v[lam] = u[lam]  # a_lam = u_lam / p_lam = u_lam / n
    for i in range(lam - 1, 0, -1):
        quot, rem = divmod(n * u[i] + v[i + 1] * p[i - 1], p[i])
        if rem:  # pragma: no cover - would indicate an algebra bug
            raise ArithmeticError("non-integral discrepancy numerator")
        v[i] = quot

    v = tuple(v[1 : lam + 1])
    return v, sum(vi * (bi - 2) for vi, bi in zip(v, b))


def resolve(sing: SingularityType) -> ResolutionData:
    """Full minimal-resolution data for ``A_{n,q}``: chain, discrepancies, correction.

    The correction lies in ``(-n, 2]`` and vanishes exactly in the du Val
    case ``q = n - 1``, where the chain is ``n - 1`` copies of 2 and every
    discrepancy is zero.
    """
    chain = hj_expand(sing)
    return ResolutionData(sing, chain, *discrepancies(chain))
