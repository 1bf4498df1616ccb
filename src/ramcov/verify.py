"""Exhaustive property sweeps over the arithmetic core.

Every claim the rest of the package leans on (continued fraction
reconstruction, discrepancy ranges, lattice classification identities,
axis-swap duality, enumeration counts) is brute-force checkable on finite
ranges in exact arithmetic.  The sweeps here do exactly that and return
counterexample witnesses instead of raising, so the command line can print
them; an empty failure list over the default ranges is the strongest
correctness statement the package can make about itself.
"""

from __future__ import annotations

import math
from operator import mul
from typing import Optional

from .hj import SingularityType, discrepancies, hj_evaluate, hj_expand
from .local_cover import (
    LatticeSubgroup,
    check_enumeration_bound,
    enumerate_subgroups,
    local_type,
)
from .value import Value

__all__ = ["PropertyFailure", "SweepResult", "hj_sweep", "lattice_sweep"]


class PropertyFailure(Value):
    """A counterexample: which property broke, on what witness, and why.

    The sweep it came from is the ``suite`` of the :class:`SweepResult`
    that holds it.
    """

    __slots__ = ("prop", "witness", "message")

    def __init__(self, prop: str, witness: dict, message: str) -> None:
        object.__setattr__(self, "prop", prop)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "message", message)


class SweepResult(Value):
    """A finished sweep: its suite, the items it checked and the failures it found.

    Like every value type it is immutable: a sweep counts in locals and
    builds its one result as it returns.
    """

    __slots__ = ("suite", "checked", "failures")

    def __init__(self, suite: str, checked: int, failures: tuple[PropertyFailure, ...]) -> None:
        object.__setattr__(self, "suite", suite)
        object.__setattr__(self, "checked", checked)
        object.__setattr__(self, "failures", failures)

    @property
    def ok(self) -> bool:
        return not self.failures


def hj_sweep(max_n: int, *, cap: Optional[int] = None) -> SweepResult:
    """Check every cyclic quotient type with 2 <= n <= max_n exhaustively.

    Per coprime pair (n, q): the expansion evaluates back to n/q exactly;
    the chain length is at most n and every entry lies in [2, n]; the entry
    excess sum is at most n - q - 1; there is one discrepancy per chain
    entry, every discrepancy lies in (-1, 0] and satisfies the defining
    recursion with zero residual; the correction is the sum of
    a_i (b_i - 2) and lies in (-n, 2]; and the du Val characterizations
    (q = n - 1, all entries 2, all discrepancies 0, correction 0) coincide;
    all as integer numerators over n.  The sweep stops after the first pair
    that fails a property, with every property that pair failed.

    Each chain statistic is one C-level reduction (``min``, ``max``,
    ``sum``, ``count``, ``any``) and the recursion is one pass over the
    chain, so a pair costs little more than its chain and discrepancies.  The
    witness, with its copy of the chain, is built only for a pair that fails.

    Raises :class:`EnumerationLimitError`, before any check, when ``max_n``
    exceeds the cap (``DEFAULT_ENUMERATION_CAP`` unless overridden), the
    same cap that bounds :func:`lattice_sweep`.
    """
    check_enumeration_bound("max_n", max_n, 2, cap)
    checked = 0
    for n in range(2, max_n + 1):
        for q in range(1, n):
            if math.gcd(n, q) != 1:
                continue
            checked += 1
            chain = hj_expand(SingularityType(n, q))
            b = chain.b
            length = len(b)
            failed = []  # (property, message), in check order

            value = hj_evaluate(chain)
            if value.numerator != n or value.denominator != q:
                failed.append(("reconstruction", f"evaluates to {value}, expected {n}/{q}"))
            if length > n:
                failed.append(("length", f"chain length {length} exceeds n={n}"))
            if b and (min(b) < 2 or max(b) > n):
                failed.append(("entry-range", f"entry outside [2, {n}]"))
            excess = sum(b) - 2 * length
            if excess > n - q - 1:
                failed.append(
                    ("entry-excess", f"sum of (b_i - 2) = {excess} exceeds n - q - 1 = {n - q - 1}")
                )

            v, c = discrepancies(chain)  # n * a_i and n * correction
            if len(v) != length:
                failed.append(("discrepancy-length", f"{len(v)} discrepancies for {length} entries"))
            if v and (min(v) <= -n or max(v) > 0):
                failed.append(("discrepancy-range", f"some n * a_i outside (-n, 0]: {list(v)}"))
            if len(v) == length:
                # b_i v_i - v_(i-1) - v_(i+1) = (2 - b_i) n, with v_0 = v_(λ+1) = 0
                w = (0, *v, 0)
                for i, (bi, left, vi, right) in enumerate(zip(b, w, v, w[2:]), 1):
                    if bi * (vi + n) != left + right + 2 * n:
                        failed.append(("recursion-residual", f"nonzero residual at index {i}"))
                        break
            # the sum of v_i (b_i - 2) over the pairs that zip(v, b) makes
            if c != sum(map(mul, v, b)) - 2 * sum(v[:length]):
                failed.append(("correction-sum", f"n * correction = {c} != sum of n * a_i (b_i - 2)"))
            if not (-n * n < c <= 2 * n):
                failed.append(("correction-range", f"correction {c}/{n} outside (-n, 2]"))
            du_val = q == n - 1
            if du_val != (b.count(2) == length):
                failed.append(("du-val-entries", "q = n - 1 iff all entries are 2 failed"))
            if du_val != (not any(v)):
                failed.append(("du-val-discrepancies", "q = n - 1 iff all a_i = 0 failed"))
            if du_val != (c == 0):
                failed.append(("du-val-correction", "q = n - 1 iff correction = 0 failed"))
            if du_val and length != n - 1:
                failed.append(("du-val-length", f"du Val chain length {length} != n - 1"))

            if failed:
                witness = {"n": n, "q": q, "chain": list(b)}
                failures = tuple(PropertyFailure(prop, witness, msg) for prop, msg in failed)
                return SweepResult("hj", checked, failures)
    return SweepResult("hj", checked, ())


def _sigma(k: int) -> int:
    return sum(a for a in range(1, k + 1) if k % a == 0)


def _prime_divisors(k: int) -> tuple[int, ...]:
    """The distinct primes dividing ``k``, by trial division; none for ``k <= 1``."""
    primes = []
    rest, p = k, 2
    while p * p <= rest:
        if rest % p == 0:
            primes.append(p)
            while rest % p == 0:
                rest //= p
        p += 1
    if rest > 1:
        primes.append(rest)
    return tuple(primes)


def _axis_multiple_below(g: LatticeSubgroup, n_prime: int, n_prime_in: bool) -> bool:
    """Whether ``(t, 0)`` lies in ``g`` for some ``0 < t < n_prime``.

    ``n_prime_in`` says whether ``(n_prime, 0)`` lies in ``g``; when it does,
    only ``(n_prime / p, 0)`` for the primes ``p | n_prime`` are tested (see
    :func:`lattice_sweep`), otherwise every ``t``.
    """
    if n_prime_in:
        return any(g.contains((n_prime // p, 0)) for p in _prime_divisors(n_prime))
    return any(g.contains((t, 0)) for t in range(1, n_prime))


def lattice_sweep(max_index: int, *, cap: Optional[int] = None) -> SweepResult:
    """Check every subgroup of Z^2 of index <= max_index exhaustively.

    Per subgroup: the classified local type satisfies the index identity
    d_y = n*m1*m2 = |det| and the ramification split e1 = n*m1,
    e2 = n*m2 with gcd(n, q) = 1; the canonical basis really generates (via
    integer membership) with minimal first generator; axis swap preserves
    n, exchanges m1 and m2, and inverts q mod n; and smoothness (n = 1)
    happens exactly for product lattices.  Enumeration counts are compared
    against the divisor-sum formula index by index.  The sweep stops at the
    first index whose count is wrong, or after the first subgroup that fails
    a property, with every property that subgroup failed; the witness is
    built only for that subgroup.

    Minimality of the first generator ``n'`` needs no scan of ``t < n'``.
    The ``t`` with ``(t, 0)`` in the subgroup form a subgroup ``t0 Z`` of
    ``Z``, cut out by the two congruences of Cramer's rule that
    :meth:`LatticeSubgroup.contains` tests.  Once ``(n', 0)`` is in the
    subgroup, ``t0`` divides ``n'``, and ``t0 < n'`` exactly when ``t0``
    divides ``n'/p`` for a prime ``p | n'``; so ``(n'/p, 0)`` is tested for
    the primes of ``n'`` (trial division, ``n' <= index``), and the property
    is vacuous for ``n' <= 1``.  When ``(n', 0)`` is not in the subgroup,
    ``canonical-membership`` has already failed and every ``t < n'`` is
    tested, so the failures are the same as a full scan's on any input.
    """
    subgroups = enumerate_subgroups(max_index, cap=cap)

    counts: dict[int, int] = {}
    for g in subgroups:
        counts[g.index] = counts.get(g.index, 0) + 1
    for k in range(1, max_index + 1):
        expected = _sigma(k)
        if counts.get(k, 0) != expected:
            failure = PropertyFailure(
                "enumeration-count",
                {"index": k},
                f"enumerated {counts.get(k, 0)} subgroups of index {k}, expected sigma(k) = {expected}",
            )
            return SweepResult("lattice", 0, (failure,))

    checked = 0
    for g in subgroups:
        checked += 1
        lt = local_type(g)
        index = g.index
        failed = []  # (property, message), in check order
        if lt.d_y != index or lt.d_y != lt.n * lt.m1 * lt.m2:
            failed.append(("index-identity", f"d_y {lt.d_y} != |det| {index}"))
        if lt.e1 != lt.n * lt.m1 or lt.e2 != lt.n * lt.m2:
            failed.append(("ramification-split", "e1/e2 do not split as n*m1 / n*m2"))
        if lt.m1 < 1 or lt.m2 < 1:
            failed.append(("positivity", "m1 and m2 must be positive"))
        if lt.n > 1 and math.gcd(lt.n, lt.q) != 1:
            failed.append(("primitivity", f"gcd(n, q) = {math.gcd(lt.n, lt.q)} != 1"))
        if not 0 <= lt.q < max(lt.n, 1):
            failed.append(("q-range", f"q = {lt.q} outside [0, n)"))

        # The canonical basis must actually be a basis: both vectors lie in
        # the subgroup, their determinant has the right index, and no
        # shorter positive multiple of (1, 0) lies in the subgroup.
        n_prime, q_prime = lt.n * lt.m1, lt.q * lt.m1
        first_in = g.contains((n_prime, 0))
        if not (first_in and g.contains((q_prime, lt.m2))):
            failed.append(("canonical-membership", "canonical basis vectors not in subgroup"))
        if n_prime * lt.m2 != index:
            failed.append(("canonical-index", "canonical basis does not have full index"))
        if _axis_multiple_below(g, n_prime, first_in):
            failed.append(("first-generator-minimality", f"(t, 0) in subgroup for t < {n_prime}"))

        swapped = local_type(g.swapped())
        if swapped.n != lt.n or swapped.m1 != lt.m2 or swapped.m2 != lt.m1:
            failed.append(
                ("axis-swap-shape", f"swap gave (n, m1, m2) = ({swapped.n}, {swapped.m1}, {swapped.m2})")
            )
        if lt.n > 1:
            if (lt.q * swapped.q) % lt.n != 1:
                failed.append(
                    ("axis-swap-duality", f"q * q_swapped = {lt.q} * {swapped.q} is not 1 mod {lt.n}")
                )
        elif swapped.q != 0:
            failed.append(("axis-swap-duality", "smooth type must swap to q = 0"))

        is_product = (
            g.contains((0, index // g.g1[0]))
            if g.g1[1] == 0 and g.g1[0] > 0
            else None
        )
        if is_product is not None and (lt.n == 1) != is_product:
            failed.append(
                ("smoothness", "n = 1 must coincide with the subgroup being a product lattice")
            )

        if failed:
            witness = {
                "g1": list(g.g1),
                "g2": list(g.g2),
                "n": lt.n,
                "q": lt.q,
                "m1": lt.m1,
                "m2": lt.m2,
            }
            failures = tuple(PropertyFailure(prop, witness, msg) for prop, msg in failed)
            return SweepResult("lattice", checked, failures)
    return SweepResult("lattice", checked, ())
