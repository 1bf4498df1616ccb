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
from collections import Counter
from operator import attrgetter, mul

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


class SweepResult(Value):
    """A finished sweep: its suite, the items it checked and the failures it found.

    Like every value type it is immutable: a sweep counts in locals and
    builds its one result as it returns.
    """

    __slots__ = ("suite", "checked", "failures")

    @property
    def ok(self) -> bool:
        return not self.failures


def _failed(suite: str, checked: int, witness: dict, failed: list) -> SweepResult:
    """The result of a sweep that stops at ``witness``, which broke each
    ``(property, message)`` of ``failed``, in that order."""
    return SweepResult(suite, checked, tuple(PropertyFailure(p, witness, m) for p, m in failed))


def hj_sweep(max_n: int) -> SweepResult:
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
    chain, with no padded copy of the discrepancies, so a pair costs little
    more than its chain and discrepancies.  The loop gives ints with
    ``2 <= n``, ``1 <= q < n`` and ``gcd(n, q) = 1``, so each type is built
    by ``SingularityType._derived`` without the constructor's check.  The
    index of a nonzero residual, and the witness with its copy of the
    chain, are found only for a pair that fails.

    Raises :class:`EnumerationLimitError`, before any check, when ``max_n``
    exceeds ``ENUMERATION_CAP``, the same cap that bounds
    :func:`lattice_sweep`.
    """
    check_enumeration_bound("max_n", max_n, 2)
    checked = 0
    for n in range(2, max_n + 1):
        two_n = 2 * n
        for q in range(1, n):
            if math.gcd(n, q) != 1:
                continue
            checked += 1
            chain = hj_expand(SingularityType._derived(n, q))
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
                left = 0
                for bi, vi, right in zip(b, v, (*v[1:], 0)):
                    if bi * (vi + n) != left + right + two_n:
                        # the first failing index, found by a scan that counts
                        w = (0, *v, 0)
                        i = next(
                            i for i, (bi, left, vi, right) in enumerate(zip(b, w, v, w[2:]), 1)
                            if bi * (vi + n) != left + right + two_n
                        )
                        failed.append(("recursion-residual", f"nonzero residual at index {i}"))
                        break
                    left = vi
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
                return _failed("hj", checked, {"n": n, "q": q, "chain": list(b)}, failed)
    return SweepResult("hj", checked, ())


def _sigma(k: int) -> int:
    return sum(a for a in range(1, k + 1) if k % a == 0)


def _least_axis_multiple(g: LatticeSubgroup) -> int:
    """The least ``t > 0`` with ``(t, 0)`` in ``g``, in closed form.

    On generators ``(a, b)``, ``(c, d)``, Cramer's rule, which
    :meth:`LatticeSubgroup.contains` tests, admits ``(t, 0)`` exactly when
    ``index`` divides ``t d`` and ``t b``; the least such ``t`` is
    ``lcm(index / gcd(index, d), index / gcd(index, b))``.
    """
    index = g.index
    return math.lcm(index // math.gcd(index, g.g2[1]), index // math.gcd(index, g.g1[1]))


def lattice_sweep(max_index: int) -> SweepResult:
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

    Minimality of the first generator ``n'`` needs no scan of ``t < n'``:
    it fails exactly when :func:`_least_axis_multiple`, the least ``t > 0``
    with ``(t, 0)`` in the subgroup, is below ``n'``, so the failures are
    the same as a full scan's on any input.  Each local type's fields are
    read once, into locals.
    """
    subgroups = enumerate_subgroups(max_index)

    counts = Counter(map(attrgetter("index"), subgroups))
    for k in range(1, max_index + 1):
        expected = _sigma(k)
        if counts[k] != expected:
            message = f"enumerated {counts[k]} subgroups of index {k}, expected sigma(k) = {expected}"
            return _failed("lattice", 0, {"index": k}, [("enumeration-count", message)])

    checked = 0
    for g in subgroups:
        checked += 1
        lt = local_type(g)
        n, q, m1, m2 = lt.n, lt.q, lt.m1, lt.m2
        d_y = lt.d_y
        index = g.index
        failed = []  # (property, message), in check order
        if d_y != index or d_y != n * m1 * m2:
            failed.append(("index-identity", f"d_y {d_y} != |det| {index}"))
        if lt.e1 != n * m1 or lt.e2 != n * m2:
            failed.append(("ramification-split", "e1/e2 do not split as n*m1 / n*m2"))
        if m1 < 1 or m2 < 1:
            failed.append(("positivity", "m1 and m2 must be positive"))
        if n > 1 and math.gcd(n, q) != 1:
            failed.append(("primitivity", f"gcd(n, q) = {math.gcd(n, q)} != 1"))
        if not 0 <= q < max(n, 1):
            failed.append(("q-range", f"q = {q} outside [0, n)"))

        # The canonical basis must actually be a basis: both vectors lie in
        # the subgroup, their determinant has the right index, and no
        # shorter positive multiple of (1, 0) lies in the subgroup.
        n_prime, q_prime = n * m1, q * m1
        if not (g.contains((n_prime, 0)) and g.contains((q_prime, m2))):
            failed.append(("canonical-membership", "canonical basis vectors not in subgroup"))
        if n_prime * m2 != index:
            failed.append(("canonical-index", "canonical basis does not have full index"))
        if _least_axis_multiple(g) < n_prime:
            failed.append(("first-generator-minimality", f"(t, 0) in subgroup for t < {n_prime}"))

        swapped = local_type(g.swapped())
        s_n, s_q, s_m1, s_m2 = swapped.n, swapped.q, swapped.m1, swapped.m2
        if s_n != n or s_m1 != m2 or s_m2 != m1:
            failed.append(("axis-swap-shape", f"swap gave (n, m1, m2) = ({s_n}, {s_m1}, {s_m2})"))
        if n > 1:
            if (q * s_q) % n != 1:
                failed.append(
                    ("axis-swap-duality", f"q * q_swapped = {q} * {s_q} is not 1 mod {n}")
                )
        elif s_q != 0:
            failed.append(("axis-swap-duality", "smooth type must swap to q = 0"))

        # An enumerated subgroup has g1 = (a, 0), a >= 1: it is the product
        # aZ x (index/a)Z exactly when it holds (0, index/a).
        is_product = g.contains((0, index // g.g1[0]))
        if (n == 1) != is_product:
            failed.append(
                ("smoothness", "n = 1 must coincide with the subgroup being a product lattice")
            )

        if failed:
            witness = {"g1": list(g.g1), "g2": list(g.g2), "n": n, "q": q, "m1": m1, "m2": m2}
            return _failed("lattice", checked, witness, failed)
    return SweepResult("lattice", checked, ())
