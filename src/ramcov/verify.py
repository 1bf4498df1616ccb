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
from dataclasses import dataclass, field
from typing import Optional

from .hj import SingularityType, discrepancies, hj_evaluate, hj_expand
from .local_cover import check_enumeration_bound, enumerate_subgroups, local_type

__all__ = ["PropertyFailure", "SweepResult", "hj_sweep", "lattice_sweep"]


@dataclass(frozen=True)
class PropertyFailure:
    """A counterexample: which property broke, and on what witness."""

    suite: str
    prop: str
    witness: dict
    message: str


@dataclass
class SweepResult:
    suite: str
    checked: int = 0
    failures: list[PropertyFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def _fail(result: SweepResult, prop: str, witness: dict, message: str) -> None:
    result.failures.append(
        PropertyFailure(suite=result.suite, prop=prop, witness=witness, message=message)
    )


def hj_sweep(
    max_n: int, *, cap: Optional[int] = None, stop_on_failure: bool = True
) -> SweepResult:
    """Check every cyclic quotient type with 2 <= n <= max_n exhaustively.

    Per coprime pair (n, q): the expansion evaluates back to n/q exactly;
    the chain length is at most n and every entry lies in [2, n]; the entry
    excess sum is at most n - q - 1; every discrepancy lies in (-1, 0] and
    satisfies the defining recursion with zero residual; the correction is
    the sum of a_i (b_i - 2) and lies in (-n, 2]; and the du Val
    characterizations (q = n - 1, all entries 2, all discrepancies 0,
    correction 0) coincide; all as integer numerators over n.

    Raises :class:`EnumerationLimitError`, before any check, when ``max_n``
    exceeds the cap (``DEFAULT_ENUMERATION_CAP`` unless overridden), the
    same cap that bounds :func:`lattice_sweep`.
    """
    check_enumeration_bound("max_n", max_n, 2, cap)
    result = SweepResult(suite="hj")
    for n in range(2, max_n + 1):
        for q in range(1, n):
            if math.gcd(n, q) != 1:
                continue
            result.checked += 1
            chain = hj_expand(SingularityType(n, q))
            b = chain.b
            witness = {"n": n, "q": q, "chain": list(b)}

            value = hj_evaluate(chain)
            if value.numerator != n or value.denominator != q:
                _fail(result, "reconstruction", witness, f"evaluates to {value}, expected {n}/{q}")
            if len(b) > n:
                _fail(result, "length", witness, f"chain length {len(b)} exceeds n={n}")
            if any(bi < 2 or bi > n for bi in b):
                _fail(result, "entry-range", witness, f"entry outside [2, {n}]")
            if sum(bi - 2 for bi in b) > n - q - 1:
                _fail(
                    result,
                    "entry-excess",
                    witness,
                    f"sum of (b_i - 2) = {sum(bi - 2 for bi in b)} exceeds n - q - 1 = {n - q - 1}",
                )

            v, c = discrepancies(chain)  # n * a_i and n * correction
            if any(not (-n < vi <= 0) for vi in v):
                _fail(result, "discrepancy-range", witness, f"some n * a_i outside (-n, 0]: {list(v)}")
            w = (0, *v, 0)
            for i, bi in enumerate(b):
                if bi * w[i + 1] - w[i] - w[i + 2] != (2 - bi) * n:
                    _fail(result, "recursion-residual", witness, f"nonzero residual at index {i + 1}")
                    break
            if c != sum(vi * (bi - 2) for vi, bi in zip(v, b)):
                _fail(result, "correction-sum", witness, f"n * correction = {c} != sum of n * a_i (b_i - 2)")
            if not (-n * n < c <= 2 * n):
                _fail(result, "correction-range", witness, f"correction {c}/{n} outside (-n, 2]")
            du_val = q == n - 1
            if du_val != all(bi == 2 for bi in b):
                _fail(result, "du-val-entries", witness, "q = n - 1 iff all entries are 2 failed")
            if du_val != all(vi == 0 for vi in v):
                _fail(result, "du-val-discrepancies", witness, "q = n - 1 iff all a_i = 0 failed")
            if du_val != (c == 0):
                _fail(result, "du-val-correction", witness, "q = n - 1 iff correction = 0 failed")
            if du_val and len(b) != n - 1:
                _fail(result, "du-val-length", witness, f"du Val chain length {len(b)} != n - 1")

            if result.failures and stop_on_failure:
                return result
    return result


def _sigma(k: int) -> int:
    return sum(a for a in range(1, k + 1) if k % a == 0)


def lattice_sweep(
    max_index: int, *, cap: Optional[int] = None, stop_on_failure: bool = True
) -> SweepResult:
    """Check every subgroup of Z^2 of index <= max_index exhaustively.

    Per subgroup: the classified local type satisfies the index identity
    d_y = n*m1*m2 = |det| and the ramification split e1 = n*m1,
    e2 = n*m2 with gcd(n, q) = 1; the canonical basis really generates (via
    integer membership) with minimal first generator; axis swap preserves
    n, exchanges m1 and m2, and inverts q mod n; and smoothness (n = 1)
    happens exactly for product lattices.  Enumeration counts are compared
    against the divisor-sum formula index by index.
    """
    result = SweepResult(suite="lattice")
    subgroups = enumerate_subgroups(max_index, cap=cap)

    counts: dict[int, int] = {}
    for g in subgroups:
        counts[g.index] = counts.get(g.index, 0) + 1
    for k in range(1, max_index + 1):
        expected = _sigma(k)
        if counts.get(k, 0) != expected:
            _fail(
                result,
                "enumeration-count",
                {"index": k},
                f"enumerated {counts.get(k, 0)} subgroups of index {k}, expected sigma(k) = {expected}",
            )
            if stop_on_failure:
                return result

    for g in subgroups:
        result.checked += 1
        lt = local_type(g)
        witness = {
            "g1": list(g.g1),
            "g2": list(g.g2),
            "n": lt.n,
            "q": lt.q,
            "m1": lt.m1,
            "m2": lt.m2,
        }
        if lt.d_y != g.index or lt.d_y != lt.n * lt.m1 * lt.m2:
            _fail(result, "index-identity", witness, f"d_y {lt.d_y} != |det| {g.index}")
        if lt.e1 != lt.n * lt.m1 or lt.e2 != lt.n * lt.m2:
            _fail(result, "ramification-split", witness, "e1/e2 do not split as n*m1 / n*m2")
        if lt.m1 < 1 or lt.m2 < 1:
            _fail(result, "positivity", witness, "m1 and m2 must be positive")
        if lt.n > 1 and math.gcd(lt.n, lt.q) != 1:
            _fail(result, "primitivity", witness, f"gcd(n, q) = {math.gcd(lt.n, lt.q)} != 1")
        if not 0 <= lt.q < max(lt.n, 1):
            _fail(result, "q-range", witness, f"q = {lt.q} outside [0, n)")

        # The canonical basis must actually be a basis: both vectors lie in
        # the subgroup, their determinant has the right index, and no
        # shorter positive multiple of (1, 0) lies in the subgroup.
        n_prime, q_prime = lt.n * lt.m1, lt.q * lt.m1
        if not (g.contains((n_prime, 0)) and g.contains((q_prime, lt.m2))):
            _fail(result, "canonical-membership", witness, "canonical basis vectors not in subgroup")
        if n_prime * lt.m2 != g.index:
            _fail(result, "canonical-index", witness, "canonical basis does not have full index")
        if any(g.contains((t, 0)) for t in range(1, n_prime)):
            _fail(result, "first-generator-minimality", witness, f"(t, 0) in subgroup for t < {n_prime}")

        swapped = local_type(g.swapped())
        if swapped.n != lt.n or swapped.m1 != lt.m2 or swapped.m2 != lt.m1:
            _fail(
                result,
                "axis-swap-shape",
                witness,
                f"swap gave (n, m1, m2) = ({swapped.n}, {swapped.m1}, {swapped.m2})",
            )
        if lt.n > 1:
            if (lt.q * swapped.q) % lt.n != 1:
                _fail(
                    result,
                    "axis-swap-duality",
                    witness,
                    f"q * q_swapped = {lt.q} * {swapped.q} is not 1 mod {lt.n}",
                )
        elif swapped.q != 0:
            _fail(result, "axis-swap-duality", witness, "smooth type must swap to q = 0")

        is_product = (
            g.contains((0, g.index // g.g1[0]))
            if g.g1[1] == 0 and g.g1[0] > 0
            else None
        )
        if is_product is not None and (lt.n == 1) != is_product:
            _fail(
                result,
                "smoothness",
                witness,
                "n = 1 must coincide with the subgroup being a product lattice",
            )

        if result.failures and stop_on_failure:
            return result
    return result
