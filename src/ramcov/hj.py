"""Hirzebruch-Jung continued fractions and cyclic quotient singularities.

A surface singularity of type ``A_{n,q}`` (the quotient of the plane by the
cyclic group of order ``n`` acting with weights ``(1, q)``, ``0 < q < n``,
``gcd(n, q) = 1``) is resolved by a chain of rational curves whose
self-intersection numbers ``-b_1, ..., -b_lambda`` are read off the
Hirzebruch-Jung continued fraction expansion

    n/q = b_1 - 1/(b_2 - 1/(... - 1/b_lambda)),        all b_i >= 2.

This module computes the expansion, evaluates it back (the two directions
serve as mutual checks), and derives the discrepancies ``a_i`` of the
exceptional curves together with the correction term they contribute to the
self-intersection of a canonical divisor under resolution.

Resolution data is kept as integers over ``n``: with ``alpha_i`` and
``beta_i`` the continuants of the chain read from its two ends,
``v_i = n a_i = alpha_i + beta_i - n`` (Hirzebruch, Math. Ann. 126, 1953;
Reid, "Surface cyclic quotient singularities and Hirzebruch-Jung
resolutions"), and the correction numerator is ``n sum_i a_i (b_i - 2)``.
Both come from integer recursions alone; a Fraction is built where a number
is printed or summed into a report.  A report needs only the chain's length
and the correction numerator, and :func:`resolution_numbers` gives those two
in O(log n) steps, from the continued fraction of ``n/q`` and a Dedekind sum,
without building the chain.

Where values are checked (the rule is in :mod:`ramcov.value`):
:class:`HJChain` checks its entries in ``__init__``, and the chains this
module derives (:func:`hj_expand`, :meth:`HJChain.reversed`) go through the
private builder ``_hj_chain``, which sets the entries with the base's
``_set_fields`` and runs no check; each call site names the invariant that
makes its chain valid, and ``verify.hj_sweep`` checks the entries of every
chain it expands.

Orientation convention: the chain is listed starting from the curve meeting
the first local branch.  Reversing the chain yields the expansion of
``n/q'`` where ``q q' = 1 (mod n)``; both orientations describe the same
singularity.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import InvalidInputError, check_int
from .value import Value

__all__ = [
    "SingularityType",
    "HJChain",
    "ResolutionData",
    "hj_expand",
    "chain_length",
    "resolution_numbers",
    "hj_evaluate",
    "discrepancies",
    "resolve",
]


class SingularityType(Value):
    """A cyclic quotient surface singularity ``A_{n,q}``."""

    __slots__ = ("n", "q")

    def __init__(self, n: int, q: int) -> None:
        check_int(n, "n")
        check_int(q, "q")
        if n < 2:
            raise InvalidInputError(f"order must satisfy n >= 2 (got n={n})")
        if not 1 <= q < n:
            raise InvalidInputError(
                f"weight must satisfy 1 <= q < n (got n={n}, q={q})"
            )
        g = math.gcd(n, q)
        if g != 1:
            raise InvalidInputError(
                f"n and q must be coprime (got gcd({n}, {q}) = {g})"
            )
        self._set_fields(n, q)

    @property
    def label(self) -> str:
        return f"A_{{{self.n},{self.q}}}"

    @property
    def is_du_val(self) -> bool:
        """True exactly for ``A_{n,n-1}``, the rational double point case."""
        return self.q == self.n - 1


class HJChain(Value):
    """The entries ``b_1, ..., b_lambda`` of a Hirzebruch-Jung expansion.

    Entries are the negated self-intersection numbers of the exceptional
    curves, so every entry is at least 2 and the chain is non-empty.  The
    constructor checks both, and that the entries are a tuple, for entries
    from a caller, each entry by :func:`~ramcov.errors.check_int`; the
    chains this module derives (:func:`hj_expand`, :meth:`reversed`) are
    built by ``_hj_chain`` without the check.
    """

    __slots__ = ("b",)

    def __init__(self, b: tuple[int, ...]) -> None:
        if not isinstance(b, tuple):
            raise InvalidInputError(f"chain entries must be a tuple (got {b!r})")
        if not b:
            raise InvalidInputError("chain must be non-empty")
        for i, bi in enumerate(b, 1):
            check_int(bi, f"chain entry b_{i}", 2)
        self._set_fields(b)

    @property
    def length(self) -> int:
        """Number of exceptional curves in the chain."""
        return len(self.b)

    def reversed(self) -> "HJChain":
        # The reverse of a checked chain has the same entries.
        return _hj_chain(tuple(reversed(self.b)))


def _hj_chain(b: tuple[int, ...]) -> HJChain:
    """An :class:`HJChain` on ``b``, built without ``__init__``'s check.

    For derived chains only: the caller guarantees that ``b`` is a non-empty
    tuple of ints, each at least 2.
    """
    chain = object.__new__(HJChain)
    chain._set_fields(b)
    return chain


class ResolutionData(Value):
    """Minimal-resolution data of a cyclic quotient singularity.

    Carries the chain, the numerators ``v_i = n a_i`` of the discrepancies
    and the numerator ``n sum_i a_i (b_i - 2)`` of the correction the chain
    contributes to ``K^2`` on resolving, both computed by
    :func:`discrepancies` from the chain's continuants.  The range
    ``(-1, 0]`` of every discrepancy is enforced here; the defining
    tridiagonal relation is checked by ``verify.hj_sweep``.
    """

    __slots__ = ("sing", "chain", "v", "correction_num")

    def __init__(
        self, sing: SingularityType, chain: HJChain, v: tuple[int, ...], correction_num: int
    ) -> None:
        if len(v) != chain.length:
            raise InvalidInputError(
                "discrepancy vector length must match the chain length "
                f"(got {len(v)} vs {chain.length})"
            )
        n = sing.n
        for i, vi in enumerate(v):
            if not (-n < vi <= 0):
                raise InvalidInputError(
                    f"discrepancies must lie in (-1, 0] (got a_{i + 1} = {Fraction(vi, n)})"
                )
        self._set_fields(sing, chain, v, correction_num)

    @property
    def a(self) -> tuple[Fraction, ...]:
        """The discrepancies ``a_i = v_i / n``."""
        return tuple(Fraction(vi, self.sing.n) for vi in self.v)

    @property
    def correction(self) -> Fraction:
        return Fraction(self.correction_num, self.sing.n)


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
    # prev > cur >= 1 at every step makes each entry an int >= 2, and q >= 1
    # makes the chain non-empty.
    return _hj_chain(tuple(entries))


def chain_length(sing: SingularityType) -> int:
    """The length of the chain of ``A_{n,q}``, in O(log n) steps.

    Pad the regular continued fraction ``n/q = [a_1; a_2, ..., a_m]`` to even
    length (``[..., a_m] = [..., a_m - 1, 1]`` when m is odd).  The chain is
    then ``a_1 + 1, 2^(a_2 - 1), a_3 + 2, 2^(a_4 - 1), ...``, so its length
    is the sum of the even-indexed partial quotients.
    """
    quotients = []
    n, q = sing.n, sing.q
    while q:
        quotients.append(n // q)
        n, q = q, n % q
    return sum(quotients[1::2]) + len(quotients) % 2


def _dedekind12(h: int, k: int) -> int:
    """``T(h, k) = 12 k s(h, k)``, with ``s`` the Dedekind sum, for coprime ``h, k``.

    ``T`` is an integer, depends only on ``h mod k`` and satisfies the
    reciprocity ``h T(h, k) + k T(k, h) = h^2 + k^2 + 1 - 3 h k``
    (Rademacher-Grosswald, *Dedekind Sums*).  Euclid's algorithm runs down to
    ``T(0, 1) = 0``, and reciprocity climbs back up, each division exact.
    """
    steps = []
    h %= k
    while h:
        steps.append((h, k))
        h, k = k % h, h
    t = 0
    for h, k in reversed(steps):  # t is T(k mod h, h) = T(k, h)
        t = (h * h + k * k + 1 - 3 * h * k - k * t) // h
    return t


def resolution_numbers(sing: SingularityType) -> tuple[int, int]:
    """The chain length and the correction numerator of ``A_{n,q}``, in O(log n) steps.

    Returns ``(lambda, c)``: the length of :func:`resolve`'s chain and its
    ``correction_num = n sum_i a_i (b_i - 2)``, without building the chain.
    The correction is ``2 - (q + q' + 2)/n - sum_i (b_i - 2)`` with
    ``q q' = 1 (mod n)``, and the entries sum to
    ``3 lambda + (T(q, n) - q - q')/n``, with ``T`` as in :func:`_dedekind12`
    (Hirzebruch-Zagier, "The Atiyah-Singer theorem and elementary number
    theory", 1974).  ``q + q'`` cancels: ``c = 2n - 2 - n lambda - T(q, n)``.
    The tests hold both numbers to :func:`resolve`.
    """
    n = sing.n
    length = chain_length(sing)
    return length, 2 * n - 2 - n * length - _dedekind12(sing.q, n)


def hj_evaluate(chain: HJChain) -> Fraction:
    """Evaluate a chain back to the rational number ``n/q > 1`` it encodes.

    Folds from the right: with every entry >= 2 each partial value stays
    strictly greater than 1, so no division by zero can occur, and
    consecutive numerator/denominator pairs remain coprime throughout.
    """
    b = chain.b
    num, den = b[-1], 1
    for bi in reversed(b[:-1]):
        num, den = bi * num - den, num
    return Fraction(num, den)


def discrepancies(chain: HJChain) -> tuple[tuple[int, ...], int]:
    """The discrepancies of a chain and their correction term, as integers over n.

    The discrepancies are the unique solution of the tridiagonal system

        b_i a_i - a_{i-1} - a_{i+1} = 2 - b_i,    a_0 = a_{lambda+1} = 0.

    Its solution is read off the chain's two continuant recursions, one run
    from each end:

        beta_0 = 0,          beta_1 = 1,      beta_{i+1} = b_i beta_i - beta_{i-1},
        alpha_{lambda+1} = 0, alpha_lambda = 1, alpha_{i-1} = b_i alpha_i - alpha_{i+1},

    which meet in the determinant ``n = alpha_0 = beta_{lambda+1}``; then
    ``n a_i = alpha_i + beta_i - n`` (Hirzebruch, Math. Ann. 126, 1953;
    Reid, "Surface cyclic quotient singularities and Hirzebruch-Jung
    resolutions").  Each continuant solves the homogeneous relation and the
    constant ``n`` leaves ``(b_i - 2) n``, so ``alpha + beta - n`` solves the
    relation scaled by ``n``, with zero at both ends: nothing is divided.

    Returns ``(v, c)`` with ``v_i = n a_i`` and ``c = n sum_i a_i (b_i - 2)``.
    Both recursions run in two locals, keeping only ``alpha_1..alpha_lambda``
    (as they come, from the far end) and ``n``; the pass that runs ``beta``
    builds ``v`` and ``c`` beside it.
    """
    b = chain.b
    alpha = []  # alpha_lambda, ..., alpha_1
    prev, cur = 0, 1
    for bi in reversed(b):
        alpha.append(cur)
        prev, cur = cur, bi * cur - prev
    n = cur
    # From a list, not a generator: tuple() of a generator resizes its
    # result, which leaves CPython's per-size tuple free lists growing.
    v = []
    c = 0
    prev, cur = 0, 1  # beta_(i-1), beta_i
    for bi, ai in zip(b, reversed(alpha)):
        vi = ai + cur - n
        v.append(vi)
        c += vi * (bi - 2)
        prev, cur = cur, bi * cur - prev
    return tuple(v), c


def resolve(sing: SingularityType) -> ResolutionData:
    """Full minimal-resolution data for ``A_{n,q}``: chain, discrepancies, correction.

    The correction lies in ``(-n, 2]`` and vanishes exactly in the du Val
    case ``q = n - 1``, where the chain is ``n - 1`` copies of 2 and every
    discrepancy is zero.
    """
    chain = hj_expand(sing)
    return ResolutionData(sing, chain, *discrepancies(chain))
