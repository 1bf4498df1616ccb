"""Cyclic covers of C x P1, their weights and documents, shared by several test files.

The covers are :func:`ramcov.golden.ruled_cyclic_cover`'s and the documents
their echoes, with the declared pair counts the builder makes.
"""

import math

from hypothesis import assume
from hypothesis import strategies as st

from ramcov.golden import ruled_cyclic_cover
from ramcov.report import canonical_document


def ruled_cover(g: int, n: int, fibre_weights, section_weights):
    """:func:`ruled_cyclic_cover` with these weights on ``F0, F1, ...`` and ``S0, S1, ...``."""
    fibres = {f"F{k}": w for k, w in enumerate(fibre_weights)}
    return ruled_cyclic_cover(g, n, fibres, {f"S{l}": v for l, v in enumerate(section_weights)})


def grid_document(k: int) -> dict:
    """Double cover of P1 x P1 branched on k fibres and k sections, k even: k^2 nodes."""
    return canonical_document(*ruled_cover(0, 2, [1] * k, [1] * k))


@st.composite
def unit_weights(draw, n: int, counts=(2, 3, 4)):
    """Units mod n summing to 0 mod n, as many as one of ``counts``; a single unit cannot."""
    units = [u for u in range(1, n) if math.gcd(u, n) == 1]
    # Units of an even n are odd, so an even n needs an even count.
    count = draw(st.sampled_from([c for c in counts if n % 2 == 1 or c % 2 == 0]))
    weights = draw(st.lists(st.sampled_from(units), min_size=count - 1, max_size=count - 1))
    last = -sum(weights) % n
    assume(math.gcd(last, n) == 1)
    return weights + [last]


@st.composite
def ruled_weights(draw):
    """``(g, n, fibre_weights, section_weights)`` for :func:`ruled_cover`, g <= 3 and n <= 23.

    Only a fibre and a section of equal weight put a du Val point, of type
    ``1/n(1, n - 1)``, over their crossing, so most drawn points are not du Val.
    """
    n = draw(st.integers(2, 23))
    g = draw(st.integers(0, 3))
    return g, n, draw(unit_weights(n)), draw(unit_weights(n))
