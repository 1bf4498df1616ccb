"""Built-in example covers with independently known invariants.

All three families live over the quadric surface (a product of two lines)
fibred by its first projection, with the branch configuration a "square"
of four lines: two fibres ``D1 = {0} x P1``, ``D2 = {inf} x P1`` and two
sections ``D3 = P1 x {0}``, ``D4 = P1 x {inf}``, meeting in four crossings.

* the identity cover (degree 1, everything trivial),
* the power-map family ``(u, v) -> (u^a, v^b)`` of degree ``a*b``, whose
  determinant degree is known from the pushforward of the structure sheaf
  along a one-variable power map (trivial summand plus ``a - 1`` summands
  of degree -1, independent of ``b``),
* the double cover branched along all four lines, which acquires an
  ordinary double point over each crossing and resolves to a surface with
  known classical invariants.

These serve as frozen oracles in the test suite and ship as JSON files for
the command line.
"""

from __future__ import annotations

from .errors import InvalidInputError
from .local_cover import LatticeSubgroup
from .model import (
    BaseGeometry,
    BranchComponent,
    CoverDescription,
    Crossing,
    PointAbove,
    RamSheet,
)

__all__ = [
    "square_base",
    "identity_cover",
    "power_map_cover",
    "double_cover",
]

_VERTICAL = ("D1", "D2")  # fibres of the first projection
_HORIZONTAL = ("D3", "D4")  # sections of the first projection


def square_base() -> BaseGeometry:
    """The quadric with four branch lines in a square, fibred to a line.

    Numerology: K^2 = 8, e_c = 4, (K.F) = -2, genus of the base curve 0;
    each line is rational with self-intersection 0, (K.D_i) = -2, and
    fibre degree 0 for the two fibres, 1 for the two sections.  Crossings
    are ordered (vertical, horizontal), matching the lattice convention
    used by the cover builders below.
    """
    components = tuple(
        BranchComponent(id=cid, genus=0, self_int=0, KX_dot=-2, fiber_deg=fd)
        for cid, fd in (("D1", 0), ("D2", 0), ("D3", 1), ("D4", 1))
    )
    crossings = tuple(
        Crossing(index=k, pair=pair)
        for k, pair in enumerate(
            (("D1", "D3"), ("D1", "D4"), ("D2", "D3"), ("D2", "D4"))
        )
    )
    pair_counts = tuple((pair, 1) for pair in (("D1", "D3"), ("D1", "D4"), ("D2", "D3"), ("D2", "D4")))
    return BaseGeometry(
        genus_C=0,
        KX_sq=8,
        euler_X=4,
        KX_dot_F=-2,
        components=components,
        crossings=crossings,
        pair_counts=pair_counts,
    )


def identity_cover() -> tuple[BaseGeometry, CoverDescription]:
    """The trivial degree-1 cover: ``power_map_cover(1, 1)``, unramified everywhere."""
    return power_map_cover(1, 1)


def power_map_cover(a: int, b: int) -> tuple[BaseGeometry, CoverDescription]:
    """The cover (u, v) -> (u^a, v^b) of the square configuration.

    Degree ``a*b``.  Each vertical line has one sheet with ramification
    ``a`` and degree ``b`` over it, each horizontal line one sheet with
    ramification ``b`` and degree ``a``; above each corner sits a single
    point whose lattice is ``aZ x bZ`` (first coordinate winds around the
    vertical line), a smooth point with local degree ``a*b``.
    """
    if a < 1 or b < 1:
        raise InvalidInputError(f"exponents must be positive (got a={a}, b={b})")
    base = square_base()
    vertical_sheet = (RamSheet(e=a, f=b),)
    horizontal_sheet = (RamSheet(e=b, f=a),)
    ram = tuple(
        (cid, vertical_sheet if cid in _VERTICAL else horizontal_sheet)
        for cid in ("D1", "D2", "D3", "D4")
    )
    corner = LatticeSubgroup((a, 0), (0, b))
    cover = CoverDescription(
        degree=a * b,
        ramification=ram,
        points_above=tuple(
            (x.index, (PointAbove(j=0, jp=0, local=corner),)) for x in base.crossings
        ),
    )
    return base, cover


def double_cover() -> tuple[BaseGeometry, CoverDescription]:
    """The double cover branched along all four lines of the square.

    Every line carries one sheet with ramification 2 and degree 1; above
    each corner sits one point of local degree 2 whose lattice is the
    index-2 subgroup generated by (2, 0) and (1, 1), an ordinary double
    point.  After resolving the four nodes: K^2 = 4, e_c = 8, chi = 1.
    """
    base = square_base()
    sheet = (RamSheet(e=2, f=1),)
    node = LatticeSubgroup((2, 0), (1, 1))
    cover = CoverDescription(
        degree=2,
        ramification=tuple((cid, sheet) for cid in ("D1", "D2", "D3", "D4")),
        points_above=tuple(
            (x.index, (PointAbove(j=0, jp=0, local=node),)) for x in base.crossings
        ),
    )
    return base, cover
