"""Built-in example covers with independently known invariants.

Every cover here lives over ``C x P1`` for a curve ``C`` of genus ``g``,
fibred over ``C`` by its first projection and branched on fibres
``{c_k} x P1`` and sections ``C x {t_l}``, which meet in one crossing per
fibre and section (:func:`ruled_cyclic_cover`).  The "square" is the case
``g = 0`` with two fibres ``D1``, ``D2`` and two sections ``D3``, ``D4``
(:func:`square_base`).  Over the square sit

* the power-map family ``(u, v) -> (u^a, v^b)`` of degree ``a*b``, whose
  determinant degree is known from the pushforward of the structure sheaf
  along a one-variable power map (trivial summand plus ``a - 1`` summands
  of degree -1, independent of ``b``); the identity cover (degree 1,
  everything trivial) is ``power_map_cover(1, 1)``,
* the double cover branched along all four lines, ``ruled_cyclic_cover``
  with ``n = 2`` and every weight 1, which acquires an ordinary double
  point over each crossing and resolves to a surface with known classical
  invariants.

These serve as frozen oracles in the test suite and ship as JSON files for
the command line: ``demos/covers/bidouble.json`` is :func:`double_cover`,
and ``demos/covers/cyclic_5_1_4_2_3.json`` is the square's Z/5 cover with
weights 1, 4, 2, 3 on ``D1`` to ``D4``.
"""

from __future__ import annotations

import math

from .errors import InvalidInputError, check_int
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
    "power_map_cover",
    "double_cover",
    "ruled_cyclic_cover",
]

_VERTICAL = ("D1", "D2")  # fibres of the first projection
_HORIZONTAL = ("D3", "D4")  # sections of the first projection


def _ruled_base(g: int, fibres, sections) -> BaseGeometry:
    """``C x P1``, ``g(C) = g``, branched on the fibres and sections named.

    K^2 = 8(1 - g), e_c = 4(1 - g), (K.F) = -2.  Every line has self-intersection
    0; a fibre is rational with (K.F_k) = -2, a section has genus g and
    (K.S_l) = 2g - 2.  Crossings are ordered (fibre, section), fibre-major,
    and each pair declares its one crossing.
    """
    pairs = [(f, s) for f in fibres for s in sections]
    return BaseGeometry(
        genus_C=g,
        KX_sq=8 * (1 - g),
        euler_X=4 * (1 - g),
        KX_dot_F=-2,
        components=tuple(
            BranchComponent(id=cid, genus=0, self_int=0, KX_dot=-2, fiber_deg=0) for cid in fibres
        ) + tuple(
            BranchComponent(id=cid, genus=g, self_int=0, KX_dot=2 * g - 2, fiber_deg=1)
            for cid in sections
        ),
        crossings=tuple(Crossing(index=k, pair=pair) for k, pair in enumerate(pairs)),
        pair_counts=tuple((pair, 1) for pair in pairs),
    )


def _ruled_cover(
    g: int, degree: int, fibres: dict, sections: dict, lattices: list
) -> tuple[BaseGeometry, CoverDescription]:
    """A cover of ``_ruled_base(g, fibres, sections)`` with one sheet list per line.

    ``fibres`` and ``sections`` map each line's id to its sheet list, and
    ``lattices`` gives, in crossing order, the lattice of the one point over
    each crossing.
    """
    cover = CoverDescription(
        degree=degree,
        ramification=(*fibres.items(), *sections.items()),
        points_above=tuple(
            (k, (PointAbove(j=0, jp=0, local=lattice),)) for k, lattice in enumerate(lattices)
        ),
    )
    return _ruled_base(g, fibres, sections), cover


def square_base() -> BaseGeometry:
    """The quadric with four branch lines in a square, fibred to a line: ``C x P1`` with g = 0."""
    return _ruled_base(0, _VERTICAL, _HORIZONTAL)


def ruled_cyclic_cover(
    g: int, n: int, fibres: dict, sections: dict
) -> tuple[BaseGeometry, CoverDescription]:
    """The Z/n cover of ``C x P1``, ``g(C) = g``, with these unit weights.

    ``fibres`` and ``sections`` map each branch line's id to its weight, a
    unit mod ``n``; each family's weights sum to 0 mod ``n``.  Every line is
    totally ramified, under one sheet with ``e = n`` and ``f = 1``.  Over
    the crossing of a fibre of weight ``w`` and a section of weight ``v``
    sits one point whose lattice is the kernel of ``(s, t) -> s w + t v``
    mod ``n``, generated by ``(n, 0)`` and ``(c, 1)`` with
    ``w c + v = 0`` mod ``n``: a quotient point of type ``1/n(1, q)``.
    Other weights, or a ``g`` or ``n`` that :func:`check_int` refuses, raise
    :class:`InvalidInputError`.
    """
    check_int(g, "genus g", minimum=0)
    check_int(n, "cyclic order n", minimum=1)
    for family, weights in (("fibre", fibres), ("section", sections)):
        for cid, w in weights.items():
            if math.gcd(check_int(w, f"weight of {cid!r}"), n) != 1:
                raise InvalidInputError(f"weight {w} of {cid!r} is not a unit mod {n}")
        if total := sum(weights.values()) % n:
            raise InvalidInputError(f"{family} weights sum to {total} mod {n}, not 0")
    sheet = (RamSheet(e=n, f=1),)
    lattices = [  # in crossing order
        LatticeSubgroup((n, 0), (-v * pow(w, -1, n) % n, 1))
        for w in fibres.values()
        for v in sections.values()
    ]
    fibre_sheets, section_sheets = dict.fromkeys(fibres, sheet), dict.fromkeys(sections, sheet)
    return _ruled_cover(g, n, fibre_sheets, section_sheets, lattices)


def power_map_cover(a: int, b: int) -> tuple[BaseGeometry, CoverDescription]:
    """The cover (u, v) -> (u^a, v^b) of the square configuration.

    Degree ``a*b``.  Each vertical line has one sheet with ramification
    ``a`` and degree ``b`` over it, each horizontal line one sheet with
    ramification ``b`` and degree ``a``; above each corner sits a single
    point whose lattice is ``aZ x bZ`` (first coordinate winds around the
    vertical line), a smooth point with local degree ``a*b``.  With
    ``a = b = 1`` it is the identity cover, unramified everywhere.  An
    exponent that :func:`check_int` refuses, or below 1, raises
    :class:`InvalidInputError`.
    """
    check_int(a, "exponent a")
    check_int(b, "exponent b")
    if a < 1 or b < 1:
        raise InvalidInputError(f"exponents must be positive (got a={a}, b={b})")
    return _ruled_cover(
        0,
        a * b,
        dict.fromkeys(_VERTICAL, (RamSheet(e=a, f=b),)),
        dict.fromkeys(_HORIZONTAL, (RamSheet(e=b, f=a),)),
        [LatticeSubgroup((a, 0), (0, b))] * 4,  # one point per corner
    )


def double_cover() -> tuple[BaseGeometry, CoverDescription]:
    """The double cover branched along all four lines of the square.

    Every line carries one sheet with ramification 2 and degree 1; above
    each corner sits one point of local degree 2 whose lattice is the
    index-2 subgroup generated by (2, 0) and (1, 1), an ordinary double
    point.  After resolving the four nodes: K^2 = 4, e_c = 8, chi = 1.
    """
    return ruled_cyclic_cover(0, 2, dict.fromkeys(_VERTICAL, 1), dict.fromkeys(_HORIZONTAL, 1))
