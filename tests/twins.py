"""A model's twin: equal to it, and sharing no tuple, point or local with it.

The walk and the report writer key their per-component and per-crossing
work on the identity of the loader's shared sheet lists and point lists.  A
twin pays once per component and crossing, so the tests hold its answers to
the shared model's and to the independent oracles.
"""

from ramcov.local_cover import LatticeSubgroup, LocalCoverType
from ramcov.model import PointAbove, RamSheet
from rebuild import replace


def twin(cover):
    """``cover`` rebuilt from fresh sheet tuples, point tuples, points and locals."""
    def local(loc):
        if isinstance(loc, LatticeSubgroup):
            return LatticeSubgroup(tuple(loc.g1), tuple(loc.g2))
        return LocalCoverType(loc.n, loc.q, loc.m1, loc.m2)

    return replace(
        cover,
        ramification=tuple(
            (cid, tuple(RamSheet(s.e, s.f) for s in sheets)) for cid, sheets in cover.ramification
        ),
        points_above=tuple(
            (idx, tuple(PointAbove(p.j, p.jp, local(p.local)) for p in points))
            for idx, points in cover.points_above
        ),
    )
