"""Derived values skip their constructors' checks; values from outside do not.

Two private builders remain, one per class whose constructor checks
something: ``hj._hj_chain`` builds the chains that :func:`hj_expand` and
``HJChain.reversed`` derive, and ``local_cover._lattice_subgroup`` the
subgroups that :func:`enumerate_subgroups` and ``LatticeSubgroup.swapped``
derive.  :class:`LocalCoverType` checks nothing, so :func:`local_type`
calls its constructor.  The first three tests hold each derived value to
the constructor.  The last three count ``__init__`` calls: the sweeps run
no check, the lattice sweep builds its local types through the
constructor, and a document, ``ramcov local`` and the public constructors
run the checks as before.
"""

import functools
import math
import pathlib
from collections import Counter
from fractions import Fraction

import pytest

from ramcov.cli import main
from ramcov.errors import InvalidInputError
from ramcov.hj import HJChain, SingularityType, discrepancies, hj_evaluate, hj_expand
from ramcov.loader import parse_cover_json
from ramcov.local_cover import (
    LatticeSubgroup,
    LocalCoverType,
    canonical_basis,
    enumerate_subgroups,
    local_type,
)
from ramcov.verify import hj_sweep, lattice_sweep
from rebuild import replace

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _int_pair(g):
    return type(g) is tuple and len(g) == 2 and all(type(c) is int for c in g)


def test_expanded_and_reversed_chains_pass_the_checked_constructor():
    for n in range(2, 301):
        for q in range(1, n):
            if math.gcd(n, q) != 1:
                continue
            chain = hj_expand(SingularityType(n, q))
            for c in (chain, chain.reversed()):
                assert type(c.b) is tuple and all(type(bi) is int for bi in c.b), (n, q)
                assert HJChain(c.b) == c, (n, q)


def test_enumerated_and_swapped_subgroups_pass_the_checked_constructor():
    subgroups = enumerate_subgroups(60)
    assert len(subgroups) == sum(a for k in range(1, 61) for a in range(1, k + 1) if k % a == 0)
    for g in subgroups:
        for h in (g, g.swapped()):
            assert _int_pair(h.g1) and _int_pair(h.g2), h
            assert LatticeSubgroup(h.g1, h.g2) == h


def test_local_type_equals_the_keyword_construction():
    for g in enumerate_subgroups(60):
        for h in (g, g.swapped()):
            n_prime, q_prime, m2 = canonical_basis(h)
            m1 = math.gcd(n_prime, q_prime)
            expected = LocalCoverType(n=n_prime // m1, q=q_prime // m1, m1=m1, m2=m2)
            lt = local_type(h)
            assert type(lt) is LocalCoverType
            assert lt == expected and hash(lt) == hash(expected), h
            assert repr(lt) == repr(expected)


@pytest.fixture
def checked_inits(monkeypatch):
    """Counts ``__init__`` calls per class, by wrapping the class attribute."""
    calls = Counter()
    for cls in (HJChain, LatticeSubgroup, LocalCoverType):
        @functools.wraps(cls.__init__)  # keeps the signature that rebuild.replace reads
        def counted(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
            calls[_name] += 1
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counted)
    return calls


def test_the_sweeps_run_no_constructor_check(checked_inits):
    assert hj_sweep(40).ok and lattice_sweep(30).ok
    assert checked_inits["HJChain"] == checked_inits["LatticeSubgroup"] == 0


def test_the_lattice_sweep_builds_two_local_types_per_subgroup(checked_inits):
    # local_type of each subgroup and of its swap, each through the constructor.
    result = lattice_sweep(30)
    subgroups = sum(a for k in range(1, 31) for a in range(1, k + 1) if k % a == 0)
    assert result.ok and result.checked == subgroups
    assert checked_inits == Counter({"LocalCoverType": 2 * subgroups})


def test_values_from_outside_are_checked(checked_inits, capsys):
    document = (ROOT / "demos" / "covers" / "bidouble.json").read_text()
    assert '"local"' in document
    parse_cover_json(document)
    assert checked_inits["LatticeSubgroup"] >= 1

    checked_inits.clear()
    assert main(["local", "4", "0", "2", "1"]) == 0
    assert checked_inits["LatticeSubgroup"] >= 1
    assert main(["local", "2", "0", "4", "0"]) == 2
    assert "linearly independent" in capsys.readouterr().err

    checked_inits.clear()
    assert hj_evaluate(HJChain((2, 3))) == Fraction(5, 3)
    assert discrepancies(HJChain((2, 2))) == ((0, 0), 0)
    assert checked_inits["HJChain"] == 2
    chain = hj_expand(SingularityType(5, 2))
    with pytest.raises(InvalidInputError, match=r"^chain entry b_1 must be >= 2 \(got 1\)$"):
        replace(chain, b=(1,))
    with pytest.raises(InvalidInputError, match="linearly independent"):
        replace(enumerate_subgroups(1)[0], g2=(4, 0))
    assert checked_inits == Counter({"HJChain": 3, "LatticeSubgroup": 1})
