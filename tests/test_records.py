"""The record contract of every public value class: construction by position
and by keyword, immutable attributes, and equal values hashing equal."""

import inspect

import pytest

from dynkin_tilting import build_category
from dynkin_tilting.diagrams import CartanDatum, DiagramError, DiagramShape, DynkinType, build_cartan
from dynkin_tilting.enumeration import CountTable, SincereSplit
from dynkin_tilting.oeis import BFile, ReconcileResult, TriangleDoc
from dynkin_tilting.orbits import Indec, ModCategory, knit_category
from dynkin_tilting.verify import Check, VerificationReport

_A2 = build_cartan(DynkinType("A", 2))
_A2_CAT = knit_category(_A2)
_CHECK_ARGS = ("type", "A2", "1 2 2 | 5", "1 2 2 | 5")
_CHECK = Check(*_CHECK_ARGS)

# one argument tuple per class, in constructor order
_RECORDS = [
    (DynkinType, ("B", 3)),
    (DiagramShape, (2, ((1, 2, 1, 1),))),
    (CartanDatum, (_A2.label, _A2.shape, _A2.orientation, _A2.cartan)),
    (Indec, (1, 0, (1, 0), 0b01)),
    (ModCategory, (_A2, _A2_CAT.indecs, _A2_CAT.q, (5, 2, 6), (2, 1, 0), (4, 4, 3), ((1, 1), (2, 2), (3, 7)))),
    (CountTable, ("A2", 2, (1, 2, 2), (1, 3, 1), 5)),
    (SincereSplit, (1, 2, (0, 1, 0))),
    (Check, _CHECK_ARGS),
    (VerificationReport, ((_CHECK,),)),
    (TriangleDoc, ("pascal", 0, ((1,), (1, 1)), (1, 2), 0)),
    (BFile, ("A007318", ((0, 1), (1, 1)))),
    (ReconcileResult, ("A007318", 2, True, "2 terms agree")),
]


@pytest.mark.parametrize("cls, args", _RECORDS, ids=[cls.__name__ for cls, _ in _RECORDS])
def test_record_contract(cls, args):
    names = list(inspect.signature(cls).parameters)
    assert len(names) == len(args)
    by_position = cls(*args)
    by_keyword = cls(**dict(zip(names, args)))
    assert type(by_position) is cls and type(by_keyword) is cls
    assert by_position == by_keyword
    assert hash(by_position) == hash(by_keyword)
    for name, value in zip(names, args):
        assert getattr(by_position, name) is value
        with pytest.raises(AttributeError):
            setattr(by_position, name, value)
    with pytest.raises(AttributeError):
        by_position.unknown_field = 0


def test_mod_category_hashes_and_ignores_index():
    cat = build_category(_A2)
    again = build_category(build_cartan(DynkinType("A", 2)))
    assert cat == again and hash(cat) == hash(again)
    assert cat == tuple(cat)  # a NamedTuple compares equal to a plain tuple
    # the Hom rows and compat masks take part in equality
    assert _A2_CAT != cat
    assert {cat, again, _A2_CAT} == {cat, _A2_CAT}


def test_replace_validates_like_the_constructor():
    assert DynkinType("A", 3)._replace(rank=4) == DynkinType("A", 4)
    with pytest.raises(DiagramError, match="inadmissible rank 0"):
        DynkinType("A", 3)._replace(rank=0)
    with pytest.raises(DiagramError, match="rank must be an integer"):
        DynkinType._make(("A", 3.0))
    with pytest.raises(DiagramError, match="bad valuation"):
        DiagramShape(2, ((1, 2, 1, 1),))._replace(edges=((1, 2, 2, 2),))
