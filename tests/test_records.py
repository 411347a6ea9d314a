"""Value records are named tuples; four reports stay dataclasses.

A named tuple class is defined without generated code and built without a
Python ``__init__``, so the records keep the fields, defaults, repr, hash and
immutability of the frozen dataclasses they replaced.  The oracle of repr and
hash is a frozen dataclass made here with the same fields.
"""

import dataclasses
import importlib
import inspect
import pkgutil
import re
from fractions import Fraction

import pytest

import gieseker
from gieseker.diagnostics import CartanFactor, CartanSummand
from gieseker.ideal_lattice import IdealAntichain, IdealChain, IdealChainEntry
from gieseker.partitions import Hook
from gieseker.quiver_engine import ExtResult, ModelAlgebra, Resolution, simple
from gieseker.torus_chambers import Cocharacter, FixedComponent, Wall

_ALG = ModelAlgebra(2)
_FACTOR = CartanFactor(1, 2, Fraction(1, 2), True)
_ENTRY = IdealChainEntry(1, (2,), 6)

# type, fields in order, defaults, values, and for the validating types
# (bad values, the message they raise)
RECORDS = [
    (Wall, ("kind", "i", "j", "s"), {"i": 0, "j": 0, "s": 0}, ("pair", 1, 2, -3), []),
    (FixedComponent, ("composition", "dimension", "fixed_point_count"), {}, ((1, 2), 6, 2), []),
    (Cocharacter, ("d", "k"), {}, ((3, 0), 1), [
        (((), 1), "need at least one framing weight"),
        (((1.5, 0), 1), "cocharacter entries must be integers"),
        (((1, 0), 1.0), "cocharacter entries must be integers"),
    ]),
    (CartanFactor, ("slot", "size", "parameter", "has_finite_dimensional_rep"), {},
     (1, 2, Fraction(1, 2), True), []),
    (CartanSummand, ("composition", "factors"), {}, ((2, 0), (_FACTOR,)), []),
    (IdealChainEntry, ("index", "leaf", "variety_dim"), {}, (1, (2,), 6), []),
    (IdealChain, ("n", "r", "denominator", "simple", "entries"), {},
     (4, 2, 2, False, (_ENTRY,)), []),
    (IdealAntichain, ("k", "members", "form"), {"form": "intersection"},
     (2, frozenset({frozenset({1}), frozenset({2})}), "sum"), [
        ((0, frozenset(), "sum"), "need k >= 1"),
        ((2, frozenset(), "union"), "unknown form 'union'"),
        ((2, frozenset({frozenset({3})}), "sum"), "member [3] not within 1..2"),
        ((2, frozenset({frozenset({1}), frozenset({1, 2})}), "sum"),
         "members must be pairwise incomparable"),
    ]),
    (Hook, ("n", "r", "slot", "leg"), {}, (3, 2, 1, 2), [
        ((3, 2, 3, 1), "hook indices out of range"),
        ((3, 2, 1, 4), "hook indices out of range"),
        # refused before the range test: Hook(2, 1, True, 1) was built, and
        # Hook(2, 1, 1.0, 1) too, failing later in multipartition()
        ((True, 2, 1, 1), "hook indices must be ints"),
        ((3, 2.0, 1, 1), "hook indices must be ints"),
        ((3, 2, True, 1), "hook indices must be ints"),
        ((3, 2, 1.0, 1), "hook indices must be ints"),
        ((3, 2, 1, "2"), "hook indices must be ints"),
    ]),
    # a resolution holds lists, and so is unhashable like the dataclass was;
    # tuples stand in for them here
    (Resolution, ("algebra", "target", "gens", "images", "terminated"), {},
     (_ALG, simple(_ALG, 1), ((1,),), (((1, (1,)),),), True), []),
    (ExtResult, ("dims", "truncated"), {}, ((0, 1, 0), False), []),
]


@pytest.mark.parametrize(
    "cls, fields, defaults, values, bad", RECORDS, ids=[r[0].__name__ for r in RECORDS]
)
def test_record_is_a_named_tuple_with_the_dataclass_behaviour(cls, fields, defaults, values, bad):
    assert issubclass(cls, tuple) and cls._fields == fields
    params = inspect.signature(cls).parameters
    assert tuple(params) == fields
    assert {f: p.default for f, p in params.items() if p.default is not p.empty} == defaults
    assert cls._field_defaults == defaults
    record = cls(*values)
    assert cls(*[v for f, v in zip(fields, values) if f not in defaults]) == record._replace(
        **defaults
    )

    oracle = dataclasses.make_dataclass(
        cls.__name__,
        [(f, object, dataclasses.field(default=defaults[f])) if f in defaults else (f, object)
         for f in fields],
        frozen=True,
    )
    assert repr(record) == repr(oracle(*values))
    assert record == cls(*values) and hash(record) == hash(cls(*values)) == hash(oracle(*values))

    for field in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, field, 0)

    for args, message in bad:
        for build in (
            lambda: cls(*args),
            lambda: cls._make(args),
            lambda: record._replace(**dict(zip(fields, args))),
        ):
            with pytest.raises(ValueError, match=re.escape(message)):
                build()


def test_the_only_dataclasses_are_the_four_reports():
    # every other record is a named tuple, which generates no code at import;
    # perfbench/selfcheck.py rebuilds these four with dataclasses.replace
    found = set()
    for info in pkgutil.iter_modules(gieseker.__path__):
        module = importlib.import_module(f"gieseker.{info.name}")
        found |= {
            name
            for name, obj in vars(module).items()
            if inspect.isclass(obj)
            and obj.__module__ == module.__name__
            and dataclasses.is_dataclass(obj)
        }
    assert found == {"DiagnosticsReport", "WallSet", "SupportReport", "BlockStructure"}
