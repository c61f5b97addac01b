"""The public records are named tuples: closed to assignment, with the ``repr`` they had as frozen dataclasses,
``_replace`` for a changed copy, and round trips through pickle, ``deepcopy`` and, on Python 3.13 and later,
``copy.replace``."""

from __future__ import annotations

import copy
import pickle
import sys
from fractions import Fraction

import pytest

import ptesolver
from ptesolver import (
    DecisionPoint,
    Game,
    SpacetimeSetup,
    ValidationIssue,
    embed_normal_form,
    separation,
    solve,
    validate_game,
    validate_setup,
)


def _game() -> Game:
    return embed_normal_form({("a",): (1,), ("b",): ("1/2",)}, ("P",), (("a", "b"),))


def _setup() -> SpacetimeSetup:
    point = DecisionPoint("p", "A", (Fraction(0), Fraction(1, 2)), ("x", "y"))
    return SpacetimeSetup(2, ("A",), ("x", "y"), (point,), {}, {"x": {"A": Fraction(1)}, "y": {"A": Fraction(-3)}})


def _timelike():
    return separation((Fraction(0), Fraction(0)), (Fraction(0), Fraction(1)), 2)


# A fresh record of each public record class, and its repr when the records were frozen dataclasses.
RECORDS = {
    "Game": (
        _game,
        "Game(players=('P',), actions=('a', 'b'), choice_nodes=('',), outcomes=('a', 'b'), "
        "action_map={'': ('a', 'b')}, player_map={'': 'P'}, successor_map={('', 'a'): 'a', ('', 'b'): 'b'}, "
        "utility_map={('P', 'a'): Fraction(1, 1), ('P', 'b'): Fraction(1, 2)}, infosets={'P': ('',)}, root='')",
    ),
    "ValidationIssue": (
        lambda: ValidationIssue("DUPLICATE_PLAYER", "duplicate player identifier"),
        "ValidationIssue(code='DUPLICATE_PLAYER', message='duplicate player identifier', ids=())",
    ),
    "ValidationReport": (
        lambda: validate_game(_game()),
        "ValidationReport(errors=(), is_canonical=True, has_perfect_recall=True, has_ties=False)",
    ),
    "SolveResult": (
        lambda: solve(embed_normal_form({("a",): (1,)}, ("P",), (("a",),))),
        "SolveResult(fixpoint=frozenset({'a'}), steps=(SolverState(step=0, surviving=frozenset({'a'}), "
        "reached=frozenset({'P'}), maximins={'P': (Fraction(1, 1), 'a')}, preempted=frozenset(), "
        "preempted_by={}),), has_ties=False, status='unique')",
    ),
    "Separation": (_timelike, "Separation(kind='timelike', earlier=0)"),
    "DecisionPoint": (
        lambda: _setup().points[0],
        "DecisionPoint(id='p', agent='A', coords=(Fraction(0, 1), Fraction(1, 2)), actions=('x', 'y'))",
    ),
    "SpacetimeSetup": (
        _setup,
        "SpacetimeSetup(dimension=2, agents=('A',), actions=('x', 'y'), points=(DecisionPoint(id='p', agent='A', "
        "coords=(Fraction(0, 1), Fraction(1, 2)), actions=('x', 'y')),), contingency={}, "
        "utilities={'x': {'A': Fraction(1, 1)}, 'y': {'A': Fraction(-3, 1)}})",
    ),
    "SetupReport": (lambda: validate_setup(_setup()), "SetupReport(errors=())"),
}


def test_every_public_record_is_covered():
    exported = {name for name in ptesolver.__all__ if isinstance(getattr(ptesolver, name), type)}
    assert {name for name in exported if issubclass(getattr(ptesolver, name), tuple)} == set(RECORDS)


@pytest.mark.parametrize("name", RECORDS)
def test_fields_and_new_names_cannot_be_assigned(name):
    record = RECORDS[name][0]()
    assert type(record) is getattr(ptesolver, name)
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    with pytest.raises(AttributeError):
        record.extra = None


@pytest.mark.parametrize("name", RECORDS)
def test_repr_is_unchanged(name):
    make, text = RECORDS[name]
    record = make()
    if name == "Game":
        validate_game(record)  # the cached index is not part of the repr
    assert repr(record) == text


@pytest.mark.parametrize("name", RECORDS)
def test_replace_gives_an_equal_copy(name):
    record = RECORDS[name][0]()
    if name == "Game":
        validate_game(record)
        assert "_tree" in vars(record)
    duplicate = record._replace()
    assert duplicate == record and type(duplicate) is type(record)
    if name == "Game":
        assert "_tree" not in vars(duplicate)
    field = record._fields[-1]
    assert getattr(record._replace(**{field: "other"}), field) == "other"
    # The caveat of a tuple: a record equals the plain tuple of its values.
    assert record == tuple(record) and len(record) == len(record._fields)


@pytest.mark.parametrize("name", RECORDS)
def test_pickle_and_deepcopy_round_trip(name):
    record = RECORDS[name][0]()
    for again in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
        assert again == record and type(again) is type(record) and repr(again) == repr(record)


def test_games_stay_unhashable():
    with pytest.raises(TypeError):
        hash(_game())
    assert hash(_timelike()) == hash(("timelike", 0))


@pytest.mark.skipif(sys.version_info < (3, 13), reason="copy.replace is new in Python 3.13")
@pytest.mark.parametrize("name", RECORDS)
def test_copy_replace(name):
    record = RECORDS[name][0]()
    field = record._fields[0]
    changed = copy.replace(record, **{field: "other"})
    assert type(changed) is type(record) and getattr(changed, field) == "other"
    assert changed._replace(**{field: getattr(record, field)}) == record
