from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import textwrap
import time
from fractions import Fraction
from itertools import product
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptesolver import (
    COLOCATED,
    SPACELIKE,
    TIMELIKE,
    DecisionPoint,
    SetupError,
    SpacetimeSetup,
    ValidationIssue,
    build_game,
    causal_dag,
    embed_normal_form,
    has_perfect_recall,
    is_canonical,
    separation,
    serialize_game,
    spacelike_agent_check,
    total_order,
    validate_game,
    validate_setup,
)
from ptesolver import spacetime as spacetime_module
from ptesolver.spacetime import HISTORY_SLACK, _Triangle

from conftest import (
    _forced_triangle,
    fraction_separation,
    history_walk_game,
    pairwise_causal_dag,
    pairwise_triangle_issues,
    random_setup,
    serialize_setup,
    timelike_chain_setup,
)

# The six-point example: histories the build must reproduce exactly.
HEXA_COMPLETE = {
    "1,3,_,7,9,_",
    "1,3,_,7,10,_",
    "1,3,_,8,_,_",
    "1,4,_,7,9,_",
    "1,4,_,7,10,_",
    "1,4,_,8,_,_",
    "2,_,5,7,9,_",
    "2,_,5,7,10,11",
    "2,_,5,7,10,12",
    "2,_,5,7,10,13",
    "2,_,5,8,_,_",
    "2,_,6,7,9,_",
    "2,_,6,7,10,_",
    "2,_,6,8,_,_",
}
HEXA_INCOMPLETE = {
    "",
    "1",
    "1,3,_",
    "1,3,_,7",
    "1,4,_",
    "1,4,_,7",
    "2,_",
    "2,_,5",
    "2,_,5,7",
    "2,_,5,7,10",
    "2,_,6",
    "2,_,6,7",
}


def two_point_setup(**overrides) -> SpacetimeSetup:
    fields = dict(
        dimension=2,
        agents=("A", "B"),
        actions=("x", "y"),
        points=(
            DecisionPoint("p", "A", (Fraction(0), Fraction(0)), ("x", "y")),
            DecisionPoint("q", "B", (Fraction(10), Fraction(0)), ("x", "y")),
        ),
        contingency={},
        utilities={
            f"{a},{b}": {"A": i + 1, "B": 4 - i}
            for i, (a, b) in enumerate(product("xy", "xy"))
        },
    )
    fields.update(overrides)
    return SpacetimeSetup(**fields)


def split_key(key: str) -> tuple[str, ...]:
    """A history key's actions, ``_`` where no decision happens."""
    return tuple(key.split(",")) if key else ()


def built_histories(setup: SpacetimeSetup) -> tuple[set[tuple[str, ...]], set[tuple[str, ...]]]:
    """(complete, incomplete) histories of the built game, split from its node ids."""
    game = build_game(setup)
    return set(map(split_key, game.outcomes)), set(map(split_key, game.choice_nodes))


def joined(histories: set[tuple[str, ...]]) -> set[str]:
    return {",".join(history) for history in histories}


def contingency_rows(setup: SpacetimeSetup) -> list[tuple[str | None, ...]]:
    """Row k: the action the contingency requires at each point before the k-th, or None."""
    order = total_order(setup)
    return [
        tuple(setup.contingency.get(point.id, {}).get(earlier.id) for earlier in order[:k])
        for k, point in enumerate(order)
    ]


class TestSeparation:
    def test_colocated(self):
        sep = separation((Fraction(3), Fraction(5)), (Fraction(3), Fraction(5)), 2)
        assert sep.kind == COLOCATED

    def test_pure_time_displacement(self):
        sep = separation((Fraction(0), Fraction(0)), (Fraction(0), Fraction(1)), 2)
        assert sep.kind == TIMELIKE
        assert sep.earlier == 0

    def test_spacelike(self):
        sep = separation((Fraction(0), Fraction(0)), (Fraction(5), Fraction(1)), 2)
        assert sep.kind == SPACELIKE

    def test_lightlike_counts_as_timelike(self):
        sep = separation((Fraction(0), Fraction(0)), (Fraction(1), Fraction(1)), 2)
        assert sep.kind == TIMELIKE
        assert sep.earlier == 0

    def test_order_flips_with_time(self):
        sep = separation((Fraction(0), Fraction(9)), (Fraction(0), Fraction(1)), 2)
        assert sep.kind == TIMELIKE
        assert sep.earlier == 1

    def test_exactness_near_the_cone(self):
        inside = separation((Fraction(0), Fraction(0)), (Fraction(10**12), Fraction(10**12) + 1), 2)
        outside = separation((Fraction(0), Fraction(0)), (Fraction(10**12) + 1, Fraction(10**12)), 2)
        assert inside.kind == TIMELIKE
        assert outside.kind == SPACELIKE

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            separation((Fraction(0),), (Fraction(0), Fraction(0)), 2)


class TestOrdering:
    def test_hexa_dag(self, hexa_setup):
        dag = {k: set(v) for k, v in causal_dag(hexa_setup).items()}
        assert dag == {
            "a": {"b", "c", "f"},
            "b": set(),
            "c": {"f"},
            "d": {"e", "f"},
            "e": {"f"},
            "f": set(),
        }

    def test_hexa_total_order(self, hexa_setup):
        assert [p.id for p in total_order(hexa_setup)] == ["a", "b", "c", "d", "e", "f"]

    def test_edgeless_order_is_pure_tiebreak(self):
        setup = two_point_setup()
        assert causal_dag(setup) == {"p": frozenset(), "q": frozenset()}
        assert [p.id for p in total_order(setup)] == ["p", "q"]

    def test_order_extends_precedence_on_random_setups(self):
        for seed in range(200):
            setup = random_setup(seed)
            positions = {p.id: i for i, p in enumerate(total_order(setup))}
            for earlier, laters in causal_dag(setup).items():
                for later in laters:
                    assert positions[earlier] < positions[later]

    def test_colocated_points_are_adjacent(self):
        spot = (Fraction(1), Fraction(1))
        setup = two_point_setup(
            agents=("A", "B", "C"),
            points=(
                DecisionPoint("p", "A", spot, ("x",)),
                DecisionPoint("m", "C", (Fraction(-50), Fraction(1)), ("x",)),
                DecisionPoint("q", "B", spot, ("x",)),
            ),
            utilities={"x,x,x": {"A": 1, "B": 1, "C": 1}},
        )
        order = [p.id for p in total_order(setup)]
        assert abs(order.index("p") - order.index("q")) == 1


coordinates = st.fractions(-20, 20, max_denominator=1000)


@st.composite
def point_sets(draw) -> SpacetimeSetup:
    """1-12 points of two agents in dimension 1-4, with colocated and lightlike pairs mixed in."""
    dimension = draw(st.integers(1, 4))
    spots: list[tuple[Fraction, ...]] = []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(("fresh", "repeat", "lightlike"))) if spots else "fresh"
        if kind == "fresh":
            spots.append(tuple(draw(coordinates) for _ in range(dimension)))
            continue
        base = draw(st.sampled_from(spots))
        if kind == "repeat":
            spots.append(base)
            continue
        # A light signal from or to base, along one space axis or, as (3, 4, 5), two.
        step = draw(coordinates.filter(bool))
        shift = [Fraction(0)] * dimension
        if dimension >= 3 and draw(st.booleans()):
            shift[0], shift[1], shift[-1] = 3 * step, 4 * step, 5 * step
        elif dimension >= 2:
            shift[draw(st.integers(0, dimension - 2))] = shift[-1] = step
        spots.append(tuple(a + b for a, b in zip(base, shift)))
    points = tuple(
        DecisionPoint(f"p{k}", draw(st.sampled_from(("A", "B"))), spot, ("x",)) for k, spot in enumerate(spots)
    )
    return SpacetimeSetup(dimension, ("A", "B"), ("x",), points, {}, {})


def pairwise_agent_check(setup: SpacetimeSetup) -> bool:
    return all(
        fraction_separation(p.coords, q.coords)[0] == TIMELIKE
        for i, p in enumerate(setup.points)
        for q in setup.points[i + 1 :]
        if p.agent == q.agent
    )


class TestIntegerIntervals:
    """`separation`, `causal_dag` and `spacelike_agent_check` compare integers; the references, Fractions."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(point_sets())
    def test_equal_to_the_fraction_reference(self, setup):
        for p in setup.points:
            for q in setup.points:
                sep = separation(p.coords, q.coords, setup.dimension)
                assert (sep.kind, sep.earlier) == fraction_separation(p.coords, q.coords), (p, q)
        assert causal_dag(setup) == pairwise_causal_dag(setup)
        assert spacelike_agent_check(setup) == pairwise_agent_check(setup)

    def test_hundred_digit_denominators(self):
        # Each point has its own 100-digit denominator, so one common
        # denominator for all of them would have about 16 000 digits.
        rng = random.Random(1)
        denominators: set[int] = set()
        while len(denominators) < 160:
            denominators.add(rng.randrange(10**99, 10**100))

        def over(den: int, low: int, high: int) -> Fraction:
            numerator = rng.randrange(low * den, high * den)
            while gcd(numerator, den) != 1:
                numerator += 1
            return Fraction(numerator, den)

        points = tuple(
            DecisionPoint(f"p{k}", "A", (over(den, -80, 80), over(den, 0, 160)), ("x",))
            for k, den in enumerate(sorted(denominators))
        )
        setup = SpacetimeSetup(2, ("A",), ("x",), points, {}, {})
        assert len({c.denominator for p in points for c in p.coords}) == 160
        start = time.perf_counter()
        dag = causal_dag(setup)
        elapsed = time.perf_counter() - start
        assert dag == pairwise_causal_dag(setup)
        assert 0 < sum(map(len, dag.values())) < 160 * 159 // 2
        assert elapsed < 2.0

    def test_wrong_coordinate_count_raises_like_separation(self):
        setup = two_point_setup(
            points=(
                DecisionPoint("p", "A", (Fraction(0), Fraction(0)), ("x", "y")),
                DecisionPoint("q", "B", (Fraction(0),), ("x", "y")),
            )
        )
        with pytest.raises(ValueError, match="coordinates must have length 2"):
            causal_dag(setup)
        assert causal_dag(setup._replace(points=setup.points[1:])) == {"q": frozenset()}


class TestIntervalTestCount:
    """Validation runs `_time_gap` only on pairs that earlier results do not already decide."""

    @staticmethod
    def counted(monkeypatch) -> list[None]:
        calls: list[None] = []
        time_gap = spacetime_module._time_gap

        def counting(p, q):
            calls.append(None)
            return time_gap(p, q)

        monkeypatch.setattr(spacetime_module, "_time_gap", counting)
        return calls

    def test_a_chain_takes_one_test_per_point_after_the_first(self, monkeypatch):
        calls = self.counted(monkeypatch)
        assert validate_setup(timelike_chain_setup(1000, 1)).ok
        assert len(calls) == 999
        chain = timelike_chain_setup(200, 1)
        assert causal_dag(chain) == pairwise_causal_dag(chain)

    def test_spacelike_points_take_every_pair(self, monkeypatch):
        n = 200
        setup = spacelike_setup(n)
        calls = self.counted(monkeypatch)
        validate_setup(setup)
        assert len(calls) == n * (n - 1) // 2
        assert causal_dag(setup) == pairwise_causal_dag(setup)

    @pytest.mark.slow
    def test_thousand_point_chain_dag_equals_the_pairwise_one(self):
        chain = timelike_chain_setup(1000, 1)
        assert causal_dag(chain) == pairwise_causal_dag(chain)


class TestTriangle:
    def test_hexa_triangle_valid(self, hexa_setup):
        assert validate_setup(hexa_setup).ok
        # Row f requires (2, _, 5, 7, 10), so f decides at exactly that history.
        assert build_game(hexa_setup).infosets["f"] == ("2,_,5,7,10",)

    def test_assigning_b_in_row_f_is_inconsistent(self, hexa_setup):
        contingency = {pid: dict(row) for pid, row in hexa_setup.contingency.items()}
        contingency["f"]["b"] = "3"
        broken = SpacetimeSetup(
            hexa_setup.dimension,
            hexa_setup.agents,
            hexa_setup.actions,
            hexa_setup.points,
            contingency,
            hexa_setup.utilities,
        )
        codes = {i.code for i in validate_setup(broken).errors}
        assert "INCONSISTENT_ROW" in codes

    def test_empty_triangle_over_spacelike_points(self):
        assert validate_setup(two_point_setup()).ok

    def test_action_for_non_predecessor(self):
        setup = two_point_setup(contingency={"q": {"p": "x"}})
        codes = {i.code for i in validate_setup(setup).errors}
        assert "NOT_CAUSAL" in codes

    def test_missing_forced_entry(self):
        setup = two_point_setup(
            points=(
                DecisionPoint("p", "A", (Fraction(0), Fraction(0)), ("x", "y")),
                DecisionPoint("q", "B", (Fraction(0), Fraction(5)), ("x", "y")),
            ),
            contingency={},
        )
        codes = {i.code for i in validate_setup(setup).errors}
        assert "MISSING_CONTINGENCY" in codes

    def test_unavailable_contingent_action(self):
        setup = two_point_setup(
            points=(
                DecisionPoint("p", "A", (Fraction(0), Fraction(0)), ("x",)),
                DecisionPoint("q", "B", (Fraction(0), Fraction(5)), ("x", "y")),
            ),
            contingency={"q": {"p": "y"}},
        )
        codes = {i.code for i in validate_setup(setup).errors}
        assert "BAD_CONTINGENT_ACTION" in codes

    def test_row_for_later_point(self):
        setup = two_point_setup(contingency={"p": {"q": "x"}})
        codes = {i.code for i in validate_setup(setup).errors}
        assert "NOT_EARLIER" in codes

    def test_rows_naming_unknown_or_later_points_are_reported_in_row_and_entry_order(self, hexa_setup):
        rows = dict(hexa_setup.contingency)
        contingency = {
            "b": rows["b"],
            "nowhere": {"a": "1"},
            "c": rows["c"],
            "e": {"d": "7", "ghost": "1", "a": "2", "f": "11"},
            "f": rows["f"],
        }
        assert validate_setup(hexa_setup._replace(contingency=contingency)).errors == (
            ValidationIssue("UNKNOWN_POINT", "contingency row for unknown point 'nowhere'", ("nowhere",)),
            ValidationIssue("UNKNOWN_POINT", "row 'e' references unknown point 'ghost'", ("e", "ghost")),
            ValidationIssue(
                "NOT_EARLIER",
                "row 'e' assigns an action to 'f', which does not precede it in the total order",
                ("e", "f"),
            ),
        )


# The contingency issues that mutated rows over known points can raise.
TRIANGLE_CODES = {"NOT_EARLIER", "NOT_CAUSAL", "INCONSISTENT_ROW", "BAD_CONTINGENT_ACTION", "MISSING_CONTINGENCY"}


def mutated_contingencies(setup: SpacetimeSetup, rng: random.Random) -> list[SpacetimeSetup]:
    """The setup with one entry dropped, one added, and one set to an action off the point's list."""
    mutants = []
    rows = {pid: dict(row) for pid, row in setup.contingency.items()}
    filled = sorted(pid for pid, row in rows.items() if row)
    points = {point.id: point for point in setup.points}
    if filled:
        pid = rng.choice(filled)
        row = dict(rows[pid])
        del row[rng.choice(sorted(row))]
        mutants.append({**rows, pid: row})
    if len(points) > 1:
        pid, other = rng.sample(sorted(points), 2)
        mutants.append({**rows, pid: {**rows.get(pid, {}), other: rng.choice(points[other].actions)}})
    if filled:
        pid = rng.choice(filled)
        other = rng.choice(sorted(rows[pid]))
        off_list = [a for a in setup.actions if a not in points[other].actions] + ["nowhere"]
        mutants.append({**rows, pid: {**rows[pid], other: rng.choice(off_list)}})
    return [setup._replace(contingency=contingency) for contingency in mutants]


def layered_setup(seed: int) -> SpacetimeSetup:
    """8-12 points in 2+1 D, in layers of mutually spacelike points, with a forced triangle.

    A layer's points share one time, and each layer is 10 later than the
    last while no two points are 4 apart in space, so every pair across
    layers is timelike: the precedence closure prunes across layers and
    nothing within one.
    """
    rng = random.Random(seed)
    pool = ("a", "b", "c")
    n = rng.randint(8, 12)
    points: list[DecisionPoint] = []
    layer = 0
    while len(points) < n:
        spots = rng.sample([(x, y) for x in range(-2, 3) for y in range(-2, 3)], min(rng.randint(1, 4), n - len(points)))
        for x, y in spots:
            coords = (Fraction(x, 2), Fraction(y, 3), Fraction(10 * layer))
            points.append(DecisionPoint(f"d{len(points)}", rng.choice("AB"), coords, pool[: rng.randint(1, 3)]))
        layer += 1
    return SpacetimeSetup(3, ("A", "B"), pool, tuple(points), _forced_triangle(rng, points, dimension=3), {})


def repeated_inconsistency(setup: SpacetimeSetup, rng: random.Random) -> tuple[SpacetimeSetup, tuple[str, str]] | None:
    """Row l made to conflict with an earlier row j it assigns an action to, and row k repeating it.

    Row k, for some k that l precedes, requires what row l requires and an
    action at l. So row l agrees with row k although row j, which row l
    conflicts with, does not: the closure must compare rows k and j
    itself. Returns the setup and (k, j), or None if no row has such a j.
    """
    rows = {pid: dict(row) for pid, row in setup.contingency.items()}
    points = {point.id: point for point in setup.points}
    dag = pairwise_causal_dag(setup)
    choices = [
        (l, j, m)
        for l in sorted(rows)
        for j in sorted(rows[l])
        for m in sorted(rows.get(j, {}))
        if dag[l] and len(points[m].actions) > 1
    ]
    if not choices:
        return None
    l, j, m = rng.choice(choices)
    row_l = {**rows[l], m: rng.choice([a for a in points[m].actions if a != rows[j][m]])}
    k = rng.choice(sorted(dag[l]))
    contingency = {**rows, l: row_l, k: {**row_l, l: rng.choice(points[l].actions)}}
    return setup._replace(contingency=contingency), (k, j)


class TestTriangleReference:
    """The closure reports what the pairwise row scan reports, issue for issue."""

    @staticmethod
    def reference_issues(mutant: SpacetimeSetup) -> list[ValidationIssue]:
        """The pairwise scan's issues, once `validate_setup` is seen to report the same."""
        reference = pairwise_triangle_issues(mutant)
        errors = validate_setup(mutant).errors
        if reference:
            assert errors == tuple(reference)
        else:
            assert not TRIANGLE_CODES & {issue.code for issue in errors}
        return reference

    def test_mutated_contingencies_report_as_the_pairwise_scan(self, hexa_setup):
        seen: set[str] = set()
        setups = [hexa_setup] + [random_setup(seed, max_points=7) for seed in range(300)]
        for seed, setup in enumerate(setups):
            for mutant in mutated_contingencies(setup, random.Random(seed)):
                seen.update(issue.code for issue in self.reference_issues(mutant))
        assert seen == TRIANGLE_CODES

    def test_layered_setups_in_2_plus_1_d_report_as_the_pairwise_scan(self):
        seen: set[str] = set()
        repeats = 0
        for seed in range(80):
            setup = layered_setup(seed)
            assert self.reference_issues(setup) == []
            rng = random.Random(seed)
            for mutant in mutated_contingencies(setup, rng):
                seen.update(issue.code for issue in self.reference_issues(mutant))
            repeated = repeated_inconsistency(setup, rng)
            if repeated is not None:
                mutant, ids = repeated
                reference = self.reference_issues(mutant)
                assert ("INCONSISTENT_ROW", ids) in {(issue.code, issue.ids) for issue in reference}
                repeats += 1
        assert seen == TRIANGLE_CODES
        assert repeats >= 40


class TestMatches:
    """A point decides at a prefix iff the prefix meets its contingency row."""

    def test_empty_prefix_always_matches_first_point(self, hexa_setup):
        assert "" in build_game(hexa_setup).infosets["a"]

    def test_row_f_positive(self, hexa_setup):
        assert "2,_,5,7,10" in build_game(hexa_setup).infosets["f"]

    def test_row_f_negative_on_position_a(self, hexa_setup):
        game = build_game(hexa_setup)
        assert "1,3,_,7,10" not in game.choice_nodes
        assert game.successor_map[("1,3,_,7", "10")] == "1,3,_,7,10,_"


def naive_histories(setup: SpacetimeSetup):
    """Filter-based re-derivation of the consistent histories, ``_`` where no decision happens."""
    order = total_order(setup)
    rows = contingency_rows(setup)
    n = len(order)

    def dummied(assignment) -> tuple[str, ...]:
        return tuple("_" if a is None else a for a in assignment)

    def prefix_ok(assignment) -> bool:
        for m, value in enumerate(assignment):
            row = rows[m]
            matched = all(a is None or a == assignment[j] for j, a in enumerate(row))
            if matched != (value is not None):
                return False
        return True

    complete = set()
    for assignment in product(*[tuple(p.actions) + (None,) for p in order]):
        if prefix_ok(assignment):
            complete.add(dummied(assignment))
    incomplete = set()
    for m in range(n):
        pools = [tuple(p.actions) + (None,) for p in order[:m]]
        for assignment in product(*pools):
            if not prefix_ok(assignment):
                continue
            row = rows[m]
            if all(a is None or a == assignment[j] for j, a in enumerate(row)):
                incomplete.add(dummied(assignment))
    return complete, incomplete


class TestHistories:
    def test_hexa_complete_histories(self, hexa_setup):
        complete, _ = built_histories(hexa_setup)
        assert joined(complete) == HEXA_COMPLETE

    def test_hexa_incomplete_histories(self, hexa_setup):
        _, incomplete = built_histories(hexa_setup)
        assert joined(incomplete) == HEXA_INCOMPLETE

    def test_single_point(self):
        setup = two_point_setup(
            agents=("A",),
            points=(DecisionPoint("p", "A", (Fraction(0), Fraction(0)), ("x", "y")),),
            utilities={"x": {"A": 1}, "y": {"A": 2}},
        )
        complete, incomplete = built_histories(setup)
        assert joined(complete) == {"x", "y"}
        assert joined(incomplete) == {""}

    def test_prefixes_of_consistent_histories_are_consistent(self, hexa_setup):
        complete, incomplete = built_histories(hexa_setup)
        rows = contingency_rows(hexa_setup)
        for history in complete | incomplete:
            for m, value in enumerate(history):
                prefix = history[:m]
                matched = all(a is None or a == prefix[j] for j, a in enumerate(rows[m]))
                assert matched == (value != "_")

    def test_matches_naive_enumeration(self, hexa_setup):
        assert naive_histories(hexa_setup) == built_histories(hexa_setup)
        for seed in range(80):
            setup = random_setup(seed, max_points=6, max_outcomes=64)
            assert naive_histories(setup) == built_histories(setup)

    def test_equals_the_history_object_walk(self):
        setups = (
            [random_setup(seed) for seed in range(300)]
            + [random_setup(seed, max_points=7) for seed in range(300)]
            + [timelike_chain_setup(160, 1)]
        )
        for setup in setups:
            assert serialize_game(build_game(setup)) == serialize_game(history_walk_game(setup))


class TestSuccessorHat:
    """The build's successor map: the action, then the forced `_` skips."""

    def test_skips_forced_dummies_to_completion(self, hexa_setup):
        assert build_game(hexa_setup).successor_map[("1,3,_", "8")] == "1,3,_,8,_,_"

    def test_from_empty_history(self, hexa_setup):
        assert build_game(hexa_setup).successor_map[("", "2")] == "2,_"

    def test_completes_without_dummies(self, hexa_setup):
        assert build_game(hexa_setup).successor_map[("2,_,5,7,10", "11")] == "2,_,5,7,10,11"

    def test_unavailable_action(self, hexa_setup):
        game = build_game(hexa_setup)
        assert "11" not in game.action_map[""]
        assert ("", "11") not in game.successor_map

    def test_injective_over_all_inputs(self, hexa_setup):
        for seed in range(40):
            game = build_game(random_setup(seed))
            images = list(game.successor_map.values())
            assert len(set(images)) == len(images)
            assert len(images) == sum(len(game.action_map[node]) for node in game.choice_nodes)


    def test_equals_the_per_edge_successor_pass(self, hexa_setup):
        setups = [hexa_setup, timelike_chain_setup(160, 1)] + [random_setup(seed) for seed in range(60)]
        for setup in setups:
            triangle = _Triangle(setup)
            per_edge = [
                ((key, action), ",".join(triangle.successor(split_key(key), action)))
                for key, _, _ in triangle.histories[1]
                for action in triangle.order[len(split_key(key))].actions
            ]
            assert list(build_game(setup).successor_map.items()) == per_edge

    def test_build_calls_successor_once_per_edge(self, hexa_setup, monkeypatch):
        calls = []
        successor = _Triangle.successor

        def counted(triangle, history, action):
            calls.append((history, action))
            return successor(triangle, history, action)

        monkeypatch.setattr(spacetime_module._Triangle, "successor", counted)
        for setup in (hexa_setup, timelike_chain_setup(30, 1), random_setup(7)):
            calls.clear()
            game = build_game(setup)
            assert len(calls) == len(set(calls)) == len(game.successor_map)


def spacelike_setup(n: int, utilities: dict | None = None) -> SpacetimeSetup:
    """n two-action points at one time, so pairwise spacelike: 2**n complete histories."""
    return SpacetimeSetup(
        dimension=2,
        agents=("A",),
        actions=("x", "y"),
        points=tuple(DecisionPoint(f"p{k}", "A", (Fraction(k), Fraction(0)), ("x", "y")) for k in range(n)),
        contingency={},
        utilities=utilities or {},
    )


class TestHistoryBound:
    """The walk stops past HISTORY_SLACK more complete histories than utilities entries."""

    def test_within_the_bound_every_history_is_reported(self):
        report = validate_setup(spacelike_setup(10, {"x,y": {"A": 1}}))
        assert 2**10 <= 1 + HISTORY_SLACK
        assert [i.code for i in report.errors] == ["UNKNOWN_HISTORY"] + ["MISSING_UTILITY"] * 2**10

    def test_past_the_bound_the_walk_stops_and_says_so(self):
        report = validate_setup(spacelike_setup(11))
        stop = report.errors[0]
        assert (stop.code, stop.message) == (
            "TOO_MANY_HISTORIES",
            f"the setup has more than {HISTORY_SLACK} complete histories, {HISTORY_SLACK} more than "
            "its 0 utilities entries; the history walk stopped there",
        )
        missing = report.errors[1:]
        assert [i.code for i in missing] == ["MISSING_UTILITY"] * (HISTORY_SLACK + 1)
        assert [i.ids[1] for i in missing] == sorted(i.ids[1] for i in missing)
        with pytest.raises(SetupError):
            build_game(spacelike_setup(11))

    def test_no_unknown_history_after_a_stop(self):
        # The last history in preorder is valid but never reached by the stopped walk.
        late = ",".join(["y"] * 11)
        report = validate_setup(spacelike_setup(11, {late: {"A": 1}, "x,y": {"A": 2}}))
        assert report.errors[0].code == "TOO_MANY_HISTORIES"
        assert "UNKNOWN_HISTORY" not in {i.code for i in report.errors}

    def test_forty_spacelike_points_exit_one_within_a_second(self, tmp_path):
        # In a child with a capped address space and a timeout, so that a
        # missing bound, which would walk 2**40 histories, fails fast.
        path = tmp_path / "spacelike.json"
        path.write_text(serialize_setup(spacelike_setup(40)))
        child = textwrap.dedent(
            f"""
            import resource, sys
            _, hard = resource.getrlimit(resource.RLIMIT_AS)
            cap = 1 << 30 if hard == resource.RLIM_INFINITY else min(hard, 1 << 30)
            resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
            from ptesolver.cli import run
            sys.exit(run(["spacetime-build", {str(path)!r}]))
            """
        )
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"))
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True, env=env, timeout=60)
        elapsed = time.perf_counter() - start
        assert (done.returncode, done.stdout) == (1, "")
        lines = done.stderr.splitlines()
        assert lines[0].startswith("error TOO_MANY_HISTORIES: the setup has more than 1024 complete histories")
        assert len(lines) == 1 + HISTORY_SLACK + 1
        assert elapsed < 1.0


class TestBuildGame:
    def test_hexa_game_shape(self, hexa_setup):
        game = build_game(hexa_setup)
        assert len(game.choice_nodes) == 12
        assert len(game.outcomes) == 14
        assert {label: len(members) for label, members in game.infosets.items()} == {
            "a": 1,
            "b": 1,
            "c": 1,
            "d": 4,
            "e": 4,
            "f": 1,
        }
        assert game.root == ""
        assert validate_game(game).errors == ()
        assert is_canonical(game)

    def test_single_point_game(self):
        setup = two_point_setup(
            agents=("A",),
            points=(DecisionPoint("p", "A", (Fraction(0), Fraction(0)), ("x", "y")),),
            utilities={"x": {"A": 1}, "y": {"A": 2}},
        )
        game = build_game(setup)
        assert game.choice_nodes == ("",)
        assert set(game.outcomes) == {"x", "y"}

    def test_spacelike_setup_equals_normal_form_embedding(self):
        matrix = {
            ("x", "x"): (1, 4),
            ("x", "y"): (2, 3),
            ("y", "x"): (3, 2),
            ("y", "y"): (4, 1),
        }
        setup = two_point_setup(
            points=(
                DecisionPoint("A", "A", (Fraction(0), Fraction(0)), ("x", "y")),
                DecisionPoint("B", "B", (Fraction(10), Fraction(0)), ("x", "y")),
            ),
            utilities={
                f"{a},{b}": {"A": matrix[(a, b)][0], "B": matrix[(a, b)][1]}
                for a, b in product("xy", "xy")
            },
        )
        built = build_game(setup)
        embedded = embed_normal_form(matrix, ("A", "B"), (("x", "y"), ("x", "y")))
        assert built == embedded

        for seed in range(60):
            rng = random.Random(seed)
            agents = tuple(f"P{k}" for k in range(rng.randint(2, 3)))
            action_lists = tuple(tuple(f"a{j}" for j in range(rng.randint(1, 3))) for _ in agents)
            profiles = list(product(*action_lists))
            # Tie-free: each agent's payoffs are a permutation of 1..|Z|.
            columns = [rng.sample(range(1, len(profiles) + 1), len(profiles)) for _ in agents]
            matrix = {profile: tuple(column[i] for column in columns) for i, profile in enumerate(profiles)}
            setup = SpacetimeSetup(
                dimension=2,
                agents=agents,
                actions=tuple(f"a{j}" for j in range(max(map(len, action_lists)))),
                points=tuple(
                    DecisionPoint(agent, agent, (Fraction(10 * k), Fraction(0)), actions)
                    for k, (agent, actions) in enumerate(zip(agents, action_lists))
                ),
                contingency={},
                utilities={",".join(profile): dict(zip(agents, map(Fraction, payoffs))) for profile, payoffs in matrix.items()},
            )
            built = build_game(setup)
            embedded = embed_normal_form(matrix, agents, action_lists)
            # The build lists choice nodes in preorder and the embedding level
            # by level; from three points on only that declaration order differs.
            assert sorted(built.choice_nodes) == sorted(embedded.choice_nodes)
            assert built == embedded._replace(choice_nodes=built.choice_nodes)
            if len(agents) == 2:
                assert built == embedded

    def test_long_chain_builds_under_a_low_recursion_limit(self):
        tests = Path(__file__).parent
        script = (
            "import sys\n"
            "from conftest import timelike_chain_setup\n"
            "from ptesolver import build_game\n"
            "sys.setrecursionlimit(100)\n"
            "print(len(build_game(timelike_chain_setup(150, 1)).outcomes))\n"
        )
        paths = [str(tests.parent / "src"), str(tests)]
        done = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": os.pathsep.join(paths)},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr[-2000:]
        assert done.stdout.strip() == "151"

    @pytest.mark.slow
    def test_thousand_point_chain_builds_in_seconds(self):
        # In a child, under a recursion limit of 100. A quadratic build takes
        # under a second on a 2-vCPU VM; the 10 s bound fails a cubic one
        # (4.4 s at 600 points, so about 20 s here).
        n = 1000
        tests = Path(__file__).parent
        script = (
            "import sys, time\n"
            "from conftest import timelike_chain_setup\n"
            "from ptesolver import build_game, serialize_game\n"
            f"setup = timelike_chain_setup({n}, 1)\n"
            "sys.setrecursionlimit(100)\n"
            "start = time.perf_counter()\n"
            "game = build_game(setup)\n"
            "print(time.perf_counter() - start, file=sys.stderr)\n"
            "print(serialize_game(game))\n"
        )
        paths = [str(tests.parent / "src"), str(tests)]
        done = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": os.pathsep.join(paths)},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr[-2000:]
        assert float(done.stderr) < 10.0
        doc = json.loads(done.stdout)
        # Node k is k times go; the outcomes in preorder are all go, then
        # stop at n-1, n-2, ..., 0 padded with `_`.
        nodes = [",".join(["go"] * k) for k in range(n)]
        stops = {k: ",".join(["go"] * k + ["stop"] + ["_"] * (n - 1 - k)) for k in range(n)}
        outcomes = [",".join(["go"] * n)] + [stops[k] for k in reversed(range(n))]
        assert [node["id"] for node in doc["nodes"]] == nodes
        assert [outcome["id"] for outcome in doc["outcomes"]] == outcomes
        for k, node in enumerate(doc["nodes"]):
            after = nodes[k + 1] if k + 1 < n else outcomes[0]
            assert node["moves"] == {"go": after, "stop": stops[k]}
            assert (node["player"], node["infoset"]) == ("AB"[k % 2], f"p{k}")

    def test_random_setups_build_canonical_games(self):
        for seed in range(60):
            game = build_game(random_setup(seed))
            assert validate_game(game).errors == ()
            assert is_canonical(game)

    def test_missing_utilities_fail_validation(self, hexa_setup):
        stripped = SpacetimeSetup(
            hexa_setup.dimension,
            hexa_setup.agents,
            hexa_setup.actions,
            hexa_setup.points,
            hexa_setup.contingency,
            {k: v for k, v in list(hexa_setup.utilities.items())[:-1]},
        )
        report = validate_setup(stripped)
        assert "MISSING_UTILITY" in {i.code for i in report.errors}
        with pytest.raises(SetupError) as caught:
            build_game(stripped)
        assert isinstance(caught.value, ValueError)
        assert caught.value.report == report
        details = "; ".join(issue.message for issue in report.errors[:5])
        assert str(caught.value) == f"invalid spacetime setup: {details}"

    def test_point_listing_an_action_twice_is_refused(self, hexa_setup):
        # Built, such a point gave two edges per repeated action and duplicate outcome ids.
        e = hexa_setup.points[4]
        doubled = e._replace(actions=e.actions + e.actions[-1:])
        points = tuple(doubled if p.id == "e" else p for p in hexa_setup.points)
        report = validate_setup(hexa_setup._replace(points=points))
        assert [(i.code, i.message) for i in report.errors] == [
            ("DUPLICATE_ACTION", "point 'e' lists an action twice")
        ]
        with pytest.raises(SetupError):
            build_game(hexa_setup._replace(points=points))

    def test_unknown_history_in_utilities(self, hexa_setup):
        extra = dict(hexa_setup.utilities)
        extra["1,3,_,7,9,1"] = {a: 1 for a in hexa_setup.agents}
        report = validate_setup(
            SpacetimeSetup(
                hexa_setup.dimension,
                hexa_setup.agents,
                hexa_setup.actions,
                hexa_setup.points,
                hexa_setup.contingency,
                extra,
            )
        )
        assert "UNKNOWN_HISTORY" in {i.code for i in report.errors}


class TestSpacelikeAgentCheck:
    def test_hexa_fixture_fails_the_check_but_recalls(self, hexa_setup):
        # Mary decides at b and c, which are spacelike here; the check is
        # one-way, so the built game may still have perfect recall.
        assert not spacelike_agent_check(hexa_setup)
        assert has_perfect_recall(build_game(hexa_setup))

    def test_chain_variant_passes_and_recalls(self, chain_setup, hexa_setup):
        assert spacelike_agent_check(chain_setup)
        game = build_game(chain_setup)
        assert has_perfect_recall(game)
        # Same triangle, same order, so the histories do not change.
        complete, incomplete = built_histories(chain_setup)
        assert joined(complete) == HEXA_COMPLETE
        assert joined(incomplete) == HEXA_INCOMPLETE

    def test_one_point_per_agent_all_spacelike(self):
        assert spacelike_agent_check(two_point_setup())

    def test_colocated_points_of_one_agent(self):
        spot = (Fraction(0), Fraction(0))
        setup = two_point_setup(
            agents=("A",),
            points=(
                DecisionPoint("p", "A", spot, ("x",)),
                DecisionPoint("q", "A", spot, ("x", "y")),
            ),
            contingency={},
            utilities={},
        )
        assert not spacelike_agent_check(setup)

    def test_check_implies_recall_on_random_setups(self):
        hits = 0
        for seed in range(200):
            setup = random_setup(seed)
            if spacelike_agent_check(setup):
                hits += 1
                assert has_perfect_recall(build_game(setup))
        assert hits > 10
