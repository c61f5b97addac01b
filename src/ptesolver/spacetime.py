"""Decision points in Minkowski spacetime and the games they induce.

Events live in an n-dimensional flat spacetime with signature (n-1, 1):
space coordinates first, time last, all exact rationals so that the sign
of the interval is never a rounding artifact. Timelike separation gives a
strict partial order (who can signal whom); listing the points in any
compatible total order lets each point carry contingency coordinates,
i.e. the earlier actions that must have happened for the decision to be
made at all. Consistent assignments of actions to points are histories,
and the histories form an extensive-form game with imperfect information
whose information sets group the incomplete histories by pending point.

Public entry points: :func:`separation`, :func:`causal_dag`,
:func:`total_order`, :func:`validate_setup`, :func:`spacelike_agent_check`
and :func:`build_game`. The order, the contingency rows and the histories
are derived once per validation or build, and :func:`build_game`
validates once, raising :class:`SetupError` with the full report when the
setup is invalid. One walk enumerates the histories together with each
pending history's children, and :func:`build_game` takes its edges from
it. A valid setup lists one utilities entry per complete history, so the
walk stops, and validation reports ``TOO_MANY_HISTORIES``, once it has
found more than ``HISTORY_SLACK`` complete histories beyond that count.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Mapping, Sequence

from .game import Game, ValidationIssue, _repeats

TIMELIKE = "timelike"
SPACELIKE = "spacelike"
COLOCATED = "colocated"

# How many more complete histories than utilities entries the history walk
# enumerates before it stops: past that many the setup is already invalid,
# and spacelike setups have exponentially many.
HISTORY_SLACK = 1024


@dataclass(frozen=True)
class Separation:
    """Causal classification of a pair of events.

    ``earlier`` is 0 or 1 (argument position of the earlier event) for
    timelike pairs and None otherwise. Colocated pairs are treated as
    spacelike by everything downstream; lightlike pairs count as
    timelike, ordered by their time coordinates.
    """

    kind: str
    earlier: int | None = None


@dataclass(frozen=True)
class DecisionPoint:
    id: str
    agent: str
    coords: tuple[Fraction, ...]
    actions: tuple[str, ...]


@dataclass(frozen=True)
class History:
    """Actions assigned to a prefix of the totally ordered decision points.

    An entry is None where the point's contingency row is not matched, so
    no decision happens there. A history over all n points is complete;
    shorter ones are incomplete.
    """

    actions: tuple[str | None, ...]

    def key(self) -> str:
        return ",".join("_" if a is None else a for a in self.actions)

    @classmethod
    def from_key(cls, text: str) -> "History":
        if text == "":
            return cls(())
        return cls(tuple(None if part == "_" else part for part in text.split(",")))

    def __len__(self) -> int:
        return len(self.actions)


@dataclass(frozen=True)
class SpacetimeSetup:
    """Decision points plus the data needed to build the induced game.

    ``contingency`` maps a point id to {earlier point id: required
    action}; omitted entries mean no requirement is representable there
    (the dummy value). ``utilities`` maps the serialized complete history
    (see :meth:`History.key`) to {agent: payoff}.
    """

    dimension: int
    agents: tuple[str, ...]
    actions: tuple[str, ...]
    points: tuple[DecisionPoint, ...]
    contingency: Mapping[str, Mapping[str, str]]
    utilities: Mapping[str, Mapping[str, Fraction]]


@dataclass(frozen=True)
class SetupReport:
    errors: tuple[ValidationIssue, ...]
    warnings: tuple[ValidationIssue, ...]
    has_ties: bool = False

    @property
    def ok(self) -> bool:
        return not self.errors


class SetupError(ValueError):
    """An invalid setup given to :func:`build_game`; ``report`` holds every error."""

    def __init__(self, report: SetupReport) -> None:
        details = "; ".join(issue.message for issue in report.errors[:5])
        super().__init__(f"invalid spacetime setup: {details}")
        self.report = report


def _interval_squared(p: Sequence[Fraction], q: Sequence[Fraction]) -> Fraction:
    """Squared spacetime interval, positive for spacelike pairs."""
    space = sum((a - b) ** 2 for a, b in zip(p[:-1], q[:-1]))
    return space - (p[-1] - q[-1]) ** 2


def separation(p: Sequence[Fraction], q: Sequence[Fraction], dimension: int) -> Separation:
    if len(p) != dimension or len(q) != dimension:
        raise ValueError(f"coordinates must have length {dimension}")
    if tuple(p) == tuple(q):
        return Separation(COLOCATED)
    s2 = _interval_squared(p, q)
    if s2 > 0:
        return Separation(SPACELIKE)
    # s2 == 0 with p != q is lightlike: a light-speed signal connects the
    # events, so it is ordered like a timelike pair.
    return Separation(TIMELIKE, earlier=0 if p[-1] < q[-1] else 1)


def causal_dag(setup: SpacetimeSetup) -> dict[str, frozenset[str]]:
    """The timelike-precedence relation: id -> ids it strictly precedes."""
    edges: dict[str, set[str]] = {point.id: set() for point in setup.points}
    for i, p in enumerate(setup.points):
        for q in setup.points[i + 1 :]:
            sep = separation(p.coords, q.coords, setup.dimension)
            if sep.kind == TIMELIKE:
                if sep.earlier == 0:
                    edges[p.id].add(q.id)
                else:
                    edges[q.id].add(p.id)
    return {pid: frozenset(succ) for pid, succ in edges.items()}


def total_order(setup: SpacetimeSetup) -> list[DecisionPoint]:
    """Deterministic list of the points, compatible with precedence.

    Sorting by (time, space coordinates, id) works because a timelike or
    lightlike predecessor always has the strictly smaller time coordinate,
    and colocated points share every coordinate, which keeps them
    adjacent.
    """
    return sorted(setup.points, key=lambda pt: (pt.coords[-1], pt.coords[:-1], pt.id))


def _rows_consistent(row_l: Sequence[str | None], row_k: Sequence[str | None]) -> bool:
    """Every requirement of the earlier row is met by the later row's entries."""
    return all(a is None or a == row_k[m] for m, a in enumerate(row_l))


class _Triangle:
    """The points in total order and their contingency rows, derived once.

    Row k has one entry per earlier point: the action the contingency
    requires there, or None. A prefix covering the first k points leaves
    a decision pending at point k iff it meets row k. The histories, and
    the children of each pending one, are walked on first use and kept
    with the object, which lives for one validation or build: validation
    reads the complete histories and :func:`build_game` the children as
    its edges. The walk enumerates at most ``bound`` complete histories,
    the setup's utilities entries plus ``HISTORY_SLACK``, and then stops.
    """

    def __init__(self, setup: SpacetimeSetup) -> None:
        self.bound = len(setup.utilities) + HISTORY_SLACK
        self.order = total_order(setup)
        self.rows: list[tuple[str | None, ...]] = []
        for k, point in enumerate(self.order):
            assigned = setup.contingency.get(point.id, {})
            self.rows.append(tuple(assigned.get(earlier.id) for earlier in self.order[:k]))

    def pending(self, prefix: tuple[str | None, ...]) -> bool:
        """Whether a decision happens at the point after ``prefix``."""
        return _rows_consistent(self.rows[len(prefix)], prefix)

    def successor(self, history: History, action: str) -> History:
        """Extend a history by a decision plus any forced skips.

        After the chosen action, every point whose contingency row is not
        met gets the dummy entry, stopping at the next point with a real
        decision pending or at completion. Distinct (history, action) pairs
        give distinct results, since the input is recoverable by stripping
        the trailing dummies and the last action.
        """
        extended = history.actions + (action,)
        while len(extended) < len(self.order) and not self.pending(extended):
            extended += (None,)
        return History(extended)

    @cached_property
    def histories(self) -> tuple[list[History], list[History], list[list[History]]]:
        """Consistent histories in preorder: (complete, pending, children).

        ``pending`` holds the incomplete histories with a decision pending,
        and ``children[i]`` the successors of ``pending[i]`` in action order.
        One walk with an explicit stack; the children of a pending history
        go on the stack in reverse action order so that they come off it
        in action order. The walk stops early once it has found more than
        ``bound`` complete histories.
        """
        n = len(self.order)
        complete: list[History] = []
        incomplete: list[History] = []
        children: list[list[History]] = []
        stack = [History(())]
        while stack and len(complete) <= self.bound:
            history = stack.pop()
            if len(history) == n:
                complete.append(history)
                continue
            incomplete.append(history)
            below = [self.successor(history, action) for action in self.order[len(history)].actions]
            children.append(below)
            stack.extend(reversed(below))
        return complete, incomplete, children


def _triangle_issues(setup: SpacetimeSetup, triangle: _Triangle) -> list[ValidationIssue]:
    """Check the three contingency constraints against the total order.

    An entry may exist only for a timelike predecessor whose own row is
    consistent with the later row, and must exist whenever both of those
    hold; assigned actions must be available at the earlier point.
    """
    errors: list[ValidationIssue] = []
    order = triangle.order
    index = {point.id: position for position, point in enumerate(order)}

    for pid, assigned in setup.contingency.items():
        if pid not in index:
            errors.append(ValidationIssue("UNKNOWN_POINT", f"contingency row for unknown point {pid!r}", (pid,)))
            continue
        for other in assigned:
            if other not in index:
                errors.append(
                    ValidationIssue("UNKNOWN_POINT", f"row {pid!r} references unknown point {other!r}", (pid, other))
                )
            elif index[other] >= index[pid]:
                errors.append(
                    ValidationIssue(
                        "NOT_EARLIER",
                        f"row {pid!r} assigns an action to {other!r}, which does not precede it in the total order",
                        (pid, other),
                    )
                )
    if errors:
        return errors

    dag = causal_dag(setup)
    rows = triangle.rows
    for k, point in enumerate(order):
        row_k = rows[k]
        for l in range(k):
            earlier = order[l]
            entry = row_k[l]
            precedes = point.id in dag[earlier.id]
            consistent = _rows_consistent(rows[l], row_k)
            if entry is not None:
                if not precedes:
                    errors.append(
                        ValidationIssue(
                            "NOT_CAUSAL",
                            f"row {point.id!r} assigns an action to {earlier.id!r}, "
                            "which is not a timelike predecessor",
                            (point.id, earlier.id),
                        )
                    )
                if not consistent:
                    errors.append(
                        ValidationIssue(
                            "INCONSISTENT_ROW",
                            f"row {point.id!r} assigns an action to {earlier.id!r} "
                            "although their requirements conflict",
                            (point.id, earlier.id),
                        )
                    )
                if entry not in earlier.actions:
                    errors.append(
                        ValidationIssue(
                            "BAD_CONTINGENT_ACTION",
                            f"row {point.id!r} requires {entry!r} at {earlier.id!r}, "
                            "which is not one of its actions",
                            (point.id, earlier.id, entry),
                        )
                    )
            elif precedes and consistent:
                errors.append(
                    ValidationIssue(
                        "MISSING_CONTINGENCY",
                        f"row {point.id!r} must assign an action to timelike predecessor {earlier.id!r}",
                        (point.id, earlier.id),
                    )
                )
    return errors


def _utility_issues(setup: SpacetimeSetup, triangle: _Triangle) -> tuple[list[ValidationIssue], bool]:
    errors: list[ValidationIssue] = []
    complete = triangle.histories[0]
    keys = {history.key() for history in complete}
    if len(complete) > triangle.bound:
        # The walk stopped early, so a key it has not found may still be valid.
        errors.append(
            ValidationIssue(
                "TOO_MANY_HISTORIES",
                f"the setup has more than {triangle.bound} complete histories, {HISTORY_SLACK} more than "
                f"its {len(setup.utilities)} utilities entries; the history walk stopped there",
            )
        )
    else:
        for key in setup.utilities:
            if key not in keys:
                errors.append(
                    ValidationIssue("UNKNOWN_HISTORY", f"payoffs given for inconsistent history {key!r}", (key,))
                )
    agent_set = set(setup.agents)
    for key in sorted(keys):
        entry = setup.utilities.get(key, {})
        for agent in setup.agents:
            if agent not in entry:
                errors.append(
                    ValidationIssue("MISSING_UTILITY", f"no payoff for agent {agent!r} at history {key!r}", (agent, key))
                )
        for agent in entry:
            if agent not in agent_set:
                errors.append(
                    ValidationIssue("UNKNOWN_AGENT", f"payoff for unknown agent {agent!r} at {key!r}", (agent, key))
                )
    entries = [setup.utilities.get(key, {}) for key in keys]
    has_ties = any(_repeats(entry[agent] for entry in entries if agent in entry) for agent in setup.agents)
    return errors, has_ties


def _check(setup: SpacetimeSetup) -> tuple[SetupReport, _Triangle | None]:
    """Full validation, and the triangle it derived when the setup is valid."""
    errors: list[ValidationIssue] = []
    warnings: list[ValidationIssue] = []
    if setup.dimension < 1:
        errors.append(ValidationIssue("BAD_DIMENSION", f"dimension must be >= 1, got {setup.dimension}"))
    if len(set(setup.agents)) != len(setup.agents):
        errors.append(ValidationIssue("DUPLICATE_AGENT", "duplicate agent identifier"))
    if len(set(setup.actions)) != len(setup.actions):
        errors.append(ValidationIssue("DUPLICATE_ACTION", "duplicate action identifier"))
    for action in setup.actions:
        if "," in action or action == "_":
            errors.append(
                ValidationIssue(
                    "BAD_ACTION_ID",
                    f"action {action!r} cannot be encoded in history keys (no commas, not '_')",
                    (action,),
                )
            )
    agent_set = set(setup.agents)
    action_set = set(setup.actions)
    seen_points: set[str] = set()
    for point in setup.points:
        if point.id in seen_points:
            errors.append(ValidationIssue("DUPLICATE_POINT", f"duplicate decision point {point.id!r}", (point.id,)))
        seen_points.add(point.id)
        if point.agent not in agent_set:
            errors.append(
                ValidationIssue("UNKNOWN_AGENT", f"point {point.id!r} names unknown agent {point.agent!r}", (point.id,))
            )
        if len(point.coords) != setup.dimension:
            errors.append(
                ValidationIssue(
                    "BAD_COORDS",
                    f"point {point.id!r} has {len(point.coords)} coordinates, expected {setup.dimension}",
                    (point.id,),
                )
            )
        if not point.actions:
            errors.append(ValidationIssue("NO_ACTIONS", f"point {point.id!r} offers no actions", (point.id,)))
        if len(set(point.actions)) != len(point.actions):
            errors.append(ValidationIssue("DUPLICATE_ACTION", f"point {point.id!r} lists an action twice", (point.id,)))
        for action in point.actions:
            if action not in action_set:
                errors.append(
                    ValidationIssue(
                        "UNKNOWN_ACTION", f"point {point.id!r} offers undeclared action {action!r}", (point.id, action)
                    )
                )
    if errors:
        return SetupReport(tuple(errors), tuple(warnings)), None

    triangle = _Triangle(setup)
    errors.extend(_triangle_issues(setup, triangle))
    if errors:
        return SetupReport(tuple(errors), tuple(warnings)), None

    utility_errors, has_ties = _utility_issues(setup, triangle)
    errors.extend(utility_errors)
    report = SetupReport(tuple(errors), tuple(warnings), has_ties)
    return report, (triangle if report.ok else None)


def validate_setup(setup: SpacetimeSetup) -> SetupReport:
    """Full validation: structure, contingency triangle, utility totality."""
    return _check(setup)[0]


def spacelike_agent_check(setup: SpacetimeSetup) -> bool:
    """True iff no agent decides at two spacelike or colocated points.

    When this holds every agent's points form a timelike chain, and the
    induced game has perfect recall.
    """
    by_agent: dict[str, list[DecisionPoint]] = {}
    for point in setup.points:
        by_agent.setdefault(point.agent, []).append(point)
    for points in by_agent.values():
        for i, p in enumerate(points):
            for q in points[i + 1 :]:
                if separation(p.coords, q.coords, setup.dimension).kind != TIMELIKE:
                    return False
    return True


def build_game(setup: SpacetimeSetup) -> Game:
    """Construct the extensive-form game induced by the setup.

    Choice nodes are the incomplete histories with a pending decision,
    outcomes the complete histories, both identified by their serialized
    keys; the cell of a node is the pending decision point. The root is
    the empty history, and the result is canonical by construction since
    all nodes of a cell have equal length. The setup is validated once,
    and an invalid one raises :class:`SetupError`. The edges are the
    children that the validation's history walk found.
    """
    report, triangle = _check(setup)
    if triangle is None:
        raise SetupError(report)

    complete, incomplete, children = triangle.histories
    action_map: dict[str, tuple[str, ...]] = {}
    player_map: dict[str, str] = {}
    successor_map: dict[tuple[str, str], str] = {}
    cells: dict[str, list[str]] = {}
    for history, below in zip(incomplete, children):
        pending = triangle.order[len(history)]
        node = history.key()
        action_map[node] = pending.actions
        player_map[node] = pending.agent
        cells.setdefault(pending.id, []).append(node)
        for action, child in zip(pending.actions, below):
            successor_map[(node, action)] = child.key()
    outcomes = tuple(history.key() for history in complete)
    return Game(
        players=setup.agents,
        actions=setup.actions,
        choice_nodes=tuple(action_map),
        outcomes=outcomes,
        action_map=action_map,
        player_map=player_map,
        successor_map=successor_map,
        utility_map={(agent, key): setup.utilities[key][agent] for key in outcomes for agent in setup.agents},
        infosets={pid: tuple(nodes) for pid, nodes in cells.items()},
        root="",
    )
