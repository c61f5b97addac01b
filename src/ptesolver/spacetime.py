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
A history is its key: its actions in the total order joined by commas,
with ``_`` where no decision happens, so the empty history is ``""``.

Public entry points: :func:`separation`, :func:`causal_dag`,
:func:`total_order`, :func:`validate_setup`, :func:`spacelike_agent_check`
and :func:`build_game`. The order, the contingency rows and the histories
are derived once per validation or build, and :func:`build_game`
validates once, raising :class:`SetupError` with the full report when the
setup is invalid. One walk enumerates the history keys together with
each pending history's children, joining each key once, and
:func:`build_game` takes its nodes and edges from it. A valid setup
lists one utilities entry per complete history, so the walk stops, and
validation reports ``TOO_MANY_HISTORIES``, once it has found more than
``HISTORY_SLACK`` complete histories beyond that count.

Precedence and the containment of contingency rows are transitive, so
validation builds each as a closure over the total order and tests a
pair only when no earlier result implies it: n - 1 interval tests for a
timelike chain of n points, n(n - 1)/2 when no pair is timelike. Each
point is scaled by the lcm of its own coordinates' denominators, so the
interval's sign is exact on integers. A row is read at its required
positions by one ``itemgetter``, in C, and a forced skip costs O(1)
unless the skipped point's row has to be read.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction
from functools import cached_property
from itertools import compress, repeat
from math import lcm
from operator import contains, is_not, itemgetter, mul

from .game import Game, ValidationIssue

TIMELIKE = "timelike"
SPACELIKE = "spacelike"
COLOCATED = "colocated"

# How many more complete histories than utilities entries the history walk
# enumerates before it stops: past that many the setup is already invalid,
# and spacelike setups have exponentially many.
HISTORY_SLACK = 1024


class Separation(namedtuple("Separation", "kind earlier", defaults=(None,))):
    """Causal classification of a pair of events.

    ``earlier`` is 0 or 1 (argument position of the earlier event) for
    timelike pairs and None otherwise. Colocated pairs are treated as
    spacelike by everything downstream; lightlike pairs count as
    timelike, ordered by their time coordinates.
    """

    __slots__ = ()


# A point's ``coords`` is a tuple of Fractions, time last; ``actions`` a tuple of action ids.
DecisionPoint = namedtuple("DecisionPoint", "id agent coords actions")


class SpacetimeSetup(namedtuple("SpacetimeSetup", "dimension agents actions points contingency utilities")):
    """Decision points plus the data needed to build the induced game.

    ``agents`` and ``actions`` are tuples of ids and ``points`` a tuple of
    :class:`DecisionPoint`. ``contingency`` maps a point id to {earlier
    point id: required action}; omitted entries mean no requirement is
    representable there (the dummy value). ``utilities`` maps each
    complete history's key to {agent: Fraction payoff}: its actions in
    the total order, joined by commas, with ``_`` where no decision happens.
    """

    __slots__ = ()


class SetupReport(namedtuple("SetupReport", "errors")):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.errors


class SetupError(ValueError):
    """An invalid setup given to :func:`build_game`; ``report`` holds every error."""

    def __init__(self, report: SetupReport) -> None:
        details = "; ".join(issue.message for issue in report.errors[:5])
        super().__init__(f"invalid spacetime setup: {details}")
        self.report = report


def separation(p: Sequence[Fraction], q: Sequence[Fraction], dimension: int) -> Separation:
    """Classify two events, the two-point case of the integer interval test in :func:`_precedence`."""
    if len(p) != dimension or len(q) != dimension:
        raise ValueError(f"coordinates must have length {dimension}")
    if tuple(p) == tuple(q):
        return Separation(COLOCATED)
    gap = _time_gap(*_scaled((p, q), dimension))
    if not gap:
        return Separation(SPACELIKE)
    # A lightlike pair, on the cone, has a nonzero gap too: a light-speed
    # signal connects the events, so it is ordered like a timelike pair.
    return Separation(TIMELIKE, earlier=0 if gap > 0 else 1)


# A point as integers: (space numerators, their squared norm, time numerator, denominator).
_Scaled = tuple[tuple[int, ...], int, int, int]


def _scaled(points: Sequence[Sequence[Fraction]], dimension: int) -> list[_Scaled]:
    """Each point's coordinates as integers over the lcm of their own denominators.

    Scaling each point on its own, not all of them by one common
    denominator, keeps its integers about as long as its own coordinates.
    This is the one interval test of the package: :func:`separation` is
    its two-point case, and :func:`_precedence` and
    :func:`spacelike_agent_check` scale each point once and compare pairs
    with :func:`_time_gap`. Raises like :func:`separation` once there is a
    pair to compare and a point has the wrong number of coordinates.
    """
    if len(points) > 1 and any(len(coords) != dimension for coords in points):
        raise ValueError(f"coordinates must have length {dimension}")
    scaled = []
    for coords in points:
        den = lcm(*(c.denominator for c in coords))
        space = [c.numerator * (den // c.denominator) for c in coords]
        # With no coordinates at all (dimension 0) every pair is colocated.
        time = space.pop() if space else 0
        scaled.append((tuple(space), sum(x * x for x in space), time, den))
    return scaled


def _time_gap(p: _Scaled, q: _Scaled) -> int:
    """q's time minus p's, times a positive factor, if the pair is timelike or lightlike; else 0.

    For p = P/Dp and q = Q/Dq the interval times (Dp*Dq)**2 is
    sum((Q_i*Dp - P_i*Dq)**2) - (Q_t*Dp - P_t*Dq)**2 with the space sum
    expanded over the precomputed norms, so its sign is exact. Colocated
    pairs have a zero time gap and spacelike ones return 0.
    """
    p_space, p_norm, p_time, p_den = p
    q_space, q_norm, q_time, q_den = q
    gap = q_time * p_den - p_time * q_den
    space = q_den * q_den * p_norm + p_den * p_den * q_norm - 2 * p_den * q_den * sum(map(mul, p_space, q_space))
    return 0 if gap * gap < space else gap


def _precedence(order: Sequence[DecisionPoint], dimension: int) -> list[int]:
    """Bit l of ``precedes[k]``: ``order[l]`` is a timelike predecessor of ``order[k]``.

    ``order`` must be compatible with precedence, as :func:`total_order`
    is. The sum of two future-directed causal vectors is one too, so each
    point scans the earlier positions downwards, takes in the whole mask of
    each predecessor it finds, and tests only the positions not yet covered.
    """
    scaled = _scaled([point.coords for point in order], dimension)
    precedes: list[int] = []
    for k, q in enumerate(scaled):
        known, l = 0, k
        while l:
            l -= 1
            if not known >> l & 1 and _time_gap(scaled[l], q):
                known |= precedes[l] | 1 << l
                # Go on from the highest position below l not yet covered.
                l = (~known & ((1 << l) - 1)).bit_length()
        precedes.append(known)
    return precedes


def causal_dag(setup: SpacetimeSetup) -> dict[str, frozenset[str]]:
    """The timelike-precedence relation: id -> ids it strictly precedes, read off :func:`_precedence`."""
    order = total_order(setup)
    edges: dict[str, set[str]] = {point.id: set() for point in setup.points}
    for point, before in zip(order, _precedence(order, setup.dimension)):
        for l, earlier in enumerate(order):
            if before >> l & 1:
                edges[earlier.id].add(point.id)
    return {pid: frozenset(succ) for pid, succ in edges.items()}


def total_order(setup: SpacetimeSetup) -> list[DecisionPoint]:
    """Deterministic list of the points, compatible with precedence.

    Sorting by (time, space coordinates, id) works because a timelike or
    lightlike predecessor always has the strictly smaller time coordinate,
    and colocated points share every coordinate, which keeps them
    adjacent.
    """
    return sorted(setup.points, key=lambda pt: (pt.coords[-1:], pt.coords[:-1], pt.id))


class _Triangle:
    """The points in total order and their contingency rows, derived once.

    Row k has one entry per earlier point: the action the contingency
    requires there, or None. ``required[k]`` lists the positions it
    requires an action at, ``last[k]`` is the last of them, or -1, and a
    row or prefix meets row k iff ``getters[k]`` reads ``values[k]`` from
    it. A prefix covering the first k points leaves a decision pending at
    point k iff it meets row k. The histories, and the children of each
    pending one, are walked on first use and kept with the object, which
    lives for one validation or build: validation reads the complete
    histories and :func:`build_game` the children as its edges. The walk
    enumerates at most ``bound`` complete histories, the setup's
    utilities entries plus ``HISTORY_SLACK``, and then stops.
    """

    def __init__(self, setup: SpacetimeSetup) -> None:
        self.bound = len(setup.utilities) + HISTORY_SLACK
        self.order = total_order(setup)
        ids = [point.id for point in self.order]
        self.rows: list[tuple[str | None, ...]] = []
        self.required: list[list[int]] = []
        self.getters: list[itemgetter] = []
        self.values: list[object] = []
        for k, pid in enumerate(ids):
            row = tuple(map(setup.contingency.get(pid, {}).get, ids[:k]))
            required = list(compress(range(k), map(is_not, row, repeat(None))))
            # A row that requires nothing reads the empty slice, which every row meets.
            getter = itemgetter(*required) if required else itemgetter(slice(0))
            self.rows.append(row)
            self.required.append(required)
            self.getters.append(getter)
            self.values.append(getter(row))
        self.last = [required[-1] if required else -1 for required in self.required]

    def successor(self, history: tuple[str, ...], action: str) -> tuple[str, ...]:
        """Extend a history's actions by a decision plus any forced skips.

        After the chosen action, every point whose contingency row is not
        met gets the dummy ``_``, stopping at the next point with a real
        decision pending or at completion. No point offers ``_`` and every
        row entry is one of its point's actions, so a dummy never meets a
        requirement. A row whose last requirement falls on a skipped point
        cannot be met; any other row's getter reads the extended prefix.
        Distinct (history, action) pairs give distinct results, since the
        input is recoverable by stripping the trailing dummies and the last
        action.
        """
        extended = history + (action,)
        start = k = len(extended)
        while k < len(self.order) and (self.last[k] >= start or self.getters[k](extended) != self.values[k]):
            k += 1
        return extended + ("_",) * (k - start)

    @cached_property
    def histories(self) -> tuple[list[str], list[tuple[str, DecisionPoint, list[str]]]]:
        """Keys of the consistent histories in preorder: (complete, pending).

        A key is the history's actions joined by commas, made once, when
        the walk makes the history. ``pending`` holds, for each incomplete
        history with a decision pending, its key, the pending point and
        its children's keys in action order. One walk with an explicit
        stack of (actions, key) pairs; the children of a pending history
        go on the stack in reverse action order so that they come off it
        in action order. The walk stops early once it has found more than
        ``bound`` complete histories.
        """
        n = len(self.order)
        complete: list[str] = []
        pending: list[tuple[str, DecisionPoint, list[str]]] = []
        stack: list[tuple[tuple[str, ...], str]] = [((), "")]
        while stack and len(complete) <= self.bound:
            history, key = stack.pop()
            if len(history) == n:
                complete.append(key)
                continue
            point = self.order[len(history)]
            below = [self.successor(history, action) for action in point.actions]
            keys = [",".join(child) for child in below]
            pending.append((key, point, keys))
            stack.extend(zip(reversed(below), reversed(keys)))
        return complete, pending


def _triangle_issues(setup: SpacetimeSetup, triangle: _Triangle) -> list[ValidationIssue]:
    """Check the three contingency constraints against the total order.

    An entry may exist only for a timelike predecessor whose own row is
    consistent with the later row, and must exist whenever both of those
    hold; assigned actions must be available at the earlier point.
    """
    errors: list[ValidationIssue] = []
    order = triangle.order
    offers = [point.actions for point in order]
    index = {point.id: position for position, point in enumerate(order)}

    for pid, assigned in setup.contingency.items():
        k = index.get(pid)
        if k is None:
            errors.append(ValidationIssue("UNKNOWN_POINT", f"contingency row for unknown point {pid!r}", (pid,)))
            continue
        # The row's entries at earlier points are its required positions; if
        # that is all of them, it names no unknown or later point.
        if len(assigned) == len(triangle.required[k]):
            continue
        for other in assigned:
            if other not in index:
                errors.append(
                    ValidationIssue("UNKNOWN_POINT", f"row {pid!r} references unknown point {other!r}", (pid, other))
                )
            elif index[other] >= k:
                errors.append(
                    ValidationIssue(
                        "NOT_EARLIER",
                        f"row {pid!r} assigns an action to {other!r}, which does not precede it in the total order",
                        (pid, other),
                    )
                )
    if errors:
        return errors

    # Masks over order positions. Bit l of precedes[k]: order[l] is a
    # timelike predecessor of order[k]; of agrees[k]: row l requires nothing
    # row k does not, for each l among row k's entries and predecessors.
    # That is transitive, so only rows no agreeing row covers are compared.
    precedes = _precedence(order, setup.dimension)
    bits = [1 << m for m in range(len(order))]
    agrees: list[int] = []
    for point, row_k, required, before in zip(order, triangle.rows, triangle.required, precedes):
        # Bit l of entries: row k assigns an action to order[l]; of bad: one
        # that order[l] does not offer, looked for only if a pass in C finds one.
        entries = sum(map(bits.__getitem__, required))
        offered = all(map(contains, map(offers.__getitem__, required), map(row_k.__getitem__, required)))
        bad = 0 if offered else sum(bits[m] for m in required if row_k[m] not in offers[m])
        agreeing, rest = 0, entries | before
        while rest:
            l = rest.bit_length() - 1
            if triangle.getters[l](row_k) == triangle.values[l]:
                agreeing |= agrees[l] | bits[l]
                rest &= ~agreeing
            else:
                rest ^= bits[l]
        agrees.append(agreeing)
        # Only the positions with an issue are visited, in ascending order.
        flagged = entries & (~before | ~agreeing | bad) | before & ~entries & agreeing
        while flagged:
            bit = flagged & -flagged
            flagged ^= bit
            l = bit.bit_length() - 1
            earlier = order[l]
            entry = row_k[l]
            if entry is not None:
                if not before & bit:
                    errors.append(
                        ValidationIssue(
                            "NOT_CAUSAL",
                            f"row {point.id!r} assigns an action to {earlier.id!r}, "
                            "which is not a timelike predecessor",
                            (point.id, earlier.id),
                        )
                    )
                if not agreeing & bit:
                    errors.append(
                        ValidationIssue(
                            "INCONSISTENT_ROW",
                            f"row {point.id!r} assigns an action to {earlier.id!r} "
                            "although their requirements conflict",
                            (point.id, earlier.id),
                        )
                    )
                if bad & bit:
                    errors.append(
                        ValidationIssue(
                            "BAD_CONTINGENT_ACTION",
                            f"row {point.id!r} requires {entry!r} at {earlier.id!r}, "
                            "which is not one of its actions",
                            (point.id, earlier.id, entry),
                        )
                    )
            else:
                errors.append(
                    ValidationIssue(
                        "MISSING_CONTINGENCY",
                        f"row {point.id!r} must assign an action to timelike predecessor {earlier.id!r}",
                        (point.id, earlier.id),
                    )
                )
    return errors


def _utility_issues(setup: SpacetimeSetup, triangle: _Triangle) -> list[ValidationIssue]:
    errors: list[ValidationIssue] = []
    complete = triangle.histories[0]
    keys = set(complete)
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
    return errors


def _check(setup: SpacetimeSetup) -> tuple[SetupReport, _Triangle | None]:
    """Full validation, and the triangle it derived when the setup is valid."""
    errors: list[ValidationIssue] = []
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
        return SetupReport(tuple(errors)), None

    triangle = _Triangle(setup)
    errors.extend(_triangle_issues(setup, triangle))
    if errors:
        return SetupReport(tuple(errors)), None

    errors.extend(_utility_issues(setup, triangle))
    report = SetupReport(tuple(errors))
    return report, (triangle if report.ok else None)


def validate_setup(setup: SpacetimeSetup) -> SetupReport:
    """Full validation: structure, contingency triangle, utility totality."""
    return _check(setup)[0]


def spacelike_agent_check(setup: SpacetimeSetup) -> bool:
    """True iff no agent decides at two spacelike or colocated points.

    When this holds every agent's points form a timelike chain, and the
    induced game has perfect recall. Precedence is transitive, so with an
    agent's points sorted by time only consecutive pairs are tested.
    """
    by_agent: dict[str, list[DecisionPoint]] = {}
    for point in setup.points:
        by_agent.setdefault(point.agent, []).append(point)
    for points in by_agent.values():
        points.sort(key=lambda point: point.coords[-1:])
        scaled = _scaled([point.coords for point in points], setup.dimension)
        if not all(map(_time_gap, scaled, scaled[1:])):
            return False
    return True


def build_game(setup: SpacetimeSetup) -> Game:
    """Construct the extensive-form game induced by the setup.

    Choice nodes are the incomplete histories with a pending decision,
    outcomes the complete histories, both identified by their keys; the
    cell of a node is the pending decision point. The root is the empty
    history, and the result is canonical by construction since all nodes
    of a cell have equal length. The setup is validated once, and an
    invalid one raises :class:`SetupError`. The nodes and edges are the
    keys that the validation's history walk made.
    """
    report, triangle = _check(setup)
    if triangle is None:
        raise SetupError(report)

    complete, pending = triangle.histories
    action_map: dict[str, tuple[str, ...]] = {}
    player_map: dict[str, str] = {}
    successor_map: dict[tuple[str, str], str] = {}
    cells: dict[str, list[str]] = {}
    for node, point, below in pending:
        action_map[node] = point.actions
        player_map[node] = point.agent
        cells.setdefault(point.id, []).append(node)
        for action, child in zip(point.actions, below):
            successor_map[(node, action)] = child
    outcomes = tuple(complete)
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
